"""Homogeneous polynomial forms with exact rational coefficients.

A form of degree d in n variables is stored sparsely as a map from
exponent multi-indices to nonzero Fraction coefficients.  The monomial
order everywhere is graded lexicographic: fixed total degree, then
lexicographically descending exponent tuples, so for n=2, d=2 the basis
reads (2,0), (1,1), (0,2).

Composition and multiplication clear denominators and run their inner
loops over plain Python integers; results are rescaled back to Fraction
at the end, so the API stays exact while the hot paths stay fast.  Inside
those loops a monomial u^e of a degree-d result is the packed integer
sum(e_j * (d+1)**j): no exponent exceeds d, so packing is one-to-one and a
monomial product is one integer addition.  Keys are unpacked only when the
result's Fractions are built.  Evaluation at a rational point runs the same
way: the point is q / D with q an integer vector, and f(q / D) is the one
Fraction sum(k_e * q^e) / (den_f * D**d).

Every form holds the shared tuple for each of its exponents (`_shared`), so
forms of one shape do not each carry their own copies of the same keys.
The public constructor validates its terms; the library builds its own
forms with `HomogeneousForm._trusted`, which skips that check.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from ._linalg import clear_denominators, frac

MultiIndex = tuple[int, ...]

ZERO = Fraction(0)


class FormError(ValueError):
    pass


class DimensionMismatchError(FormError):
    pass


# one stored tuple per distinct exponent; past the cap new exponents are
# used as they come, unshared
_KEYS: dict[MultiIndex, MultiIndex] = {}
_KEYS_MAX = 1 << 16


def _shared(idx: MultiIndex) -> MultiIndex:
    """The stored tuple equal to idx, stored first if it is new."""
    if len(_KEYS) < _KEYS_MAX:
        return _KEYS.setdefault(idx, idx)
    return _KEYS.get(idx, idx)


def monomial_basis(n: int, d: int) -> list[MultiIndex]:
    """All exponent tuples of total degree d in n variables, graded-lex order.

    The tuples are the shared keys (see `_shared`).  The prefixes of the
    first k exponents are extended one slot at a time, each by its possible
    next exponents in descending order, so the list comes out sorted."""
    if n < 1:
        raise FormError("dimension must be at least 1")
    if d < 0:
        raise FormError("degree must be non-negative")
    level: list[tuple[MultiIndex, int]] = [((), d)]
    for _ in range(n - 1):
        level = [(prefix + (e,), left - e) for prefix, left in level for e in range(left, -1, -1)]
    return [_shared(prefix + (left,)) for prefix, left in level]


def basis_size(n: int, d: int) -> int:
    return math.comb(n + d - 1, d)


def _check_shape(n: int, d: int) -> None:
    for name, value, least in (("dimension", n, 1), ("degree", d, 0)):
        if not isinstance(value, int) or isinstance(value, bool) or value < least:
            raise FormError(f"{name} must be an integer of at least {least}, got {value!r}")


def _validate_terms(n: int, d: int, terms: Mapping[MultiIndex, Fraction]) -> dict[MultiIndex, Fraction]:
    clean: dict[MultiIndex, Fraction] = {}
    for idx, coeff in terms.items():
        idx = tuple(int(e) for e in idx)
        if len(idx) != n:
            raise DimensionMismatchError(f"multi-index {idx} has length {len(idx)}, expected {n}")
        if any(e < 0 for e in idx):
            raise FormError(f"negative exponent in {idx}")
        if sum(idx) != d:
            raise FormError(f"multi-index {idx} has degree {sum(idx)}, expected {d}")
        c = frac(coeff)
        if c != 0:
            clean[_shared(idx)] = c
    return clean


@dataclass(frozen=True, eq=False, slots=True)
class HomogeneousForm:
    """Immutable homogeneous polynomial of a fixed degree."""

    dimension: int
    degree: int
    coefficients: dict[MultiIndex, Fraction] = field(default_factory=dict)

    @classmethod
    def _trusted(cls, n: int, d: int, terms: dict[MultiIndex, Fraction]) -> "HomogeneousForm":
        """A form from terms the library built: n >= 1 and d >= 0 are ints,
        and terms maps shared keys of length n and degree d to nonzero
        Fractions.  Nothing is checked or copied."""
        form = object.__new__(cls)
        object.__setattr__(form, "dimension", n)
        object.__setattr__(form, "degree", d)
        object.__setattr__(form, "coefficients", terms)
        return form

    def __post_init__(self) -> None:
        _check_shape(self.dimension, self.degree)
        object.__setattr__(
            self, "coefficients", _validate_terms(self.dimension, self.degree, self.coefficients)
        )

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        if self.dimension != other.dimension:
            return False
        # the zero form compares equal across declared degrees
        if self.is_zero and other.is_zero:
            return True
        return self.degree == other.degree and self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash((self.dimension, self.degree if self.coefficients else -1,
                     frozenset(self.coefficients.items())))

    def __repr__(self) -> str:
        return f"HomogeneousForm(n={self.dimension}, d={self.degree}, {len(self.coefficients)} terms)"

    def evaluate(self, point: Sequence) -> Fraction:
        return evaluate_form(self, point)

    def __add__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self._combine(other, operator.add)

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self._combine(other, operator.sub)

    def _combine(self, other, op) -> "HomogeneousForm":
        """self + other or self - other, built as one form."""
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        if self.dimension != other.dimension:
            raise DimensionMismatchError("cannot add forms of different dimensions")
        if not self.is_zero and not other.is_zero and self.degree != other.degree:
            raise FormError("cannot add forms of different degrees")
        d = other.degree if self.is_zero else self.degree
        # self's terms, then other's new ones, zeros dropped; the dict is
        # built by insertion, so it is no larger than its terms need
        mine, theirs = self.coefficients, other.coefficients
        terms = {}
        for idx, c in mine.items():
            if idx in theirs:
                c = op(c, theirs[idx])
            if c:
                terms[idx] = c
        for idx, c in theirs.items():
            if idx not in mine:
                terms[idx] = op(ZERO, c)
        return HomogeneousForm._trusted(self.dimension, d, terms)

    def __neg__(self) -> "HomogeneousForm":
        return self.scale(-1)

    def scale(self, factor) -> "HomogeneousForm":
        f = frac(factor)
        terms = {i: c * f for i, c in self.coefficients.items()} if f else {}
        return HomogeneousForm._trusted(self.dimension, self.degree, terms)


def zero_form(n: int, d: int) -> HomogeneousForm:
    return HomogeneousForm(n, d, {})


def constant_form(n: int, value) -> HomogeneousForm:
    return HomogeneousForm(n, 0, {(0,) * n: frac(value)})


def linear_form(coeffs: Sequence) -> HomogeneousForm:
    n = len(coeffs)
    terms = {}
    for i, c in enumerate(coeffs):
        idx = tuple(1 if j == i else 0 for j in range(n))
        terms[idx] = frac(c)
    return HomogeneousForm(n, 1, terms)


def monomial(n: int, idx: MultiIndex, coeff=1) -> HomogeneousForm:
    return HomogeneousForm(n, sum(idx), {tuple(idx): frac(coeff)})


def evaluate_form(f: HomogeneousForm, point: Sequence) -> Fraction:
    """Evaluate f at a point.  Rational input gives exact rational output;
    float input flows through and gives a float.

    A point of ints and Fractions is q / D with q an integer vector, and the
    value is built as one Fraction, sum(k_e * q^e) / (den_f * D**d), from the
    coefficients k_e / den_f cleared to integers.  Any other point runs the
    term-by-term loop in the point's own arithmetic."""
    if len(point) != f.dimension:
        raise DimensionMismatchError(
            f"point has length {len(point)}, form dimension is {f.dimension}"
        )
    if not f.coefficients:
        return ZERO if not any(isinstance(x, float) for x in point) else 0.0
    if all(isinstance(x, (int, Fraction)) for x in point):
        ints, den_f = clear_denominators(f.coefficients.values())
        q, den = clear_denominators(point)
        return Fraction(integer_value(f.coefficients, ints, q), den_f * den**f.degree)
    powers = _powers(point, f.coefficients)
    total = None
    for idx, c in f.coefficients.items():
        term = c
        for i, e in enumerate(idx):
            if e:
                term = term * powers[i][e]
        total = term if total is None else total + term
    return total


def _powers(point: Sequence, keys: Sequence[MultiIndex]) -> list[list]:
    """Each coordinate's powers 1, x, x^2, ... up to the largest exponent
    that the nonempty keys give it."""
    powers = []
    for x, top in zip(point, map(max, zip(*keys))):
        row = [1]
        for _ in range(top):
            row.append(row[-1] * x)
        powers.append(row)
    return powers


def integer_value(keys: Sequence[MultiIndex], ints: Sequence[int], q: Sequence[int]) -> int:
    """sum(k * q^e) over the exponents e in keys and the integers k in ints,
    at the integer point q."""
    powers = _powers(q, keys)
    total = 0
    for idx, k in zip(keys, ints):
        for row, e in zip(powers, idx):
            if e:
                k *= row[e]
        total += k
    return total


def form_from_coefficients(n: int, d: int, coeffs: Sequence) -> HomogeneousForm:
    """The form with the given coefficients in `monomial_basis(n, d)` order."""
    basis = monomial_basis(n, d)
    if len(coeffs) != len(basis):
        raise FormError("coefficient vector length does not match basis size")
    _check_shape(n, d)  # monomial_basis made the keys shared and valid
    return HomogeneousForm._trusted(n, d, {i: c for i, c in zip(basis, map(frac, coeffs)) if c})


def _mul_packed(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    get = out.get
    terms = q.items()
    for a, ca in p.items():
        for b, cb in terms:
            key = a + b
            out[key] = get(key, 0) + ca * cb
    return out


def _pack(idx: MultiIndex, base: int) -> int:
    return sum(e * base**j for j, e in enumerate(idx))


def _unpack(key: int, base: int, k: int) -> MultiIndex:
    return _shared(tuple(key // base**j % base for j in range(k)))


def compose_linear(f: HomogeneousForm, matrix: Sequence[Sequence]) -> HomogeneousForm:
    """Compose f with a linear map: returns f(A u) in the target variables.

    `matrix` has one row per variable of f and one column per new variable.
    Composition is exact and degree-preserving.
    """
    n = f.dimension
    rows = [tuple(frac(x) for x in r) for r in matrix]
    if len(rows) != n:
        raise DimensionMismatchError(f"matrix has {len(rows)} rows, form dimension is {n}")
    k = len(rows[0]) if rows else 0
    if any(len(r) != k for r in rows):
        raise FormError("ragged substitution matrix")
    if k < 1:
        raise FormError("target dimension must be at least 1")
    if f.is_zero:
        return zero_form(k, f.degree)

    coeffs, den_f = clear_denominators(f.coefficients.values())
    cols = [clear_denominators(col) for col in zip(*rows)]
    col_den = [den for _, den in cols]
    int_rows = list(zip(*(col for col, _ in cols)))

    # the powers L_i**e of each row's linear form in u, up to the largest
    # exponent f uses; a row of zeros has the empty dict past e = 0
    base = f.degree + 1
    tables = []
    for i in range(n):
        linear = {base**j: c for j, c in enumerate(int_rows[i]) if c}
        table = [{0: 1}]
        for _ in range(max(idx[i] for idx in f.coefficients)):
            table.append(_mul_packed(table[-1], linear))
        tables.append(table)

    acc: dict[int, int] = {}
    for idx, c in zip(f.coefficients, coeffs):
        prod = {0: c}
        for table, e in zip(tables, idx):
            if e:
                prod = _mul_packed(prod, table[e])
        for key, v in prod.items():
            acc[key] = acc.get(key, 0) + v

    terms: dict[MultiIndex, Fraction] = {}
    for key, v in acc.items():
        if v:
            idx = _unpack(key, base, k)
            terms[idx] = Fraction(v, den_f * math.prod(map(pow, col_den, idx)))
    return HomogeneousForm._trusted(k, f.degree, terms)


def multiply(f: HomogeneousForm, g: HomogeneousForm) -> HomogeneousForm:
    """Product of two forms; degrees add."""
    if f.dimension != g.dimension:
        raise DimensionMismatchError("cannot multiply forms of different dimensions")
    n, d = f.dimension, f.degree + g.degree
    if f.is_zero or g.is_zero:
        return zero_form(n, d)
    fi, den_f = clear_denominators(f.coefficients.values())
    gi, den_g = clear_denominators(g.coefficients.values())
    base = d + 1
    prod = _mul_packed(
        {_pack(idx, base): c for idx, c in zip(f.coefficients, fi)},
        {_pack(idx, base): c for idx, c in zip(g.coefficients, gi)},
    )
    den = den_f * den_g
    return HomogeneousForm._trusted(
        n, d, {_unpack(key, base, n): Fraction(v, den) for key, v in prod.items() if v}
    )


@dataclass(frozen=True)
class TaylorTower:
    """A truncated tower of homogeneous forms: forms[r] has degree r."""

    dimension: int
    forms: tuple[HomogeneousForm, ...]

    def __post_init__(self) -> None:
        for r, f in enumerate(self.forms):
            if f.dimension != self.dimension:
                raise DimensionMismatchError("tower entry dimension mismatch")
            if not f.is_zero and f.degree != r:
                raise FormError(f"tower entry {r} has degree {f.degree}")
        object.__setattr__(
            self,
            "forms",
            tuple(
                f if f.degree == r else HomogeneousForm(self.dimension, r, f.coefficients)
                for r, f in enumerate(self.forms)
            ),
        )

    @property
    def truncation_order(self) -> int:
        return len(self.forms) - 1

    def evaluate(self, point: Sequence, order: int | None = None):
        return tower_evaluate(self, point, order)


def tower_evaluate(tower: TaylorTower, point: Sequence, order: int | None = None):
    """Sum of forms[r](point)/r! up to the requested order (default: all)."""
    top = tower.truncation_order if order is None else order
    if top > tower.truncation_order:
        raise FormError(
            f"order {top} exceeds tower truncation {tower.truncation_order}"
        )
    total = None
    fact = 1
    for r in range(top + 1):
        if r:
            fact *= r
        term = evaluate_form(tower.forms[r], point) / fact
        total = term if total is None else total + term
    return total if total is not None else ZERO
