"""Homogeneous polynomial forms with exact rational coefficients.

A form of degree d in n variables is stored sparsely as a map from
exponent multi-indices to nonzero Fraction coefficients.  The monomial
order everywhere is graded lexicographic: fixed total degree, then
lexicographically descending exponent tuples, so for n=2, d=2 the basis
reads (2,0), (1,1), (0,2).

Composition and multiplication clear denominators and run their inner
loops over plain Python integers; results are rescaled back to Fraction
at the end, so the API stays exact while the hot paths stay fast.
"""

from __future__ import annotations

import math
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


def monomial_basis(n: int, d: int) -> list[MultiIndex]:
    """All exponent tuples of total degree d in n variables, graded-lex order."""
    if n < 1:
        raise FormError("dimension must be at least 1")
    if d < 0:
        raise FormError("degree must be non-negative")
    out: list[MultiIndex] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, n)
    return out


def basis_size(n: int, d: int) -> int:
    return math.comb(n + d - 1, d)


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
            clean[idx] = c
    return clean


@dataclass(frozen=True, eq=False)
class HomogeneousForm:
    """Immutable homogeneous polynomial of a fixed degree."""

    dimension: int
    degree: int
    coefficients: dict[MultiIndex, Fraction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, least in (("dimension", 1), ("degree", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise FormError(f"{name} must be an integer of at least {least}, got {value!r}")
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
        if not isinstance(other, HomogeneousForm):
            return NotImplemented
        if self.dimension != other.dimension:
            raise DimensionMismatchError("cannot add forms of different dimensions")
        if not self.is_zero and not other.is_zero and self.degree != other.degree:
            raise FormError("cannot add forms of different degrees")
        d = other.degree if self.is_zero else self.degree
        terms = dict(self.coefficients)
        for idx, c in other.coefficients.items():
            terms[idx] = terms.get(idx, ZERO) + c
        return HomogeneousForm(self.dimension, d, terms)

    def __sub__(self, other: "HomogeneousForm") -> "HomogeneousForm":
        return self + (-other)

    def __neg__(self) -> "HomogeneousForm":
        return self.scale(-1)

    def scale(self, factor) -> "HomogeneousForm":
        f = frac(factor)
        return HomogeneousForm(
            self.dimension, self.degree, {i: c * f for i, c in self.coefficients.items()}
        )


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
    float input flows through and gives a float."""
    if len(point) != f.dimension:
        raise DimensionMismatchError(
            f"point has length {len(point)}, form dimension is {f.dimension}"
        )
    if not f.coefficients:
        return ZERO if not any(isinstance(x, float) for x in point) else 0.0
    # cache coordinate powers up to the maximum exponent used
    maxes = [0] * f.dimension
    for idx in f.coefficients:
        for i, e in enumerate(idx):
            if e > maxes[i]:
                maxes[i] = e
    powers = []
    for x, m in zip(point, maxes):
        row = [1]
        for _ in range(m):
            row.append(row[-1] * x)
        powers.append(row)
    total = None
    for idx, c in f.coefficients.items():
        term = c
        for i, e in enumerate(idx):
            if e:
                term = term * powers[i][e]
        total = term if total is None else total + term
    return total


def form_from_coefficients(n: int, d: int, coeffs: Sequence, basis: Sequence[MultiIndex] | None = None) -> HomogeneousForm:
    if basis is None:
        basis = monomial_basis(n, d)
    if len(coeffs) != len(basis):
        raise FormError("coefficient vector length does not match basis size")
    return HomogeneousForm(n, d, dict(zip(basis, map(frac, coeffs))))


def _int_mul(p: dict[MultiIndex, int], q: dict[MultiIndex, int]) -> dict[MultiIndex, int]:
    out: dict[MultiIndex, int] = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            v = out.get(key)
            out[key] = ca * cb if v is None else v + ca * cb
    return out


def _int_linear_powers(linear: dict[MultiIndex, int], top: int) -> list[dict[MultiIndex, int]]:
    k = len(next(iter(linear))) if linear else 0
    one = {(0,) * k: 1} if k else {(): 1}
    powers = [one]
    for _ in range(top):
        powers.append(_int_mul(powers[-1], linear))
    return powers


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
    int_coeffs = dict(zip(f.coefficients, coeffs))
    cols = [clear_denominators(col) for col in zip(*rows)]
    col_den = [den for _, den in cols]
    int_cols = list(zip(*(col for col, _ in cols)))

    maxes = [0] * n
    for idx in int_coeffs:
        for i, e in enumerate(idx):
            if e > maxes[i]:
                maxes[i] = e
    zero_k = (0,) * k
    power_tables = []
    for i in range(n):
        linear = {}
        for j, c in enumerate(int_cols[i]):
            if c:
                key = tuple(1 if t == j else 0 for t in range(k))
                linear[key] = c
        if not linear and maxes[i] > 0:
            power_tables.append(None)  # variable maps to zero
        else:
            power_tables.append(_int_linear_powers(linear, maxes[i]) if linear else [{zero_k: 1}])

    acc: dict[MultiIndex, int] = {}
    for idx, c in int_coeffs.items():
        prod: dict[MultiIndex, int] | None = {zero_k: c}
        for i, e in enumerate(idx):
            if not e:
                continue
            table = power_tables[i]
            if table is None:
                prod = None
                break
            prod = _int_mul(prod, table[e])
        if prod is None:
            continue
        for key, v in prod.items():
            cur = acc.get(key)
            acc[key] = v if cur is None else cur + v

    terms: dict[MultiIndex, Fraction] = {}
    for key, v in acc.items():
        if not v:
            continue
        den = den_f
        for j, e in enumerate(key):
            if e:
                den *= col_den[j] ** e
        terms[key] = Fraction(v, den)
    return HomogeneousForm(k, f.degree, terms)


def multiply(f: HomogeneousForm, g: HomogeneousForm) -> HomogeneousForm:
    """Product of two forms; degrees add."""
    if f.dimension != g.dimension:
        raise DimensionMismatchError("cannot multiply forms of different dimensions")
    if f.is_zero or g.is_zero:
        return zero_form(f.dimension, f.degree + g.degree)
    fi, den_f = clear_denominators(f.coefficients.values())
    gi, den_g = clear_denominators(g.coefficients.values())
    prod = _int_mul(dict(zip(f.coefficients, fi)), dict(zip(g.coefficients, gi)))
    den = den_f * den_g
    return HomogeneousForm(
        f.dimension, f.degree + g.degree, {i: Fraction(v, den) for i, v in prod.items() if v}
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
