"""Taylor data of a function along rays from the origin.

A radial jet at a point p collects the derivatives d^r/dt^r f(t p) at t = 0.
Summing the degree-r terms over enough directions pins down homogeneous
forms T_r with f ~ sum T_r / r!, the Taylor tower of f.  f is an
expression-backed oracle.  Jets are exact, or fitted by the sphere fit's
discrete Chebyshev projection in one variable (`certify._cheb_design`).  An
exact jet clears the base point and direction to integers over one
denominator and folds the expression program in integer power series of t,
one denominator per series, truncated after the jet's order (Taylor-mode
arithmetic, `_series`); only when some divisor vanishes at the base point
does it fold the program into one unreduced numerator/denominator pair of
integer polynomials in t (a ring of `oracle.fold_fraction`), which cancels
removable singularities and locates poles without taking a gcd.  One
Fraction is built per returned coefficient.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _series as rs
from ._linalg import Vec, clear_denominators, vec
from .certify import _cheb_design
from .forms import HomogeneousForm, TaylorTower, zero_form
from .geometry import Cone, PoleError
from .interpolation import ConeSampleSet, ReconstructionError, reconstruct_form_from_cone
from .oracle import (
    Add, Const, Div, Expression, FractionRing, FunctionOracle, Mul, Neg, Pow, Sub, Var, evaluate_grid, fold,
    fold_fraction, multiply_out,
)


class TaylorError(ValueError):
    pass


@dataclass(frozen=True)
class RadialJet:
    """Derivatives of t -> f(t * direction) at t = 0, orders 0..len-1."""

    direction: Vec
    coefficients: tuple
    mode: str

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


_ZERO = Fraction(0)


class _VanishingDivisor(ArithmeticError):
    """A divisor's series has constant term 0, so series division cannot go on."""


def _cleared(base: Vec, direction: Vec) -> tuple[list[int], list[int], int]:
    """Integers B, P and one D > 0 with base = B / D and direction = P / D."""
    ints, den = clear_denominators(base + direction)
    return ints[: len(base)], ints[len(base) :], den


def _line_truncated(program: Expression, base: Vec, direction: Vec, n: int) -> rs.Series:
    """The first n Taylor coefficients at t = 0 of the program with
    x_i := base_i + t * direction_i, folded in integer power series
    truncated to n terms, one denominator per series (`_series`): with
    base and direction cleared to B / D and P / D, the variable x_i is the
    series ([B_i, P_i], D).  Raises _VanishingDivisor at the first divisor
    whose constant term is 0."""
    bq, pq, den = _cleared(base, direction)

    def divide(a: rs.Series, b: rs.Series) -> rs.Series:
        if not b[0] or b[0][0] == 0:
            raise _VanishingDivisor
        return rs.s_div(a, b, n)

    algebra = {
        Const: lambda c: rs.s_reduce([c.numerator], c.denominator),
        Var: lambda i: rs.s_reduce([bq[i - 1], pq[i - 1]][:n], den),
        Neg: rs.s_neg,
        Add: rs.s_add,
        Sub: rs.s_sub,
        Mul: lambda a, b: rs.s_mul(a, b, n),
        Div: divide,
        Pow: lambda a, k: rs.s_pow(a, k, n),
    }
    return fold(program, algebra)[-1]


def _line_fraction(program: Expression, base: Vec, direction: Vec) -> tuple[rs.Poly, rs.Poly]:
    """The program with x_i := base_i + t * direction_i as one unreduced
    (numerator, denominator) pair of integer polynomials in t, folded by
    `fold_fraction` with its atoms multiplied out: the variable x_i is
    ([B_i, P_i], [D]) for the cleared base and direction.  No gcd is taken:
    `line_series` cancels only the power of t that matters at t = 0."""
    bq, pq, den = _cleared(base, direction)
    one = [1]

    def divisor(n: rs.Poly) -> rs.Poly:
        if not n:
            raise PoleError("the whole line lies inside a zero divisor", tuple(base))
        return n

    def constant(d: int):
        return one if d == 1 else [d]

    ring = FractionRing(
        one,
        lambda c: (rs.p_normalize([c.numerator]), constant(c.denominator)),
        lambda i: (rs.p_normalize([bq[i - 1], pq[i - 1]]), constant(den)),
        rs.p_add, rs.p_neg, rs.p_mul, divisor,
    )
    num, factors = fold_fraction(program, ring)
    return num, multiply_out(ring, factors)


def line_series(f: FunctionOracle, base: Sequence, direction: Sequence, order: int) -> list[Fraction]:
    """Exact Taylor coefficients of t -> f(base + t * direction) at t = 0.

    Base and direction are cleared to integers over one denominator, and
    the program is folded in integer power series truncated to order + 1
    terms.  When a divisor vanishes at the base point, the restriction is
    instead folded into one unreduced fraction of integer polynomials in t
    (`_line_fraction`); the lowest power t^v of its denominator is
    cancelled and the rest expanded, so a removable singularity cancels.
    Both routes give the same exact coefficients wherever the series route
    applies, and one Fraction is built per returned coefficient.

    Raises PoleError when the restriction has a pole at t = 0 or the line
    sits inside a zero of a divisor.  When the base point carries the
    oracle's guard value, the constant term must match it.
    """
    if order < 0:
        raise TaylorError("order must be nonnegative")
    b = vec(base)
    p = vec(direction)
    if len(b) != f.dimension or len(p) != f.dimension:
        raise TaylorError("base or direction dimension mismatch")
    try:
        series = _line_truncated(f.expression, b, p, order + 1)
    except _VanishingDivisor:
        series = None
    if series is None:  # outside the handler, so its PoleErrors carry no _VanishingDivisor context
        num, den = _line_fraction(f.expression, b, p)
        v = next(i for i, c in enumerate(den) if c)
        if any(num[:v]):
            raise PoleError("restriction to the line has a pole at its base point", tuple(b))
        series = rs.s_div((num[v:], 1), (den[v:], 1), order + 1)
    ints, den = series
    coeffs = [Fraction(c, den) for c in ints] + [_ZERO] * (order + 1 - len(ints))
    if f.guard is not None and tuple(b) == tuple(f.guard[0]) and coeffs[0] != f.guard[1]:
        raise PoleError(
            "limit along the line disagrees with the declared value at the base point",
            tuple(b),
        )
    return coeffs


def radial_jet(
    f: FunctionOracle, point: Sequence, order: int, *, mode: str = "exact", window: float = 1.0
) -> RadialJet:
    """Jet of f along the ray through `point`.

    mode "exact" folds the program in power series (`line_series`);
    "fitted" projects the ray's float values at Chebyshev-Lobatto nodes on
    [-window, window] onto Chebyshev polynomials and reads the monomial
    coefficients off the projection (`_fitted_jet`).
    """
    if not isinstance(f, FunctionOracle):
        raise TaylorError("the function must be an expression-backed oracle")
    if mode == "exact":
        p = vec(point)
        zero = (Fraction(0),) * len(p)
        coeffs = line_series(f, zero, p, order)
        tau = tuple(c * math.factorial(r) for r, c in enumerate(coeffs))
        return RadialJet(p, tau, "exact")
    if mode == "fitted":
        return _fitted_jet(f, point, order, window)
    raise TaylorError(f"unknown jet mode {mode!r}")


_GUARD_DEGREES = 4


def _fitted_jet(f: FunctionOracle, point: Sequence, order: int, window: float) -> RadialJet:
    """The sphere fit's discrete Chebyshev projection (`certify._cheb_design`)
    in one variable: the values of t -> f(t * window * point) at the
    Chebyshev-Lobatto nodes, from one `evaluate_grid` call, projected onto
    T_0 .. T_{order + 4} in einsum loops (no BLAS, so the bits do not depend
    on the BLAS thread count), converted to monomials and scaled back from
    the unit interval.  A pole or a non-finite value at a node raises
    PoleError with that node's point."""
    if not window > 0:
        raise TaylorError("window must be positive")
    if order < 0:
        raise TaylorError("order must be nonnegative")
    nodes, _, proj, _, _ = _cheb_design(order + _GUARD_DEGREES)
    coords = [nodes * (window * float(x)) for x in point]
    values, pole = evaluate_grid(f, coords)
    bad = pole | ~np.isfinite(values)
    if bad.any():
        k = int(np.argmax(bad))
        witness = tuple(float(c[k]) for c in coords)
        raise PoleError("the ray has a pole or a non-finite value at a fit node", witness)
    cheb = np.einsum("ik,k->i", proj, values, optimize=False)
    # cheb2poly drops trailing zeros, so a ray where f vanishes needs the padding
    mono = np.r_[np.polynomial.chebyshev.cheb2poly(cheb), np.zeros(order + 1)]
    tau = tuple(float(mono[r]) * math.factorial(r) / window**r for r in range(order + 1))
    return RadialJet(tuple(point), tau, "fitted")


@dataclass(frozen=True)
class TowerFailure:
    degree: int
    kind: str  # "jet-pole" | "held-out" | "singular"
    point: tuple | None
    detail: str


@dataclass(frozen=True)
class TowerResult:
    """Tower assembly outcome.  When `ok` is False the offending degrees are
    listed in `failures` and the tower is zero-padded from the first failure
    on."""

    tower: TaylorTower
    ok: bool
    per_degree_residual: tuple[float, ...]
    failures: tuple[TowerFailure, ...]
    mode: str
    planes_used: int

    def __bool__(self) -> bool:
        return self.ok


def build_tower(
    f: FunctionOracle,
    cone: Cone,
    order: int,
    *,
    mode: str = "auto",
    samples: ConeSampleSet | None = None,
    seed: int | None = None,
    tol: float = 1e-9,
) -> TowerResult:
    """Assemble the Taylor tower of f up to the given order from radial jets
    at sample points inside the cone.

    Each sample point's jet is computed once and reused for every degree: an
    exact jet, or in float mode a jet fitted over the cone's window (1 when
    the cone has none).  Degree r is recovered by an exactly-determined
    solve plus held-out verification; a jet pole or a held-out mismatch
    marks the result failed instead of raising.
    """
    if order < 0:
        raise TaylorError("order must be nonnegative")
    if mode not in ("auto", "exact", "float"):
        raise TaylorError(f"unknown tower mode {mode!r}")
    if not 0 < tol < math.inf:
        raise TaylorError("tol must be positive and finite")
    if not isinstance(f, FunctionOracle):
        raise TaylorError("the function must be an expression-backed oracle")
    if mode == "auto":
        mode = "exact"
    if samples is None:
        samples = ConeSampleSet(cone, random.Random(0 if seed is None else seed))
    n = samples.dimension

    jets: dict[tuple, RadialJet] = {}
    jet_mode = "exact" if mode == "exact" else "fitted"
    window = 1.0 if cone.window is None else float(cone.window)

    def jet_at(p: Vec) -> RadialJet:
        j = jets.get(p)
        if j is None:
            j = radial_jet(f, p, order, mode=jet_mode, window=window)
            jets[p] = j
        return j

    forms: list[HomogeneousForm] = []
    residuals: list[float] = []
    failures: list[TowerFailure] = []
    for r in range(order + 1):
        value_fn = lambda p, _r=r: jet_at(p).coefficients[_r]
        try:
            res = reconstruct_form_from_cone(
                value_fn, cone, r, mode=mode, samples=samples, tol=tol
            )
        except PoleError as exc:
            failures.append(TowerFailure(r, "jet-pole", exc.point, str(exc)))
            break
        except ReconstructionError as exc:
            failures.append(TowerFailure(r, "singular", None, str(exc)))
            break
        residuals.append(res.max_residual)
        if not res.ok:
            failures.append(
                TowerFailure(
                    r,
                    "held-out",
                    res.witness,
                    "held-out jet values disagree with the solved form",
                )
            )
            break
        forms.append(res.form)

    ok = not failures
    while len(forms) <= order:
        forms.append(zero_form(n, len(forms)))
    while len(residuals) <= order:
        residuals.append(math.inf if not ok else 0.0)
    tower = TaylorTower(n, tuple(forms))
    return TowerResult(tower, ok, tuple(residuals), tuple(failures), mode, samples.plane_count())


def line_convergence_radius(tower: TaylorTower, direction: Sequence) -> float:
    """Root-test estimate of the convergence radius of the tower restricted
    to one ray, using only the top half of the available degrees.  Returns
    inf when all of those terms vanish."""
    top = tower.truncation_order
    if top < 4:
        raise TaylorError("need a tower of order at least 4 to estimate a radius")
    rate = 0.0
    for r in range((top + 2) // 2, top + 1):
        a = float(tower.forms[r].evaluate(direction)) / math.factorial(r)
        if a != 0.0:
            rate = max(rate, abs(a) ** (1.0 / r))
    return math.inf if rate == 0.0 else 1.0 / rate
