"""Analyticity verdicts for restrictions of a function to planes and
2-spheres.

`check_plane_analytic` is the one chart check, and it has two routes.
Polynomial functions (detected, or declared through an integer degree
bound) are verified exactly: the restriction is sampled on a tensor grid of
rational nodes, and the tensor interpolant's values at held-out nodes (one
cached integer Lagrange matrix per degree applied to the node values) must
equal the restriction's there, compared in integers.  Agreement is a pass
with residual zero; a disagreement is a "fail" report carrying the first
disagreeing point and the gap there.
Everything else goes through a float route: a total-degree Chebyshev fit
over a window, a held-out residual, and a falsifier that walks valleys of
the pulled-back denominator looking for blow-ups the fit grid missed.

Sphere restrictions are reduced to plane checks through inversions: one
centered at the origin (covering the sphere away from 0) and one centered
at a sphere point p (covering a neighborhood of 0 on the sphere).  For a
polynomial f of degree d, each pullback g is cleared to g * q^d, with q
the inversion's |y|^2 or |y - p|^2, and checked exactly with declared
degree 2d.
"""

from __future__ import annotations

import math
import operator
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from typing import Callable, Sequence

import numpy as np

from . import _linalg as la
from ._linalg import frac, vec
from .geometry import (
    AffinePlane2,
    DegenerateSphereError,
    GeometryError,
    PoleError,
    SphereThroughOrigin,
    carrier_to_ambient,
    invert_mu,
    invert_mu_centered,
    norm_sq,
    sphere_to_plane,
    tidy_plane_basis,
)
from .oracle import (
    Add,
    Const,
    Div,
    Expression,
    FunctionOracle,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    degree_bound,
    evaluate_grid,
    evaluate_oracle,
    fold,
    substitute,
    to_float,
)

_FIT_GUARD = 4
_VALLEY_SCALES = 15
_BLOW_FACTOR = 1e6


class CertifyError(ValueError):
    pass


@dataclass(frozen=True)
class PlaneReport:
    """Verdict for one plane: "pass", "fail" (finite disagreement or
    blow-up), or "pole" (a denominator vanished at a probed point).
    Pass always means the residual cleared the tolerance and no pole
    was encountered.

    `falsifier` says what became of the denominator-valley falsifier:
    "ran"; "skipped-cap" (the pulled-back denominator outgrew the size cap);
    "skipped-zero-divisor" (a divisor pulled back to zero);
    "skipped-nonfinite" (a coefficient of the pullback overflowed or turned
    NaN); "constant-denominator" (no valleys to walk); or "off" (the exact
    route, or a fit that already failed).  It is not part of the JSON
    reports.

    On the exact route `fit_degree` holds the degree bound that was checked
    (2d for a sphere chart of a degree-d polynomial), and a "fail" carries
    the first check point where the restriction left its tensor
    interpolant, with the relative gap there as the residual."""

    plane: AffinePlane2
    verdict: str
    residual: float
    witness: tuple | None
    mode: str
    fit_degree: int
    window: float
    detail: str = ""
    falsifier: str = "off"

    def __bool__(self) -> bool:
        return self.verdict == "pass"


# ---------------------------------------------------------------------------
# exact route: tensor interpolation of a known-polynomial restriction


@lru_cache(maxsize=None)
def _check_matrix(degree: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The Lagrange basis of the degree+1 interpolation nodes at the
    degree+2 check nodes, as an integer matrix C over one denominator c:
    C[a][i] = c * l_i(check_a).  Both node sets scale with the window, so C
    does not depend on it."""
    d = degree
    # the nodes in units of window / (3d(d+1)), where all of them are
    # integers; for d = 0 every product is empty and C is a column of ones
    xs = [3 * (d + 1) * (2 * i - d) for i in range(d + 1)]
    ys = [d * (6 * a - 3 * d + 1) for a in range(d + 2)]
    basis, c = la.clear_denominators(
        Fraction(
            math.prod(y - xj for xj in xs if xj != xi),
            math.prod(xi - xj for xj in xs if xj != xi),
        )
        for y in ys
        for xi in xs
    )
    return tuple(tuple(basis[a : a + d + 1]) for a in range(0, len(basis), d + 1)), c


def _exact_tensor_check(value_fn: Callable, degree: int, window: Fraction):
    """Check that value_fn agrees on held-out nodes with its tensor
    interpolant on a (degree+1)^2 rational grid.  Returns None on agreement,
    else the first disagreeing chart point (s, t) in row-major order and the
    relative disagreement there.

    The interpolant is never built.  Its value at check nodes (s_a, t_b) is
    sum_ij C[a][i] C[b][j] V[i][j] / (c^2 den), with C, c the cached Lagrange
    matrix of `_check_matrix` and V the node values over their common
    denominator den, and it is compared with value_fn by cross-multiplying,
    so every prediction and comparison runs on integers."""
    d = degree
    w = frac(window)
    nodes = [Fraction(0)] if d == 0 else [w * Fraction(2 * i - d, d) for i in range(d + 1)]
    values, den = la.clear_denominators(value_fn(s, t) for s in nodes for t in nodes)
    columns = [values[j :: d + 1] for j in range(d + 1)]
    cmat, c = _check_matrix(d)
    scale = c * c * den

    offset = w * Fraction(1, 3 * (d + 1))
    check = [w * Fraction(2 * i - d, d + 1) + offset for i in range(d + 2)]
    for s, cs in zip(check, cmat):
        # c * den times the interpolant along s = s_a, at the t nodes
        line = [sum(map(operator.mul, cs, col)) for col in columns]
        for t, ct in zip(check, cmat):
            predicted = sum(map(operator.mul, ct, line))
            actual = value_fn(s, t)
            if predicted * actual.denominator != actual.numerator * scale:
                gap = Fraction(predicted, scale) - actual
                return (s, t), float(abs(gap)) / max(1.0, float(abs(actual)))
    return None


# ---------------------------------------------------------------------------
# float route: Chebyshev fit plus denominator-valley falsifier


@lru_cache(maxsize=None)
def _cheb_design(total: int):
    """The Chebyshev fit's grids and design for total degree `total`: the
    m Chebyshev-Lobatto nodes, the monomial index pairs (i, j) with
    i + j <= total, the design T_i(s) T_j(t) at the m x m node grid in
    row-major order, and the m + 2 held-out (Chebyshev-Gauss) nodes.  A
    fit uses the whole grid or returns "pole", so nothing here depends on
    the function; the arrays are read-only because every fit shares them."""
    m = total + 3
    nodes = np.cos(np.pi * np.arange(m) / (m - 1))
    pairs = tuple((i, j) for i in range(total + 1) for j in range(total + 1 - i))
    cs = np.polynomial.chebyshev.chebvander(np.repeat(nodes, m), total)
    ct = np.polynomial.chebyshev.chebvander(np.tile(nodes, m), total)
    design = np.stack([cs[:, i] * ct[:, j] for i, j in pairs], axis=1)
    mh = m + 2
    held_nodes = np.cos(np.pi * (2 * np.arange(mh) + 1) / (2 * mh))
    for a in (nodes, design, held_nodes):
        a.setflags(write=False)
    return nodes, pairs, design, held_nodes


def _cheb_fit(f: FunctionOracle, plane: AffinePlane2, window: float, fit_degree: int):
    """Total-degree Chebyshev fit of the restriction over the window.
    Returns (status, residual, witness, grid_max); status is "ok" or
    "pole"."""
    total = fit_degree + _FIT_GUARD
    nodes, pairs, design, held_nodes = _cheb_design(total)
    base, b1, b2 = plane.float_coordinates

    def sample_grid(xs: np.ndarray):
        """The restriction on the xs x xs grid, flattened row-major, or None
        and the first point that is a pole or not finite."""
        w = window * xs
        s, t = w[:, None], w[None, :]
        # point_at_float's x + s*u + t*v, coordinate by coordinate
        values, pole = evaluate_grid(f, [x + s * u + t * v for x, u, v in zip(base, b1, b2)])
        bad = (pole | ~np.isfinite(values)).ravel()
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), len(xs))
            return None, plane.point_at_float(window * xs[i], window * xs[j])
        return values.ravel(), None

    fv, bad = sample_grid(nodes)
    if fv is None:
        return "pole", math.inf, bad, 0.0
    grid_max = float(np.max(np.abs(fv)))

    coef, *_ = np.linalg.lstsq(design, fv, rcond=None)
    cmat = np.zeros((total + 1, total + 1))
    for (i, j), c in zip(pairs, coef):
        cmat[i, j] = c
    node_resid = float(np.max(np.abs(design @ coef - fv)))

    hv, bad = sample_grid(held_nodes)
    if hv is None:
        return "pole", math.inf, bad, grid_max
    mh = len(held_nodes)
    hs, ht = np.repeat(held_nodes, mh), np.tile(held_nodes, mh)
    pred = np.polynomial.chebyshev.chebval2d(hs, ht, cmat)
    errs = np.abs(pred - hv)
    k = int(np.argmax(errs))
    held_resid = float(errs[k])
    scale = max(1.0, grid_max, float(np.max(np.abs(hv))))
    residual = max(node_resid, held_resid) / scale
    witness = plane.point_at_float(window * float(hs[k]), window * float(ht[k]))
    return "ok", residual, witness, max(grid_max, float(np.max(np.abs(hv))))


class _ScanCap(Exception):
    """The valley denominator cannot be built; args[0] is the falsifier
    status to report ("skipped-cap", "skipped-zero-divisor" or
    "skipped-nonfinite")."""


def _poly2_mul(a: np.ndarray, b: np.ndarray, cap: int) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
    if out.shape[0] > cap or out.shape[1] > cap:
        raise _ScanCap("skipped-cap")
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            c = a[i, j]
            if c != 0.0:
                out[i : i + b.shape[0], j : j + b.shape[1]] += c * b
    return out


def _poly2_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    r = max(a.shape[0], b.shape[0])
    c = max(a.shape[1], b.shape[1])
    out = np.zeros((r, c))
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] += b
    return out


def _pullback_fraction(e: Expression, var_polys: list[np.ndarray], cap: int):
    """Float numerator/denominator coefficient arrays (in the chart
    coordinates s, t) for an expression pulled back to a plane.
    A coefficient that overflows or turns NaN (an infinite constant makes
    every operation on it do so) raises _ScanCap("skipped-nonfinite")."""
    one = np.ones((1, 1))
    mul = partial(_poly2_mul, cap=cap)

    def norm(n, d):
        m = max(float(np.max(np.abs(n))), float(np.max(np.abs(d))))
        if m > 1e120 or (0.0 < m < 1e-120):
            n = n / m
            d = d / m
        return n, d

    def add(negate):
        def step(a, b):
            (n1, d1), (n2, d2) = a, b
            t2 = mul(n2, d1)
            return norm(_poly2_add(mul(n1, d2), -t2 if negate else t2), mul(d1, d2))

        return step

    def div(a, b):
        (n1, d1), (n2, d2) = a, b
        if not np.any(n2):
            raise _ScanCap("skipped-zero-divisor")
        return norm(mul(n1, d2), mul(d1, n2))

    def power(a, k):
        n, d = a
        rn, rd = one, one
        while k:
            if k & 1:
                rn, rd = norm(mul(rn, n), mul(rd, d))
            k >>= 1
            if k:
                n, d = norm(mul(n, n), mul(d, d))
        return rn, rd

    algebra = {
        Const: lambda v: (np.array([[to_float(v)]]), one),
        Var: lambda i: (var_polys[i - 1], one),
        Neg: lambda a: (-a[0], a[1]),
        Add: add(False),
        Sub: add(True),
        Mul: lambda a, b: norm(mul(a[0], b[0]), mul(a[1], b[1])),
        Div: div,
        Pow: power,
    }
    try:
        with np.errstate(over="raise", invalid="raise"):
            return fold(e, algebra)[-1]
    except FloatingPointError:
        raise _ScanCap("skipped-nonfinite") from None


def _golden_min(
    fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, iters: int = 96
) -> np.ndarray:
    """Golden-section minimisers of fn over the intervals [lo, hi], run
    elementwise: fn maps an array of abscissae to an array of values, one
    per interval.  Each element takes the branches and floating-point steps
    of a scalar search, so its result does not depend on the batch."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        left = fc <= fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        step = ratio * (b - a)
        x = np.where(left, b - step, a + step)
        fx = fn(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return 0.5 * (a + b)


def _valley_scan(
    f: FunctionOracle, plane: AffinePlane2, window: float, grid_max: float, status: list[str]
):
    """Walk minima of |denominator| along lines with one chart coordinate
    pinned to +-window/2^k and probe the function there.  Returns None, or
    ("fail"|"pole", witness, magnitude) on a blow-up.  The blow-up bar does
    not depend on the fit tolerance.

    All lines are searched in one batched golden-section pass; the function
    is then probed at the minimisers in line order, so the first hit is the
    one a line-by-line walk would find.  The falsifier status is appended
    to `status`: "ran", "skipped-cap", "skipped-zero-divisor",
    "skipped-nonfinite" or "constant-denominator"."""
    base, b1, b2 = plane.float_coordinates
    var_polys = [
        np.array([[base[i], b2[i]], [b1[i], 0.0]]) for i in range(len(base))
    ]
    try:
        _, den = _pullback_fraction(f.expression, var_polys, cap=65)
    except _ScanCap as exc:
        status.append(exc.args[0])
        return None
    if den.size == 1:
        status.append("constant-denominator")
        return None
    status.append("ran")

    blow = _BLOW_FACTOR * max(1.0, grid_max)
    pv = np.polynomial.polynomial.polyval
    grid = np.linspace(-window, window, 257)
    lines = [
        (axis, sign * window * 0.5**k)
        for axis in (0, 1)
        for sign in (1.0, -1.0)
        for k in range(_VALLEY_SCALES)
    ]
    on_s = np.array([axis == 0 for axis, _ in lines])
    on_t = ~on_s
    pins = np.array([pinned for _, pinned in lines])

    # polyval2d(s, t, den) is polyval(t, polyval(s, den), tensor=False).  The
    # inner pass depends on s alone, so it runs once at the pinned s values
    # and once on the s grid rather than once per line and step; every
    # element still goes through polyval2d's floating-point operations.
    at_pins = pv(pins, den)
    at_grid = pv(grid, den)
    along = np.empty((len(lines), grid.size))
    along[on_s] = np.abs(pv(grid, at_pins[:, on_s]))
    along[on_t] = np.abs(pv(pins[on_t], at_grid)).T
    i = np.argmin(along, axis=1)
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, len(grid) - 1)]

    def den_abs(u: np.ndarray) -> np.ndarray:
        inner = at_pins.copy()
        inner[:, on_t] = pv(u[on_t], den)
        return np.abs(pv(np.where(on_s, u, pins), inner, tensor=False))

    minimisers = _golden_min(den_abs, lo, hi)
    for (axis, pinned), u in zip(lines, minimisers):
        s, t = (pinned, u) if axis == 0 else (u, pinned)
        x = plane.point_at_float(s, t)
        try:
            v = float(evaluate_oracle(f, x, mode="float"))
        except PoleError:
            return ("pole", x, math.inf)
        if not math.isfinite(v):
            return ("pole", x, math.inf)
        if abs(v) > blow:
            return ("fail", x, abs(v))
    return None


def check_plane_analytic(
    f: FunctionOracle,
    plane: AffinePlane2,
    *,
    tol: float = 1e-9,
    fit_degree: int = 12,
    window=Fraction(1, 10),
    degree_hint="auto",
) -> PlaneReport:
    """Is the restriction of f to the plane real-analytic over the window?

    Polynomial functions (detected automatically, or declared through an
    integer `degree_hint`) are settled exactly: residual 0, or a "fail" with
    a witness where the restriction is no polynomial of that degree.
    Otherwise a Chebyshev fit of total degree `fit_degree` (plus guard
    terms) must reproduce held-out samples within `tol` relative error, and
    a denominator-valley falsifier gets a chance to disprove the fit's
    verdict.
    A pass is a diagnostic at this window and resolution, never a proof.
    """
    if not isinstance(f, FunctionOracle):
        raise CertifyError("the function must be an expression-backed oracle")
    if plane.dimension != f.dimension:
        raise CertifyError("plane and function dimensions differ")
    if not 0 < tol < math.inf:
        raise CertifyError("tol must be positive and finite")
    if fit_degree < 2:
        raise CertifyError("fit_degree must be at least 2")
    wf = to_float(window)
    if not (wf > 0 and math.isfinite(wf)):
        raise CertifyError("window must be positive and finite")
    bound = degree_bound(f.expression) if degree_hint == "auto" else degree_hint
    if bound is not None:
        if bound < 0:
            raise CertifyError("degree_hint must be nonnegative")
        try:
            bad = _exact_tensor_check(lambda s, t: f.evaluate(plane.point_at(s, t)), bound, window)
        except PoleError as exc:
            return PlaneReport(
                plane, "pole", math.inf, exc.point, "exact", bound, wf,
                "denominator vanishes at a probed point",
            )
        if bad is None:
            return PlaneReport(plane, "pass", 0.0, None, "exact", bound, wf)
        (s, t), gap = bad
        return PlaneReport(
            plane, "fail", gap, plane.point_at(s, t), "exact", bound, wf,
            "restriction is not a polynomial of the expected degree",
        )

    status, residual, witness, grid_max = _cheb_fit(f, plane, wf, fit_degree)
    if status == "pole":
        return PlaneReport(
            plane, "pole", math.inf, witness, "float", fit_degree, wf,
            "denominator vanishes at a probed point",
        )
    if residual > tol:
        return PlaneReport(
            plane, "fail", residual, witness, "float", fit_degree, wf,
            "fit does not reproduce held-out samples",
        )
    status: list[str] = []
    hit = _valley_scan(f, plane, wf, grid_max, status)
    falsifier = status[0]
    if hit is not None:
        verdict, where, magnitude = hit
        return PlaneReport(
            plane, verdict, magnitude, where, "float", fit_degree, wf,
            "blow-up along a denominator valley", falsifier,
        )
    return PlaneReport(plane, "pass", residual, None, "float", fit_degree, wf, "", falsifier)


# ---------------------------------------------------------------------------
# sphere restrictions via inversions


def _inversion_square(n: int, center: Sequence | None = None) -> Expression:
    """|y|^2, or |y - p|^2 for the inversion centered at p: the divisor of
    an inversion pullback, and what the exact scan clears it with."""
    if center is None:
        return reduce(Add, [Pow(Var(i), 2) for i in range(1, n + 1)])
    return reduce(Add, [Pow(Sub(Var(i), Const(center[i - 1])), 2) for i in range(1, n + 1)])


def pullback_through_inversion(f: FunctionOracle, sphere: SphereThroughOrigin):
    """The composition f(mu(y)) with mu(y) = y/|y|^2, together with the
    plane that mu maps the sphere onto.  The plane stays away from the
    origin, so the pullback needs no guard of its own."""
    n = f.dimension
    if sphere.dimension != n:
        raise CertifyError("sphere and function dimensions differ")
    q = _inversion_square(n)
    mapping = {i: Div(Var(i), q) for i in range(1, n + 1)}
    expr = substitute(f.expression, mapping)
    guard = None
    if f.guard is not None and any(x != 0 for x in f.guard[0]):
        guard = (invert_mu(f.guard[0]), f.guard[1])
    return FunctionOracle(expr, n, guard), sphere_to_plane(sphere)


def pullback_through_centered_inversion(
    f: FunctionOracle, sphere: SphereThroughOrigin, point: Sequence
):
    """The composition f(mu_p(y)) for the inversion centered at a sphere
    point p, with the plane mu_p maps the sphere onto.  The chart covers a
    neighborhood of the origin on the sphere: the plane's base point is the
    image of 0, and f's guard value is carried over to it."""
    n = f.dimension
    if sphere.dimension != n:
        raise CertifyError("sphere and function dimensions differ")
    p = vec(point)
    if all(x == 0 for x in p):
        raise CertifyError("the inversion center must not be the origin")
    if not sphere.contains(p):
        raise CertifyError("the inversion center must lie on the sphere")

    q = _inversion_square(n, p)
    mapping = {
        i: Add(Div(Sub(Var(i), Const(p[i - 1])), q), Const(p[i - 1]))
        for i in range(1, n + 1)
    }
    expr = substitute(f.expression, mapping)
    guard = None
    if f.guard is not None and tuple(f.guard[0]) != tuple(p):
        guard = (invert_mu_centered(f.guard[0], p), f.guard[1])

    ns = norm_sq(p)
    z0 = tuple(x - x / ns for x in p)
    c2p = tuple(ci - 2 * pi for ci, pi in zip(sphere.c, p))
    row = tuple(la.dot(c2p, v) for v in sphere.basis)
    kernel = la.nullspace((row,))
    if len(kernel) != 2:
        raise DegenerateSphereError("sphere direction space collapsed")
    d1, d2 = tidy_plane_basis(
        carrier_to_ambient(kernel[0], sphere.basis), carrier_to_ambient(kernel[1], sphere.basis)
    )
    return FunctionOracle(expr, n, guard), AffinePlane2(z0, (d1, d2))


def _cleared(g: FunctionOracle, q: Expression, d: int) -> FunctionOracle:
    """g * q^d, with a guard value scaled by q^d at its point.  For g the
    pullback of a degree-d polynomial through the inversion with divisor q,
    a polynomial of degree at most 2d (degree k goes to 2d - k)."""
    guard = None
    if g.guard is not None:
        point, value = g.guard
        guard = (point, value * FunctionOracle(q, g.dimension)(point) ** d)
    return FunctionOracle(Mul(g.expression, Pow(q, d)), g.dimension, guard)


def sample_spheres(dimension: int, count: int, rng: random.Random) -> list[SphereThroughOrigin]:
    """Random rational 2-spheres through the origin inside the unit ball: a
    random integer 3-space carrier and a rational coefficient vector scaled
    to |c| < 1 (the sphere's diameter is |c|)."""
    if dimension < 3:
        raise CertifyError("2-spheres need ambient dimension at least 3")
    out: list[SphereThroughOrigin] = []
    seen = set()
    while len(out) < count:
        if dimension == 3:
            basis = (vec((1, 0, 0)), vec((0, 1, 0)), vec((0, 0, 1)))
        else:
            basis = tuple(
                vec(rng.randint(-4, 4) for _ in range(dimension)) for _ in range(3)
            )
            if la.rank(la.mat(basis)) != 3:
                continue
        c = tuple(
            sum(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) * v[i] for v in basis)
            for i in range(dimension)
        )
        while norm_sq(c) >= 1:
            c = tuple(x / 2 for x in c)
        try:
            sphere = SphereThroughOrigin(c, basis)
        except DegenerateSphereError:
            continue
        key = sphere.canonical()
        if key in seen:
            continue
        seen.add(key)
        out.append(sphere)
    return out


@dataclass(frozen=True)
class SphereOutcome:
    sphere: SphereThroughOrigin
    parts: tuple[tuple[str, PlaneReport], ...]

    @property
    def ok(self) -> bool:
        return all(rep.verdict == "pass" for _, rep in self.parts)


@dataclass(frozen=True)
class ScanFailure:
    index: int
    sphere: SphereThroughOrigin
    part: str
    verdict: str
    witness: tuple | None
    residual: float


@dataclass(frozen=True)
class ScanReport:
    checked: int
    passed: int
    failures: tuple[ScanFailure, ...]
    skipped: tuple[str, ...]
    config: dict
    outcomes: tuple[SphereOutcome, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok


def _float_window(margin: float, basis) -> float:
    bmax = max(math.sqrt(float(norm_sq(b))) for b in basis)
    return margin / (6.0 * bmax)


def _scan_one(f, sphere, p, poly_degree, tol, fit_degree):
    """Check both inversion charts of one sphere.  `poly_degree` is the
    exact polynomial degree of f, or None for the float route."""
    g_far, plane_far = pullback_through_inversion(f, sphere)
    g_near, plane_near = pullback_through_centered_inversion(f, sphere, p)
    check = partial(check_plane_analytic, tol=tol, fit_degree=fit_degree)

    if poly_degree is not None:
        d, n = poly_degree, f.dimension
        exact = partial(check, window=Fraction(1), degree_hint=2 * d)
        rep_far = exact(_cleared(g_far, _inversion_square(n), d), plane_far)
        rep_near = exact(_cleared(g_near, _inversion_square(n, p), d), plane_near)
    else:
        fit = partial(check, degree_hint=None)
        margin_far = math.sqrt(float(norm_sq(plane_far.base_point)))
        rep_far = fit(g_far, plane_far, window=_float_window(margin_far, plane_far.basis))
        margin_near = 1.0 / math.sqrt(float(norm_sq(sphere.c)))
        rep_near = fit(g_near, plane_near, window=_float_window(margin_near, plane_near.basis))
    return SphereOutcome(sphere, (("origin-inversion", rep_far), ("point-inversion", rep_near)))


def sphere_scan(
    f: FunctionOracle,
    spheres: Sequence[SphereThroughOrigin] | None = None,
    *,
    count: int = 6,
    seed: int | None = None,
    tol: float = 1e-9,
    fit_degree: int = 12,
    workers: int = 1,
    mode: str = "auto",
) -> ScanReport:
    """Check f for analyticity on a family of 2-spheres through the origin.

    Every sphere is examined through two inversion charts so that the
    neighborhood of the origin is covered.  Results are deterministic for a
    fixed seed and independent of `workers`.

    With `workers` > 1 the spheres go to a pool of that many threads, which
    take turns: the checks hold the GIL nearly all the time, so running two
    at once only interleaves them, at the price of thousands of GIL
    hand-offs per second, more CPU time and a wall time that depends on how
    the threads happen to be scheduled.
    """
    if not isinstance(f, FunctionOracle):
        raise CertifyError("the function must be an expression-backed oracle")
    if f.dimension < 3:
        raise CertifyError("2-spheres need ambient dimension at least 3")
    if mode not in ("auto", "exact", "float"):
        raise CertifyError(f"unknown mode {mode!r}")
    if workers < 1:
        raise CertifyError("workers must be at least 1")
    if not 0 < tol < math.inf:
        raise CertifyError("tol must be positive and finite")
    if fit_degree < 2:
        raise CertifyError("fit_degree must be at least 2")
    if spheres is None and count < 1:
        raise CertifyError("count must be at least 1")
    rng = random.Random(0 if seed is None else seed)

    poly_degree = degree_bound(f.expression)
    if mode == "exact" and poly_degree is None:
        raise CertifyError("exact scan needs a polynomial function")
    if mode == "float":
        poly_degree = None

    if spheres is None:
        sphere_list = sample_spheres(f.dimension, count, rng)
    else:
        sphere_list = list(spheres)
        for s in sphere_list:
            if s.dimension != f.dimension:
                raise CertifyError("sphere dimension does not match the function")

    skipped: list[str] = []
    jobs = []
    for i, sphere in enumerate(sphere_list):
        try:
            p = sphere.sample_points(1, rng)[0]
            jobs.append((i, sphere, p))
        except GeometryError as exc:
            skipped.append(f"sphere {i}: {exc}")

    def run(job):
        i, sphere, p = job
        return i, _scan_one(f, sphere, p, poly_degree, tol, fit_degree)

    if workers > 1 and len(jobs) > 1:
        turn = threading.Lock()

        def run_in_turn(job):
            with turn:
                return run(job)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            indexed = list(pool.map(run_in_turn, jobs))
    else:
        indexed = [run(j) for j in jobs]
    indexed.sort(key=lambda pair: pair[0])
    outcomes = tuple(outcome for _, outcome in indexed)

    failures = []
    for i, outcome in indexed:
        for part, rep in outcome.parts:
            if rep.verdict != "pass":
                failures.append(
                    ScanFailure(i, outcome.sphere, part, rep.verdict, rep.witness, rep.residual)
                )
    config = {
        "count": len(sphere_list),
        "tol": tol,
        "fit_degree": fit_degree,
        "mode": "exact" if poly_degree is not None else "float",
        "seed": seed,
    }
    return ScanReport(
        len(outcomes),
        sum(1 for o in outcomes if o.ok),
        tuple(failures),
        tuple(skipped),
        config,
        outcomes,
    )
