"""Analyticity verdicts for restrictions of a function to planes and
2-spheres.

`check_plane_analytic` is the one chart check, and it settles a chart
exactly wherever it can.  A polynomial function (every divisor folds to a
nonzero constant) is settled without sampling: its restriction to a plane
is a polynomial, so only a guard value can break it.  The guard point is
located on the plane exactly; when it lies in the window and the guard
value is not the polynomial's value there, the restriction is not even
continuous, and the report is a "fail" with the guard point as witness.
Otherwise the pass is a proof.  Every other program is a rational
function, and a chart on which each divisor of the exact pullback is
bounded away from zero on the window box (by center dominance, or on each
of its four quarters) is proven the same way before any fit: the
restriction is analytic on the box, and only the guard rule above can fail
it.  A chart over the size cap, or whose guard point in the window is a
pole of the unguarded program, is not folded exactly.
The charts left open go through a float route, whose pass is a
diagnostic: a total-degree Chebyshev fit over a window by discrete
Chebyshev projection (a truncated DCT-I under the Lobatto weights), a
held-out residual, and a falsifier that walks valleys of the pulled-back
denominator looking for blow-ups the fit grid missed, unless the size cap
or a constant or unusable float denominator settles it first.  The shapes,
the proof's integer arrays and the float arrays are three rings of
`oracle.fold_fraction`, whose denominators are products of powers of
divisor atoms, so the |y|^2 of an inversion does not pile up: hartogs-f's
origin-inversion denominators are 7x7, and curve-g's 19x19.

Sphere restrictions are reduced to plane checks through inversions: one
centered at the origin (covering the sphere away from 0) and one centered
at a sphere point p (covering a neighborhood of 0 on the sphere).  For a
polynomial f of degree d, each pullback g times q^d, with q the
inversion's |y|^2 or |y - p|^2, is a polynomial of degree at most 2d, and
q vanishes only at the inversion center, off the chart plane; so g gets
the exact verdict, with degree bound 2d.
"""

from __future__ import annotations

import math
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
    centered_inversion_plane,
    float_point,
    invert_mu,
    invert_mu_centered,
    norm_sq,
    sphere_to_plane,
)
from .oracle import (
    Add,
    Const,
    Div,
    Expression,
    FractionRing,
    FunctionOracle,
    Pow,
    Sub,
    Var,
    degree_bound,
    evaluate_grid,
    evaluate_oracle,
    fold_fraction,
    multiply_out,
    substitute,
    to_float,
)

_FIT_GUARD = 4
_VALLEY_SCALES = 15
_BLOW_FACTOR = 1e6
_GOLDEN_STEPS = 96


class CertifyError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PlaneReport:
    """Verdict for one plane: "pass", "fail" (finite disagreement or
    blow-up), or "pole" (a denominator vanished at a probed point).
    Pass always means the residual cleared the tolerance and no pole
    was encountered.

    `falsifier` says what became of the denominator-valley falsifier, in
    the order it is settled: "certified" (the chart was proven before any
    fit: every divisor is bounded away from zero on the window box, so no
    fit and no walk run); "skipped-cap" (the pullback's factored shapes
    outgrew the size cap, which the shapes alone decide);
    "constant-denominator" (no valleys to walk); "skipped-zero-divisor" (a
    divisor pulled back to zero in floats); "skipped-nonfinite" (a constant
    of the pullback is beyond binary64 range); "ran"; or "off" (a
    polynomial, or a fit that already failed).  It is not part of the JSON
    reports, and neither is the plane, which the caller holds.

    A report with mode "exact" comes from a proof: a pass has residual 0,
    and a "fail" carries the guard point, where the guard value is not the
    restriction's limit, with the relative gap there as the residual.
    `fit_degree` holds the degree bound for a polynomial (2d for a sphere
    chart of a degree-d polynomial) and the requested fit degree for a
    proven chart, though no fit ran."""

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
# exact route: a polynomial or proven restriction can only be broken by its guard


def _guard_gap(f: FunctionOracle, plane: AffinePlane2, window):
    """f(P) - v for f's guard point P and guard value v, with f(P) the
    unguarded program's exact value, when P lies on the plane with |s|, |t|
    <= window; else None.  A pole of the unguarded program at P raises
    PoleError."""
    if f.guard is None:
        return None
    point, value = f.guard
    st = plane.coordinates_of(point)
    if st is None or max(map(abs, st)) > frac(window):
        return None
    return evaluate_oracle(FunctionOracle(f.expression, f.dimension), point) - value


def _exact_tensor_check(f: FunctionOracle, plane: AffinePlane2, bound: int, window, falsifier="off") -> PlaneReport:
    """The exact verdict over the chart square |s|, |t| <= window, for an
    f whose unguarded expression is analytic on the whole square: a
    polynomial, its pullback through an inversion centered off the plane, or
    a proven chart (`_proven`).

    The restriction is then analytic over the window unless the guard point
    P lies in it and the guard value v is not the unguarded value f(P), so
    that the restriction is not even continuous at P.  Nothing is sampled:
    P is located on the plane exactly.  A failure carries P as its witness
    and |f(P) - v| / max(1, |v|) as its residual.  (The name is that of the
    tensor check this verdict replaced, under which the benchmark tracer
    hooks it.)"""
    wf = to_float(window)
    gap = _guard_gap(f, plane, window)
    if gap:
        point, value = f.guard
        return PlaneReport(
            "fail", float(abs(gap)) / max(1.0, float(abs(value))), point,
            "exact", bound, wf, "guard value differs from the limit at the guard point", falsifier,
        )
    return PlaneReport("pass", 0.0, None, "exact", bound, wf, "", falsifier)


# ---------------------------------------------------------------------------
# float route: Chebyshev projection plus denominator-valley falsifier


@lru_cache(maxsize=None)
def _cheb_design(total: int):
    """The fit's read-only grids for total degree `total`: the m = total + 3
    Chebyshev-Lobatto nodes x_k, T[k, i] = T_i(x_k), the projector
    P = diag(1/|T_i|^2) T' diag(w) with the Lobatto weights w = (1/2, 1, ...,
    1, 1/2), under which T_0 .. T_{m-1} are orthogonal on the nodes
    (|T_0|^2 = m - 1, else (m - 1)/2), the mask i + j <= total, and the
    m + 2 held-out (Chebyshev-Gauss) nodes.  The fitted radial jets
    (`taylor._fitted_jet`) use the nodes and P in one variable."""
    m = total + 3
    nodes = np.cos(np.pi * np.arange(m) / (m - 1))
    cheb = np.polynomial.chebyshev.chebvander(nodes, total)
    weights = np.r_[0.5, np.ones(m - 2), 0.5]
    norms = np.r_[m - 1.0, np.full(total, (m - 1) / 2.0)]
    proj = cheb.T * weights / norms[:, None]
    mask = np.add.outer(np.arange(total + 1), np.arange(total + 1)) <= total
    mh = m + 2
    held_nodes = np.cos(np.pi * (2 * np.arange(mh) + 1) / (2 * mh))
    for a in (nodes, cheb, proj, mask, held_nodes):
        a.setflags(write=False)
    return nodes, cheb, proj, mask, held_nodes


def _held_out_prediction(nodes: np.ndarray, cmat: np.ndarray) -> np.ndarray:
    """chebval2d(np.repeat(nodes, m), np.tile(nodes, m), cmat) for the m
    nodes, bit for bit.  chebval2d's first Clenshaw pass runs over the s
    coordinates, which take only the m distinct node values, each m times
    in a row: so the pass runs on the m nodes and its columns are repeated.
    The second pass (tensor=False) is chebval2d's own."""
    m = len(nodes)
    first = np.polynomial.chebyshev.chebval(nodes, cmat)
    return np.polynomial.chebyshev.chebval(np.tile(nodes, m), np.repeat(first, m, axis=1), tensor=False)


def _cheb_fit(f: FunctionOracle, coords, window: float, fit_degree: int):
    """Total-degree Chebyshev fit of the restriction to the plane with float
    coordinates `coords` over the window by discrete Chebyshev projection:
    C = P F P' of the grid values F, a truncated 2-D DCT-I and their
    Lobatto-weighted least-squares fit.  einsum
    runs numpy's own loops, not BLAS, so the bits do not depend on the BLAS
    thread count.  Returns (status, residual, witness, grid_max); status is
    "ok" or "pole"."""
    total = fit_degree + _FIT_GUARD
    nodes, cheb, proj, mask, held_nodes = _cheb_design(total)

    def sample_grid(xs: np.ndarray):
        """The restriction on the xs x xs grid, indexed [s, t], or None and
        the first point in row-major order that is a pole or not finite."""
        w = window * xs
        points = float_point(coords, w[:, None], w[None, :])
        values, pole = evaluate_grid(f, points)
        bad = (pole | ~np.isfinite(values)).ravel()
        if bad.any():
            k = int(np.argmax(bad))
            return None, tuple(c.flat[k] for c in points)
        return values, None

    fv, bad = sample_grid(nodes)
    if fv is None:
        return "pole", math.inf, bad, 0.0
    grid_max = float(np.max(np.abs(fv)))
    cmat = np.einsum("ik,kl,jl->ij", proj, fv, proj, optimize=False) * mask
    node_fit = np.einsum("ki,ij,lj->kl", cheb, cmat, cheb, optimize=False)
    node_resid = float(np.max(np.abs(node_fit - fv)))

    hv, bad = sample_grid(held_nodes)
    if hv is None:
        return "pole", math.inf, bad, grid_max
    mh = len(held_nodes)
    hs, ht = np.repeat(held_nodes, mh), np.tile(held_nodes, mh)
    pred = _held_out_prediction(held_nodes, cmat)
    errs = np.abs(pred - hv.ravel())
    k = int(np.argmax(errs))
    held_max = float(np.max(np.abs(hv)))
    residual = max(node_resid, float(errs[k])) / max(1.0, grid_max, held_max)
    witness = float_point(coords, window * float(hs[k]), window * float(ht[k]))
    return "ok", residual, witness, max(grid_max, held_max)


class _ScanCap(Exception):
    """The valley denominator cannot be built; args[0] is the falsifier
    status to report ("skipped-cap", "skipped-zero-divisor" or
    "skipped-nonfinite")."""


class _Undominated(Exception):
    """A divisor of the chart pullback has no positive `_lower_bound` on the box."""


def _poly2_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product of two coefficient arrays, one shifted copy of the larger
    per nonzero coefficient of the smaller."""
    if a.size > b.size:
        a, b = b, a
    out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1), dtype=a.dtype)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            c = a[i, j]
            if c != 0:
                out[i : i + b.shape[0], j : j + b.shape[1]] += c * b
    return out


def _poly2_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros(tuple(map(max, a.shape, b.shape)), dtype=a.dtype)
    out[: a.shape[0], : a.shape[1]] += a
    out[: b.shape[0], : b.shape[1]] += b
    return out


def _shape_ring(cap: int) -> FractionRing:
    """Array shapes alone: a variable is 2x2, a constant 1x1, a product of
    a x b and c x d is (a + c - 1) x (b + d - 1), and a sum takes the larger
    size.  A product over the cap raises _ScanCap("skipped-cap")."""

    def mul(a, b):
        shape = (a[0] + b[0] - 1, a[1] + b[1] - 1)
        if max(shape) > cap:
            raise _ScanCap("skipped-cap")
        return shape

    one = (1, 1)
    return FractionRing(
        one, lambda v: (one, one), lambda i: ((2, 2), one),
        lambda a, b: tuple(map(max, a, b)), lambda a: a, mul,
    )


def _denominator_shape(e: Expression, cap: int) -> tuple[int, int]:
    """The shape of the pullback's multiplied-out denominator, from the
    shapes alone; a numerator or a denominator over the size cap raises
    _ScanCap("skipped-cap")."""
    ring = _shape_ring(cap)
    return multiply_out(ring, fold_fraction(e, ring)[1])


def _float_ring(coords) -> FractionRing:
    """float64 coefficient arrays, indexed [i, j] for s^i t^j, each with a
    binary exponent: (a, k) stands for a * 2^k.  Every sum and product
    rescales its array by a power of two, which rounds nothing, so that its
    largest coefficient lies in [1/2, 1); so no coefficient overflows.  A
    constant beyond binary64 range raises _ScanCap("skipped-nonfinite"), and
    a divisor that pulls back to zero _ScanCap("skipped-zero-divisor")."""

    def scaled(a, k):
        m = float(np.max(np.abs(a)))
        if not m:
            return a, 0
        e = math.frexp(m)[1]
        return np.ldexp(a, -e), k + e

    def const(v):
        x = to_float(v)
        if math.isinf(x):
            raise _ScanCap("skipped-nonfinite")
        return scaled(np.array([[x]]), 0), one

    def add(a, b):
        k = max(a[1], b[1])
        return scaled(_poly2_add(np.ldexp(a[0], a[1] - k), np.ldexp(b[0], b[1] - k)), k)

    def divisor(d):
        if not np.any(d[0]):
            raise _ScanCap("skipped-zero-divisor")
        return d

    one = (np.ones((1, 1)), 0)
    var_polys = [((np.array([[x, v], [u, 0.0]]), 0), one) for x, u, v in zip(*coords)]
    return FractionRing(
        one, const, lambda i: var_polys[i - 1], add, lambda a: (-a[0], a[1]),
        lambda a, b: scaled(_poly2_mul(a[0], b[0]), a[1] + b[1]), divisor,
    )


def _pullback_fraction(e: Expression, coords) -> np.ndarray:
    """The float coefficient array, in the chart coordinates s, t, of the
    denominator of an expression pulled back to the plane with float
    coordinates `coords`: its atoms multiplied out, up to a power of two.
    Raises _ScanCap("skipped-zero-divisor") or _ScanCap("skipped-nonfinite")
    as `_float_ring` says.  (The name, from when it returned the numerator
    too, is the one `bench/tracing.py` hooks.)"""
    ring = _float_ring(coords)
    return multiply_out(ring, fold_fraction(e, ring)[1])[0]


def _box_norm(c: np.ndarray, w: Fraction) -> Fraction:
    """sum |c_ij| w^(i+j), which bounds |c(s, t)| on the box |s|, |t| <= w:
    the sums of |c_ij| along the antidiagonals i + j = k, weighted by w^k in
    one Horner pass over integers."""
    rows, cols = c.shape
    diagonals = np.zeros(rows + cols - 1, dtype=object)
    for i, row in enumerate(np.abs(c)):
        diagonals[i : i + cols] += row
    p, q = w.numerator, w.denominator
    total, scale = 0, 1
    for a in diagonals[::-1]:
        total = total * p + a * scale
        scale *= q
    return Fraction(total, scale // q)


@lru_cache(maxsize=None)
def _pascal(n: int, sign: int) -> np.ndarray:
    """The n x n integer matrix L with L[k, i] = C(i, k) sign^(i - k), so
    that L c holds the coefficients of c(x + sign) for those of c(x)."""
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        for k in range(i + 1):
            out[k, i] = math.comb(i, k) * sign ** (i - k)
    out.setflags(write=False)
    return out


def _lower_bound(c: np.ndarray, w: Fraction) -> Fraction:
    """A lower bound on |c(s, t)| over the box |s|, |t| <= w by center
    dominance, a first-order Taylor-model enclosure: |c_00| minus the sum of
    the other |c_ij| w^(i+j).  Where that is not positive, the box is split
    once into four quarters, each re-centered by an exact integer Taylor
    shift and tested with half the width, and the bound is the least of the
    four.  The half width h is w / 2 rounded up to 12 significant bits, so
    the quarters cover the box and their integers stay short: with h = P / Q
    and top the total degree of c, C_ij = c_ij P^(i+j) Q^(top-i-j) is the
    array of c(h x, h y) Q^top, and the quarters are the unit boxes around
    (+-1, +-1), reached by Pascal-matrix products.  Returns 0 where no
    positive bound is found."""
    low = 2 * abs(c[0, 0]) - _box_norm(c, w)
    if low > 0:
        return low
    unit = Fraction(2) ** (math.frexp(float(w))[1] - 13)
    h = math.ceil(w / 2 / unit) * unit
    rows, cols = c.shape
    degree = np.add.outer(np.arange(rows), np.arange(cols))
    top = max(degree[c != 0].tolist(), default=0)
    scale = [h.numerator**k * h.denominator ** (top - k) for k in range(top + 1)]
    scale += [0] * (rows + cols - 2 - top)
    scaled = c * np.array(scale, dtype=object)[degree]
    margins = []
    for sx in (1, -1):
        rows_shifted = np.dot(_pascal(rows, sx), scaled)
        for sy in (1, -1):
            quarter = np.dot(rows_shifted, _pascal(cols, sy).T)
            margins.append(2 * abs(quarter[0, 0]) - np.sum(np.abs(quarter)))
            if margins[-1] <= 0:
                return Fraction(0)
    return Fraction(min(margins), h.denominator**top)


def _exact_ring(plane: AffinePlane2, w: Fraction) -> FractionRing:
    """Integer coefficient arrays (dtype object) paired with a lower bound
    on the polynomial's absolute value over the box |s|, |t| <= w (0 where
    none is known; a constant denominator and every divisor carry one).
    Each coordinate of the plane is cleared to integers once.  A divisor
    whose `_lower_bound` is not positive raises _Undominated."""

    def poly(rows, low=0):
        return np.array(rows, dtype=object), low

    one = poly([[1]], 1)

    def denominator(den):
        return one if den == 1 else poly([[den]], den)

    var_pairs = []
    for x, u, v in zip(plane.base_point, *plane.basis):
        (kx, ku, kv), den = la.clear_denominators((x, u, v))
        var_pairs.append((poly([[kx, kv], [ku, 0]]), denominator(den)))

    def const(v):
        v = frac(v)
        return poly([[v.numerator]]), denominator(v.denominator)

    def divisor(d):
        low = _lower_bound(d[0], w)
        if low <= 0:
            raise _Undominated
        return d[0], low

    return FractionRing(
        one, const, lambda i: var_pairs[i - 1],
        lambda a, b: (_poly2_add(a[0], b[0]), 0), lambda a: (-a[0], 0),
        lambda a, b: (_poly2_mul(a[0], b[0]), 0), divisor,
    )


def _proven(f: FunctionOracle, plane: AffinePlane2, window) -> bool:
    """A proof that f's unguarded program restricts to an analytic function
    on the box |s|, |t| <= window of the plane.  The program is a rational
    function, so it does when the exact pullback's every divisor has a
    positive `_lower_bound` on the box.  Two cheap exits come first: a
    pullback whose shapes outgrow the size cap is left to the fit, and so is
    a chart whose guard point lies in the window at a pole of the unguarded
    program, where some divisor vanishes, so no fold could succeed."""
    try:
        _denominator_shape(f.expression, cap=65)
        _guard_gap(f, plane, window)
        fold_fraction(f.expression, _exact_ring(plane, frac(window)))
    except (_ScanCap, PoleError, _Undominated):
        return False
    return True


def _golden_min(fn: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section minimisers of fn over the intervals [lo, hi], run
    elementwise: fn maps an array of abscissae to an array of values, one
    per interval.  Each element takes the branches and floating-point steps
    of a scalar search, so its result does not depend on the batch."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_STEPS):
        left = fc <= fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        step = ratio * (b - a)
        x = np.where(left, b - step, a + step)
        fx = fn(x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)
    return 0.5 * (a + b)


def _valley_scan(f: FunctionOracle, coords, window: float, grid_max: float, status: list[str]):
    """The denominator-valley falsifier on the plane, whose float
    coordinates are `coords`.  Returns None, or ("fail"|"pole", witness,
    magnitude) on a blow-up.  The blow-up bar does not depend on the fit
    tolerance.

    Before it walks, the falsifier is settled where it can be: a pullback
    whose factored shapes outgrow the size cap is skipped, a constant
    denominator has no valley, and a float pullback with a zero divisor or
    a constant that is not finite is skipped.  Only then is the float
    denominator folded and walked.  The falsifier status is appended to
    `status`: "ran", "skipped-cap", "skipped-zero-divisor",
    "skipped-nonfinite" or "constant-denominator"."""
    try:
        if _denominator_shape(f.expression, cap=65) == (1, 1):
            status.append("constant-denominator")
            return None
        den = _pullback_fraction(f.expression, coords)
    except _ScanCap as exc:
        status.append(exc.args[0])
        return None
    status.append("ran")
    return _walk_valleys(f, coords, den, window, _BLOW_FACTOR * max(1.0, grid_max))


def _walk_valleys(f: FunctionOracle, coords, den: np.ndarray, window: float, blow: float):
    """Walk minima of |den| along lines with one chart coordinate pinned to
    +-window/2^k and probe the function there; a value over `blow` is a
    hit.

    All lines are searched in one batched golden-section pass, and the
    function is probed at the 60 minimisers in one `evaluate_grid` call; the
    hit reported is the first in line order, the one a line-by-line walk
    would find.  A pole or a value that is not finite is a "pole" hit."""
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
    points = float_point(coords, np.where(on_s, pins, minimisers), np.where(on_s, minimisers, pins))
    values, pole = evaluate_grid(f, points)
    magnitude = np.abs(values)
    bad = pole | ~np.isfinite(values)
    hit = bad | (magnitude > blow)
    if not hit.any():
        return None
    k = int(np.argmax(hit))
    witness = tuple(c[k] for c in points)
    return ("pole", witness, math.inf) if bad[k] else ("fail", witness, float(magnitude[k]))


def check_plane_analytic(
    f: FunctionOracle,
    plane: AffinePlane2,
    *,
    tol: float = 1e-9,
    fit_degree: int = 12,
    window=Fraction(1, 10),
) -> PlaneReport:
    """Is the restriction of f to the plane real-analytic over the window?

    Polynomial functions (every divisor folds to a nonzero constant), and
    charts whose every divisor is bounded away from zero on the window box
    (`_proven`), are settled exactly: a pass is a proof, and a "fail"
    carries the guard point, where a guard value inside the window differs
    from the unguarded value.
    Otherwise a Chebyshev fit of total degree `fit_degree` (plus guard
    terms) must reproduce held-out samples within `tol` relative error, and
    a denominator-valley falsifier gets a chance to disprove the fit's
    verdict.  A float-route pass is a diagnostic at this window and
    resolution, never a proof; it can miss a discontinuous guard value that
    no fit or valley point lands on.
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
    bound = degree_bound(f.expression)
    if bound is not None:
        return _exact_tensor_check(f, plane, bound, window)
    if _proven(f, plane, window):
        return _exact_tensor_check(f, plane, fit_degree, window, "certified")

    coords = plane.float_coordinates
    status, residual, witness, grid_max = _cheb_fit(f, coords, wf, fit_degree)
    if status == "pole":
        return PlaneReport(
            "pole", math.inf, witness, "float", fit_degree, wf,
            "denominator vanishes at a probed point",
        )
    if residual > tol:
        return PlaneReport(
            "fail", residual, witness, "float", fit_degree, wf,
            "fit does not reproduce held-out samples",
        )
    status: list[str] = []
    hit = _valley_scan(f, coords, wf, grid_max, status)
    falsifier = status[0]
    if hit is not None:
        verdict, where, magnitude = hit
        return PlaneReport(
            verdict, magnitude, where, "float", fit_degree, wf,
            "blow-up along a denominator valley", falsifier,
        )
    return PlaneReport("pass", residual, None, "float", fit_degree, wf, "", falsifier)


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
    return FunctionOracle(expr, n, guard), centered_inversion_plane(sphere, p)


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


@dataclass(frozen=True, slots=True)
class SphereOutcome:
    sphere: SphereThroughOrigin
    parts: tuple[tuple[str, PlaneReport], ...]

    @property
    def ok(self) -> bool:
        return all(rep.verdict == "pass" for _, rep in self.parts)


@dataclass(frozen=True, slots=True)
class ScanFailure:
    index: int
    sphere: SphereThroughOrigin
    part: str
    verdict: str
    witness: tuple | None
    residual: float


@dataclass(frozen=True, slots=True)
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
    """Check both inversion charts of one sphere.  `poly_degree` is f's
    degree bound d, or None for the float route.  A chart's pullback g of a
    degree-d polynomial times q^d (q = |y|^2 or |y - p|^2) has degree at
    most 2d, the bound its exact report carries; q vanishes only at the
    inversion center, which the chart plane misses.  On the float route a
    pullback divides by q wherever f has a variable, so
    `check_plane_analytic` finds no degree bound, and proves or fits it."""
    g_far, plane_far = pullback_through_inversion(f, sphere)
    g_near, plane_near = pullback_through_centered_inversion(f, sphere, p)

    if poly_degree is not None:
        exact = partial(_exact_tensor_check, bound=2 * poly_degree, window=Fraction(1))
        rep_far, rep_near = exact(g_far, plane_far), exact(g_near, plane_near)
    else:
        fit = partial(check_plane_analytic, tol=tol, fit_degree=fit_degree)
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

    failures = tuple(
        ScanFailure(i, outcome.sphere, part, rep.verdict, rep.witness, rep.residual)
        for i, outcome in indexed
        for part, rep in outcome.parts
        if rep.verdict != "pass"
    )
    mode = "exact" if poly_degree is not None else "float"
    config = {"count": len(sphere_list), "tol": tol, "fit_degree": fit_degree, "mode": mode, "seed": seed}
    passed = sum(1 for o in outcomes if o.ok)
    return ScanReport(len(outcomes), passed, failures, tuple(skipped), config, outcomes)
