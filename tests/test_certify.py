import math
import operator
import random
import warnings
from fractions import Fraction
from functools import cache, lru_cache, reduce

import numpy as np
import pytest
import sympy

from analytica import certify, oracle
from analytica._linalg import clear_denominators
from analytica._series import p_add, p_mul, p_normalize
from analytica.certify import (
    CertifyError,
    check_plane_analytic,
    pullback_through_centered_inversion,
    pullback_through_inversion,
    sample_spheres,
    sphere_scan,
    _golden_min,
    _valley_scan,
)
from analytica.geometry import AffinePlane2, GeometryError, PoleError, float_point, norm_sq
from analytica.jsonio import dumps, scan_report_to_data
from analytica.oracle import (
    Add,
    Const,
    Div,
    FunctionOracle,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    builtin_counterexample,
    degree_bound,
    oracle_from_text,
    to_text,
)

from conftest import rand_form, rand_point, scalar_float

E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
XY = AffinePlane2((0, 0, 0), (E1, E2))
XY_COORDS = XY.float_coordinates


def poly_text(rng, n, d):
    f = rand_form(rng, n, d, bound=50)
    return " + ".join(
        f"({c.numerator}/{c.denominator})"
        + "".join(f"*x{i+1}^{e}" for i, e in enumerate(idx) if e)
        for idx, c in f.coefficients.items()
    ) or "0"


# ---------------------------------------------------------------------------
# plane checks


def test_polynomial_plane_check_is_exact():
    rng = random.Random(601)
    for _ in range(10):
        f = oracle_from_text(poly_text(rng, 3, rng.randint(1, 5)), 3)
        rep = check_plane_analytic(f, XY)
        assert rep.verdict == "pass"
        assert rep.residual == 0.0
        assert rep.mode == "exact"


def test_a_discontinuous_guard_fails_the_exact_plane_check():
    # x1^2 guarded to 1 at the origin is not even continuous on XY; the
    # witness is the guard point and the residual |0 - 1| / 1
    f = oracle_from_text("x1^2", 3, guard=((0, 0, 0), 1))
    rep = check_plane_analytic(f, XY)
    assert rep.verdict == "fail" and rep.mode == "exact" and rep.fit_degree == 2
    assert rep.residual == 1.0 and rep.witness == (0, 0, 0)
    assert check_plane_analytic(oracle_from_text("x1^2", 3, guard=((0, 0, 0), 0)), XY)


def test_a_guard_between_the_nodes_fails_the_exact_plane_check():
    # no sample of the tensor check landed on this guard: at (s, t) =
    # (-1/20, 0) on the plane through (1/20, 0, 0) it lies between the nodes
    f = oracle_from_text("x1^2 + x2", 3, guard=((0, 0, 0), 1))
    for base in ((Fraction(1, 20), 0, 0), (0, 0, 0)):
        rep = check_plane_analytic(f, AffinePlane2(base, (E1, E2)))
        assert rep.verdict == "fail" and rep.mode == "exact"
        assert rep.witness == (0, 0, 0) and rep.residual == 1.0
    # outside the window, and off the plane, the guard cannot break the restriction
    assert check_plane_analytic(f, AffinePlane2((Fraction(1, 5), 0, 0), (E1, E2)))
    assert check_plane_analytic(f, AffinePlane2((0, 0, Fraction(1, 100)), (E1, E2)))


def _reference_tensor_check(value_fn, degree, window):
    """The exact tensor check as it was before the cached Lagrange matrix:
    Newton interpolation of every row, then of every coefficient column, and
    a Fraction Horner pass at each check point."""

    def newton(xs, ys):
        table = list(ys)
        coeffs = [table[0]]
        for level in range(1, len(xs)):
            for i in range(len(xs) - level):
                table[i] = (table[i + 1] - table[i]) / (xs[i + level] - xs[i])
            coeffs.append(table[0])
        poly, basis = [], [Fraction(1)]
        for i, c in enumerate(coeffs):
            poly = p_add(poly, [c * b for b in basis])
            basis = p_mul(basis, [-xs[i], Fraction(1)])
        return p_normalize(poly)

    def horner(a, x):
        acc = Fraction(0)
        for c in reversed(a):
            acc = acc * x + c
        return acc

    d = degree
    w = Fraction(window)
    nodes = _grid_nodes(d, w)
    values = [[value_fn(s, t) for t in nodes] for s in nodes]
    row_polys = [newton(nodes, row) for row in values]
    cols = [newton(nodes, [rp[k] if k < len(rp) else Fraction(0) for rp in row_polys]) for k in range(d + 1)]
    for s in _check_nodes(d, w):
        for t in _check_nodes(d, w):
            actual = value_fn(s, t)
            gap = sum((horner(cols[k], s) * t**k for k in range(d + 1)), Fraction(0)) - actual
            if gap:
                return (s, t), float(abs(gap)) / max(1.0, float(abs(actual)))
    return None


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
    basis, c = clear_denominators(
        Fraction(
            math.prod(y - xj for xj in xs if xj != xi),
            math.prod(xi - xj for xj in xs if xj != xi),
        )
        for y in ys
        for xi in xs
    )
    return tuple(tuple(basis[a : a + d + 1]) for a in range(0, len(basis), d + 1)), c


def _tensor_check(value_fn, degree, window):
    """The exact route's check before it was settled by algebra, kept as the
    reference for the verdict that replaced it: value_fn must agree on the
    (degree+2)^2 check nodes with its tensor interpolant on the
    (degree+1)^2 grid nodes.  Returns None on agreement, else the first
    disagreeing chart point (s, t) in row-major order and the relative
    disagreement there.

    The interpolant is never built.  Its value at check nodes (s_a, t_b) is
    sum_ij C[a][i] C[b][j] V[i][j] / (c^2 den), with C, c the cached Lagrange
    matrix of `_check_matrix` and V the node values over their common
    denominator den, and it is compared with value_fn by cross-multiplying,
    so every prediction and comparison runs on integers."""
    d = degree
    w = Fraction(window)
    nodes = _grid_nodes(d, w)
    values, den = clear_denominators(value_fn(s, t) for s in nodes for t in nodes)
    columns = [values[j :: d + 1] for j in range(d + 1)]
    cmat, c = _check_matrix(d)
    scale = c * c * den

    check = _check_nodes(d, w)
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


def _grid_nodes(d, w):
    return [Fraction(0)] if d == 0 else [w * Fraction(2 * i - d, d) for i in range(d + 1)]


def _check_nodes(d, w):
    """The d+2 check nodes; all but the last lie inside [-w, w]."""
    return [w * Fraction(2 * i - d, d + 1) + w * Fraction(1, 3 * (d + 1)) for i in range(d + 2)]


def _tensor_cases(rng, d):
    """(value_fn factory, window, expect failure) for one degree: the exact
    degree at windows 1 and 1/10, one degree too high, and a defect planted at
    the first, a middle and the last check point."""

    def rand_coeff():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 60), rng.randint(1, 30))

    def poly(total):
        coeffs = {(i, j): rand_coeff() for i in range(total + 1) for j in range(total + 1 - i)}
        coeffs[(total, 0)] = rand_coeff()  # reaches past a degree-d tensor grid when total > d
        return coeffs

    def factory(coeffs, defect=None):
        def make(log):
            def value_fn(s, t):
                log.append((s, t))
                v = sum((c * s**i * t**j for (i, j), c in coeffs.items()), Fraction(0))
                return v + Fraction(1, 7) if (s, t) == defect else v

            return value_fn

        return make

    last = d + 1
    cases = [
        (factory(poly(d)), Fraction(1), False),
        (factory(poly(d)), Fraction(1, 10), False),
        (factory(poly(d + 1)), rng.choice([Fraction(1), Fraction(1, 10)]), True),
    ]
    for a, b in ((0, 0), (last // 2, (last + 1) // 2), (last, last)):
        w = rng.choice([Fraction(1), Fraction(1, 10)])
        check = _check_nodes(d, w)
        cases.append((factory(poly(d), (check[a], check[b])), w, True))
    return cases


@pytest.mark.parametrize("d", range(11))
def test_tensor_check_matches_the_newton_reference(d):
    # the two references agree on verdicts, points, gaps and calls
    rng = random.Random(900 + d)
    for make, w, fails in _tensor_cases(rng, d):
        log, newton_log = [], []
        result = _tensor_check(make(log), d, w)
        assert result == _reference_tensor_check(make(newton_log), d, w)
        assert (result is not None) == fails
        assert log == newton_log


@pytest.mark.parametrize("d", range(11))
def test_check_matrix_is_the_lagrange_basis_at_the_check_nodes(d):
    cmat, c = _check_matrix(d)
    nodes = _grid_nodes(d, Fraction(1))
    assert len(cmat) == d + 2 and all(len(row) == d + 1 for row in cmat)
    assert all(type(x) is int for row in cmat for x in row)
    for row, y in zip(cmat, _check_nodes(d, Fraction(1))):
        assert sum(row) == c
        for k in range(d + 1):
            assert sum(ci * x**k for ci, x in zip(row, nodes)) == c * y**k


def _sympy_function(f):
    """f's unguarded expression as a function of a rational point, evaluated
    by sympy."""
    xs = sympy.symbols(f"x1:{f.dimension + 1}")
    expr = sympy.sympify(to_text(f.expression).replace("^", "**"), locals={x.name: x for x in xs})

    def value(point):
        v = sympy.Rational(expr.subs({x: sympy.Rational(c.numerator, c.denominator) for x, c in zip(xs, point)}))
        return Fraction(int(v.p), int(v.q))

    return value


def _rand_plane(rng):
    while True:
        basis = tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2))
        try:
            return AffinePlane2(rand_point(rng, 3, bound=2), basis)
        except GeometryError:
            pass


# where the guard sits in the chart square, and whether it holds the
# unguarded value; the verdict agrees with the tensor check everywhere but
# off the nodes inside the window, where the tensor check never looks
_GUARD_CASES = {
    "none": "pass",
    "grid node": "fail",
    "check node": "fail",
    "off-node inside": "fail",
    "outside": "pass",
    "unguarded value": "pass",
}


@pytest.mark.parametrize("d", range(11))
def test_exact_tensor_check_matches_the_reference(d):
    """The exact verdict against the tensor check it replaced, on random
    polynomials of degree d restricted to random planes at windows 1 and
    1/10.  sympy confirms the gap at every failure's witness."""
    rng = random.Random(1100 + d)
    for w in (Fraction(1), Fraction(1, 10)):
        f = oracle_from_text(" + ".join(poly_text(rng, 3, k) for k in range(d + 1)), 3)
        plane, bound = _rand_plane(rng), degree_bound(f.expression)
        restriction = cache(lambda s, t: f.evaluate(plane.point_at(s, t)))
        by_sympy = _sympy_function(f)
        grid = _grid_nodes(bound, w)
        inside = _check_nodes(bound, w)[:-1]
        probed = set(grid) | set(_check_nodes(bound, w))

        def off(lo, hi):
            while True:
                x = Fraction(rng.randint(lo, hi), 997) * w * rng.choice([-1, 1])
                if x not in probed:
                    return x

        spots = {
            "none": None,
            "grid node": (rng.choice(grid), rng.choice(grid)),
            "check node": (rng.choice(inside), rng.choice(inside)),
            "off-node inside": (off(0, 997), off(0, 997)),
            "outside": (off(998, 3000), off(0, 3000)),
            "unguarded value": (rng.choice(grid), rng.choice(grid)),
        }
        for case, st in spots.items():
            expected = _GUARD_CASES[case]
            guard = None
            if st is not None:
                point = plane.point_at(*st)
                value = f.evaluate(point)
                if case != "unguarded value":
                    value += Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 9))
                guard = (point, value)
            g = FunctionOracle(f.expression, 3, guard)

            def value_fn(s, t):
                # g on the plane, with the unguarded values shared by the cases
                x = plane.point_at(s, t)
                return guard[1] if guard is not None and x == guard[0] else restriction(s, t)

            rep = check_plane_analytic(g, plane, window=w)
            ref = _tensor_check(value_fn, bound, w)
            assert rep.verdict == expected and rep.mode == "exact" and rep.fit_degree == bound
            assert (ref is None) == (expected == "pass" or case == "off-node inside")
            if expected == "pass":
                assert rep.residual == 0.0 and rep.witness is None
                continue
            point, value = guard
            limit = by_sympy(point)
            assert limit != value and rep.witness == point
            assert rep.residual == float(abs(limit - value)) / max(1.0, float(abs(value)))


def test_parameter_validation():
    # both routes: a polynomial (exact) and a rational function (float) whose
    # fit fails at the default tol, so a NaN tol must not let it pass
    for f in (oracle_from_text("x1", 3), oracle_from_text("1/(x1^2 + 1/10000)", 3)):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(CertifyError, match="tol must be positive and finite"):
                check_plane_analytic(f, XY, tol=tol)
        with pytest.raises(CertifyError):
            check_plane_analytic(f, XY, fit_degree=1)
        for window in (0, -1, math.inf, math.nan):
            with pytest.raises(CertifyError, match="window must be positive and finite"):
                check_plane_analytic(f, XY, window=window)


def test_rational_pass_and_report_fields():
    f = oracle_from_text("1/(2-x1)", 3)
    rep = check_plane_analytic(f, XY)
    assert rep.verdict == "pass"
    assert rep.mode == "float"
    assert rep.residual <= 1e-9
    assert rep.plane is XY
    assert bool(rep)


# the fit's total degrees: the default fit_degree 12, and the smallest, 2
FIT_TOTALS = (16, 6)


def _project(total, values):
    """The fit's coefficients of grid values, as `_cheb_fit` computes them."""
    _, _, proj, mask, _ = certify._cheb_design(total)
    return np.einsum("ik,kl,jl->ij", proj, values, proj, optimize=False) * mask


@pytest.mark.parametrize("total", FIT_TOTALS)
def test_projection_reproduces_a_polynomial_of_the_fit_degree(total):
    _, cheb, _, mask, _ = certify._cheb_design(total)
    rng = np.random.default_rng(total)
    coef = rng.uniform(-1, 1, (total + 1, total + 1)) * mask
    values = cheb @ coef @ cheb.T
    cmat = _project(total, values)
    assert np.max(np.abs(cmat - coef)) < 1e-12
    assert np.max(np.abs(cheb @ cmat @ cheb.T - values)) < 1e-12


@pytest.mark.parametrize("total", FIT_TOTALS)
def test_projection_is_the_lobatto_weighted_least_squares_fit(total):
    nodes, cheb, _, mask, _ = certify._cheb_design(total)
    m = len(nodes)
    weights = np.ones(m)
    weights[[0, -1]] = 0.5
    root_w = np.sqrt(np.outer(weights, weights)).ravel()
    pairs = list(zip(*np.nonzero(mask)))
    design = np.stack([np.outer(cheb[:, i], cheb[:, j]).ravel() for i, j in pairs], axis=1)
    values = np.random.default_rng(7 + total).uniform(-1, 1, (m, m))
    coef, *_ = np.linalg.lstsq(design * root_w[:, None], values.ravel() * root_w, rcond=None)
    expected = np.zeros_like(mask, dtype=float)
    expected[tuple(np.transpose(pairs))] = coef
    assert np.max(np.abs(_project(total, values) - expected)) < 1e-12


def test_the_fit_design_is_read_only():
    for a in certify._cheb_design(16):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = a.flat[0]


def test_a_random_polynomial_passes_the_float_route_to_rounding():
    # the float route's fit on a polynomial up to its total degree 12 + 4:
    # the projection reproduces it on the nodes and at the held-out points
    rng = random.Random(18)
    for d in (3, 9, 16):
        text = " + ".join(
            f"({rng.randint(-9, 9)}/{rng.randint(1, 9)})*x1^{i}*x2^{d - i}" for i in range(d + 1)
        ) + " + x3 - 1"
        status, residual, _, _ = certify._cheb_fit(oracle_from_text(text, 3), XY_COORDS, 1.0, 12)
        assert status == "ok" and residual < 1e-12


def test_rational_function_passes_every_chart_of_fifty_spheres():
    report = sphere_scan(oracle_from_text("1/(2 - x1 - x2*x3)", 3), count=50, seed=18)
    assert report.checked == 50 and report.passed == 50
    assert all(rep.verdict == "pass" for o in report.outcomes for _, rep in o.parts)


def test_pole_on_the_plane_is_caught():
    # the fit cannot reproduce a function with a pole at x1 = 1/20
    f = oracle_from_text("1/(x1 - 1/20)", 3)
    rep = check_plane_analytic(f, XY)
    assert rep.verdict in ("pole", "fail")
    assert rep.witness is not None
    assert not bool(rep)


def test_curve_counterexample_fails_plane_check():
    g = builtin_counterexample("curve-g")
    rep = check_plane_analytic(g, XY)
    assert rep.verdict in ("fail", "pole")
    assert rep.witness is not None
    assert not bool(rep)


def test_tolerance_monotone():
    # passing at a tight tolerance implies passing at a looser one
    f = oracle_from_text("1/(2-x1-x2)", 3)
    tight = check_plane_analytic(f, XY, tol=1e-10)
    loose = check_plane_analytic(f, XY, tol=1e-6)
    if tight.verdict == "pass":
        assert loose.verdict == "pass"
    assert loose.residual <= tight.residual + 1e-15


def test_valley_scan_finds_interior_blowup():
    # a denominator valley far sharper than the fit grid spacing
    f = oracle_from_text("1/((x1 - 1/64)^2 + x2^2 + 1/100000000000000)", 3)
    status = []
    hit = _valley_scan(f, XY, XY_COORDS, 0.1, 1.0, status)
    assert status == ["ran"]
    assert hit is not None
    verdict, witness, magnitude = hit
    assert verdict in ("pole", "fail")
    assert magnitude > 1e6


def test_valley_scan_reports_its_skips():
    status = []
    assert _valley_scan(oracle_from_text("(x1 + 1)/3", 3), XY, XY_COORDS, 0.1, 1.0, status) is None
    assert status == ["constant-denominator"]
    status = []
    assert _valley_scan(oracle_from_text("1/(x3 - x3)", 3), XY, XY_COORDS, 0.1, 1.0, status) is None
    assert status == ["skipped-zero-divisor"]


@pytest.mark.parametrize(
    "text",
    ["x1/(1" + "0" * 400 + " + x2)", "x1/(x2 + 1" + "0" * 300 + "*1" + "0" * 300 + ")"],
    ids=["infinite-constant", "overflowing-product"],
)
def test_valley_scan_skips_a_nonfinite_denominator(text):
    status = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert _valley_scan(oracle_from_text(text, 3), XY, XY_COORDS, 0.1, 1.0, status) is None
    assert status == ["skipped-nonfinite"]


def test_plane_float_coordinates_match_point_at():
    # the triple a check converts once gives the arithmetic of a per-call conversion
    plane = AffinePlane2(
        (Fraction(1, 3), Fraction(-2, 7), Fraction(5)),
        ((1, Fraction(1, 9), 0), (0, 2, Fraction(-3, 11))),
    )
    coords = plane.float_coordinates
    for s, t in [(0.0, 0.0), (0.1, -0.37), (1e-7, 3.5)]:
        expected = tuple(
            float(x) + s * float(u) + t * float(v) for x, u, v in zip(plane.base_point, *plane.basis)
        )
        assert float_point(coords, s, t) == expected


def test_falsifier_status_on_plane_reports():
    def statuses(f):
        report = sphere_scan(f, count=1, seed=5)
        return [rep.falsifier for _, rep in report.outcomes[0].parts]

    # curve-g's pulled-back denominator outgrows the cap, which the shapes
    # alone decide; the fit fails the other chart first, so its falsifier
    # never runs
    assert statuses(builtin_counterexample("curve-g")) == ["skipped-cap", "off"]
    # the rational function's divisors dominate on both charts, so neither walks;
    # hartogs-f's origin chart outgrows the certificate's shape and walks
    assert statuses(oracle_from_text("1/(2 - x1 - x2*x3)", 3)) == ["certified", "certified"]
    assert statuses(builtin_counterexample("hartogs-f"))[0] == "ran"
    assert statuses(oracle_from_text("x1*x2", 3)) == ["off", "off"]
    f = oracle_from_text("1/(2-x1)", 3)
    assert check_plane_analytic(f, XY).falsifier == "certified"
    # a guarded oracle is never certified: the walk would meet its guard value
    f = oracle_from_text("1/(2-x1)", 3, guard=((5, 5, 5), 0))
    assert check_plane_analytic(f, XY).falsifier == "ran"



_S, _T = sympy.symbols("s t")


def _real_zero_in_box(c, w):
    """Does D = sum c[i, j] s^i t^j vanish somewhere on |s|, |t| <= w?

    Along s, the number of roots in [-w, w] of D as a polynomial in t can
    change only at a real root of its discriminant, of its leading
    coefficient or of D(s, +-w).  One isolation of all those roots leaves
    every root-free gap with an interval endpoint, a midpoint or +-w in it,
    and a zero set along a line s = r makes every column of c vanish at r.
    Only a zero set of finitely many points can slip through, which random
    coefficients do not produce."""
    rows, cols = range(c.shape[0]), range(c.shape[1])

    def in_s(coefficients):
        return sympy.Poly(list(reversed(coefficients)), _S, domain="QQ")

    top = max(j for j in cols if c[:, j].any())
    in_t = sympy.Poly.from_dict({(j, i): int(x) for (i, j), x in np.ndenumerate(c) if x}, _T, _S)
    critical = [
        in_t.discriminant(),
        in_s([c[i, top] for i in rows]),
        *(in_s([sum(c[i, j] * (sign * w) ** j for j in cols) for i in rows]) for sign in (1, -1)),
    ]
    product = reduce(operator.mul, [g for g in critical if not g.is_zero])
    ends = {Fraction(int(x.p), int(x.q)) for (a, b), _ in product.intervals() for x in (a, b)}
    ends = sorted({x for x in ends if -w <= x <= w} | {-w, w})
    lines = reduce(sympy.gcd, [in_s(list(c[:, j])) for j in cols])
    if lines.degree() > 0 and lines.count_roots(-w, w) > 0:
        return True
    for sigma in ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]:
        h = [sum(c[i, j] * sigma**i for i in rows) for j in cols]
        if not any(h) or sympy.Poly(list(reversed(h)), _T, domain="QQ").count_roots(-w, w) > 0:
            return True
    return False


def _dominates(c, w):
    try:
        certify._exact_ring(XY, w).divisor((c, 0))
    except certify._Undominated:
        return False
    return True


def test_the_certificate_never_passes_a_divisor_with_a_real_zero_in_the_box():
    rng = random.Random(2027)
    dominant = planted = 0
    for k in range(240):
        d = rng.randint(1, 3)
        w = Fraction(rng.randint(1, 12), rng.randint(1, 8))
        c = np.zeros((d + 1, d + 1), dtype=object)
        for i in range(d + 1):
            for j in range(d + 1 - i):
                c[i, j] = Fraction(rng.randint(-9, 9))
        if k % 2:
            # a zero planted at a rational point of the box, corners and edges included
            s0, t0 = (w * Fraction(rng.randint(-4, 4), 4) for _ in range(2))
            c[0, 0] -= sum(x * s0**i * t0**j for (i, j), x in np.ndenumerate(c))
            assert _real_zero_in_box(c, w)
            assert not _dominates(c, w)
            planted += 1
            continue
        # the center term within a quarter of the rest's bound, on either side
        rest = certify._box_norm(c, w) - abs(c[0, 0])
        c[0, 0] = rng.choice((1, -1)) * (int(rest * Fraction(rng.randint(80, 125), 100)) or 1)
        if _dominates(c, w):
            dominant += 1
            assert not _real_zero_in_box(c, w), (c.tolist(), w)
    assert planted == 120 and dominant > 30


def _rand_poly_text(rng):
    return " + ".join(
        f"{rng.randint(-5, 5)}/{rng.randint(1, 4)}*"
        + "*".join(f"x{rng.randint(1, 3)}" for _ in range(rng.randint(1, 2)))
        for _ in range(rng.randint(1, 4))
    )


def _walk_charts():
    """Random rational functions on random planes and inversion charts, with
    windows and blow-up bars that leave many charts uncertified and let
    many walks hit: (g, plane, coords, den, window, bar) for each of 100
    draws, skipping a constant denominator."""
    rng = random.Random(11)
    for k in range(100):
        offset = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        f = oracle_from_text(f"({_rand_poly_text(rng)} + 1)/({offset} + {_rand_poly_text(rng)})", 3)
        if k % 2:
            g, plane = pullback_through_inversion(f, sample_spheres(3, 1, rng)[0])
        else:
            base = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
            slope = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2))
            g, plane = f, AffinePlane2(base, (E1, slope + (1,)))
        window, bar = rng.randint(1, 20) / 20, 10.0 ** rng.randint(1, 6)
        coords = plane.float_coordinates
        _, den = certify._pullback_fraction(g.expression, coords, cap=65)
        if den.size > 1:
            yield g, plane, coords, den, window, bar


def test_a_certified_chart_walks_to_no_blowup():
    # a certified chart's walk never hits
    certified = hits = 0
    for g, plane, coords, den, window, bar in _walk_charts():
        ok = certify._certified(g.expression, plane, Fraction(window), bar)
        hit = certify._walk_valleys(g, coords, den, window, bar)
        assert not (ok and hit is not None), (to_text(g.expression), plane, window, bar)
        certified += ok
        hits += hit is not None
    assert certified > 30 and hits > 15


def _probe_line_by_line(f, coords, minimisers, window, blow):
    # the reference walk: one scalar float evaluation per line, in line
    # order, stopping at the first hit
    lines = [(axis, sign * window * 0.5**k) for axis in (0, 1) for sign in (1.0, -1.0) for k in range(15)]
    for (axis, pinned), u in zip(lines, minimisers):
        s, t = (pinned, u) if axis == 0 else (u, pinned)
        x = float_point(coords, s, t)
        try:
            v = float(scalar_float(f, x))
        except PoleError:
            return ("pole", x, math.inf)
        if not math.isfinite(v):
            return ("pole", x, math.inf)
        if abs(v) > blow:
            return ("fail", x, abs(v))
    return None


def test_the_batched_probes_report_the_line_by_line_walks_first_hit(monkeypatch):
    searched = []
    search = certify._golden_min
    monkeypatch.setattr(certify, "_golden_min", lambda *a: searched.append(search(*a)) or searched[-1])
    kinds = {"pole": 0, "fail": 0}
    for g, _, coords, den, window, bar in _walk_charts():
        searched.clear()
        got = certify._walk_valleys(g, coords, den, window, bar)
        (minimisers,) = searched
        want = _probe_line_by_line(g, coords, minimisers, window, bar)
        assert got == want and repr(got) == repr(want), (to_text(g.expression), window, bar)
        if got is not None:
            kinds[got[0]] += 1
    assert kinds["pole"] >= 1 and kinds["fail"] >= 1, kinds


def _rand_program(rng, depth):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.6:
            return Var(rng.randint(1, 3))
        return Const(Fraction(rng.randint(1, 9), rng.randint(1, 5)))
    op = rng.choice([Add, Sub, Mul, Div, Neg, Pow])
    if op is Neg:
        return Neg(_rand_program(rng, depth - 1))
    if op is Pow:
        return Pow(_rand_program(rng, depth - 1), rng.randint(0, 3))
    return op(_rand_program(rng, depth - 1), _rand_program(rng, depth - 1))


def test_the_shape_pass_caps_where_the_array_products_would(monkeypatch):
    rng = random.Random(5)
    sizes = []
    multiply = certify._poly2_mul

    def recorded(a, b):
        out = multiply(a, b)
        sizes.append(max(out.shape))
        return out

    monkeypatch.setattr(certify, "_poly2_mul", recorded)
    plane = AffinePlane2((Fraction(1, 3), 2, Fraction(-1, 7)), ((1, Fraction(1, 2), 0), (0, 3, 1)))
    coords = plane.float_coordinates
    checked = capped = 0
    while checked < 200:
        e = _rand_program(rng, rng.randint(1, 6))
        sizes.clear()
        try:
            with np.errstate(over="raise", invalid="raise"):
                num, den = oracle.fold_fraction(e, certify._float_ring(coords))
        except (certify._ScanCap, FloatingPointError):
            continue
        largest = max(sizes, default=0)
        assert oracle.fold_fraction(e, certify._shape_ring(largest)) == (num.shape, den.shape)
        for cap in {largest - 1, largest, rng.randint(1, 2 * largest + 1)} - {0, -1}:
            sizes.clear()
            try:
                got = certify._pullback_fraction(e, coords, cap)
            except certify._ScanCap as exc:
                assert exc.args == ("skipped-cap",) and largest > cap and not sizes
                capped += 1
            else:
                assert largest <= cap
                assert got[0].tobytes() == num.tobytes() and got[1].tobytes() == den.tobytes()
        checked += 1
    assert capped > 100

def _golden_min_scalar(fn, lo, hi, iters=96):
    # the line-at-a-time search the batched minimiser must reproduce bit for bit
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


@pytest.mark.parametrize(
    "family",
    [
        lambda u, p, q: np.abs((u - p) * (u + q) + p * q),  # smooth valleys
        lambda u, p, q: np.abs(u - p) + q,  # kinks
        lambda u, p, q: u * 0.0 + q,  # constant: fc == fd throughout
        lambda u, p, q: np.floor((u - p) * 8.0) ** 2,  # flat steps: frequent ties
        lambda u, p, q: np.where(u > p, np.nan, u * u),  # NaN on part of the line
        lambda u, p, q: u * np.nan,  # NaN everywhere
    ],
    ids=["smooth", "kinks", "constant", "steps", "nan-part", "nan"],
)
def test_batched_golden_min_matches_scalar_search(family):
    rng = np.random.default_rng(2024)
    lo = rng.uniform(-1.0, 1.0, 64)
    hi = lo + rng.uniform(0.0, 0.5, 64)
    hi[:4] = lo[:4]  # empty intervals
    p = rng.uniform(-1.0, 1.0, 64)
    q = rng.uniform(0.0, 1.0, 64)
    batched = _golden_min(lambda u: family(u, p, q), lo, hi)
    scalar = [
        _golden_min_scalar(lambda u, j=j: family(u, p[j], q[j]), lo[j], hi[j])
        for j in range(len(lo))
    ]
    assert np.array(scalar).tobytes() == batched.tobytes()


@pytest.mark.parametrize(
    "text, sphere_seed",
    [(None, 5), ("1/(2 - x1 - x2*x3)", 5), ("x1/(x1^2 + x2^2 + x3^2 - 1/9)", 8)],
    ids=["hartogs-f", "rational", "shell"],
)
def test_valley_scan_evaluates_the_denominator_like_polyval2d(monkeypatch, text, sphere_seed):
    # the shared inner Horner pass must reproduce per-line polyval2d bit for bit;
    # the certificate settles the rational charts, so it is turned off to
    # make the scan walk them
    f = builtin_counterexample("hartogs-f") if text is None else oracle_from_text(text, 3)
    sphere = sample_spheres(3, 1, random.Random(sphere_seed))[0]
    g, plane = pullback_through_inversion(f, sphere)
    dens, calls = [], []
    pullback = certify._pullback_fraction
    monkeypatch.setattr(
        certify, "_pullback_fraction", lambda *a, **k: dens.append(pullback(*a, **k)) or dens[-1]
    )
    monkeypatch.setattr(
        certify, "_golden_min", lambda fn, lo, hi: calls.append((fn, lo, hi)) or 0.5 * (lo + hi)
    )
    monkeypatch.setattr(certify, "_certified", lambda *a: False)
    window = 0.05
    status = []
    _valley_scan(g, plane, plane.float_coordinates, window, 1.0, status)
    assert status == ["ran"]
    ((_, den),), ((fn, lo, hi),) = dens, calls
    assert den.shape[0] > 2 and den.shape[1] > 2

    pv2 = np.polynomial.polynomial.polyval2d
    grid = np.linspace(-window, window, 257)
    lines = [
        (axis, sign * window * 0.5**k) for axis in (0, 1) for sign in (1.0, -1.0) for k in range(15)
    ]
    want_lo, want_hi = [], []
    for axis, pinned in lines:
        fixed = np.full_like(grid, pinned)
        along = np.abs(pv2(fixed, grid, den) if axis == 0 else pv2(grid, fixed, den))
        i = int(np.argmin(along))
        want_lo.append(grid[max(i - 1, 0)])
        want_hi.append(grid[min(i + 1, len(grid) - 1)])
    assert np.array(want_lo).tobytes() == lo.tobytes()
    assert np.array(want_hi).tobytes() == hi.tobytes()

    on_s = np.array([axis == 0 for axis, _ in lines])
    pins = np.array([pinned for _, pinned in lines])
    rng = np.random.default_rng(7)
    for u in (lo, hi, 0.5 * (lo + hi), rng.uniform(-window, window, len(lines))):
        want = np.abs(pv2(np.where(on_s, pins, u), np.where(on_s, u, pins), den))
        assert want.tobytes() == fn(u).tobytes()


def test_plane_translate_slices_of_hartogs():
    f = builtin_counterexample("hartogs-f")
    for c in (Fraction(1, 10), Fraction(1, 2)):
        plane = AffinePlane2((0, 0, c), (E1, E2))
        rep = check_plane_analytic(f, plane, window=c / 4)
        assert rep.verdict == "pass"
        assert rep.residual <= 1e-9


# ---------------------------------------------------------------------------
# pullbacks


def test_origin_pullback_identity():
    rng = random.Random(602)
    f = oracle_from_text("x1^2 + x2*x3", 3)
    for sphere in sample_spheres(3, 4, rng):
        g, plane = pullback_through_inversion(f, sphere)
        for _ in range(5):
            y = rand_point(rng, 3, bound=6)
            if all(v == 0 for v in y):
                continue
            x = tuple(v / norm_sq(y) for v in y)
            assert g.evaluate(y) == f.evaluate(x)


def test_centered_pullback_identity():
    rng = random.Random(603)
    f = oracle_from_text("x1 - x2^2", 3)
    for sphere in sample_spheres(3, 4, rng):
        p = next(
            q for q in sphere.sample_points(4, rng) if any(v != 0 for v in q)
        )
        g, plane = pullback_through_centered_inversion(f, sphere, p)
        for _ in range(5):
            y = rand_point(rng, 3, bound=6)
            if y == p:
                continue
            d = tuple(a - b for a, b in zip(y, p))
            x = tuple(b + v / norm_sq(d) for b, v in zip(p, d))
            assert g.evaluate(y) == f.evaluate(x)


def test_cleared_pullbacks_are_the_inverted_function_times_q_to_the_d():
    # the exact scan rests on this: for f of degree d, h = g * q^d reads
    # f(mu(y)) * q(y)^d and its restriction to the chart plane is a
    # polynomial of degree at most 2d (the tensor check finds no defect), so
    # the pullback g is analytic wherever q is not 0, which is off the plane
    rng = random.Random(607)
    for d in range(5):
        f = oracle_from_text(" + ".join(poly_text(rng, 3, k) for k in range(d + 1)), 3)
        sphere = sample_spheres(3, 1, rng)[0]
        p = sphere.sample_points(1, rng)[0]
        charts = [
            (pullback_through_inversion(f, sphere), None, certify.invert_mu),
            (
                pullback_through_centered_inversion(f, sphere, p),
                p,
                lambda y, p=p: certify.invert_mu_centered(y, p),
            ),
        ]
        for (g, plane), center, mu in charts:
            q = certify._inversion_square(3, center)
            h = FunctionOracle(Mul(g.expression, Pow(q, d)), 3)
            assert _tensor_check(lambda s, t: h.evaluate(plane.point_at(s, t)), 2 * d, 1) is None
            assert FunctionOracle(q, 3)(plane.base_point) != 0
            shift = center or (0, 0, 0)
            for y in [rand_point(rng, 3, bound=6) for _ in range(4)]:
                qy = norm_sq(tuple(a - b for a, b in zip(y, shift)))
                if qy:
                    assert h.evaluate(y) == f.evaluate(mu(y)) * qy**d


def test_centered_pullback_needs_sphere_point():
    rng = random.Random(604)
    f = oracle_from_text("x1", 3)
    sphere = sample_spheres(3, 1, rng)[0]
    with pytest.raises(CertifyError):
        pullback_through_centered_inversion(f, sphere, (0, 0, 0))


# ---------------------------------------------------------------------------
# sphere scans


def test_polynomial_scan_sound_for_any_seed():
    rng = random.Random(605)
    for _ in range(4):
        f = oracle_from_text(poly_text(rng, 3, rng.randint(1, 4)), 3)
        report = sphere_scan(f, count=3, seed=rng.randrange(10**9))
        assert report.ok
        assert report.passed == report.checked == 3
        assert all(
            rep.residual == 0.0 for o in report.outcomes for _, rep in o.parts
        )


def test_rational_ball_function_passes():
    f = oracle_from_text("1/(2-x1)", 3)
    report = sphere_scan(f, count=5, seed=99)
    assert report.ok and report.passed == 5


def test_hartogs_fails_spheres():
    f = builtin_counterexample("hartogs-f")
    report = sphere_scan(f, count=3, seed=99)
    assert not report.ok
    assert report.failures
    fl = report.failures[0]
    assert fl.part in ("origin-inversion", "point-inversion")
    assert fl.verdict in ("fail", "pole")


def test_curve_fails_spheres():
    g = builtin_counterexample("curve-g")
    report = sphere_scan(g, count=4, seed=99)
    assert not report.ok
    assert report.failures


def test_scan_reports_identical_across_workers():
    f = oracle_from_text("1/(2-x1)", 3)
    a = sphere_scan(f, count=4, seed=123, workers=1)
    b = sphere_scan(f, count=4, seed=123, workers=3)
    assert dumps(scan_report_to_data(a)) == dumps(scan_report_to_data(b))


def test_scan_workers_take_turns(monkeypatch):
    # the checks hold the GIL, so pool threads must not run them at once
    running, most = [0], [0]
    scan_one = certify._scan_one

    def counted(*args):
        running[0] += 1
        most[0] = max(most[0], running[0])
        try:
            return scan_one(*args)
        finally:
            running[0] -= 1

    monkeypatch.setattr(certify, "_scan_one", counted)
    f = oracle_from_text("1/(2-x1)", 3)
    report = sphere_scan(f, count=4, seed=5, workers=4)
    assert report.checked == 4
    assert most[0] == 1


def test_scan_with_explicit_spheres():
    rng = random.Random(606)
    spheres = sample_spheres(3, 2, rng)
    f = oracle_from_text("x1*x2", 3)
    report = sphere_scan(f, spheres=spheres, seed=5)
    assert report.checked == 2 and report.ok
    # auto resolves to the exact path for a polynomial
    assert report.config["mode"] == "exact"


def test_exact_scan_reports_a_discontinuous_guard():
    # x1^2 guarded to 1 at the origin is not even continuous there: the
    # point-inversion chart covers 0, at its plane's base point
    f = oracle_from_text("x1^2", 3, guard=((0, 0, 0), 1))
    report = sphere_scan(f, count=2, seed=3)
    assert report.config["mode"] == "exact"
    assert not report.ok and len(report.failures) == 2
    for fl, outcome in zip(report.failures, report.outcomes):
        rep = dict(outcome.parts)["point-inversion"]
        assert fl.part == "point-inversion" and fl.verdict == "fail"
        assert rep.mode == "exact" and rep.residual == 1.0
        assert fl.witness == rep.witness == rep.plane.base_point
        assert dict(outcome.parts)["origin-inversion"].verdict == "pass"


def test_scan_mode_exact_requires_polynomial():
    f = oracle_from_text("1/(2-x1)", 3)
    with pytest.raises(CertifyError):
        sphere_scan(f, count=2, seed=1, mode="exact")


def test_scan_validation():
    f = oracle_from_text("x1", 3)
    with pytest.raises(CertifyError):
        sphere_scan(f, count=0, seed=1)
    with pytest.raises(CertifyError):
        sphere_scan(f, count=2, seed=1, workers=0)
    # both routes check tol and fit_degree, before any sphere is drawn
    for g in (f, oracle_from_text("1/(2-x1)", 3)):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(CertifyError, match="tol must be positive and finite"):
                sphere_scan(g, count=2, seed=1, tol=tol)
            with pytest.raises(CertifyError, match="tol must be positive and finite"):
                sphere_scan(g, spheres=[], seed=1, tol=tol)
        with pytest.raises(CertifyError):
            sphere_scan(g, count=2, seed=1, fit_degree=1)
        with pytest.raises(CertifyError, match="fit_degree"):
            sphere_scan(g, spheres=[], seed=1, fit_degree=1)
