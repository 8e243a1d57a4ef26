import math
import random
from fractions import Fraction

import pytest
import sympy

from analytica.forms import evaluate_form, monomial, tower_evaluate
from analytica import taylor
from analytica._series import p_add, p_mul, p_neg, p_normalize
from analytica.geometry import Cone, PoleError, VectorPlane2
from analytica.interpolation import ConeSampleSet
from analytica.oracle import (
    ARITHMETIC,
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
    fold,
    oracle_from_text,
    translate,
)
from analytica.taylor import (
    TaylorError,
    build_tower,
    line_convergence_radius,
    line_series,
    radial_jet,
)

from conftest import divisor_programs, rand_axis_plane, rand_form, rand_point

E12 = VectorPlane2(((1, 0, 0), (0, 1, 0)))


def poly_oracle(rng, n, d):
    """Random polynomial as an oracle plus its exact evaluator."""
    f = rand_form(rng, n, d, bound=50)
    text = " + ".join(
        f"({c.numerator}/{c.denominator})"
        + "".join(f"*x{i+1}^{e}" for i, e in enumerate(idx) if e)
        for idx, c in f.coefficients.items()
    )
    return oracle_from_text(text or "0", n), f


def test_line_series_of_rational_function():
    f = oracle_from_text("1/(1-x1)", 3)
    coeffs = line_series(f, (0, 0, 0), (1, 0, 0), 6)
    # geometric series: all Taylor coefficients are 1
    assert coeffs == [Fraction(1)] * 7
    coeffs = line_series(f, (0, 0, 0), (Fraction(1, 2), 1, 0), 4)
    assert coeffs == [Fraction(1, 2) ** r for r in range(5)]


# ---------------------------------------------------------------------------
# the series route and its fraction fallback


def rand_nonzero(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))


def rand_program_oracle(rng, n, constants=2):
    """A random expression over x1..xn and that many random constants.
    Operands are drawn from a pool of the expressions built so far, so
    subexpressions are shared, and a rough degree count keeps the exact
    restrictions small."""
    pool = [Var(i) for i in range(1, n + 1)] + [Const(rand_nonzero(rng)) for _ in range(constants)]
    degree = [1] * n + [0] * constants
    for _ in range(rng.randint(4, 12)):
        # the left operand is mostly the newest node, so the root uses most of the pool
        i = len(pool) - 1 if rng.random() < 0.6 else rng.randrange(len(pool))
        j = rng.randrange(len(pool))
        a, b = pool[i], pool[j]
        kind = rng.choice((Neg, Add, Sub, Mul, Div, Pow))
        if kind is Neg:
            node, d = Neg(a), degree[i]
        elif kind is Pow:
            k = rng.randint(0, 4)
            node, d = Pow(a, k), degree[i] * k
        else:
            node, d = kind(a, b), degree[i] + degree[j]
        if d <= 16:
            pool.append(node)
            degree.append(d)
    return FunctionOracle(pool[-1], n)


T = sympy.symbols("t")
QT = sympy.QQ.frac_field(T)


def sympy_route(f, base, direction, order):
    """The reference: the restriction as one element of sympy's field QQ(t),
    which cancels every common factor, expanded to `order` through the
    inverse of its denominator modulo t^(order+1).  Raises the PoleErrors
    line_series raises, with the same messages."""

    def q(x):
        return QT.from_sympy(sympy.Rational(x.numerator, x.denominator))

    def divide(a, b):
        if not b:
            raise PoleError("the whole line lies inside a zero divisor", base)
        return a / b

    t = QT.from_sympy(T)
    algebra = {
        **ARITHMETIC,
        Const: q,
        Var: lambda i: q(base[i - 1]) + q(direction[i - 1]) * t,
        Div: divide,
        Pow: lambda a, k: a**k if k else QT.one,  # sympy refuses 0**0; Python reads 1
    }
    r = fold(f.expression, algebra)[-1]
    num, den = (sympy.Poly(p.as_expr(), T, domain=sympy.QQ) for p in (r.numer, r.denom))
    if den.eval(0) == 0:
        raise PoleError("restriction to the line has a pole at its base point", base)
    tn = sympy.Poly(T ** (order + 1), T, domain=sympy.QQ)
    series = (num * sympy.invert(den, tn)).rem(tn)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(series.all_coeffs())]
    return coeffs + [Fraction(0)] * (order + 1 - len(coeffs))


def outcome(route, f, base, direction, order):
    """The coefficients, or the type, message and point of the error."""
    try:
        return route(f, base, direction, order)
    except PoleError as exc:
        return type(exc), str(exc), exc.point


@pytest.mark.parametrize("seed", range(8))
def test_series_route_matches_the_rational_route(seed):
    rng = random.Random(7100 + seed)
    series = fallbacks = 0
    for case in range(40):
        n = rng.randint(1, 3)
        if case % 2:
            # half the bases at 0; without constants most divisors vanish there
            f = rand_program_oracle(rng, n, constants=0)
            base = (Fraction(0),) * n
        else:
            f = rand_program_oracle(rng, n)
            base = tuple(rand_nonzero(rng) for _ in range(n))
        direction = tuple(rand_nonzero(rng) for _ in range(n))
        order = rng.randint(0, 8)
        want = outcome(sympy_route, f, base, direction, order)
        try:
            ints, den = taylor._line_truncated(f.expression, base, direction, order + 1)
        except taylor._VanishingDivisor:
            fallbacks += 1
        else:
            series += 1
            assert len(ints) <= order + 1 and den > 0
            got = [Fraction(c, den) for c in ints]
            assert got + [0] * (order + 1 - len(got)) == want, (seed, f.expression)
        got = outcome(line_series, f, base, direction, order)
        assert got == want, (seed, f.expression)
        if isinstance(got, list):
            assert len(got) == order + 1 and all(type(c) is Fraction for c in got)
    assert series >= 20 and fallbacks >= 8  # both routes are under test


@pytest.fixture
def rational_calls(monkeypatch):
    """Records each fallback to the fraction route."""
    calls = []
    real = taylor._line_fraction

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(taylor, "_line_fraction", counting)
    return calls


def test_series_route_takes_no_fallback(rational_calls):
    f = oracle_from_text("(2 + x1)/(3 - x2) + x1^3*x2", 2)
    got = line_series(f, (0, 0), (Fraction(1, 3), Fraction(1, 5)), 6)
    assert rational_calls == []
    assert got == sympy_route(f, (0, 0), (Fraction(1, 3), Fraction(1, 5)), 6)


def test_removable_singularity_falls_back_and_cancels(rational_calls):
    f = oracle_from_text("(x1^2 - x2^2)/(x1 - x2)", 2)
    assert line_series(f, (0, 0), (1, 2), 5) == [0, 3, 0, 0, 0, 0]
    assert len(rational_calls) == 1


@pytest.mark.parametrize(
    "text, want",
    [
        # two divisors vanish at the base point
        ("x1^2/x1 + x2^3/x2^2", [0, 3, 0, 0, 0, 0]),
        # numerator and denominator share the factor t - 1 as well as t
        ("(x1^2 - 1)*x2/((x1 - 1)*x1)", [2, 2, 0, 0, 0, 0]),
        # a shared 1 + 2t survives the cancellation of t; long division absorbs it
        ("(x1 + x1*x2)/(x2 + x2^2) + 1/(1 - x1)", [Fraction(3, 2), 1, 1, 1, 1, 1]),
    ],
)
def test_fallback_cancels_only_the_power_of_t(rational_calls, text, want):
    f = oracle_from_text(text, 2)
    base, direction = (Fraction(0),) * 2, (Fraction(1), Fraction(2))
    assert line_series(f, base, direction, 5) == want == sympy_route(f, base, direction, 5)
    assert len(rational_calls) == 1


def test_line_series_pole_at_base(rational_calls):
    f = oracle_from_text("1/x1", 2)
    with pytest.raises(PoleError, match="pole at its base point"):
        line_series(f, (0, 0), (1, 0), 3)
    assert len(rational_calls) == 1


def test_line_inside_a_zero_divisor(rational_calls):
    f = oracle_from_text("1/(x1 - x1)", 2)
    with pytest.raises(PoleError, match="whole line lies inside a zero divisor"):
        line_series(f, (1, 2), (3, 4), 3)
    assert len(rational_calls) == 1


@pytest.mark.parametrize(
    "text, value, falls_back",
    [("x1^2/x1", 1, True), ("1 + x1", 5, False)],
)
def test_guard_mismatch_at_the_base_point(rational_calls, text, value, falls_back):
    f = oracle_from_text(text, 2, guard=((0, 0), value))
    with pytest.raises(PoleError, match="disagrees with the declared value"):
        line_series(f, (0, 0), (1, 1), 3)
    assert bool(rational_calls) == falls_back
    # off the guard point the guard is not consulted
    assert line_series(f, (1, 0), (1, 1), 0)[0] == f.evaluate((1, 0))


def test_guard_matching_the_limit_passes():
    f = oracle_from_text("x1^2/x1", 2, guard=((0, 0), 0))
    assert line_series(f, (0, 0), (1, 1), 3) == [0, 1, 0, 0]


@pytest.mark.parametrize(
    "expr, base",
    [
        (Pow(Var(1), -1), (Fraction(1),)),  # series route
        (Pow(Div(Const(Fraction(1)), Var(1)), -2), (Fraction(0),)),  # after the fallback
    ],
)
def test_line_series_rejects_a_negative_exponent(expr, base):
    # the parser refuses negative exponents; only a tree built in code has one
    with pytest.raises(ValueError, match="negative exponent"):
        line_series(FunctionOracle(expr, 1), base, (Fraction(1),), 3)


def test_radial_jet_matches_line_series():
    f = oracle_from_text("(2+x1)/(3-x2)", 2)
    jet = radial_jet(f, (Fraction(1, 3), Fraction(1, 5)), 5, mode="exact")
    assert jet.coefficients == tuple(
        c * math.factorial(r)
        for r, c in enumerate(line_series(f, (0, 0), (Fraction(1, 3), Fraction(1, 5)), 5))
    )


def test_fitted_jet_close_to_exact():
    f = oracle_from_text("1/(1-x1)", 3)
    exact = radial_jet(f, (Fraction(1, 4), 0, 0), 4, mode="exact")
    fitted = radial_jet(f, (0.25, 0.0, 0.0), 4, mode="fitted", window=0.5)
    for a, b in zip(exact.coefficients, fitted.coefficients):
        assert abs(float(a) - b) < 1e-5


def test_fitted_jet_of_a_function_vanishing_on_the_ray_is_all_zeros():
    # cheb2poly drops trailing zeros; the jet still has order + 1 entries
    f = oracle_from_text("x1*x2*x3", 3)
    for order in (0, 4):
        jet = radial_jet(f, (Fraction(1, 4), 0, 0), order, mode="fitted")
        assert jet.coefficients == (0.0,) * (order + 1)


def test_fitted_jet_reports_a_pole_at_a_node():
    # the first Chebyshev-Lobatto node is t = 1, where 1 - x1 vanishes
    f = oracle_from_text("1/(1 - x1)", 3)
    with pytest.raises(PoleError, match="fit node") as caught:
        radial_jet(f, (1, 0, 0), 3, mode="fitted")
    assert caught.value.point == (1.0, 0.0, 0.0)
    with pytest.raises(PoleError, match="fit node"):
        radial_jet(oracle_from_text("1/(x1 - x1)", 3), (Fraction(1, 4), 0, 0), 2, mode="fitted")


def test_jets_and_towers_refuse_a_plain_callable():
    def f(x):
        return 1 / (1 - x[0])

    cone = Cone(E12, Fraction(1, 2), Fraction(1))
    for mode in ("exact", "fitted"):
        with pytest.raises(TaylorError, match="expression-backed oracle"):
            radial_jet(f, (Fraction(1, 4), 0, 0), 3, mode=mode)
    for mode in ("auto", "exact", "float"):
        with pytest.raises(TaylorError, match="expression-backed oracle"):
            build_tower(f, cone, 3, mode=mode, seed=1)


def test_radial_jet_refuses_bad_arguments():
    f = oracle_from_text("1/(1 - x1)", 3)
    with pytest.raises(TaylorError, match="unknown jet mode 'auto'"):
        radial_jet(f, (Fraction(1, 4), 0, 0), 3, mode="auto")
    for window in (0.0, -1.0, math.nan):
        with pytest.raises(TaylorError, match="window must be positive"):
            radial_jet(f, (Fraction(1, 4), 0, 0), 3, mode="fitted", window=window)
    for mode in ("exact", "fitted"):
        with pytest.raises(TaylorError, match="order must be nonnegative"):
            radial_jet(f, (Fraction(1, 4), 0, 0), -1, mode=mode)


# ---------------------------------------------------------------------------
# the Fraction fold that the integer series replaced, kept as a reference


def _f_normalize(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _f_add(a, b):
    zero = Fraction(0)
    return _f_normalize([(a[i] if i < len(a) else zero) + (b[i] if i < len(b) else zero) for i in range(max(len(a), len(b)))])


def _f_mul(a, b, n):
    if not a or not b:
        return []
    m = min(len(a) + len(b) - 1, n)
    out = [Fraction(0)] * m
    for i, x in enumerate(a[:m]):
        for j, y in enumerate(b[: m - i]):
            out[i + j] += x * y
    return _f_normalize(out)


def _f_div(a, b, n):
    out = []
    for k in range(n):
        acc = a[k] if k < len(a) else Fraction(0)
        for j in range(1, min(k, len(b) - 1) + 1):
            acc -= b[j] * out[k - j]
        out.append(acc / b[0])
    return _f_normalize(out)


def _f_pow(a, k, n):
    if k < 0:
        raise ValueError("negative exponent")
    out = [Fraction(1)]
    while k:
        if k & 1:
            out = _f_mul(out, a, n)
        k >>= 1
        if k:
            a = _f_mul(a, a, n)
    return out


class _Vanishes(ArithmeticError):
    pass


def fraction_truncated(program, base, direction, n):
    """The truncated series fold on Fraction coefficients."""

    def divide(a, b):
        if not b or b[0] == 0:
            raise _Vanishes
        return _f_div(a, b, n)

    algebra = {
        Const: lambda c: _f_normalize([Fraction(c)]),
        Var: lambda i: _f_normalize([base[i - 1], direction[i - 1]][:n]),
        Neg: lambda a: [-x for x in a],
        Add: _f_add,
        Sub: lambda a, b: _f_add(a, [-x for x in b]),
        Mul: lambda a, b: _f_mul(a, b, n),
        Div: divide,
        Pow: lambda a, k: _f_pow(a, k, n),
    }
    return fold(program, algebra)[-1]


def fraction_line_series(f, base, direction, order):
    """line_series on Fractions throughout: the truncated fold, and an
    unreduced pair of Fraction polynomials where a divisor vanishes."""
    base, direction, n = tuple(map(Fraction, base)), tuple(map(Fraction, direction)), order + 1
    try:
        coeffs = fraction_truncated(f.expression, base, direction, n)
    except _Vanishes:
        coeffs = None
    if coeffs is None:
        mul = lambda a, b: _f_mul(a, b, len(a) + len(b))
        neg = lambda a: [-x for x in a]

        def divide(a, b):
            if not b[0]:
                raise PoleError("the whole line lies inside a zero divisor", base)
            return mul(a[0], b[1]), mul(a[1], b[0])

        algebra = {
            Const: lambda c: (_f_normalize([Fraction(c)]), [Fraction(1)]),
            Var: lambda i: (_f_normalize([base[i - 1], direction[i - 1]]), [Fraction(1)]),
            Neg: lambda a: (neg(a[0]), a[1]),
            Add: lambda a, b: (_f_add(mul(a[0], b[1]), mul(b[0], a[1])), mul(a[1], b[1])),
            Sub: lambda a, b: (_f_add(mul(a[0], b[1]), neg(mul(b[0], a[1]))), mul(a[1], b[1])),
            Mul: lambda a, b: (mul(a[0], b[0]), mul(a[1], b[1])),
            Div: divide,
            Pow: lambda a, k: (_f_pow(a[0], k, k * len(a[0]) + 1), _f_pow(a[1], k, k * len(a[1]) + 1)),
        }
        num, den = fold(f.expression, algebra)[-1]
        v = next(i for i, c in enumerate(den) if c)
        if any(num[:v]):
            raise PoleError("restriction to the line has a pole at its base point", base)
        coeffs = _f_div(num[v:], den[v:], n)
    coeffs += [Fraction(0)] * (n - len(coeffs))
    if f.guard is not None and base == tuple(f.guard[0]) and coeffs[0] != f.guard[1]:
        raise PoleError("limit along the line disagrees with the declared value at the base point", base)
    return coeffs


def jet_outcome(f, point, order):
    try:
        return radial_jet(f, point, order, mode="exact").coefficients
    except PoleError as exc:
        return type(exc), str(exc), exc.point


def check_against_the_fraction_fold(f, base, direction, order):
    """_line_truncated, line_series and radial_jet (along `direction`)
    against the Fraction reference.  Returns whether the series route
    applied."""
    n = order + 1
    try:
        want = fraction_truncated(f.expression, base, direction, n)
    except _Vanishes:
        want = None
    try:
        ints, den = taylor._line_truncated(f.expression, base, direction, n)
    except taylor._VanishingDivisor:
        got = None
    else:
        # one positive denominator in lowest terms, no trailing zero
        assert all(type(c) is int for c in ints) and type(den) is int
        assert den > 0 and math.gcd(den, *ints) == 1 and ints[-1:] != [0]
        got = [Fraction(c, den) for c in ints]
    assert got == want, f.expression
    lines = outcome(line_series, f, base, direction, order)
    assert lines == outcome(fraction_line_series, f, base, direction, order), f.expression
    if isinstance(lines, list):
        assert len(lines) == n and all(type(c) is Fraction for c in lines)
    jet = jet_outcome(f, direction, order)
    zero = (Fraction(0),) * len(direction)
    ref = outcome(fraction_line_series, f, zero, direction, order)
    if isinstance(ref, list):
        ref = tuple(c * math.factorial(r) for r, c in enumerate(ref))
        assert all(type(c) is Fraction for c in jet)
    assert jet == ref, f.expression
    return want is not None


@pytest.mark.parametrize("seed", range(8))
def test_integer_fold_matches_the_fraction_fold(seed):
    # the 320 programs of test_series_route_matches_the_rational_route
    rng = random.Random(7100 + seed)
    series = 0
    for case in range(40):
        n = rng.randint(1, 3)
        if case % 2:
            f = rand_program_oracle(rng, n, constants=0)
            base = (Fraction(0),) * n
        else:
            f = rand_program_oracle(rng, n)
            base = tuple(rand_nonzero(rng) for _ in range(n))
        direction = tuple(rand_nonzero(rng) for _ in range(n))
        series += check_against_the_fraction_fold(f, base, direction, rng.randint(0, 8))
    assert 20 <= series < 40


# 400-digit numerators and denominators
HUGE_A = Fraction(10**399 + 7, 2 * 10**399 + 3)
HUGE_B = Fraction(-(3 * 10**399 + 11), 10**399 + 1)
X1, X2, X3 = Var(1), Var(2), Var(3)

FOLD_CASES = {
    "huge-constants": (
        Add(Div(Add(Const(HUGE_A), Mul(X1, X2)), Sub(Const(HUGE_B), X1)), Pow(Sub(X2, Const(HUGE_A)), 3)),
        (HUGE_A, HUGE_B),
        (Fraction(1, 3), HUGE_B),
        6,
    ),
    "zero-direction-components": (
        Div(Add(X1, Mul(X2, X3)), Sub(Const(Fraction(5, 2)), Mul(X3, X3))),
        (Fraction(1, 2), Fraction(0), Fraction(-2, 3)),
        (Fraction(0), Fraction(1, 3), Fraction(0)),
        7,
    ),
    # b_0 = -3, so b_0^n is negative for odd n
    "negative-b0-odd-n": (Div(Const(Fraction(1)), Sub(X1, Const(Fraction(3)))), (Fraction(0),), (Fraction(1, 2),), 6),
    "negative-b0-even-n": (
        Div(Add(X1, Const(Fraction(2, 7))), Sub(Mul(X1, X1), Const(Fraction(3, 5)))),
        (Fraction(0),),
        (Fraction(-1, 2),),
        7,
    ),
    "pow-exponent-0": (
        Add(Pow(X1, 0), Mul(Pow(Sub(X1, X1), 0), Div(Const(Fraction(1)), Pow(Add(X2, Const(Fraction(2))), 0)))),
        (Fraction(0), Fraction(1, 5)),
        (Fraction(2), Fraction(-1, 3)),
        4,
    ),
    "order-0": (oracle_from_text("1/(2 - x1 - x2*x3)", 3).expression, (Fraction(1, 3),) * 3, (Fraction(1, 4),) * 3, 0),
    "order-12": (oracle_from_text("1/(2 - x1 - x2*x3)", 3).expression, (Fraction(0),) * 3, (Fraction(1, 4),) * 3, 12),
    "order-12-fallback": (
        oracle_from_text("(x1^2 - x2^2)/(x1 - x2) + 1/(3 - x1)", 2).expression,
        (Fraction(0),) * 2,
        (Fraction(1), Fraction(2)),
        12,
    ),
}


@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_integer_fold_matches_the_fraction_fold_on_edge_cases(name):
    expr, base, direction, order = FOLD_CASES[name]
    f = FunctionOracle(expr, len(base))
    series = check_against_the_fraction_fold(f, base, direction, order)
    assert series == (name != "order-12-fallback")


# ---------------------------------------------------------------------------
# the fallback's factored fraction fold against an unfactored reference


def _p_pow(a, k):
    out = [1]
    for _ in range(k):
        out = p_mul(out, a)
    return out


def dict_line_fraction(program, base, direction):
    """The unreduced integer (numerator, denominator) pair of the line
    restriction, folded by an algebra dict of its own rather than by
    oracle.fold_fraction: the unfactored fold, which cross-multiplies at
    every sum and swaps the divisor's pair at every quotient."""
    bq, pq, den = taylor._cleared(base, direction)

    def cross(combine):
        return lambda a, b: (combine(p_mul(a[0], b[1]), p_mul(b[0], a[1])), p_mul(a[1], b[1]))

    def divide(a, b):
        if not b[0]:
            raise PoleError("the whole line lies inside a zero divisor", tuple(base))
        return p_mul(a[0], b[1]), p_mul(a[1], b[0])

    algebra = {
        Const: lambda c: (p_normalize([c.numerator]), [c.denominator]),
        Var: lambda i: (p_normalize([bq[i - 1], pq[i - 1]]), [den]),
        Neg: lambda a: (p_neg(a[0]), a[1]),
        Add: cross(p_add),
        Sub: cross(lambda a, b: p_add(a, p_neg(b))),
        Mul: lambda a, b: (p_mul(a[0], b[0]), p_mul(a[1], b[1])),
        Div: divide,
        Pow: lambda a, k: (_p_pow(a[0], k), _p_pow(a[1], k)),
    }
    return fold(program, algebra)[-1]


def fraction_outcome(fold_line, program, base, direction):
    try:
        return fold_line(program, base, direction)
    except PoleError as exc:
        return type(exc), str(exc), exc.point


def p_value(p, t):
    return sum(c * t**k for k, c in enumerate(p))


def assert_same_fraction(got, want):
    """The same PoleError, or two pairs of one rational function, where the
    factored denominator is no longer than the unfactored one."""
    if got[0] is PoleError or want[0] is PoleError:
        assert got == want
    else:
        assert p_mul(got[0], want[1]) == p_mul(want[0], got[1])
        assert len(got[1]) <= len(want[1])


def seeded_lines(seed):
    """The 40 programs and lines of test_series_route_matches_the_rational_route
    for this seed, drawn in the same order."""
    rng = random.Random(7100 + seed)
    for case in range(40):
        n = rng.randint(1, 3)
        if case % 2:
            f = rand_program_oracle(rng, n, constants=0)
            base = (Fraction(0),) * n
        else:
            f = rand_program_oracle(rng, n)
            base = tuple(rand_nonzero(rng) for _ in range(n))
        direction = tuple(rand_nonzero(rng) for _ in range(n))
        rng.randint(0, 8)  # the order, which the pair does not depend on
        yield f, base, direction


@pytest.mark.parametrize("seed", range(8))
def test_fraction_ring_matches_the_algebra_dict(seed):
    # every base, including those where line_series never falls back
    poles = 0
    for f, base, direction in seeded_lines(seed):
        want = fraction_outcome(dict_line_fraction, f.expression, base, direction)
        got = fraction_outcome(taylor._line_fraction, f.expression, base, direction)
        assert_same_fraction(got, want)
        poles += got[0] is PoleError
    assert poles <= 1  # the rest are pairs


@pytest.mark.parametrize("name", sorted(FOLD_CASES))
def test_fraction_ring_matches_the_algebra_dict_on_edge_cases(name):
    expr, base, direction, _ = FOLD_CASES[name]
    got = taylor._line_fraction(expr, base, direction)
    assert_same_fraction(got, dict_line_fraction(expr, base, direction))
    assert all(type(c) is int for p in got for c in p) and got[1]


def test_fraction_ring_matches_the_algebra_dict_on_nested_and_repeated_divisors():
    # both pairs take the restriction's exact value at random rational t
    rng = random.Random(61)
    checked = 0
    for program in divisor_programs():
        for _ in range(3):
            base, direction = rand_point(rng, 3, 5), rand_point(rng, 3, 5)
            got = fraction_outcome(taylor._line_fraction, program, base, direction)
            want = fraction_outcome(dict_line_fraction, program, base, direction)
            assert_same_fraction(got, want)
            for _ in range(3):
                t = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                try:
                    value = FunctionOracle(program, 3)(tuple(b + t * p for b, p in zip(base, direction)))
                except PoleError:
                    continue
                for num, den in (got, want):
                    assert Fraction(p_value(num, t)) / p_value(den, t) == value
                checked += 1
    assert checked > 60


def test_fraction_ring_reports_the_line_inside_a_zero_divisor():
    program = oracle_from_text("x2 + 1/(x1 - x1)", 2).expression
    base, direction = (Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))
    want = (PoleError, "the whole line lies inside a zero divisor", base)
    assert fraction_outcome(taylor._line_fraction, program, base, direction) == want
    assert fraction_outcome(dict_line_fraction, program, base, direction) == want


# ---------------------------------------------------------------------------
# towers


def test_polynomial_towers_reproduce_the_polynomial():
    rng = random.Random(501)
    cone = Cone(E12, Fraction(1, 2), Fraction(1))
    for _ in range(6):
        d = rng.randint(1, 5)
        f, form = poly_oracle(rng, 3, d)
        res = build_tower(f, cone, 6, seed=rng.randrange(10**6))
        assert res.ok and res.mode == "exact"
        assert all(r == 0.0 for r in res.per_degree_residual)
        for r in range(d + 1, 7):
            assert res.tower.forms[r].is_zero
        for _ in range(15):
            p = rand_point(rng, 3, bound=9)
            assert tower_evaluate(res.tower, p) == evaluate_form(form, p)


def test_zero_function_gives_zero_tower():
    res = build_tower(oracle_from_text("0", 3), Cone(E12, Fraction(1, 2), Fraction(1)), 4, seed=1)
    assert res.ok
    assert all(g.is_zero for g in res.tower.forms)


def test_geometric_series_tower_forms():
    f = oracle_from_text("1/(1-x1)", 3)
    cone = Cone(E12, Fraction(1, 2), Fraction(1))
    res = build_tower(f, cone, 5, seed=11)
    assert res.ok
    for r in range(6):
        assert res.tower.forms[r] == monomial(3, (r, 0, 0), coeff=math.factorial(r))


def test_random_axis_tower_matches_function():
    rng = random.Random(502)
    f = oracle_from_text("1/(2 - x1 - x2/3)", 3)
    cone = Cone(rand_axis_plane(rng, 3), Fraction(1, 2), Fraction(1, 2))
    res = build_tower(f, cone, 8, seed=21)
    assert res.ok
    # inside the small window the truncation error is tiny
    for _ in range(10):
        p = tuple(Fraction(rng.randint(-10, 10), 1000) for _ in range(3))
        got = float(tower_evaluate(res.tower, p))
        want = float(f.evaluate(p))
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)


def test_float_mode_tower():
    f = oracle_from_text("1/(1-x1)", 3)
    cone = Cone(E12, Fraction(1, 2), Fraction(1, 2))
    # the fitted jets take the cone's window, 1/2
    res = build_tower(f, cone, 4, mode="float", seed=31, tol=1e-6)
    assert res.mode == "float"
    assert res.ok
    got = res.tower.forms[3].coefficients.get((3, 0, 0))
    assert got is not None and abs(float(got) - 6.0) < 1e-4


def test_curve_counterexample_breaks_the_tower():
    g = builtin_counterexample("curve-g")
    cone = Cone(E12, Fraction(1, 2), Fraction(1))
    res = build_tower(g, cone, 3, seed=41)
    assert not res.ok
    assert res.failures
    assert min(fl.degree for fl in res.failures if fl.degree is not None) <= 2


def test_hartogs_jets_pole_through_origin():
    f = builtin_counterexample("hartogs-f")
    cone = Cone(E12, Fraction(1, 2), Fraction(1))
    res = build_tower(f, cone, 3, seed=51)
    # rays with a third component hit the pole at t=0
    assert not res.ok


def test_translated_hartogs_tower_is_exact():
    # away from the pole plane x3 = 0 hartogs-f is analytic: the exact tower
    # is complete and agrees with f at points deep inside the cone window
    f = translate(builtin_counterexample("hartogs-f"), (0, 0, Fraction(1, 10)))
    cone = Cone(E12, Fraction(3, 10), Fraction(1, 10))
    samples = ConeSampleSet(cone, random.Random(7))
    res = build_tower(f, cone, 8, mode="exact", samples=samples)
    assert res.ok and res.mode == "exact"
    assert len(res.tower.forms) == 9
    for p in samples.plan(2)[0][:4]:
        for lam in (Fraction(1, 16), Fraction(1, 64)):
            x = tuple(lam * xi for xi in p)
            fv = f.evaluate(x)
            assert abs(float(fv - tower_evaluate(res.tower, x))) <= 1e-9 * max(1.0, abs(float(fv)))


def test_radius_estimates():
    f = oracle_from_text("1/(1-x1)", 3)
    cone = Cone(E12, Fraction(1, 2), Fraction(1))
    res = build_tower(f, cone, 8, seed=61)
    r1 = line_convergence_radius(res.tower, (1, 0, 0))
    assert 0.9 <= r1 <= 1.1
    assert line_convergence_radius(res.tower, (0, 1, 0)) == math.inf
    with pytest.raises(TaylorError):
        line_convergence_radius(
            build_tower(f, cone, 2, seed=1).tower, (1, 0, 0)
        )


def test_order_validation():
    f = oracle_from_text("x1", 2)
    cone = Cone(VectorPlane2(((1, 0), (0, 1))), Fraction(1, 2), Fraction(1))
    with pytest.raises(TaylorError):
        build_tower(f, cone, -1, seed=1)
    for mode in ("exact", "float"):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(TaylorError, match="tol must be positive and finite"):
                build_tower(f, cone, 2, mode=mode, seed=1, tol=tol)
