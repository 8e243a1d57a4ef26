import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce
from typing import Sequence

import numpy as np
import pytest
import sympy

from analytica.certify import (
    _inversion_square,
    pullback_through_centered_inversion,
    pullback_through_inversion,
    sample_spheres,
)
from analytica.geometry import PoleError
from analytica.oracle import (
    Add,
    Const,
    Div,
    FunctionOracle,
    Mul,
    Neg,
    OracleError,
    ParseError,
    Pow,
    Sub,
    Var,
    builtin_counterexample,
    degree_bound,
    evaluate_grid,
    evaluate_oracle,
    oracle_from_text,
    parse_expression,
    substitute,
    to_text,
    translate,
)

from conftest import rand_point, scalar_float


def test_parser_arithmetic():
    cases = [
        ("x1^2+x2*x3", (2, 3, 5), 2**2 + 3 * 5),
        ("2*x1+3", (7,), 17),
        ("2*(x1+3)", (7,), 20),
        ("-x1^2", (3,), -9),
        ("(-x1)^2", (3,), 9),
        ("x1 - x2 - x3", (10, 3, 2), 5),
        ("x1/2 + 1/2", (3,), 2),
        ("x1^2^3", (2,), 2**8),
        ("3/4*x1", (8,), 6),
    ]
    for text, point, expect in cases:
        f = oracle_from_text(text, len(point))
        assert f.evaluate(point) == expect, text


def test_parser_reports_position():
    with pytest.raises(ParseError, match=r"offset 6"):
        parse_expression("x1^2 ++ x2", 3)
    with pytest.raises(ParseError):
        parse_expression("x9 + 1", 3)
    with pytest.raises(ParseError):
        parse_expression("(x1 + 2", 3)
    with pytest.raises(ParseError):
        parse_expression("x1 $ 2", 3)


@pytest.mark.parametrize(
    "text, dimension, message",
    [
        ("(x1 + 2", 3, "expected ')' (offset 7)"),
        ("1.", 1, "expected digits after decimal point (offset 2)"),
        ("1.x1", 1, "expected digits after decimal point (offset 2)"),
        ("x1 + 3/00", 1, "rational literal with zero denominator (offset 5)"),
        ("x1^(1/0)", 1, "rational literal with zero denominator (offset 4)"),
        ("2*xy", 1, "expected a variable index after 'x' (offset 3)"),
        ("x 1", 1, "expected a variable index after 'x' (offset 1)"),
        ("x²", 1, "expected a variable index after 'x' (offset 1)"),
        ("x1)", 1, "unexpected trailing input (offset 2)"),
        ("x1^2 x2", 2, "unexpected trailing input (offset 5)"),
        ("3²", 1, "unexpected trailing input (offset 1)"),
        ("x1^x2", 2, "exponent must be a constant (offset 3)"),
        ("x1^(1 / 0)", 1, "exponent must be a constant (offset 3)"),
        ("x1^-1", 1, "exponent must be a non-negative integer (offset 3)"),
        ("x1^ -2", 1, "exponent must be a non-negative integer (offset 4)"),
        ("x1^(1/2)", 1, "exponent must be a non-negative integer (offset 3)"),
        ("x0", 1, "variable indices start at x1 (offset 0)"),
        ("x9", 3, "variable x9 exceeds dimension 3 (offset 0)"),
        ("2*$", 1, "unknown identifier (offset 2)"),
        ("é", 1, "unknown identifier (offset 0)"),
        ("x1 +", 1, "expected an operand (offset 4)"),
        ("x1^2 ++ x2", 3, "expected an operand (offset 6)"),
        (" \t", 1, "expected an operand (offset 2)"),
        ("", 1, "expected an operand (offset 0)"),
    ],
)
def test_parse_errors_name_the_offset(text, dimension, message):
    with pytest.raises(ParseError) as exc:
        parse_expression(text, dimension)
    assert str(exc.value) == message
    assert exc.value.position == int(message.rsplit(" ", 1)[1][:-1])


def test_parse_needs_a_positive_dimension():
    with pytest.raises(OracleError, match="dimension must be at least 1"):
        parse_expression("x1", 0)


@pytest.mark.parametrize(
    "text, tree",
    [
        # maximal munch: "2/3" is one literal, "2 / 3" a division
        ("2/3^2", Pow(Const(Fraction(2, 3)), 2)),
        ("2 / 3^2", Div(Const(Fraction(2)), Pow(Const(Fraction(3)), 2))),
        ("2/ 3", Div(Const(Fraction(2)), Const(Fraction(3)))),
        ("2.5/3", Div(Const(Fraction(5, 2)), Const(Fraction(3)))),
        ("-x1^2", Neg(Pow(Var(1), 2))),
        ("2^3^2", Pow(Const(Fraction(2)), 9)),
        ("x1^0^0", Pow(Var(1), 1)),
        ("x01 - x1 - 1", Sub(Sub(Var(1), Var(1)), Const(Fraction(1)))),
        ("x1 / 2 * x1", Mul(Div(Var(1), Const(Fraction(2))), Var(1))),
    ],
)
def test_parse_trees(text, tree):
    assert parse_expression(text, 1) == tree


def test_exponents_leave_no_ops_behind():
    assert parse_expression("x1^(1+1)", 1) == Pow(Var(1), 2)
    # the 1 after the power is a new op, not one left over from the exponent
    assert parse_expression("x1^(1+1) + 1", 1) == (
        (Var, (), 1),
        (Pow, (0,), 2),
        (Const, (), Fraction(1)),
        (Add, (1, 2), None),
    )
    assert parse_expression("2^3^(1+1)", 1) == Pow(Const(Fraction(2)), 9)


def test_exact_and_float_modes_agree():
    rng = random.Random(301)
    f = oracle_from_text("(x1^2 - x2/3) / (2 + x3^2)", 3)
    for _ in range(40):
        p = rand_point(rng, 3, bound=9)
        exact = evaluate_oracle(f, p)
        approx = evaluate_oracle(f, tuple(map(float, p)), mode="float")
        assert math.isclose(float(exact), approx, rel_tol=1e-12, abs_tol=1e-12)


def test_pole_error_carries_point():
    f = oracle_from_text("1/(x1 - 1)", 2)
    with pytest.raises(PoleError) as err:
        f.evaluate((1, 5))
    assert err.value.point == (1, 5)


def test_guard_value_wins_at_its_point():
    f = oracle_from_text("x1*x2/(x1^2+x2^2)", 2, guard=((0, 0), 0))
    assert f.evaluate((0, 0)) == 0
    assert evaluate_oracle(f, (0.0, 0.0), mode="float") == 0.0
    # off the guard the expression rules
    assert f.evaluate((1, 1)) == Fraction(1, 2)


def test_guard_dimension_checked():
    with pytest.raises(OracleError):
        oracle_from_text("x1", 2, guard=((0, 0, 0), 0))


def test_translate_shifts_argument():
    rng = random.Random(302)
    f = oracle_from_text("x1^3 - x2*x3 + 1/(2+x1)", 3)
    b = (Fraction(1, 2), Fraction(-2, 3), Fraction(5))
    g = translate(f, b)
    for _ in range(25):
        p = rand_point(rng, 3, bound=8)
        try:
            expect = f.evaluate(tuple(x + y for x, y in zip(p, b)))
        except PoleError:
            continue
        assert g.evaluate(p) == expect


def test_translate_moves_guard():
    f = oracle_from_text("x1/x1", 1, guard=((0,), 1))
    g = translate(f, (Fraction(3),))
    assert g.guard == ((Fraction(-3),), Fraction(1))
    assert g.evaluate((-3,)) == 1


def test_substitute_is_composition():
    rng = random.Random(303)
    f = parse_expression("x1^2 + 3*x2", 2)
    sub = {1: parse_expression("x1 + x2", 2), 2: parse_expression("x1*x2", 2)}
    g = substitute(f, sub)
    for _ in range(25):
        a, b = rand_point(rng, 2, bound=9)
        got = oracle_from_text(to_text(g), 2).evaluate((a, b))
        assert got == (a + b) ** 2 + 3 * (a * b)


def test_degree_bound_and_polynomial_flag():
    assert degree_bound(parse_expression("x1^2*x2 + x3", 3)) == 3
    assert degree_bound(parse_expression("(x1+1)^4", 3)) == 4
    assert degree_bound(parse_expression("x1/2", 3)) == 1
    assert degree_bound(parse_expression("1/(1+x1)", 3)) is None
    assert degree_bound(parse_expression("x1*x2", 3)) is not None
    assert degree_bound(parse_expression("x1/(x2)", 3)) is None


def test_to_text_round_trip():
    rng = random.Random(304)
    texts = [
        "x1^2+x2*x3",
        "1/(1-x1)",
        "-(x1 - x2)/(x3^2 + 1/4)",
        "x1^2^2 - 5",
        "(x1*x2*x3)/(x1^6+x2^6+x3^6)",
    ]
    for text in texts:
        e = parse_expression(text, 3)
        again = parse_expression(to_text(e), 3)
        for _ in range(10):
            p = rand_point(rng, 3, bound=7)
            try:
                lhs = oracle_from_text(text, 3).evaluate(p)
            except PoleError:
                continue
            assert oracle_from_text(to_text(again), 3).evaluate(p) == lhs


# ---------------------------------------------------------------------------
# builtin counterexamples, cross-checked against sympy


def _sympy_oracle(f):
    xs = sympy.symbols(f"x1:{f.dimension + 1}")
    expr = sympy.sympify(
        to_text(f.expression).replace("^", "**"), locals={s.name: s for s in xs}
    )
    return xs, expr


def test_hartogs_builtin_values():
    f = builtin_counterexample("hartogs-f")
    assert f.guard == ((0, 0, 0), 0)
    xs, expr = _sympy_oracle(f)
    rng = random.Random(305)
    for _ in range(20):
        p = rand_point(rng, 3, bound=9)
        if all(x == 0 for x in p):
            continue
        expect = sympy.Rational(expr.subs(dict(zip(xs, [sympy.Rational(x) for x in p]))))
        assert f.evaluate(p) == Fraction(int(expect.p), int(expect.q))
    # the diagonal collapses to 1/(3 t^3)
    for k in range(1, 6):
        t = Fraction(1, k)
        assert f.evaluate((t, t, t)) == 1 / (3 * t**3)
    assert f.evaluate((0, 0, 0)) == 0


def test_curve_builtin_values():
    g = builtin_counterexample("curve-g")
    assert g.guard == ((0, 0, 0), 0)
    rng = random.Random(306)
    xs, expr = _sympy_oracle(g)
    for _ in range(12):
        p = rand_point(rng, 3, bound=5)
        if all(x == 0 for x in p):
            continue
        expect = sympy.Rational(expr.subs(dict(zip(xs, [sympy.Rational(x) for x in p]))))
        assert g.evaluate(p) == Fraction(int(expect.p), int(expect.q))
    # hand-derived restrictions: axis t^4/(1+t^6), cusp (1+t^36)/(2 t^6)
    for t in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
        assert g.evaluate((t, 0, 0)) == t**4 / (1 + t**6)
        assert g.evaluate((t**3, t**2, t**15)) == (1 + t**36) / (2 * t**6)


def test_curve_axis_vs_cusp_separation():
    g = builtin_counterexample("curve-g")
    t = Fraction(1, 2)
    assert g.evaluate((t**3, t**2, t**15)) == 32 * (1 + Fraction(1, 2**36))


def test_builtin_rejects_unknown_name_and_bad_dimension():
    with pytest.raises(OracleError):
        builtin_counterexample("nope")
    with pytest.raises(OracleError):
        builtin_counterexample("curve-g", 4)


# ---------------------------------------------------------------------------
# the program against a recursive walk of it


def _eval(e, point: Sequence, exact: bool, slot: int = -1):
    """The program evaluated recursively from its root slot, without fold:
    a shared operand is evaluated again wherever it is read."""
    kind, args, payload = e[slot]
    if kind is Const:
        return payload if exact else float(payload)
    if kind is Var:
        return point[payload - 1]
    values = [_eval(e, point, exact, j) for j in args]
    if kind is Neg:
        return -values[0]
    if kind is Add:
        return values[0] + values[1]
    if kind is Sub:
        return values[0] - values[1]
    if kind is Mul:
        return values[0] * values[1]
    if kind is Div:
        if values[1] == 0:
            raise PoleError("division by zero", point)
        return values[0] / values[1]
    if kind is Pow:
        return values[0] ** payload
    raise TypeError(f"not an op: {e[slot]!r}")


_PULLED_BACK = {
    "hartogs-f": builtin_counterexample("hartogs-f"),
    "curve-g": builtin_counterexample("curve-g"),
    "rational": oracle_from_text("1/(2 - x1 - x2*x3)", 3),
    "shell": oracle_from_text("x1/(x1^2 + x2^2 + x3^2 - 1/9)", 3),
}


def _pullback(name, chart, with_point=False):
    rng = random.Random(311)
    sphere = sample_spheres(3, 1, rng)[0]
    f = _PULLED_BACK[name]
    if chart == "origin":
        g = pullback_through_inversion(f, sphere)[0]
        p = None
    else:
        p = next(q for q in sphere.sample_points(4, rng) if any(q))
        g = pullback_through_centered_inversion(f, sphere, p)[0]
    return (g, p) if with_point else g


def _outcome(evaluate, *args):
    try:
        return repr(evaluate(*args))
    except PoleError as exc:
        return ("pole", exc.point)


@pytest.mark.parametrize("chart", ["origin", "point"])
@pytest.mark.parametrize("name", sorted(_PULLED_BACK))
def test_program_evaluates_like_the_tree_walker(name, chart):
    g = _pullback(name, chart)
    rng = random.Random(312)
    for _ in range(1000):
        p = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        assert _outcome(evaluate_oracle, g, p, "float") == _outcome(_eval, g.expression, p, False)
    poles = 0
    for _ in range(1000):
        p = rand_point(rng, 3, bound=9)
        want = _outcome(_eval, g.expression, p, True)
        assert _outcome(evaluate_oracle, g, p) == want
        poles += isinstance(want, tuple)
    assert poles < 100


def test_program_and_tree_walker_raise_the_same_pole():
    g = _pullback("hartogs-f", "origin")  # |y|^2 divides every coordinate
    for mode, zero in (("exact", Fraction(0)), ("float", 0.0)):
        point = (zero,) * 3
        with pytest.raises(PoleError) as new:
            evaluate_oracle(g, point, mode=mode)
        with pytest.raises(PoleError) as old:
            _eval(g.expression, point, mode == "exact")
        assert new.value.point == old.value.point == point
        assert str(new.value) == str(old.value)


def test_equal_subtrees_share_one_op():
    program = parse_expression("x1^2 + x1^2", 1)
    assert program == ((Var, (), 1), (Pow, (0,), 2), (Add, (1, 1), None))


def _tree(e, slot: int = -1):
    """The program expanded into a tree of nested tuples (kind, payload,
    *operands), each shared op copied wherever it is read."""
    kind, args, payload = e[slot]
    return (kind, payload, *(_tree(e, j) for j in args))


def _nodes(tree) -> int:
    return 1 + sum(_nodes(operand) for operand in tree[2:])


def _recompile(tree):
    """A tree hash-consed by a recursive post-order walk, left operand
    first: the reference for the order of a program's ops."""
    ops, slots = [], {}

    def visit(node):
        kind, payload, *operands = node
        op = (kind, tuple(visit(operand) for operand in operands), payload)
        if op not in slots:
            slots[op] = len(ops)
            ops.append(op)
        return slots[op]

    visit(tree)
    return tuple(ops)


def _assert_canonical(e):
    assert _recompile(_tree(e)) == e


def test_inversion_pullback_holds_the_squared_norm_once():
    g = _pullback("hartogs-f", "origin")
    squared_norm = reduce(Add, [Pow(Var(i), 2) for i in (1, 2, 3)])
    assert g.expression[: len(squared_norm)] == squared_norm
    assert sum(1 for kind, _, payload in g.expression if kind is Pow and payload == 2) == 3
    divisors = [args[1] for kind, args, _ in g.expression if kind is Div]
    assert divisors.count(len(squared_norm) - 1) == 3
    assert len(g.expression) == 19 and _nodes(_tree(g.expression)) == 68


@pytest.mark.parametrize("chart", ["origin", "point"])
@pytest.mark.parametrize("name", sorted(_PULLED_BACK))
def test_compile_matches_a_recursive_walk(name, chart):
    """Pullbacks (substitute), their cleared charts g * q^2 and translates
    (constructors and substitute) are the programs a recursive walk of
    their trees builds."""
    g, p = _pullback(name, chart, with_point=True)
    _assert_canonical(g.expression)
    _assert_canonical(Add(g.expression, Mul(g.expression, Neg(g.expression))))
    _assert_canonical(Mul(g.expression, Pow(_inversion_square(3, p), 2)))
    _assert_canonical(translate(g, (Fraction(1, 2), Fraction(0), Fraction(-3))).expression)


def _rand_expression(rng, n):
    """Constructor calls on a pool of the expressions built so far, with
    structurally equal ones built anew now and then."""
    pool = [Var(i) for i in range(1, n + 1)] + [Const(Fraction(rng.randint(-2, 2), 2))]
    for _ in range(rng.randint(1, 20)):
        a, b = (pool[-1] if rng.random() < 0.5 else rng.choice(pool)), rng.choice(pool)
        kind = rng.choice((Neg, Pow, Var, Const, Add, Sub, Mul, Div))
        if kind is Neg:
            pool.append(Neg(a))
        elif kind is Pow:
            pool.append(Pow(a, rng.randint(0, 3)))
        elif kind is Var:
            pool.append(Var(rng.randint(1, n)))
        elif kind is Const:
            pool.append(Const(Fraction(rng.randint(-2, 2), 2)))
        else:
            pool.append(kind(a, b))
    return pool[-1]


def test_every_builder_emits_the_recursive_walks_program():
    rng = random.Random(313)
    for _ in range(300):
        n = rng.randint(1, 3)
        e = _rand_expression(rng, n)
        _assert_canonical(e)
        mapping = {i: _rand_expression(rng, n) for i in range(1, n + 1) if rng.random() < 0.7}
        _assert_canonical(substitute(e, mapping))
        base = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n))
        _assert_canonical(translate(FunctionOracle(e, n), base).expression)
        _assert_canonical(parse_expression(to_text(e), n))
    for text in ("x1^2+x2*x3", "-(x1 - x2)/(x3^2 + 1/4)", "x1*x1 - x1*x1 + x1^2^2", "2/3^2 + 2 / 3^2"):
        _assert_canonical(parse_expression(text, 3))


def test_compile_and_parse_survive_deep_trees():
    program = parse_expression("+".join(["x1"] * 3000), 1)
    assert program[:2] == ((Var, (), 1), (Add, (0, 0), None))
    assert len(program) == 3000 and program[-1] == (Add, (2998, 0), None)
    chain = reduce(lambda e, _: Neg(e), range(5000), Var(1))
    assert len(chain) == 5001
    with pytest.raises(TypeError, match="not an expression: None"):
        Add(Var(1), None)
    with pytest.raises(ParseError, match=r"^expression nested too deeply \(offset \d+\)$"):
        parse_expression("(" * 3000 + "x1" + ")" * 3000, 1)


def test_a_long_sum_oracle_has_repr_eq_and_hash():
    text = "+".join(["x1"] * 3000)
    f, g = oracle_from_text(text, 1), oracle_from_text(text, 1)
    assert repr(f).startswith("FunctionOracle(expression='x1 + x1 + ") and repr(f) == repr(g)
    assert f == g and hash(f) == hash(g)
    assert f != oracle_from_text(text + "+x1", 1)
    assert f((Fraction(1, 3),)) == 1000


def test_an_oracle_repr_is_the_same_in_every_process():
    # the op kinds are functions; their reprs carry addresses that change
    # from one process to the next
    code = (
        "from analytica.oracle import oracle_from_text\n"
        "print(repr(oracle_from_text('x1*x2 - 1/(2 - x3)^2', 3, ((0, 1, 2), '7/3'))))\n"
        "print(repr(oracle_from_text('+'.join(['x1'] * 3000), 1))[:60])"
    )
    runs = [
        subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout
        for _ in range(2)
    ]
    f = oracle_from_text("x1*x2 - 1/(2 - x3)^2", 3, ((0, 1, 2), "7/3"))
    assert runs[0] == runs[1] and runs[0].splitlines()[0] == repr(f)
    assert repr(f) == (
        "FunctionOracle(expression='x1 * x2 - 1 / (2 - x3)^2', dimension=3, "
        "guard=((Fraction(0, 1), Fraction(1, 1), Fraction(2, 1)), Fraction(7, 3)))"
    )


def test_a_deep_negation_chain_is_fast():
    start = time.perf_counter()
    chain = reduce(lambda e, _: Neg(e), range(5000), Var(1))
    again = reduce(lambda e, _: Neg(e), range(5000), Var(1))
    assert time.perf_counter() - start < 1.0
    assert chain == again and hash(chain) == hash(again)
    f = FunctionOracle(chain, 1)
    assert f == FunctionOracle(again, 1) and repr(f)
    assert f((Fraction(2),)) == 2 and evaluate_oracle(f, (-1.5,), "float") == -1.5


@pytest.mark.parametrize(
    "build, culprit",
    [
        (lambda: Add(Var(1), None), "None"),
        (lambda: Mul("x1", Var(1)), "'x1'"),
        (lambda: Neg(()), r"\(\)"),
        (lambda: Pow(3, 2), "3"),
        (lambda: substitute(Var(1), {1: Fraction(1, 2)}), r"Fraction\(1, 2\)"),
        (lambda: FunctionOracle("x1", 1), "'x1'"),
    ],
    ids=["add-none", "mul-text", "neg-empty", "pow-number", "substitute-fraction", "oracle-text"],
)
def test_constructors_refuse_what_is_not_an_expression(build, culprit):
    with pytest.raises(TypeError, match=f"^not an expression: {culprit}$"):
        build()


@pytest.mark.parametrize(
    "expr, dimension",
    [
        # a plane check once folded this one's shapes until they outgrew the size cap
        (Pow(Div(Const(Fraction(1)), Add(Var(1), Const(Fraction(3)))), -2), 3),
        (Pow(Var(1), -1), 1),
    ],
)
def test_oracle_refuses_a_negative_exponent(expr, dimension):
    # the parser refuses these; only a program built in code can carry one
    with pytest.raises(OracleError, match="negative exponent"):
        FunctionOracle(expr, dimension)


@pytest.mark.parametrize(
    "expr, dimension",
    [
        # x0 must not read p[-1], the last coordinate
        (Var(0), 3),
        # x4 must not get as far as an IndexError
        (Var(4), 3),
        (Add(Var(1), Mul(Var(2), Var(3))), 2),
        (Var(-1), 1),
    ],
)
def test_oracle_refuses_a_variable_outside_its_dimension(expr, dimension):
    # the parser refuses these; only a program built in code can carry one
    with pytest.raises(OracleError, match=rf"variable index -?\d+ is outside 1\.\.{dimension}"):
        FunctionOracle(expr, dimension)


# ---------------------------------------------------------------------------
# evaluate_oracle's contract


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_evaluate_oracle_checks_the_point_length_first(mode):
    f = oracle_from_text("x1 + x2", 2)
    for point in [(1,), (1, 2, 3)]:
        with pytest.raises(OracleError, match=rf"^point has length {len(point)}, oracle dimension is 2$"):
            evaluate_oracle(f, point, mode=mode)


def test_evaluate_oracle_refuses_an_unknown_mode():
    with pytest.raises(OracleError, match="unknown evaluation mode 'interval'"):
        evaluate_oracle(oracle_from_text("x1", 1), (1,), mode="interval")


def test_a_float_pole_carries_the_point_as_floats():
    f = oracle_from_text("x2 / (x1 - 1/2)", 2)
    for point in [(Fraction(1, 2), 3), (0.5, Fraction(3)), (np.float64(0.5), np.int64(3))]:
        with pytest.raises(PoleError, match="^division by zero$") as exc:
            evaluate_oracle(f, point, mode="float")
        assert exc.value.point == (0.5, 3.0)
        assert all(type(x) is float for x in exc.value.point)


@pytest.mark.parametrize(
    "text, guard, point",
    [
        ("x1 * x2 + 1/3", None, (Fraction(1, 3), 2)),
        ("2/3", None, (1, 2)),  # no variable: the value is a constant's
        ("x1 / x2", ((0, 0), 5), (0, 0)),  # the guard value
        ("x1", None, (np.float64(0.25), 0)),
        ("x1^2000 + x2", None, (2, 1)),  # +inf
    ],
)
def test_float_mode_returns_a_python_float(text, guard, point):
    value = evaluate_oracle(oracle_from_text(text, 2, guard=guard), point, mode="float")
    assert type(value) is float


# ---------------------------------------------------------------------------
# grid evaluation and evaluate_oracle's float mode against scalar float
# evaluation (conftest.scalar_float, a fold over Python floats)


def _scalar_outcomes(g, points):
    out = []
    for p in points:
        try:
            out.append(float.hex(scalar_float(g, p)))
        except PoleError:
            out.append("pole")
    return out


def _oracle_outcomes(g, points):
    out = []
    for p in points:
        try:
            value = evaluate_oracle(g, p, mode="float")
        except PoleError:
            out.append("pole")
        else:
            assert type(value) is float
            out.append(float.hex(value))
    return out


def _grid_outcomes(g, points):
    coords = [np.array(c) for c in zip(*points)]
    values, pole = evaluate_grid(g, coords)
    assert values.shape == pole.shape == (len(points),)
    return ["pole" if at_pole else float.hex(v) for v, at_pole in zip(values.tolist(), pole)]


def _assert_grid_is_scalar(g, points):
    want = _scalar_outcomes(g, points)
    assert _grid_outcomes(g, points) == want
    assert _oracle_outcomes(g, points) == want


def _random_points(rng, n, count):
    """Mostly moderate coordinates, some huge or tiny ones, so that powers
    overflow and underflow, and some non-finite ones."""
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, 1e300]
    points = []
    for _ in range(count):
        p = []
        for _ in range(n):
            r = rng.random()
            if r < 0.05:
                p.append(rng.choice(special))
            elif r < 0.15:
                p.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-160, 160))
            else:
                p.append(rng.uniform(-2, 2))
        points.append(tuple(p))
    return points


@pytest.mark.parametrize("chart", ["origin", "point"])
@pytest.mark.parametrize("name", sorted(_PULLED_BACK))
def test_grid_evaluates_like_scalar_float_evaluation(name, chart):
    g = _pullback(name, chart)
    _assert_grid_is_scalar(g, _random_points(random.Random(321), 3, 3000))


def test_grid_shapes_and_dimension():
    f = oracle_from_text("x1 * x2 + x1^3", 2)
    s = np.linspace(-1, 1, 4)
    values, pole = evaluate_grid(f, [s[:, None], s[None, :]])
    assert values.shape == pole.shape == (4, 4) and not pole.any()
    for i in range(4):
        for j in range(4):
            want = float.hex(scalar_float(f, (s[i], s[j])))
            assert float.hex(values[i, j]) == float.hex(evaluate_oracle(f, (s[i], s[j]), mode="float")) == want
    constant = oracle_from_text("2/3", 2)
    values, pole = evaluate_grid(constant, [s, s])
    assert values.tolist() == [2 / 3] * 4 and not pole.any()
    with pytest.raises(OracleError, match="got 1 coordinate arrays"):
        evaluate_grid(f, [s])


def test_grid_takes_the_guard_value_on_the_guard_point():
    f = builtin_counterexample("hartogs-f")
    points = [(0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, 0.0, 1e-300), (0.5, 0.25, 0.0), (math.nan, 0.0, 0.0)]
    _assert_grid_is_scalar(f, points)
    assert _grid_outcomes(f, points)[:3] == [float.hex(0.0), float.hex(0.0), "pole"]
    g = _pullback("hartogs-f", "point")
    guard = tuple(map(float, g.guard[0]))
    points = _random_points(random.Random(322), 3, 50)
    points[17] = points[40] = guard
    _assert_grid_is_scalar(g, points)
    values, pole = evaluate_grid(g, [np.array(c) for c in zip(*points)])
    assert values[17] == values[40] == float(g.guard[1]) and not pole[17]
    # the guard value is written into a copy, never into the caller's arrays
    x = np.zeros(3)
    evaluate_grid(oracle_from_text("x1", 1, guard=((0,), 5)), [x])
    assert not x.any()


@pytest.mark.parametrize(
    "text",
    [
        "x1 / (x2 - 1)",  # zero at some points, -0.0 included
        "1 / (1 / x1)",  # a pole even though the next division cancels the inf
        "(x1 + 1) / (x2 * x3)",
        "x1 / (1 - 1)",  # a constant zero divisor: every point is a pole
        "1 / (2 - 2) + x1",
        "x1 / (x2 - x2)",
        "(x1 - x1) / (x2 - x2)",
        "x1^3 / x2^2 - x3^5",
    ],
)
def test_grid_poles_are_scalar_poles(text):
    f = oracle_from_text(text, 3)
    values = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf, math.nan, 1e200, 1e-200]
    points = [(a, b, c) for a in values for b in values for c in values[::3]]
    _assert_grid_is_scalar(f, points)


@pytest.mark.parametrize(
    "text",
    ["x1/(1" + "0" * 400 + " + x2)", "x1/(x2 + 1" + "0" * 300 + "*1" + "0" * 300 + ")"],
    ids=["literal", "product"],
)
def test_grid_handles_the_overflowing_constants(text):
    f = oracle_from_text(text, 3)
    _assert_grid_is_scalar(f, _random_points(random.Random(323), 3, 500))
