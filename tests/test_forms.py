import math
import operator
import random
from fractions import Fraction

import pytest

from analytica.forms import (
    DimensionMismatchError,
    FormError,
    HomogeneousForm,
    TaylorTower,
    basis_size,
    compose_linear,
    constant_form,
    evaluate_form,
    form_from_coefficients,
    linear_form,
    monomial,
    monomial_basis,
    multiply,
    tower_evaluate,
    zero_form,
)

from analytica._linalg import clear_denominators

from conftest import rand_form, rand_fraction, rand_point


def eval_naive(f, point):
    # independent evaluation: plain sum over stored monomials
    total = Fraction(0)
    for idx, c in f.coefficients.items():
        term = c
        for e, x in zip(idx, point):
            term *= Fraction(x) ** e
        total += term
    return total


def test_monomial_basis_size_matches_binomial():
    for n in range(1, 6):
        for d in range(0, 7):
            basis = monomial_basis(n, d)
            assert len(basis) == math.comb(n + d - 1, d)
            assert len(set(basis)) == len(basis)
            assert all(sum(idx) == d and len(idx) == n for idx in basis)
            assert basis_size(n, d) == len(basis)


def test_evaluate_matches_naive_sum():
    rng = random.Random(101)
    for _ in range(50):
        n = rng.randint(1, 4)
        d = rng.randint(0, 5)
        f = rand_form(rng, n, d)
        p = rand_point(rng, n)
        assert evaluate_form(f, p) == eval_naive(f, p)


def test_homogeneity():
    rng = random.Random(102)
    for _ in range(30):
        n = rng.randint(2, 4)
        d = rng.randint(1, 5)
        f = rand_form(rng, n, d)
        p = rand_point(rng, n)
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert evaluate_form(f, tuple(lam * x for x in p)) == lam**d * evaluate_form(f, p)


def test_form_equality_and_zero_pruning():
    f = HomogeneousForm(3, 2, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(0)})
    g = HomogeneousForm(3, 2, {(2, 0, 0): Fraction(1)})
    assert f == g
    assert zero_form(3, 2).is_zero
    assert not f.is_zero


def test_degree_validation():
    with pytest.raises(FormError):
        HomogeneousForm(3, 2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(FormError):
        HomogeneousForm(2, 2, {(1, 1, 0): Fraction(1)})


@pytest.mark.parametrize(
    "n, d, field",
    [(-1, 1, "dimension"), (0, 1, "dimension"), ("3", 1, "dimension"), (True, 1, "dimension"),
     (3, 1.5, "degree"), (3, -1, "degree"), (3, 2.0, "degree"), (3, False, "degree")],
)
def test_dimension_and_degree_must_be_integers_in_range(n, d, field):
    with pytest.raises(FormError, match=field):
        HomogeneousForm(n, d)


def test_linear_and_constant_constructors():
    f = linear_form((1, 2, 3))
    assert evaluate_form(f, (1, 1, 1)) == 6
    assert evaluate_form(constant_form(3, Fraction(5, 7)), (9, 9, 9)) == Fraction(5, 7)
    m = monomial(3, (1, 0, 2), coeff=4)
    assert evaluate_form(m, (2, 1, 3)) == 4 * 2 * 9


def test_coefficient_vector_round_trip():
    rng = random.Random(103)
    for _ in range(20):
        n = rng.randint(2, 4)
        d = rng.randint(0, 4)
        f = rand_form(rng, n, d)
        coeffs = [f.coefficients.get(idx, 0) for idx in monomial_basis(n, d)]
        assert form_from_coefficients(n, d, coeffs) == f


def _result(build):
    """The form, or the type and message of the error."""
    try:
        return build()
    except FormError as exc:
        return type(exc), str(exc)


def test_difference_is_the_sum_with_the_negation():
    rng = random.Random(1401)
    for _ in range(200):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        a = rand_form(rng, n, d, bound=20)
        b = a if rng.random() < 0.1 else rand_form(rng, n, d, bound=20)
        other = rand_form(rng, n % 4 + 1, d) if rng.random() < 0.5 else rand_form(rng, n, d + 1)
        pairs = [(a, b), (a, zero_form(n, d + 2)), (zero_form(n, d + 1), b), (a, other), (other, a)]
        for x, y in pairs:
            diff, want = _result(lambda: x - y), _result(lambda: x + (-y))
            assert diff == want
            if isinstance(want, HomogeneousForm):
                assert diff.degree == want.degree
                assert list(diff.coefficients.items()) == list(want.coefficients.items())
    with pytest.raises(DimensionMismatchError, match="^cannot add forms of different dimensions$"):
        rand_form(rng, 2, 2) - rand_form(rng, 3, 2)
    with pytest.raises(FormError, match="^cannot add forms of different degrees$"):
        rand_form(rng, 2, 2) - rand_form(rng, 2, 3)
    assert (zero_form(2, 5) - rand_form(rng, 2, 3)).degree == 3


def test_compose_linear_is_substitution():
    rng = random.Random(104)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(2, 4)
        d = rng.randint(1, 4)
        f = rand_form(rng, n, d, bound=50)
        # columns of A are the images of the new variables
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(m)] for _ in range(n)]
        g = compose_linear(f, a)
        y = rand_point(rng, m, bound=8)
        x = tuple(sum(a[i][j] * y[j] for j in range(m)) for i in range(n))
        assert evaluate_form(g, y) == evaluate_form(f, x)


def test_multiply_is_pointwise_product():
    rng = random.Random(105)
    for _ in range(25):
        n = rng.randint(2, 4)
        f = rand_form(rng, n, rng.randint(0, 3), bound=60)
        g = rand_form(rng, n, rng.randint(0, 3), bound=60)
        h = multiply(f, g)
        assert h.degree == f.degree + g.degree
        p = rand_point(rng, n, bound=7)
        assert evaluate_form(h, p) == evaluate_form(f, p) * evaluate_form(g, p)


# the per-monomial composition compose_linear ran before it packed monomials
# into integers: exponent tuples, one product of linear-form powers per
# monomial of f


def _tuple_mul(p, q):
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out.get(key, 0) + ca * cb
    return out


def _compose_per_monomial(f, matrix):
    n, k = f.dimension, len(matrix[0])
    if f.is_zero:
        return zero_form(k, f.degree)
    coeffs, den_f = clear_denominators(f.coefficients.values())
    cols = [clear_denominators(col) for col in zip(*matrix)]
    col_den = [den for _, den in cols]
    int_rows = list(zip(*(col for col, _ in cols)))
    zero_k = (0,) * k
    tables = []
    for i in range(n):
        linear = {tuple(int(t == j) for t in range(k)): c for j, c in enumerate(int_rows[i]) if c}
        table = [{zero_k: 1}]
        for _ in range(max(idx[i] for idx in f.coefficients)):
            table.append(_tuple_mul(table[-1], linear))
        tables.append(table)
    acc = {}
    for idx, c in zip(f.coefficients, coeffs):
        prod = {zero_k: c}
        for i, e in enumerate(idx):
            if e:
                prod = _tuple_mul(prod, tables[i][e])
        for key, v in prod.items():
            acc[key] = acc.get(key, 0) + v
    terms = {}
    for key, v in acc.items():
        if v:
            terms[key] = Fraction(v, den_f * math.prod(dj**e for dj, e in zip(col_den, key)))
    return HomogeneousForm(k, f.degree, terms)


def test_compose_linear_matches_the_per_monomial_algorithm():
    rng = random.Random(107)
    for _ in range(150):
        n, k, d = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 6)
        f = zero_form(n, d) if rng.random() < 0.1 else rand_form(rng, n, d, bound=50)
        a = [
            [Fraction(0)] * k if rng.random() < 0.2
            else [rand_fraction(rng, 50) if rng.random() < 0.8 else Fraction(0) for _ in range(k)]
            for _ in range(n)
        ]
        got, want = compose_linear(f, a), _compose_per_monomial(f, a)
        assert (got.dimension, got.degree) == (want.dimension, want.degree) == (k, d)
        # same terms in the same order, so float evaluation sums alike
        assert list(got.coefficients.items()) == list(want.coefficients.items())
        g = rand_form(rng, n, rng.randint(0, 3), bound=50)
        fi, den_f = clear_denominators(f.coefficients.values())
        gi, den_g = clear_denominators(g.coefficients.values())
        product = _tuple_mul(dict(zip(f.coefficients, fi)), dict(zip(g.coefficients, gi)))
        want = {idx: Fraction(v, den_f * den_g) for idx, v in product.items() if v}
        assert list(multiply(f, g).coefficients.items()) == list(want.items())


# ---------------------------------------------------------------------------
# towers


def test_tower_evaluate_divides_by_factorials():
    rng = random.Random(106)
    for _ in range(20):
        n = rng.randint(2, 3)
        top = rng.randint(0, 5)
        forms = [rand_form(rng, n, r, bound=30) for r in range(top + 1)]
        tower = TaylorTower(n, tuple(forms))
        p = rand_point(rng, n, bound=6)
        expect = sum(
            evaluate_form(forms[r], p) / Fraction(math.factorial(r))
            for r in range(top + 1)
        )
        assert tower_evaluate(tower, p) == expect
        if top >= 2:
            partial = sum(
                evaluate_form(forms[r], p) / Fraction(math.factorial(r))
                for r in range(2)
            )
            assert tower_evaluate(tower, p, order=1) == partial


def test_tower_rejects_wrong_degree_entry():
    bad = HomogeneousForm(2, 2, {(1, 1): Fraction(1)})
    with pytest.raises(FormError):
        TaylorTower(2, (constant_form(2, 1), bad))


def test_tower_order_cap():
    tower = TaylorTower(2, (constant_form(2, 1),))
    with pytest.raises(FormError):
        tower_evaluate(tower, (1, 1), order=3)


# ---------------------------------------------------------------------------
# the integer paths against the Fraction code they replaced


def _reference_evaluate(f, point):
    # evaluate_form as it was before rational points ran on integers; its
    # float path is still this loop
    if not f.coefficients:
        return Fraction(0) if not any(isinstance(x, float) for x in point) else 0.0
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


def _same_value(got, want):
    """Equal and of the same type; floats bit for bit."""
    if type(got) is not type(want):
        return False
    return got.hex() == want.hex() if isinstance(want, float) else got == want


def _rand_coordinate(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("fraction", "int", "float"))
    if kind == "fraction":
        return rand_fraction(rng, 30)
    if kind == "int":
        return rng.randint(-9, 9)
    return rng.uniform(-3, 3)


@pytest.mark.parametrize("kind", ["fraction", "int", "float", "mixed"])
def test_evaluate_form_matches_the_fraction_loop(kind):
    rng = random.Random(1501)
    for _ in range(200):
        n, d = rng.randint(1, 5), rng.randint(0, 6)
        f = zero_form(n, d) if rng.random() < 0.1 else rand_form(rng, n, d, bound=50, density=rng.random())
        p = tuple(_rand_coordinate(rng, kind) for _ in range(n))
        got, want = evaluate_form(f, p), _reference_evaluate(f, p)
        assert _same_value(got, want), (f.coefficients, p)


def test_evaluate_form_on_zero_forms_and_bool_coordinates():
    for point in [(1, Fraction(1, 2)), (True, 3), (0.5, 2), (False, 1.0)]:
        want = _reference_evaluate(zero_form(2, 3), point)
        assert _same_value(evaluate_form(zero_form(2, 3), point), want)
    f = HomogeneousForm(2, 2, {(2, 0): Fraction(3, 4), (1, 1): Fraction(-1, 3), (0, 2): Fraction(5)})
    for point in [(True, Fraction(2, 3)), (False, True), (True, 2.5)]:
        got = evaluate_form(f, point)
        assert _same_value(got, _reference_evaluate(f, point))
    assert evaluate_form(f, (True, Fraction(2, 3))) == Fraction(3, 4) - Fraction(2, 9) + Fraction(20, 9)


def _recursive_basis(n, d):
    # monomial_basis as it was, a recursion that closed over itself
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), d, n)
    return out


def test_monomial_basis_matches_the_recursion_and_shares_its_keys():
    for n in range(1, 7):
        for d in range(0, 9):
            basis = monomial_basis(n, d)
            assert basis == _recursive_basis(n, d)
            assert all(a is b for a, b in zip(basis, monomial_basis(n, d)))


def _check_library_form(g):
    """g holds what the validating constructor would keep: no zero
    coefficient, Fraction values, and the shared key for each exponent."""
    assert all(type(c) is Fraction and c != 0 for c in g.coefficients.values())
    again = HomogeneousForm(g.dimension, g.degree, g.coefficients)
    assert again == g and list(again.coefficients.items()) == list(g.coefficients.items())
    assert all(a is b for a, b in zip(again.coefficients, g.coefficients))


def test_library_built_forms_equal_validated_forms():
    from analytica.interpolation import DivisibilityError, divide_by_linear

    rng = random.Random(1502)
    for _ in range(150):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        f = rand_form(rng, n, d, bound=30)
        g = f if rng.random() < 0.2 else rand_form(rng, n, d, bound=30)
        k = rng.randint(1, 4)
        matrix = [[rand_fraction(rng, 9) if rng.random() < 0.7 else 0 for _ in range(k)] for _ in range(n)]
        linear = rand_form(rng, n, 1, bound=9, density=0.6)
        coeffs = [f.coefficients.get(idx, 0) for idx in monomial_basis(n, d)]
        built = [
            compose_linear(f, matrix),
            multiply(f, g),
            multiply(f, linear),
            f + g,
            f - g,
            -f,
            f.scale(0),
            form_from_coefficients(n, d, coeffs),
            divide_by_linear(multiply(f, linear), linear),
        ]
        try:
            built.append(divide_by_linear(multiply(f, linear) + rand_form(rng, n, d + 1, bound=9), linear))
        except DivisibilityError as exc:
            built.append(exc.remainder)
        for form in built:
            _check_library_form(form)
        # sums keep the order of the dict update they replaced
        for op, form in ((operator.add, f + g), (operator.sub, f - g)):
            terms = dict(f.coefficients)
            for idx, c in g.coefficients.items():
                terms[idx] = op(terms.get(idx, Fraction(0)), c)
            assert list(form.coefficients.items()) == [(i, c) for i, c in terms.items() if c]
