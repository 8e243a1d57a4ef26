import math
import random
from fractions import Fraction

import pytest

from analytica.forms import (
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

from conftest import rand_form, rand_point


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
