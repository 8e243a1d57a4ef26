"""The exact linear algebra against an independent reference: sympy's
DomainMatrix over QQ, on seeded random rational matrices with dependent and
zero rows, and on the edge cases (1 x 1, empty, singular, inconsistent)."""

import random
from fractions import Fraction

import pytest

from analytica import _linalg as la

from conftest import from_domain, rand_fraction, reference_solve, to_domain


def rand_matrix(rng, nrows, ncols):
    """Sparse rational rows; some are zero and some combine earlier rows."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.1:
            row = [Fraction(0)] * ncols
        elif roll < 0.35 and rows:
            picks = rng.sample(rows, min(len(rows), 2))
            weights = [rand_fraction(rng, 9) for _ in picks]
            row = [sum((w * r[c] for w, r in zip(weights, picks)), Fraction(0)) for c in range(ncols)]
        else:
            row = [rng.choice((Fraction(0), rand_fraction(rng, 30))) for _ in range(ncols)]
        rows.append(row)
    return la.mat(rows)


def expected_solve(a, b):
    """The solution, or the error class: InconsistentSystemError whenever b
    is outside the column space, even if the columns are also dependent."""
    ncols = len(a[0]) if a else 0
    r = to_domain(a, ncols).rank()
    if to_domain(tuple(row + (v,) for row, v in zip(a, b)), ncols + 1).rank() > r:
        return la.InconsistentSystemError
    if r < ncols:
        return la.SingularMatrixError
    return reference_solve(a, b) if a else ()


def check_solve(a, b):
    expected = expected_solve(a, b)
    if isinstance(expected, tuple):
        assert la.solve(a, b) == expected
    else:
        with pytest.raises(expected):
            la.solve(a, b)


@pytest.mark.parametrize("seed", range(6))
def test_rank_rref_and_nullspace_match_sympy(seed):
    rng = random.Random(8100 + seed)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        ref = to_domain(m)
        assert la.rank(m) == ref.rank()
        rows, pivots = ref.rref()
        nonzero = from_domain(rows)[: len(pivots)]
        assert la.rref(m) == (nonzero, tuple(pivots))
        assert la.nullspace(m) == list(from_domain(ref.nullspace()))


@pytest.mark.parametrize("seed", range(6))
def test_solve_matches_sympy(seed):
    # square and overdetermined systems, each with a consistent right-hand
    # side (a times a random x) and a random one, which is mostly inconsistent
    # once the system is overdetermined or singular
    rng = random.Random(8200 + seed)
    for _ in range(40):
        ncols = rng.randint(1, 6)
        a = rand_matrix(rng, ncols + rng.choice((0, 0, 1, 3)), ncols)
        x = [rand_fraction(rng, 50) for _ in range(ncols)]
        check_solve(a, la.matvec(a, x))
        check_solve(a, [rand_fraction(rng, 50) for _ in a])


@pytest.mark.parametrize("seed", range(4))
def test_inverse_matches_sympy(seed):
    rng = random.Random(8300 + seed)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rand_matrix(rng, n, n)
        ref = to_domain(m)
        if ref.rank() < n:
            with pytest.raises(la.SingularMatrixError):
                la.inverse(m)
        else:
            assert la.inverse(m) == from_domain(ref.inv())


@pytest.mark.parametrize("seed", range(3))
def test_inverse_rows_and_products_match_sympy(seed):
    rng = random.Random(8400 + seed)
    for _ in range(40):
        n, k = rng.randint(1, 6), rng.randint(0, 6)
        m = rand_matrix(rng, n, n)
        if to_domain(m).rank() == n:
            rows = rng.randint(0, n)
            assert la.inverse(m, rows) == from_domain(to_domain(m).inv())[:rows]
        b = rand_matrix(rng, n, k)
        assert la.matmul(m, b) == from_domain(to_domain(m) * to_domain(b, k))
    with pytest.raises(la.LinAlgError, match="dimension mismatch"):
        la.matmul(la.mat(((1, 2),)), la.mat(((1,),)))
    assert la.matmul(la.mat(((1, 2),)), ()) == ((),)


def test_one_by_one_and_empty_matrices():
    for x in (Fraction(0), Fraction(-3, 7)):
        m = la.mat(((x,),))
        assert la.rank(m) == to_domain(m).rank()
        assert la.nullspace(m) == list(from_domain(to_domain(m).nullspace()))
        check_solve(m, (Fraction(2, 5),))
        check_solve(m, (Fraction(0),))
    assert la.inverse(la.mat(((Fraction(-3, 7),),))) == ((Fraction(-7, 3),),)
    with pytest.raises(la.SingularMatrixError):
        la.inverse(la.mat(((Fraction(0),),)))
    assert la.rank(()) == 0
    assert la.rref(()) == ((), ())
    assert la.nullspace(()) == []
    assert la.solve((), ()) == ()
    assert la.inverse(()) == ()


def test_an_inconsistent_system_is_reported_before_a_singular_one():
    # both systems are rank-deficient and have no solution
    with pytest.raises(la.InconsistentSystemError):
        la.solve(la.mat(((1, 1), (1, 1))), la.vec((1, 2)))
    with pytest.raises(la.InconsistentSystemError):
        la.solve(la.mat(((1, 2, 0), (2, 4, 0), (0, 0, 0))), la.vec((1, 2, 1)))
    with pytest.raises(la.SingularMatrixError):
        la.solve(la.mat(((1, 1), (1, 1))), la.vec((1, 1)))


def test_clear_denominators():
    assert la.clear_denominators([Fraction(1, 2), Fraction(-2, 3), 4]) == ([3, -4, 24], 6)
    assert la.clear_denominators([]) == ([], 1)
