"""Shared generators for the seeded property tests.

Everything takes an explicit random.Random so failures reproduce from the
seed printed by the test that drew it.
"""

import math
import operator
import random
from fractions import Fraction

import pytest
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from analytica.forms import HomogeneousForm, monomial_basis
from analytica.geometry import Hyperplane, PoleError, VectorPlane2
from analytica.oracle import Add, Const, Div, Mul, Neg, Pow, Sub, Var, fold
from analytica._linalg import mat, rank


def rand_fraction(rng, bound=1000):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def rand_point(rng, n, bound=20):
    return tuple(rand_fraction(rng, bound) for _ in range(n))


def rand_form(rng, n, d, bound=1000, density=0.7):
    """Random nonzero form with numerators and denominators up to bound."""
    basis = monomial_basis(n, d)
    terms = {}
    for idx in basis:
        if rng.random() < density:
            terms[idx] = rand_fraction(rng, bound)
    if not any(terms.values()):
        terms[basis[rng.randrange(len(basis))]] = Fraction(1)
    return HomogeneousForm(n, d, terms)


def rand_hyperplane(rng, n, bound=9):
    while True:
        v = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
        if any(v):
            return Hyperplane(v)


def rand_hyperplane_set(rng, n, count):
    """Distinct random hyperplanes; distinct normals are general position
    with probability 1, and the gluing itself rejects the rest."""
    planes = []
    seen = set()
    while len(planes) < count:
        h = rand_hyperplane(rng, n)
        if h.normal not in seen:
            seen.add(h.normal)
            planes.append(h)
    return planes


def rand_axis_plane(rng, n, bound=5):
    while True:
        b1 = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
        b2 = tuple(Fraction(rng.randint(-bound, bound)) for _ in range(n))
        if rank(mat((b1, b2))) == 2:
            return VectorPlane2((b1, b2))


def _float_constant(value):
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _float_pow(a, k):
    try:
        return a**k
    except OverflowError:
        return math.copysign(math.inf, a) if k % 2 else math.inf


_SCALAR_FLOAT = {
    Const: _float_constant,
    Neg: operator.neg,
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
    Pow: _float_pow,
}


def scalar_float(f, point):
    """The oracle f at a point, folded over Python floats one op at a time:
    the scalar float evaluation that evaluate_grid and evaluate_oracle's
    float mode must reproduce bit for bit.  The guard wins on exact input
    bits, a constant or a power beyond binary64 range is +-inf, and an exact
    zero divisor (either sign) raises PoleError with the float point."""
    p = tuple(map(float, point))
    if f.guard is not None and p == tuple(map(float, f.guard[0])):
        return float(f.guard[1])
    try:
        return fold(f.expression, {**_SCALAR_FLOAT, Var: lambda i: p[i - 1]})[-1]
    except ZeroDivisionError:
        raise PoleError("division by zero", p) from None


def unfactored_fold(e, ring):
    """The (numerator, denominator) pair of the program in the ring's
    polynomials as oracle.fold_fraction built it before its denominators
    were factored: a sum cross-multiplies, a quotient swaps the divisor's
    pair, and a power multiplies k times.  The reference the factored fold
    is checked against."""
    one, mul = ring.one, ring.mul

    def add(negate):
        def step(a, b):
            (n1, d1), (n2, d2) = a, b
            t2 = mul(n2, d1)
            return ring.add(mul(n1, d2), ring.neg(t2) if negate else t2), mul(d1, d2)

        return step

    def power(a, k):
        n, d = one, one
        for _ in range(k):
            n, d = mul(n, a[0]), mul(d, a[1])
        return n, d

    algebra = {
        Const: ring.const,
        Var: ring.var,
        Neg: lambda a: (ring.neg(a[0]), a[1]),
        Add: add(False),
        Sub: add(True),
        Mul: lambda a, b: (mul(a[0], b[0]), mul(a[1], b[1])),
        Div: lambda a, b: (mul(a[0], b[1]), mul(a[1], ring.divisor(b[0]))),
        Pow: power,
    }
    return fold(e, algebra)[-1]


def divisor_programs():
    """Programs in x1..x3 whose divisors nest and repeat: quotients by
    q = |x|^2 and by its powers, quotients of quotients, sums of quotients
    over shared and distinct divisors, powers of quotients, a power 0 and a
    rational constant."""
    x1, x2, x3 = Var(1), Var(2), Var(3)
    q = Add(Add(Pow(x1, 2), Pow(x2, 2)), Pow(x3, 2))
    third = Const(Fraction(1, 3))
    return [
        Div(x1, q),
        Div(Div(x1, q), q),
        Div(x1, Div(x2, q)),
        Add(Div(x1, q), Div(x2, Pow(q, 2))),
        Sub(Div(x1, Pow(q, 3)), Div(Mul(x2, x3), Pow(q, 2))),
        Div(Const(Fraction(1)), Add(Div(Const(Fraction(1)), q), Div(x1, q))),
        Div(Div(x1, Sub(x2, third)), Div(x3, Sub(x2, third))),
        Mul(Pow(Div(x1, q), 3), Pow(Div(q, Add(x2, third)), 2)),
        Add(Pow(Div(x1, Sub(x2, third)), 0), Div(third, Mul(q, Add(x1, third)))),
        Neg(Div(Add(Div(x1, q), third), Sub(Div(x2, q), Div(x3, Pow(q, 2))))),
    ]


def to_domain(m, ncols=0):
    """A matrix of Fractions or ints as a sympy DomainMatrix over QQ, the
    independent reference for the exact linear algebra; ncols is only read
    when m has no rows."""
    rows = [[QQ(x.numerator, x.denominator) for x in r] for r in m]
    return DomainMatrix(rows, (len(rows), len(rows[0]) if rows else ncols), QQ)


def from_domain(d):
    return tuple(tuple(Fraction(int(x.numerator), int(x.denominator)) for x in r) for r in d.to_list())


def reference_solve(a, b):
    """The unique x with a x = b, by sympy's LU solve."""
    return tuple(r[0] for r in from_domain(to_domain(a).lu_solve(to_domain([(v,) for v in b]))))


@pytest.fixture
def rng():
    return random.Random(987654321)
