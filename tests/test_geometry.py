import random
from fractions import Fraction

import pytest

from analytica.certify import sample_spheres
from analytica.geometry import (
    AffinePlane2,
    Cone,
    DegenerateSphereError,
    GeometryError,
    Hyperplane,
    PoleError,
    SphereThroughOrigin,
    VectorPlane2,
    general_position,
    in_cone,
    integer_plane_in_subcone,
    invert_mu,
    invert_mu_centered,
    norm_sq,
    plane_in_subcone,
    plane_to_sphere,
    sphere_to_plane,
    tidy_plane_basis,
)
from analytica._linalg import clear_denominators, dot, inverse, mat, matmul, rank, transpose

from conftest import rand_axis_plane, rand_point


def nonzero_point(rng, n):
    while True:
        p = rand_point(rng, n, bound=30)
        if any(p):
            return p


def test_invert_mu_is_involution():
    rng = random.Random(201)
    for _ in range(200):
        n = rng.randint(2, 5)
        x = nonzero_point(rng, n)
        assert invert_mu(invert_mu(x)) == x


def test_invert_mu_norm_product():
    # |mu(x)| * |x| = 1, checked exactly on the squares
    rng = random.Random(202)
    for _ in range(200):
        x = nonzero_point(rng, rng.randint(2, 5))
        assert norm_sq(invert_mu(x)) * norm_sq(x) == 1


def test_invert_mu_rejects_origin():
    with pytest.raises(PoleError):
        invert_mu((0, 0, 0))


def test_centered_inversion_matches_translation():
    rng = random.Random(203)
    for _ in range(100):
        n = rng.randint(2, 4)
        c = rand_point(rng, n, bound=10)
        x = rand_point(rng, n, bound=10)
        if x == c:
            continue
        got = invert_mu_centered(x, c)
        shifted = invert_mu(tuple(a - b for a, b in zip(x, c)))
        assert got == tuple(a + b for a, b in zip(shifted, c))
        assert invert_mu_centered(got, c) == x


def test_plane_point_at():
    rng = random.Random(204)
    for _ in range(40):
        n = rng.randint(3, 5)
        axis = rand_axis_plane(rng, n)
        base = rand_point(rng, n, bound=6)
        plane = AffinePlane2(base, axis.basis)
        s, t = Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 4)
        p = plane.point_at(s, t)
        b1, b2 = plane.basis
        assert p == tuple(
            x + s * u + t * v for x, u, v in zip(plane.base_point, b1, b2)
        )
        fp = plane.point_at_float(float(s), float(t))
        assert all(abs(a - float(b)) < 1e-12 for a, b in zip(fp, p))


def test_plane_coordinates_of_inverts_point_at():
    rng = random.Random(205)
    for _ in range(40):
        n = rng.randint(3, 5)
        plane = AffinePlane2(rand_point(rng, n, bound=6), rand_axis_plane(rng, n).basis)
        s, t = rand_point(rng, 2, bound=9)
        p = plane.point_at(s, t)
        assert plane.coordinates_of(p) == (s, t)
        # a step off the plane, along a vector outside its direction space
        for k in range(n):
            step = tuple(Fraction(int(i == k), 7) for i in range(n))
            if not VectorPlane2(plane.basis).contains(step):
                assert plane.coordinates_of(tuple(a + b for a, b in zip(p, step))) is None


def test_cone_membership_scale_invariant():
    rng = random.Random(206)
    for _ in range(60):
        n = rng.randint(3, 4)
        cone = Cone(rand_axis_plane(rng, n), Fraction(1, 2), Fraction(1))
        p = nonzero_point(rng, n)
        lam = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        assert in_cone(cone, p) == in_cone(cone, tuple(lam * x for x in p))
        b1, b2 = cone.axis.basis
        assert in_cone(cone, b1) and in_cone(cone, b2)


def test_plane_in_subcone_contains_axis():
    rng = random.Random(207)
    for _ in range(20):
        n = rng.randint(3, 4)
        axis = rand_axis_plane(rng, n)
        cone = Cone(axis, Fraction(1, 2), Fraction(1))
        assert plane_in_subcone(cone, axis)


def _reference_orth_part(cone, p):
    # Cone.orth_part as it was: the axis dual rows from the inverse Gram
    # matrix, all in Fractions
    b = mat(cone.axis.basis)
    g = inverse(matmul(b, transpose(b)))
    r1, r2 = (tuple(gi[0] * u + gi[1] * v for u, v in zip(*b)) for gi in g)
    (u, v), c1, c2 = cone.axis.basis, dot(r1, p), dot(r2, p)
    return tuple(x - c1 * ui - c2 * vi for x, ui, vi in zip(p, u, v))


def _reference_in_cone(cone, p):
    n2 = norm_sq(p)
    return n2 == 0 or norm_sq(_reference_orth_part(cone, p)) < cone.theta**2 * n2


def _reference_plane_in_subcone(cone, w1, w2):
    # plane_in_subcone as it was, on the Fraction orthogonal parts
    o1, o2 = _reference_orth_part(cone, w1), _reference_orth_part(cone, w2)
    m00, m01, m11 = dot(o1, o1), dot(o1, o2), dot(o2, o2)
    c = m00 * m11 - m01 * m01
    if c != 0:
        return False
    g00, g01, g11 = dot(w1, w1), dot(w1, w2), dot(w2, w2)
    a = g00 * g11 - g01 * g01
    bq = -(m00 * g11 + m11 * g00 - 2 * m01 * g01)
    t = cone.theta * cone.theta
    return a * t * t + bq * t + c > 0 and 2 * a * t + bq > 0


@pytest.mark.parametrize("seed", range(4))
def test_integer_cone_predicates_match_the_fraction_reference(seed):
    # planes through a line of the axis, tilted by a random vector at
    # random scales, so that both answers come up; and random points
    rng = random.Random(2100 + seed)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(2, 5)
        axis = rand_axis_plane(rng, n)
        scale = (Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        axis = VectorPlane2(tuple(tuple(s * x for x in b) for s, b in zip(scale, axis.basis)))
        cone = Cone(axis, Fraction(rng.randint(1, 12), 12))
        u, v = axis.basis
        for _ in range(10):
            k1, k2 = rng.randint(-3, 3), rng.randint(-3, 3)
            a = tuple(k1 * x + k2 * y for x, y in zip(u, v))
            tilt = Fraction(rng.randint(1, 9), rng.randint(1, 20))
            b = tuple(rng.randint(-2, 2) * x + tilt * rng.randint(-3, 3) for x in v)
            if rank(mat((a, b))) < 2:
                continue
            want = _reference_plane_in_subcone(cone, a, b)
            assert plane_in_subcone(cone, VectorPlane2((a, b))) == want
            ints = [clear_denominators(w)[0] for w in (a, b)]
            assert integer_plane_in_subcone(cone.projector(), cone.theta, *ints) == want
            outcomes.add(want)
            p = rand_point(rng, n, bound=9)
            assert in_cone(cone, p) == _reference_in_cone(cone, p)
            assert in_cone(cone, a) == _reference_in_cone(cone, a)
    assert outcomes == {True, False}


def test_general_position_detects_repeats():
    planes = [Hyperplane((1, 0, 0)), Hyperplane((0, 1, 0)), Hyperplane((0, 0, 1))]
    assert general_position(planes)
    assert not general_position(planes + [Hyperplane((2, 0, 0))])


def test_tidy_plane_basis_spans_same_plane():
    rng = random.Random(208)
    for _ in range(60):
        n = rng.randint(3, 5)
        axis = rand_axis_plane(rng, n)
        b1, b2 = axis.basis
        u, v = tidy_plane_basis(b1, b2)
        assert rank(mat((b1, b2, u, v))) == 2
        assert dot(u, v) == 0
        assert 1 <= norm_sq(u) < 4 and 1 <= norm_sq(v) < 4


# ---------------------------------------------------------------------------
# spheres


def test_sphere_contains_its_samples():
    rng = random.Random(209)
    spheres = sample_spheres(3, 10, rng) + sample_spheres(5, 5, rng)
    for sphere in spheres:
        for p in sphere.sample_points(4, rng):
            assert sphere.contains(p)
            # defining identity |x|^2 = c . x
            assert norm_sq(p) == dot(sphere.c, p)


def test_sphere_mu_image_lies_on_plane():
    # the inversion maps sphere points (away from 0) onto {c . y = 1}
    rng = random.Random(210)
    for sphere in sample_spheres(3, 12, rng):
        plane = sphere_to_plane(sphere)
        for p in sphere.sample_points(3, rng):
            if all(x == 0 for x in p):
                continue
            y = invert_mu(p)
            assert dot(sphere.c, y) == 1
            # and y sits inside the affine plane chart
            b1, b2 = plane.basis
            d = tuple(a - b for a, b in zip(y, plane.base_point))
            assert rank(mat((b1, b2, d))) == 2


def test_sphere_plane_round_trip():
    rng = random.Random(211)
    for n in (3, 4, 5):
        for sphere in sample_spheres(n, 12, rng):
            plane = sphere_to_plane(sphere)
            back = plane_to_sphere(plane, sphere.basis)
            assert back.canonical() == sphere.canonical()


def test_degenerate_spheres_rejected():
    with pytest.raises(DegenerateSphereError):
        SphereThroughOrigin((0, 0, 0), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(DegenerateSphereError):
        SphereThroughOrigin(
            (0, 0, 0, 1),
            ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)),
        )
    with pytest.raises(GeometryError):
        SphereThroughOrigin((1, 0, 0), ((1, 0, 0), (2, 0, 0), (0, 0, 1)))


def test_plane_through_origin_has_no_sphere():
    plane = AffinePlane2((0, 0, 0), ((1, 0, 0), (0, 1, 0)))
    with pytest.raises(GeometryError):
        plane_to_sphere(plane, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_sample_spheres_deterministic_and_inside_ball():
    a = sample_spheres(3, 8, random.Random(77))
    b = sample_spheres(3, 8, random.Random(77))
    assert [s.canonical() for s in a] == [s.canonical() for s in b]
    for s in a:
        assert norm_sq(s.c) < 1
