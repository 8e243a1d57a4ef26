"""Exact geometric predicates and maps: cones around a 2-plane, the
inversion x -> x/|x|^2, and the correspondence between spheres through
the origin and affine planes.

All predicates compare squared norms as rationals, so no square roots
are ever taken and answers are exact.  The cone predicates clear every
vector to integers and project with one integer matrix per cone
(`Cone.projector`), so their sign tests build no Fraction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import _linalg as la
from ._linalg import InconsistentSystemError, Mat, SingularMatrixError, Vec, frac, vec


class GeometryError(ValueError):
    pass


class DegenerateSphereError(GeometryError):
    pass


class PoleError(ZeroDivisionError):
    """Raised when a map is evaluated at a point where it is undefined."""

    def __init__(self, message: str, point: Sequence | None = None):
        super().__init__(message)
        self.point = tuple(point) if point is not None else None


def norm_sq(p: Sequence[Fraction]) -> Fraction:
    return la.dot(p, p)


def carrier_to_ambient(u: Sequence, basis: Sequence[Sequence]) -> Vec:
    """The ambient point u0*b0 + u1*b1 + u2*b2 with carrier coordinates u
    in the 3-space spanned by the rows of basis."""
    return tuple(u[0] * a + u[1] * b + u[2] * c for a, b, c in zip(*basis))


@dataclass(frozen=True)
class Hyperplane:
    """A linear hyperplane {x : normal . x = 0}, normal canonicalized so its
    first nonzero entry is 1."""

    normal: Vec

    def __post_init__(self) -> None:
        n = vec(self.normal)
        lead = next((x for x in n if x != 0), None)
        if lead is None:
            raise GeometryError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", tuple(x / lead for x in n))

    @property
    def dimension(self) -> int:
        return len(self.normal)

    def chart(self) -> Mat:
        """Deterministic rational basis of the hyperplane, as an n x (n-1)
        matrix of column vectors."""
        cols = la.nullspace((self.normal,))
        return tuple(zip(*cols))


@dataclass(frozen=True)
class VectorPlane2:
    """A 2-dimensional linear subspace given by two spanning vectors."""

    basis: tuple[Vec, Vec]

    def __post_init__(self) -> None:
        b = tuple(vec(v) for v in self.basis)
        if len(b) != 2 or len(b[0]) != len(b[1]):
            raise GeometryError("a 2-plane needs exactly two vectors of equal length")
        if la.rank(la.mat(b)) != 2:
            raise GeometryError("spanning vectors are linearly dependent")
        object.__setattr__(self, "basis", b)

    @property
    def dimension(self) -> int:
        return len(self.basis[0])

    def contains(self, p: Sequence) -> bool:
        m = la.mat(self.basis + (vec(p),))
        return la.rank(m) <= 2


@dataclass(frozen=True, slots=True)
class AffinePlane2:
    """An affine 2-plane: base point plus two spanning directions."""

    base_point: Vec
    basis: tuple[Vec, Vec]

    def __post_init__(self) -> None:
        object.__setattr__(self, "base_point", vec(self.base_point))
        plane = VectorPlane2(self.basis)
        object.__setattr__(self, "basis", plane.basis)
        if len(self.base_point) != plane.dimension:
            raise GeometryError("base point dimension mismatch")

    @property
    def dimension(self) -> int:
        return len(self.base_point)

    def point_at(self, s, t) -> Vec:
        b1, b2 = self.basis
        return tuple(x + frac(s) * u + frac(t) * v for x, u, v in zip(self.base_point, b1, b2))

    def coordinates_of(self, p: Sequence) -> tuple[Fraction, Fraction] | None:
        """The (s, t) with point_at(s, t) == p, or None when p is off the plane."""
        (u, v), q = self.basis, vec(p)
        try:
            return la.solve(tuple(zip(u, v)), tuple(x - y for x, y in zip(q, self.base_point)))
        except InconsistentSystemError:
            return None

    @property
    def float_coordinates(self) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
        """The base point and the two directions as float tuples, converted
        on every call and not kept on the plane: a check converts them once
        and passes the triple to `float_point`."""
        b1, b2 = self.basis
        return tuple(map(float, self.base_point)), tuple(map(float, b1)), tuple(map(float, b2))


def float_point(coords, s, t) -> tuple:
    """The point x + s*u + t*v of the plane with float coordinates
    coords = (x, u, v), coordinate by coordinate; s and t may be numpy
    arrays, and the point's coordinates are then arrays of their broadcast
    shape."""
    base, b1, b2 = coords
    return tuple(x + s * u + t * v for x, u, v in zip(base, b1, b2))


@dataclass(frozen=True)
class Cone:
    """The open cone of directions within angular ratio theta of a 2-plane:
    points p with |orthogonal part of p| < theta * |p|.  The optional window
    radius bounds |p| when the cone is used as a local neighborhood."""

    axis: VectorPlane2
    theta: Fraction
    window: Fraction | None = None

    def __post_init__(self) -> None:
        t = frac(self.theta)
        if not (0 < t <= 1):
            raise GeometryError("cone aperture theta must satisfy 0 < theta <= 1")
        object.__setattr__(self, "theta", t)
        if self.window is not None:
            w = frac(self.window)
            if w <= 0:
                raise GeometryError("cone window must be positive")
            object.__setattr__(self, "window", w)

    @property
    def dimension(self) -> int:
        return self.axis.dimension

    def projector(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(M, g): an integer matrix M and an integer g > 0 with M / g the
        orthogonal projection onto the complement of the axis plane.  With
        u, v the axis basis cleared to integers and G their Gram matrix,
        M = det(G) I - [u v] adj(G) [u v]^T, divided by the content of M and
        det(G).  It is not kept on the cone: a caller that tests many
        vectors, such as a cone sample set, computes it once and holds it."""
        u, v = (la.clear_denominators(b)[0] for b in self.axis.basis)
        guu, guv, gvv = _idot(u, u), _idot(u, v), _idot(v, v)
        det = guu * gvv - guv * guv
        m = [
            [(det if i == j else 0) - (gvv * ui * uj - guv * (ui * vj + vi * uj) + guu * vi * vj)
             for j, (uj, vj) in enumerate(zip(u, v))]
            for i, (ui, vi) in enumerate(zip(u, v))
        ]
        content = math.gcd(det, *(x for row in m for x in row))
        return tuple(tuple(x // content for x in row) for row in m), det // content


def _idot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(u, v))


def _orth_quadratic(m: Sequence[Sequence[int]], w1: Sequence[int], w2: Sequence[int]) -> int:
    """g times o1 . o2, where o1 and o2 are the orthogonal parts of the
    integer vectors w1 and w2 and (m, g) is a cone's projector: w1^T m w2,
    since the projection is symmetric and idempotent."""
    return sum(a * _idot(row, w2) for a, row in zip(w1, m) if a)


def in_cone(cone: Cone, p: Sequence) -> bool:
    """True iff the direction of p lies strictly within the cone aperture.
    The origin is a member by convention.  Decided on p cleared to integers:
    |orthogonal part|^2 < theta^2 |p|^2 scales by the same square."""
    q = vec(p)
    if len(q) != cone.dimension:
        raise GeometryError("point dimension does not match the cone")
    q = la.clear_denominators(q)[0]
    n2 = _idot(q, q)
    if n2 == 0:
        return True
    (m, g), t = cone.projector(), cone.theta
    return t.denominator**2 * _orth_quadratic(m, q, q) < t.numerator**2 * g * n2


def plane_in_subcone(cone: Cone, candidate: VectorPlane2) -> bool:
    """True iff candidate is a 2-plane inside the cone meeting the axis plane
    in at least a line (see `integer_plane_in_subcone`)."""
    if candidate.dimension != cone.dimension:
        raise GeometryError("candidate plane dimension mismatch")
    w1, w2 = (la.clear_denominators(v)[0] for v in candidate.basis)
    return integer_plane_in_subcone(cone.projector(), cone.theta, w1, w2)


def integer_plane_in_subcone(
    projector: tuple[Sequence[Sequence[int]], int], theta: Fraction, w1: Sequence[int], w2: Sequence[int]
) -> bool:
    """plane_in_subcone for the cone with the given projector
    (`Cone.projector`) and aperture theta, and the plane spanned by the
    independent integer vectors w1 and w2.

    Exact: the worst direction ratio is the largest generalized eigenvalue
    of the 2x2 pencil (M, G), with M the Gram matrix of the orthogonal parts
    and G that of w1, w2, compared against t = theta^2 through its
    characteristic polynomial q(t) = det G t^2 + b t + det M.  A plane
    meeting the axis in a line has det M = 0; then q(t) > 0 with t right of
    the parabola vertex reads det G t + b > 0, since det G > 0.  Every
    quantity is kept times the projector's g (M's entries) or g^2 (det M),
    which leaves the signs alone."""
    m, g = projector
    m00, m01, m11 = _orth_quadratic(m, w1, w1), _orth_quadratic(m, w1, w2), _orth_quadratic(m, w2, w2)
    if m00 * m11 != m01 * m01:
        return False  # independent orthogonal parts: it meets the axis only at 0
    g00, g01, g11 = _idot(w1, w1), _idot(w1, w2), _idot(w2, w2)
    a = g00 * g11 - g01 * g01
    b = -(m00 * g11 + m11 * g00 - 2 * m01 * g01)
    return a * g * theta.numerator**2 + b * theta.denominator**2 > 0


def general_position(hyperplanes: Sequence[Hyperplane], n: int | None = None) -> bool:
    """True iff every subset of r <= n of the normals is linearly independent."""
    if not hyperplanes:
        raise GeometryError("general position of an empty family is undefined")
    if n is None:
        n = hyperplanes[0].dimension
    if any(h.dimension != n for h in hyperplanes):
        raise GeometryError("hyperplane dimensions disagree")
    r = min(len(hyperplanes), n)
    normals = [h.normal for h in hyperplanes]
    for subset in itertools.combinations(normals, r):
        if la.rank(la.mat(subset)) < r:
            return False
    return True


def invert_mu(x: Sequence) -> Vec:
    """The inversion x -> x / |x|^2; an involution away from the origin."""
    p = vec(x)
    n2 = norm_sq(p)
    if n2 == 0:
        raise PoleError("inversion is undefined at the origin", p)
    return tuple(c / n2 for c in p)


def invert_mu_centered(x: Sequence, center: Sequence) -> Vec:
    """Inversion centered at a point: mu_p(x) = mu(x - p) + p."""
    p = vec(center)
    q = vec(x)
    if len(p) != len(q):
        raise GeometryError("point and center dimensions disagree")
    diff = tuple(a - b for a, b in zip(q, p))
    inv = invert_mu(diff)
    return tuple(a + b for a, b in zip(inv, p))


def tidy_plane_basis(b1: Sequence, b2: Sequence) -> tuple[Vec, Vec]:
    """Orthogonalize b2 against b1 and rescale both by powers of two so the
    squared norms land in [1, 4).  Keeps charts metrically honest while
    staying rational."""
    u = vec(b1)
    v = vec(b2)
    proj = la.dot(u, v) / la.dot(u, u)
    v = tuple(y - proj * x for x, y in zip(u, v))

    def rescale(w: Vec) -> Vec:
        n2 = norm_sq(w)
        if n2 == 0:
            raise GeometryError("cannot rescale a zero vector")
        s = Fraction(1)
        while n2 * s * s >= 4:
            s /= 2
        while n2 * s * s < 1:
            s *= 2
        return tuple(x * s for x in w)

    return rescale(u), rescale(v)


@dataclass(frozen=True, slots=True)
class SphereThroughOrigin:
    """The 2-sphere {x : |x|^2 = c . x} inside the 3-space spanned by
    `basis` (three vectors in R^n).  Degenerate when c annihilates the
    3-space."""

    c: Vec
    basis: tuple[Vec, Vec, Vec]

    def __post_init__(self) -> None:
        object.__setattr__(self, "c", vec(self.c))
        b = tuple(vec(v) for v in self.basis)
        if len(b) != 3:
            raise GeometryError("a sphere needs a basis of exactly three vectors")
        if any(len(v) != len(self.c) for v in b):
            raise GeometryError("sphere basis dimension mismatch")
        if la.rank(la.mat(b)) != 3:
            raise DegenerateSphereError("sphere basis is rank-deficient")
        object.__setattr__(self, "basis", b)
        if all(la.dot(self.c, v) == 0 for v in b):
            raise DegenerateSphereError(
                "coefficient vector is orthogonal to the carrier 3-space"
            )

    @property
    def dimension(self) -> int:
        return len(self.c)

    def contains(self, p: Sequence) -> bool:
        q = vec(p)
        if la.rank(la.mat(self.basis + (q,))) > 3:
            return False
        return norm_sq(q) == la.dot(self.c, q)

    def canonical(self) -> tuple:
        """Span of the carrier space plus the action of c on its canonical
        basis; two spheres are the same set iff these agree."""
        rows = la.rref(la.mat(self.basis))[0]
        return (rows, tuple(la.dot(self.c, r) for r in rows))

    def sample_points(self, count: int, rng) -> list[Vec]:
        """Rational points on the sphere, excluding the origin: each is the
        second intersection of a random rational line through 0."""
        g = la.matmul(la.mat(self.basis), la.transpose(la.mat(self.basis)))
        a = tuple(la.dot(self.c, v) for v in self.basis)
        out: list[Vec] = []
        while len(out) < count:
            m = tuple(Fraction(rng.randint(-9, 9)) for _ in range(3))
            if all(x == 0 for x in m):
                continue
            denom = la.dot(m, la.matvec(g, m))
            numer = la.dot(a, m)
            if numer == 0 or denom == 0:
                continue
            t = numer / denom
            out.append(carrier_to_ambient(tuple(t * x for x in m), self.basis))
        return out


def sphere_to_plane(sphere: SphereThroughOrigin) -> AffinePlane2:
    """Image of the sphere minus the origin under the inversion: the affine
    plane {y in span(basis) : c . y = 1}."""
    b = la.mat(sphere.basis)           # 3 x n rows
    gram = la.matmul(b, la.transpose(b))
    a = la.matvec(b, sphere.c)         # action of c in carrier coordinates
    if all(x == 0 for x in a):
        raise DegenerateSphereError("sphere is degenerate")
    # closest point of {a . u = 1} to the origin of the carrier space,
    # measured in ambient metric: minimize |W u|^2 subject to a . u = 1
    ginv_a = la.solve(gram, a)
    scale = la.dot(a, ginv_a)
    u0 = tuple(x / scale for x in ginv_a)
    kernel = la.nullspace((a,))
    if len(kernel) != 2:
        raise DegenerateSphereError("sphere carrier space is degenerate")
    base = carrier_to_ambient(u0, sphere.basis)
    d1, d2 = tidy_plane_basis(
        carrier_to_ambient(kernel[0], sphere.basis), carrier_to_ambient(kernel[1], sphere.basis)
    )
    return AffinePlane2(base, (d1, d2))


def plane_to_sphere(plane: AffinePlane2, carrier_basis: Sequence[Sequence]) -> SphereThroughOrigin:
    """Inverse of sphere_to_plane: the sphere through the origin whose
    inversion image is the given plane inside span(carrier_basis).

    The returned coefficient vector is the canonical one lying in the
    carrier space.  Raises GeometryError when the plane passes through the
    origin or leaves the carrier space.
    """
    w = la.mat(carrier_basis)
    if len(w) != 3 or la.rank(w) != 3:
        raise GeometryError("carrier basis must consist of three independent vectors")
    gram = la.matmul(w, la.transpose(w))

    def carrier_coords(v: Vec) -> Vec:
        coords = la.solve(gram, la.matvec(w, v))
        if carrier_to_ambient(coords, w) != tuple(v):
            raise GeometryError("plane does not lie inside the carrier space")
        return coords

    ub = carrier_coords(plane.base_point)
    k1 = carrier_coords(plane.basis[0])
    k2 = carrier_coords(plane.basis[1])
    try:
        a = la.solve(la.mat((k1, k2, ub)), (Fraction(0), Fraction(0), Fraction(1)))
    except (SingularMatrixError, InconsistentSystemError):
        raise GeometryError("plane passes through the origin; no sphere corresponds")
    c = carrier_to_ambient(la.solve(gram, a), w)
    return SphereThroughOrigin(c, tuple(tuple(r) for r in w))
