"""Exact geometric predicates and maps: cones around a 2-plane, the
inversion x -> x/|x|^2, and the correspondence between spheres through
the origin and affine planes.

All predicates compare squared norms as rationals, so no square roots
are ever taken and answers are exact.  The cone predicates clear every
vector to integers and project with one integer matrix per cone
(`Cone.projector`), so their sign tests build no Fraction.  The sphere
charts do the same: a sphere's carrier basis and coefficient vector are
cleared to integers over one denominator each, the plane of a chart
(`sphere_to_plane`, `centered_inversion_plane`), `tidy_plane_basis`,
`SphereThroughOrigin.sample_points` and `SphereThroughOrigin.contains`
compute on integers, and one Fraction is built per returned coordinate.
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
    in the 3-space spanned by the rows of basis; integer u and rows give an
    integer vector."""
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
    (u, du), (v, dv) = la.clear_denominators(vec(b1)), la.clear_denominators(vec(b2))
    return _tidy(u, du, v, dv)


def _tidy(u: Sequence[int], du: int, v: Sequence[int], dv: int) -> tuple[Vec, Vec]:
    """tidy_plane_basis of u / du and v / dv, for integer vectors u, v and
    nonzero integers du, dv: v - (u.v / u.u) u is
    ((u.u) v - (u.v) u) / ((u.u) dv)."""
    uu, uv = _idot(u, u), _idot(u, v)
    if uu == 0:
        raise GeometryError("cannot rescale a zero vector")
    w = [uu * y - uv * x for x, y in zip(u, v)]
    return _rescale(u, du), _rescale(w, uu * dv)


def _rescale(w: Sequence[int], d: int) -> Vec:
    """2^k w / d for the one integer k with 1 <= 4^k |w|^2 / d^2 < 4: the
    least k with 4^k |w|^2 >= d^2, found from the bit lengths and moved by
    at most a step or two."""
    n2, d2 = _idot(w, w), d * d
    if n2 == 0:
        raise GeometryError("cannot rescale a zero vector")

    def reaches(k: int) -> bool:
        return n2 << 2 * k >= d2 if k >= 0 else n2 >= d2 << -2 * k

    k = (d2.bit_length() - n2.bit_length()) // 2
    while reaches(k - 1):
        k -= 1
    while not reaches(k):
        k += 1
    return tuple(Fraction(x << k, d) if k >= 0 else Fraction(x, d << -k) for x in w)


def _carrier(sphere: SphereThroughOrigin) -> tuple[list[list[int]], int, list[int], int]:
    """(B, db, C, dc): the sphere's carrier basis as the integer rows B over
    one denominator db, and its coefficient vector as integers C over dc."""
    n = sphere.dimension
    flat, db = la.clear_denominators([x for row in sphere.basis for x in row])
    cs, dc = la.clear_denominators(sphere.c)
    return [flat[i : i + n] for i in range(0, 3 * n, n)], db, cs, dc


def _gram(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    return [[_idot(r, s) for s in rows] for r in rows]


def _adjugate3(h: Sequence[Sequence[int]]) -> list[list[int]]:
    """The adjugate of a 3x3 integer matrix: h adj(h) = det(h) I."""
    (a, b, c), (d, e, f), (g, k, i) = h
    return [
        [e * i - f * k, c * k - b * i, b * f - c * e],
        [f * g - d * i, a * i - c * g, c * d - a * f],
        [d * k - e * g, b * g - a * k, a * e - b * d],
    ]


def _kernel_directions(rows: Sequence[Sequence[int]], db: int, a: Sequence[int]) -> tuple[Vec, Vec]:
    """The tidied ambient directions of the plane {u : a . u = 0} of carrier
    coordinates, for the carrier rows B / db and a nonzero integer row a.
    The kernel basis is la.nullspace's: with a_p the first nonzero entry,
    the vector of each other column f, ascending, is e_f - (a_f / a_p) e_p,
    here a_p e_f - a_f e_p over the denominator a_p."""
    p = next(i for i, x in enumerate(a) if x)
    kernel = []
    for f in range(3):
        if f != p:
            k = [0, 0, 0]
            k[f], k[p] = a[p], -a[f]
            kernel.append(carrier_to_ambient(k, rows))
    den = db * a[p]
    return _tidy(kernel[0], den, kernel[1], den)


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
        """True iff p lies in the carrier space and |p|^2 = c . p.  With p
        cleared to Q / dq and the carrier rows B with Gram matrix H = B B',
        p is in the carrier space iff det(H) Q = B' adj(H) B Q, the
        projection of Q onto it times det(H)."""
        q = vec(p)
        if len(q) != self.dimension:
            raise GeometryError("point dimension does not match the sphere")
        rows, _, cs, dc = _carrier(self)
        qs, dq = la.clear_denominators(q)
        h = _gram(rows)
        adj = _adjugate3(h)
        det = sum(x * row[0] for x, row in zip(h[0], adj))
        bq = [_idot(r, qs) for r in rows]
        projected = carrier_to_ambient([_idot(row, bq) for row in adj], rows)
        if any(det * x != y for x, y in zip(qs, projected)):
            return False
        return _idot(qs, qs) * dc == _idot(cs, qs) * dq

    def canonical(self) -> tuple:
        """Span of the carrier space plus the action of c on its canonical
        basis; two spheres are the same set iff these agree."""
        rows = la.rref(la.mat(self.basis))[0]
        return (rows, tuple(la.dot(self.c, r) for r in rows))

    def sample_points(self, count: int, rng) -> list[Vec]:
        """Rational points on the sphere, excluding the origin: each is the
        second intersection of a random rational line through 0.  The line
        with carrier direction m meets the sphere at t m with
        t = (a . m) / (m' G m), where a = (c . b_i) and G is the carrier
        Gram matrix; on the integer rows B / db and C / dc that point is
        (A . m) B' m / (dc m' H m), with A = B C and H = B B'."""
        rows, _, cs, dc = _carrier(self)
        h = _gram(rows)
        a = [_idot(r, cs) for r in rows]
        out: list[Vec] = []
        while len(out) < count:
            m = [rng.randint(-9, 9) for _ in range(3)]
            if all(x == 0 for x in m):
                continue
            denom = _idot(m, [_idot(row, m) for row in h])
            numer = _idot(a, m)
            if numer == 0 or denom == 0:
                continue
            out.append(tuple(Fraction(numer * x, dc * denom) for x in carrier_to_ambient(m, rows)))
        return out


def sphere_to_plane(sphere: SphereThroughOrigin) -> AffinePlane2:
    """Image of the sphere minus the origin under the inversion: the affine
    plane {y in span(basis) : c . y = 1}.

    Its base point is the point of the plane closest to the origin: in
    carrier coordinates u, minimize u' G u subject to a . u = 1, which gives
    u0 = adj(G) a / (a' adj(G) a).  On the integer rows B / db, C / dc,
    with A = B C and H = B B', the ambient base point is
    dc B' adj(H) A / (A' adj(H) A)."""
    rows, db, cs, dc = _carrier(sphere)
    a = [_idot(r, cs) for r in rows]
    if not any(a):
        raise DegenerateSphereError("sphere is degenerate")
    m = [_idot(row, a) for row in _adjugate3(_gram(rows))]
    q = _idot(a, m)  # > 0: H is positive definite, and so is adj(H)
    base = tuple(Fraction(dc * x, q) for x in carrier_to_ambient(m, rows))
    return AffinePlane2(base, _kernel_directions(rows, db, a))


def centered_inversion_plane(sphere: SphereThroughOrigin, point: Sequence) -> AffinePlane2:
    """Image of the sphere minus p under the inversion centered at the
    nonzero sphere point p = point: the plane through mu_p(0) = p - p / |p|^2
    spanned by the carrier directions orthogonal to c - 2p, the sphere's
    normal at p.  With p cleared to P / dp, mu_p(0) is
    P (|P|^2 - dp^2) / (dp |P|^2), and the normal in carrier coordinates is
    B (dp C - 2 dc P) up to a positive factor."""
    rows, db, cs, dc = _carrier(sphere)
    ps, dp = la.clear_denominators(vec(point))
    pp = _idot(ps, ps)
    base = tuple(Fraction(x * (pp - dp * dp), dp * pp) for x in ps)
    normal = [_idot(r, [dp * c - 2 * dc * x for c, x in zip(cs, ps)]) for r in rows]
    if not any(normal):
        raise DegenerateSphereError("sphere direction space collapsed")
    return AffinePlane2(base, _kernel_directions(rows, db, normal))


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
