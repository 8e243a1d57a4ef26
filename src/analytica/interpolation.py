"""Exact recovery of forms from lower-dimensional data.

Two reconstruction routes live here:

* gluing hyperplane restrictions into one ambient form (`glue_hyperplanes`),
* recovering a form from point samples on 2-planes inside a cone
  (`ConeSampleSet`, `reconstruct_form_from_cone`).

All rational paths are exact.  The float path of the cone reconstruction
solves the same exact system on the binary64 values, rounds the
coefficients to binary64 and gives a relative residual verdict instead of
an error.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import _linalg as la
from ._linalg import Mat, Vec, frac
from .forms import (
    DimensionMismatchError,
    HomogeneousForm,
    _mul_packed,
    _pack,
    _unpack,
    basis_size,
    compose_linear,
    constant_form,
    form_from_coefficients,
    linear_form,
    multiply,
    zero_form,
)
from .geometry import Cone, GeometryError, Hyperplane, general_position, integer_plane_in_subcone


class InterpolationError(ValueError):
    pass


class DivisibilityError(InterpolationError):
    """Exact division by a linear form left a nonzero remainder."""

    def __init__(self, message: str, remainder: HomogeneousForm | None = None):
        super().__init__(message)
        self.remainder = remainder


class GluingError(InterpolationError):
    pass


class ReconstructionError(InterpolationError):
    pass


# cone sampling: points past degree + 1 drawn on each plane, doublings tried
# when tilting a sample plane into the cone, and re-plans with two more
# planes before a reconstruction gives up
_EXTRA_PER_PLANE = 2
_SCALE_DOUBLINGS = 64
_MAX_RETRIES = 8


# ---------------------------------------------------------------------------
# hyperplane restrictions and gluing


@dataclass(frozen=True)
class HyperplaneRestriction:
    """A form on a hyperplane, written in the coordinates of a chart.

    `chart` is an n x (n-1) matrix whose columns span the hyperplane;
    `form` has n-1 variables and equals the restricted function composed
    with the chart.
    """

    hyperplane: Hyperplane
    chart: Mat
    form: HomogeneousForm

    def __post_init__(self) -> None:
        n = self.hyperplane.dimension
        chart = la.mat(self.chart)
        if len(chart) != n or any(len(r) != n - 1 for r in chart):
            raise DimensionMismatchError(f"chart must be {n} x {n - 1}")
        if la.rank(chart) != n - 1:
            raise GeometryError("chart columns do not span the hyperplane")
        for j, x in enumerate(la.matmul((self.hyperplane.normal,), chart)[0]):
            if x != 0:
                raise GeometryError(f"chart column {j} does not lie on the hyperplane")
        if self.form.dimension != n - 1:
            raise DimensionMismatchError("restricted form must have n-1 variables")
        object.__setattr__(self, "chart", chart)

    @classmethod
    def _trusted(cls, hyperplane: Hyperplane, chart: Mat, form: HomogeneousForm) -> "HyperplaneRestriction":
        """A restriction in the chart `hyperplane.chart()`, a kernel basis of
        the normal: valid by construction, so nothing is checked."""
        r = object.__new__(cls)
        r.__dict__.update(hyperplane=hyperplane, chart=chart, form=form)
        return r

    @property
    def ambient_dimension(self) -> int:
        return self.hyperplane.dimension

    @property
    def degree(self) -> int:
        return self.form.degree


def restriction_of(f: HomogeneousForm, hyperplane: Hyperplane, chart: Mat | None = None) -> HyperplaneRestriction:
    """Restrict an ambient form to a hyperplane, in the given chart
    (default: the hyperplane's own deterministic chart)."""
    if f.dimension != hyperplane.dimension:
        raise DimensionMismatchError("form and hyperplane dimensions differ")
    if chart is None:
        ch = hyperplane.chart()
        return HyperplaneRestriction._trusted(hyperplane, ch, compose_linear(f, ch))
    ch = la.mat(chart)
    return HyperplaneRestriction(hyperplane, ch, compose_linear(f, ch))


@dataclass(frozen=True)
class CompatibilityReport:
    ok: bool
    failures: tuple[tuple[int, int], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_compatibility(restrictions: Sequence[HyperplaneRestriction]) -> CompatibilityReport:
    """Check that every pair of restrictions agrees on the intersection of
    its two hyperplanes.  Failures are reported as index pairs."""
    rs = list(restrictions)
    if not rs:
        return CompatibilityReport(True)
    n = rs[0].ambient_dimension
    d = rs[0].degree
    for r in rs[1:]:
        if r.ambient_dimension != n:
            raise DimensionMismatchError("mixed ambient dimensions")
        if r.degree != d:
            raise InterpolationError("mixed degrees in restriction list")

    failures: list[tuple[int, int]] = []
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            kernel = la.nullspace(la.mat((rs[i].hyperplane.normal, rs[j].hyperplane.normal)))
            if not kernel:
                # two distinct lines in the plane meet only at the origin
                if d == 0 and rs[i].form != rs[j].form:
                    failures.append((i, j))
                continue

            def pull(r: HyperplaneRestriction) -> HomogeneousForm:
                cols = [la.solve(r.chart, k) for k in kernel]
                m = tuple(tuple(c[row] for c in cols) for row in range(n - 1))
                return compose_linear(r.form, m)

            if pull(rs[i]) != pull(rs[j]):
                failures.append((i, j))
    return CompatibilityReport(not failures, tuple(failures))


def divide_by_linear(f: HomogeneousForm, linear: HomogeneousForm) -> HomogeneousForm:
    """Exact quotient f / linear as forms; DivisibilityError carries the
    remainder when the division is not exact."""
    if linear.dimension != f.dimension:
        raise DimensionMismatchError("divisor dimension mismatch")
    if linear.degree != 1 or linear.is_zero:
        raise InterpolationError("divisor must be a nonzero linear form")
    if f.degree < 1:
        raise InterpolationError("dividend must have degree at least 1")
    n, d = f.dimension, f.degree

    k = next(i for i in range(n) if linear.coefficients.get(tuple(1 if t == i else 0 for t in range(n)), 0) != 0)
    unit = tuple(1 if t == k else 0 for t in range(n))

    # Over integers f = F / den_f and linear = (a x_k + R) / den_l.  With
    # F_j the layer of F at x_k^j, Q_{d-1} = F_d and
    # Q_{j-1} = a^(d-j) F_j - R Q_j, F's quotient by a x_k + R has the layers
    # Q_j / a^(d-j) and its remainder is (a^d F_0 - R Q_0) / a^d.  Monomials
    # are packed as in forms.compose_linear, with x_k's exponent taken out
    # of each layer's keys.
    base, step = d + 1, (d + 1) ** k
    fi, den_f = la.clear_denominators(f.coefficients.values())
    li, den_l = la.clear_denominators(linear.coefficients.values())
    a = li[list(linear.coefficients).index(unit)]
    rest = {_pack(idx, base): c for idx, c in zip(linear.coefficients, li) if idx != unit}
    layers: list[dict[int, int]] = [{} for _ in range(d + 1)]
    for idx, c in zip(f.coefficients, fi):
        layers[idx[k]][_pack(idx, base) - idx[k] * step] = c

    def reduce(j: int, q: dict[int, int]) -> dict[int, int]:
        """The nonzero terms of a^(d-j) F_j - R q."""
        out = {key: c * a ** (d - j) for key, c in layers[j].items()}
        for key, c in _mul_packed(rest, q).items():
            out[key] = out.get(key, 0) - c
        return {key: c for key, c in out.items() if c}

    quot = [layers[d]]
    for j in range(d - 1, 0, -1):
        quot.append(reduce(j, quot[-1]))
    quot.reverse()  # quot[j] is Q_j
    remainder = reduce(0, quot[0])
    if remainder:
        den = a**d * den_f
        raise DivisibilityError(
            "form is not divisible by the given linear form",
            HomogeneousForm._trusted(
                n, d, {_unpack(key, base, n): Fraction(c, den) for key, c in remainder.items()}
            ),
        )

    terms: dict[tuple[int, ...], Fraction] = {}
    for j, layer in enumerate(quot):
        den = den_f * a ** (d - j)
        for key, c in layer.items():
            terms[_unpack(key + j * step, base, n)] = Fraction(den_l * c, den)
    return HomogeneousForm._trusted(n, d - 1, terms)


def glue_hyperplanes(restrictions: Sequence[HyperplaneRestriction], degree: int | None = None) -> HomogeneousForm:
    """Reassemble the unique ambient form of the given degree from its
    restrictions to degree + 1 hyperplanes in general position.

    Raises GluingError on bad configuration or incompatible data, and
    DivisibilityError if an inconsistency only surfaces inside the
    elimination.

    The pairwise check runs only after the elimination fails.  A successful
    elimination returns F = E + lam * Q, where E restricts to the first
    form and lam vanishes on the first hyperplane; by induction Q restricts
    to each later quotient q_r, so F composed with chart r is
    E(chart r) + l_r * q_r = f_r.  F restricts to every input, so every
    pair agrees and the check could not have failed.
    """
    rs = list(restrictions)
    if not rs:
        raise GluingError("no restrictions given")
    d = rs[0].degree if degree is None else degree
    if any(r.degree != d for r in rs):
        raise GluingError("all restrictions must share the target degree")
    n = rs[0].ambient_dimension
    if n < 2:
        raise GluingError("ambient dimension must be at least 2")
    if len(rs) != d + 1:
        raise GluingError(f"degree {d} needs exactly {d + 1} hyperplanes, got {len(rs)}")
    if not general_position([r.hyperplane for r in rs], n):
        raise GluingError("hyperplanes are not in general position")
    try:
        return _glue([(r.hyperplane.normal, r.chart, r.form) for r in rs], d)
    except InterpolationError:
        report = check_compatibility(rs)
        if not report:
            raise GluingError(f"restrictions disagree on pairwise intersections: {report.failures}") from None
        raise


def _glue(rs: list[tuple[Vec, Mat, HomogeneousForm]], d: int) -> HomogeneousForm:
    """Glue (normal, chart, form) triples whose charts are already checked."""
    normal, chart, form = rs[0]
    n = len(normal)
    if d == 0:
        value = next(iter(form.coefficients.values()), Fraction(0))
        for _, _, other in rs[1:]:
            if next(iter(other.coefficients.values()), Fraction(0)) != value:
                raise GluingError("constant layers disagree; data is incompatible")
        return constant_form(n, value)

    # invertible frame: chart columns plus the normal direction
    frame = tuple(chart[i] + (normal[i],) for i in range(n))
    proj = la.inverse(frame, n - 1)
    extended = compose_linear(form, proj)
    lam = linear_form(normal)

    sub: list[tuple[Vec, Mat, HomogeneousForm]] = []
    for normal_r, chart_r, form_r in rs[1:]:
        delta = form_r - compose_linear(extended, chart_r)
        ell = linear_form(la.matmul((normal,), chart_r)[0])
        if ell.is_zero:
            raise GluingError("a later hyperplane contains the first one's kernel direction")
        quotient = zero_form(n - 1, d - 1) if delta.is_zero else divide_by_linear(delta, ell)
        sub.append((normal_r, chart_r, quotient))
    return extended + multiply(lam, _glue(sub, d - 1))


# ---------------------------------------------------------------------------
# sampling planes inside a cone and reconstructing forms from values


def direction_pairs(count: int) -> list[tuple[int, int]]:
    """Deterministic list of pairwise non-proportional primitive integer
    pairs, starting (1,0), (0,1), (1,1), (1,-1), (2,1), (1,2), ..."""
    pairs = [(1, 0), (0, 1), (1, 1), (1, -1)]
    h = 2
    while len(pairs) < count:
        for a in range(1, h):
            if math.gcd(h, a) == 1:
                pairs.extend([(h, a), (a, h), (h, -a), (a, -h)])
        h += 1
    return pairs[:count]


def _integer_direction(v: Vec) -> tuple[int, ...]:
    ints, _ = la.clear_denominators(v)
    g = math.gcd(*ints) or 1
    return tuple(x // g for x in ints)


def _independent(*rows: tuple[int, ...]) -> bool:
    elimination = la.Elimination()
    return all(elimination.add(r) for r in rows)


class _StreamPoint:
    """A sample point p = q / den with q an integer vector, and the powers
    q_i**e of its coordinates computed so far."""

    __slots__ = ("point", "den", "powers")

    def __init__(self, q: tuple[int, ...], den: int):
        self.point = tuple(Fraction(x, den) for x in q)
        self.den = den
        self.powers = [[1, x] for x in q]

    def monomial_row(self, degree: int) -> list[int]:
        """The degree-`degree` monomials of q, in `monomial_basis` order."""
        for table in self.powers:
            while len(table) <= degree:
                table.append(table[-1] * table[1])
        return _monomials(self.powers, degree)


def _monomials(powers: list[list[int]], degree: int) -> list[int]:
    # monomial_basis order, built as monomial_basis builds its tuples: each
    # prefix product is extended by the next coordinate's powers, exponents
    # descending, and the last coordinate takes the degree left over
    level = [(1, degree)]
    for table in powers[:-1]:
        level = [(m * table[e], left - e) for m, left in level for e in range(left, -1, -1)]
    last = powers[-1]
    return [m * last[left] for m, left in level]


class ConeSampleSet:
    """Deterministic rational sample points on 2-planes inside a cone.

    Each plane passes through a line of the cone's axis plane and carries a
    stream of points i*a + j*b over primitive (i, j) pairs, rescaled into
    the cone window when one is set.  Streams are prefix-stable: asking for
    more planes or more points never changes earlier ones, so per-point
    work (for instance jets along rays, and the integer form and coordinate
    powers that `plan` uses) can be cached across degrees.
    """

    def __init__(self, cone: Cone, rng: random.Random):
        self.cone = cone
        self.rng = rng
        self._projector = cone.projector()
        self._w1 = _integer_direction(cone.axis.basis[0])
        self._w2 = _integer_direction(cone.axis.basis[1])
        self._spans: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        self._points: list[list[_StreamPoint]] = []
        self._pairs = direction_pairs(64)

    @property
    def dimension(self) -> int:
        return self.cone.dimension

    def plane_count(self) -> int:
        return len(self._spans)

    def ensure_planes(self, count: int) -> None:
        while len(self._spans) < count:
            self._spans.append(self._draw_plane(len(self._spans)))
            self._points.append([])

    def _draw_plane(self, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n = self.dimension
        k1, k2 = self._pairs[index % len(self._pairs)]
        m1, m2 = self._pairs[(index + 1) % len(self._pairs)]
        a = tuple(k1 * x + k2 * y for x, y in zip(self._w1, self._w2))
        m = tuple(m1 * x + m2 * y for x, y in zip(self._w1, self._w2))
        if n == 2:
            return a, m

        for _ in range(32):
            u = tuple(self.rng.randint(-3, 3) for _ in range(n))
            if not _independent(self._w1, self._w2, u):
                continue
            s = 1
            for _ in range(_SCALE_DOUBLINGS):
                b = tuple(s * mi + ui for mi, ui in zip(m, u))
                if _independent(a, b) and integer_plane_in_subcone(self._projector, self.cone.theta, a, b):
                    return a, b
                s *= 2
        raise ReconstructionError("could not tilt a sample plane into the cone")

    def _scale_into_window(self, p: tuple[int, ...]) -> _StreamPoint:
        """p / 2**k for the least k that brings |p / 2**k| to at most half the
        window."""
        w = self.cone.window
        if w is None:
            return _StreamPoint(p, 1)
        # |p|^2 / 4^k <= w^2 / 4, cleared of denominators
        lhs = 4 * sum(x * x for x in p) * w.denominator**2
        rhs = w.numerator**2
        k = 0
        while lhs > rhs << 2 * k:
            k += 1
        return _StreamPoint(p, 1 << k)

    def _stream(self, index: int, count: int) -> list[_StreamPoint]:
        self.ensure_planes(index + 1)
        a, b = self._spans[index]
        stream = self._points[index]
        while len(stream) < count:
            if len(stream) >= len(self._pairs):
                self._pairs = direction_pairs(2 * len(self._pairs))
            i, j = self._pairs[len(stream)]
            raw = tuple(i * x + j * y for x, y in zip(a, b))
            stream.append(self._scale_into_window(raw))
        return stream[:count]

    def plan(self, degree: int) -> tuple[list[Vec], list[Vec], Callable[[Sequence], Vec]]:
        """Design points for one exactly-determined degree-`degree` solve,
        held-out points for verification, and the solve itself.

        Design points are picked greedily by exact rank of their monomial
        rows: each candidate row is reduced against the rows kept so far
        (`_linalg.Elimination`) and kept when something is left, so the
        square system is nonsingular whenever enough planes are available.
        A candidate p = q / D enters as the integer monomial row of q with
        scale D**degree, the same row up to a positive factor.  A single
        plane only ever contributes degree+1 useful points (its
        restriction space is that small), and in dimension 3 the product of
        the plane equations caps the usable rank, hence the two lower bounds
        on the plane count.  Every skipped or surplus point is held out for
        verification.

        That reduction is also the factorization of the design matrix: the
        returned `solve` maps the values at the design points, in design
        order, to the monomial coefficients (in `monomial_basis` order) by
        replaying it on the right-hand side and back-substituting.  It needs
        a full design, len(design) == basis_size(n, degree).
        """
        n = self.dimension
        need = basis_size(n, degree)
        per = degree + 1
        planes = max(2, math.ceil(need / per) + 1, self.plane_count())
        if n == 3:
            planes = max(planes, degree + 1)
        self.ensure_planes(planes)
        streams = [self._stream(i, per + _EXTRA_PER_PLANE) for i in range(planes)]
        design: list[Vec] = []
        held: list[Vec] = []
        elimination = la.Elimination()
        for level in range(per + _EXTRA_PER_PLANE):
            for s in streams:
                p = s[level]
                if len(design) < need and elimination.add(p.monomial_row(degree), p.den**degree):
                    design.append(p.point)
                else:
                    held.append(p.point)
        return design, held, elimination.solve

    def add_planes(self, count: int) -> None:
        self.ensure_planes(self.plane_count() + count)


@dataclass(frozen=True, slots=True)
class ReconstructionResult:
    """Outcome of a cone reconstruction.  `ok` is False when held-out
    samples disagree with the solved form, i.e. the sampled values do not
    come from any single form of the requested degree on this cone."""

    form: HomogeneousForm
    ok: bool
    max_residual: float
    witness: Vec | None
    degree: int
    mode: str
    planes_used: int

    def __bool__(self) -> bool:
        return self.ok


def reconstruct_form_from_cone(
    value_fn: Callable[[Vec], object],
    cone: Cone,
    degree: int,
    *,
    mode: str = "exact",
    samples: ConeSampleSet | None = None,
    seed: int | None = None,
    tol: float = 1e-9,
) -> ReconstructionResult:
    """Recover the homogeneous form of the given degree from point values
    inside a cone.

    The solve uses exactly basis_size(n, degree) samples spread over 2-planes
    through the cone axis; every further generated sample is held out and
    checked against the solution.  Both modes solve with the solve that
    `ConeSampleSet.plan` returns, so the elimination that chose the design
    points is the only one; a binary64 value is a Fraction exactly.  In
    exact mode the check is equality of rationals at the held-out points.
    In float mode each coefficient is rounded to binary64, and the rounded
    form must meet the design and held-out values within `tol`, relative to
    max(1, largest |value|).  Values are read design points first, then
    held-out points.  A design that comes up short re-plans on two more
    planes, at most _MAX_RETRIES times.
    """
    if degree < 0:
        raise InterpolationError("degree must be nonnegative")
    if mode not in ("exact", "float"):
        raise InterpolationError(f"unknown mode {mode!r}")
    if not 0 < tol < math.inf:
        raise InterpolationError("tol must be positive and finite")
    if samples is None:
        samples = ConeSampleSet(cone, random.Random(0 if seed is None else seed))
    n = samples.dimension
    need = basis_size(n, degree)
    for _ in range(_MAX_RETRIES + 1):
        design, held, solve = samples.plan(degree)
        if len(design) < need:
            samples.add_planes(2)
            continue
        values = [frac(value_fn(p)) for p in design]
        coeffs = solve(values)
        checked = []
        if mode == "float":
            coeffs = [Fraction(float(c)) for c in coeffs]
            checked = list(zip(design, values))
        checked += [(p, frac(value_fn(p))) for p in held]
        form = form_from_coefficients(n, degree, coeffs)
        ints, den = la.clear_denominators(coeffs)
        worst = 0.0
        witness = None
        for p, v in checked:
            # form(q / D) = (ints . monomials of q) / scale, cross-multiplied
            # with the value; a Fraction only for a nonzero residual
            q, qden = la.clear_denominators(p)
            scale = den * qden**degree
            powers = [[x**e for e in range(degree + 1)] for x in q]
            value = sum(map(operator.mul, ints, _monomials(powers, degree)))
            diff = value * v.denominator - v.numerator * scale
            if diff:
                r = abs(float(Fraction(diff, scale * v.denominator)))
                if witness is None or r > worst:
                    worst = r
                    witness = p
        if mode == "float":
            worst /= max(1.0, max(abs(float(v)) for _, v in checked))
            if worst <= tol:
                witness = None
        return ReconstructionResult(
            form, witness is None, worst, witness, degree, mode, samples.plane_count()
        )

    raise ReconstructionError(f"sample matrix stayed singular after {_MAX_RETRIES} retries")
