import gc
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from analytica import _linalg as la
from analytica.forms import (
    HomogeneousForm,
    basis_size,
    compose_linear,
    evaluate_form,
    integer_value,
    linear_form,
    monomial,
    monomial_basis,
    multiply,
    zero_form,
)
from analytica.geometry import (
    Cone,
    GeometryError,
    Hyperplane,
    VectorPlane2,
    general_position,
    in_cone,
    norm_sq,
)
from analytica.interpolation import (
    ConeSampleSet,
    DivisibilityError,
    GluingError,
    HyperplaneRestriction,
    InterpolationError,
    ReconstructionError,
    check_compatibility,
    direction_pairs,
    divide_by_linear,
    glue_hyperplanes,
    reconstruct_form_from_cone,
    restriction_of,
)
from analytica.jsonio import form_from_data

from conftest import (
    rand_axis_plane,
    rand_form,
    rand_fraction,
    rand_hyperplane_set,
    rand_point,
    reference_solve,
    to_domain,
)


def test_direction_pairs_non_proportional():
    pairs = direction_pairs(40)
    assert len(pairs) == 40
    for i, (a, b) in enumerate(pairs):
        for c, d in pairs[i + 1 :]:
            assert a * d - b * c != 0


def test_restriction_evaluates_on_the_hyperplane():
    rng = random.Random(403)
    for _ in range(25):
        n = rng.randint(2, 4)
        d = rng.randint(1, 4)
        f = rand_form(rng, n, d, bound=60)
        h = rand_hyperplane_set(rng, n, 1)[0]
        r = restriction_of(f, h)
        u = rand_point(rng, n - 1, bound=7)
        p = la.matvec(r.chart, u)
        assert sum(a * b for a, b in zip(h.normal, p)) == 0
        assert evaluate_form(r.form, u) == evaluate_form(f, p)



def test_library_restrictions_equal_validated_ones():
    # restriction_of trusts the hyperplane's own chart; the validating
    # constructor accepts it and builds an equal restriction
    rng = random.Random(405)
    for _ in range(10):
        n = rng.randint(2, 4)
        f = rand_form(rng, n, rng.randint(1, 4), bound=60)
        h = rand_hyperplane_set(rng, n, 1)[0]
        r = restriction_of(f, h)
        assert r == HyperplaneRestriction(h, r.chart, r.form)
        assert r == restriction_of(f, h, chart=r.chart)


def test_a_bad_chart_still_raises():
    f = rand_form(random.Random(406), 3, 2, bound=9)
    h = Hyperplane((1, 1, 1))
    g = restriction_of(f, h).form
    with pytest.raises(GeometryError, match="does not lie on the hyperplane"):
        HyperplaneRestriction(h, ((1, 0), (0, 1), (0, 0)), g)
    with pytest.raises(GeometryError, match="do not span"):
        HyperplaneRestriction(h, ((1, 2), (-1, -2), (0, 0)), g)
    with pytest.raises(GeometryError, match="does not lie on the hyperplane"):
        restriction_of(f, h, chart=((1, 0), (0, 1), (0, 0)))


# ---------------------------------------------------------------------------
# gluing


def test_glue_round_trip():
    rng = random.Random(404)
    for _ in range(25):
        n = rng.randint(2, 4)
        d = rng.randint(1, 4)
        f = rand_form(rng, n, d)
        planes = rand_hyperplane_set(rng, n, d + 1)
        rs = [restriction_of(f, h) for h in planes]
        assert glue_hyperplanes(rs) == f


def test_glue_uniqueness_across_plane_sets():
    rng = random.Random(405)
    for _ in range(10):
        n = rng.randint(3, 4)
        d = rng.randint(1, 4)
        f = rand_form(rng, n, d)
        a = glue_hyperplanes([restriction_of(f, h) for h in rand_hyperplane_set(rng, n, d + 1)])
        b = glue_hyperplanes([restriction_of(f, h) for h in rand_hyperplane_set(rng, n, d + 1)])
        assert a == b == f


def test_glue_zero_form():
    rng = random.Random(406)
    f = zero_form(3, 3)
    rs = [restriction_of(f, h) for h in rand_hyperplane_set(rng, 3, 4)]
    assert glue_hyperplanes(rs).is_zero


def test_incompatible_restrictions_refused():
    rng = random.Random(407)
    f = rand_form(rng, 3, 2)
    g = rand_form(rng, 3, 2)
    while g == f:
        g = rand_form(rng, 3, 2)
    planes = rand_hyperplane_set(rng, 3, 3)
    rs = [restriction_of(f, h) for h in planes[:-1]] + [restriction_of(g, planes[-1])]
    report = check_compatibility(rs)
    if report.ok:
        # data may happen to be consistent on intersections; gluing then
        # legitimately succeeds, so force a plainly broken pair instead
        rs = [restriction_of(f, planes[0]), restriction_of(g, planes[0])]
    with pytest.raises(GluingError):
        glue_hyperplanes(rs)


def _glue_checked_first(rs):
    # the order glue_hyperplanes used to run in on hyperplanes in general
    # position: the pairwise check, then the elimination
    report = check_compatibility(rs)
    if not report:
        raise GluingError(f"restrictions disagree on pairwise intersections: {report.failures}")
    return glue_hyperplanes(rs)


def _outcome(glue, rs):
    try:
        return glue(rs)
    except InterpolationError as exc:
        return type(exc), str(exc)


def _broken(rng, rs):
    """rs with one form replaced, one coefficient perturbed, or two forms
    swapped; the charts stay as they are."""
    forms = [r.form for r in rs]
    i = rng.randrange(len(rs))
    how = rng.choice(("replace", "perturb", "swap"))
    if how == "replace":
        forms[i] = rand_form(rng, forms[i].dimension, forms[i].degree, bound=60)
    elif how == "perturb":
        idx = rng.choice(monomial_basis(forms[i].dimension, forms[i].degree))
        terms = dict(forms[i].coefficients)
        terms[idx] = terms.get(idx, 0) + rand_fraction(rng, 60)
        forms[i] = HomogeneousForm(forms[i].dimension, forms[i].degree, terms)
    else:
        j = rng.choice([t for t in range(len(rs)) if t != i])
        forms[i], forms[j] = forms[j], forms[i]
    return [HyperplaneRestriction(r.hyperplane, r.chart, g) for r, g in zip(rs, forms)]


def test_glue_outcomes_match_checking_pairs_first():
    rng = random.Random(410)
    refused = glued = 0
    for case in range(240):
        n = rng.randint(2, 4)
        d = rng.randint(1, 4)
        f = rand_form(rng, n, d, bound=60)
        planes = rand_hyperplane_set(rng, n, d + 1)
        while not general_position(planes, n):
            planes = rand_hyperplane_set(rng, n, d + 1)
        rs = [restriction_of(f, h) for h in planes]
        if case % 4:
            rs = _broken(rng, rs)
        got = _outcome(glue_hyperplanes, rs)
        assert got == _outcome(_glue_checked_first, rs), case
        if not check_compatibility(rs):
            refused += 1
            assert got[0] is GluingError and got[1].startswith("restrictions disagree on pairwise intersections: ((")
        else:
            glued += 1
            # compatible data glues to a form that restricts to every input
            assert all(compose_linear(got, r.chart) == r.form for r in rs), case
            if not case % 4:
                assert got == f
    assert refused > 50 and glued > 50


def test_too_few_hyperplanes_refused():
    rng = random.Random(408)
    f = rand_form(rng, 3, 3)
    rs = [restriction_of(f, h) for h in rand_hyperplane_set(rng, 3, 2)]
    with pytest.raises(GluingError):
        glue_hyperplanes(rs, degree=3)


def _reference_divide(f, linear):
    """divide_by_linear as it was, on Fractions: the quotient, or the
    remainder when there is one."""
    n, d = f.dimension, f.degree
    k = next(i for i in range(n) if linear.coefficients.get(tuple(int(t == i) for t in range(n)), 0) != 0)
    unit = tuple(int(t == k) for t in range(n))
    a = linear.coefficients[unit]
    rest = {idx: c for idx, c in linear.coefficients.items() if idx != unit}
    layers = [dict() for _ in range(d + 1)]
    for idx, c in f.coefficients.items():
        layers[idx[k]][idx[:k] + (0,) + idx[k + 1:]] = c

    def mul_rest(layer):
        out = {}
        for m_idx, mc in rest.items():
            for idx, c in layer.items():
                key = tuple(x + y for x, y in zip(m_idx, idx))
                out[key] = out.get(key, Fraction(0)) + mc * c
        return out

    quot = [dict() for _ in range(d)]
    quot[d - 1] = {idx: c / a for idx, c in layers[d].items()}
    for j in range(d - 1, 0, -1):
        layer = dict(layers[j])
        for idx, c in mul_rest(quot[j]).items():
            layer[idx] = layer.get(idx, Fraction(0)) - c
        quot[j - 1] = {idx: c / a for idx, c in layer.items() if c}
    remainder = dict(layers[0])
    for idx, c in mul_rest(quot[0]).items():
        remainder[idx] = remainder.get(idx, Fraction(0)) - c
    remainder = {idx: c for idx, c in remainder.items() if c}
    if remainder:
        return "remainder", remainder
    terms = {}
    for j, layer in enumerate(quot):
        for idx, c in layer.items():
            terms[idx[:k] + (j,) + idx[k + 1:]] = c
    return "quotient", terms


@pytest.mark.parametrize("seed", range(3))
def test_divide_by_linear_matches_the_fraction_reference(seed):
    # the same terms in the same order, for exact and inexact divisions
    rng = random.Random(4090 + seed)
    for _ in range(60):
        n, d = rng.randint(1, 4), rng.randint(0, 4)
        linear = linear_form([rand_fraction(rng, 9) if rng.random() < 0.7 else 0 for _ in range(n)])
        if linear.is_zero:
            continue
        f = multiply(rand_form(rng, n, d, bound=40), linear)
        if rng.random() < 0.5:
            f = f + rand_form(rng, n, d + 1, bound=9, density=0.3)
        if f.is_zero:
            continue
        kind, want = _reference_divide(f, linear)
        try:
            got = "quotient", divide_by_linear(f, linear).coefficients
        except DivisibilityError as exc:
            got = "remainder", exc.remainder.coefficients
        assert got[0] == kind and list(got[1].items()) == list(want.items())


def test_divide_by_linear_round_trip():
    rng = random.Random(409)
    for _ in range(20):
        n = rng.randint(2, 4)
        f = rand_form(rng, n, rng.randint(0, 3), bound=40)
        linear = linear_form(rand_point(rng, n, bound=9))
        while linear.is_zero:
            linear = linear_form(rand_point(rng, n, bound=9))
        assert divide_by_linear(multiply(f, linear), linear) == f
    with pytest.raises(DivisibilityError):
        divide_by_linear(monomial(2, (2, 0)) , linear_form((0, 1)))


# ---------------------------------------------------------------------------
# cone sampling and reconstruction


def test_plan_produces_exact_rank_design():
    rng = random.Random(410)
    for _ in range(12):
        n = rng.randint(3, 4)
        d = rng.randint(1, 4)
        cone = Cone(rand_axis_plane(rng, n), Fraction(1, 2), Fraction(1))
        samples = ConeSampleSet(cone, random.Random(rng.randrange(10**6)))
        design, held, _ = samples.plan(d)
        assert len(design) == basis_size(n, d)
        assert held
        for p in design + held:
            assert in_cone(cone, p)
            assert norm_sq(p) <= cone.window**2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_plan_solve_matches_a_full_elimination(n):
    # sympy's solve of the rebuilt monomial matrix is the reference; in
    # dimension 3 the degrees run up to a tower's order
    rng = random.Random(414 + n)
    for d in range(9 if n == 3 else 6):
        cone = Cone(rand_axis_plane(rng, n), Fraction(1, 2), Fraction(1))
        samples = ConeSampleSet(cone, random.Random(rng.randrange(10**6)))
        design, _, solve = samples.plan(d)
        basis = monomial_basis(n, d)
        assert len(design) == len(basis)
        rows = la.mat(tuple(math.prod(x**e for x, e in zip(p, idx)) for idx in basis) for p in design)
        rhs = [rand_fraction(rng) for _ in design]
        assert solve(rhs) == reference_solve(rows, rhs)


def test_elimination_keeps_only_independent_rows():
    e = la.Elimination()
    assert e.add((0, 2, 1))
    assert e.add((1, 1, 0))
    assert not e.add((2, 4, 1))  # 1 * first + 2 * second
    with pytest.raises(la.SingularMatrixError):
        e.solve((1, 2))
    assert e.add((1, 0, 0))
    rows = ((0, 2, 1), (1, 1, 0), (1, 0, 0))
    assert e.solve((3, -1, 5)) == reference_solve(rows, (3, -1, 5))
    with pytest.raises(TypeError):
        la.Elimination().add(la.vec((1, 0, 0)))


def test_elimination_rescales_on_a_zero_multiplier():
    # pivots 2 then 1: the third row meets two zero multipliers, and only the
    # rescaling (2 * row // 1, then 1 * row // 2) keeps the last division exact
    e = la.Elimination()
    assert e.add((2, 1, 0, 0))
    assert e.add((1, 1, 0, 0))
    assert e.add((0, 0, 3, 1))
    assert e.add((1, 3, 5, 2))
    rows = ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 3, 1), (1, 3, 5, 2))
    rhs = la.vec((Fraction(1, 3), -2, 7, Fraction(5, 4)))
    assert e.solve(rhs) == reference_solve(rows, rhs)


@pytest.mark.parametrize("seed", range(8))
def test_bareiss_elimination_matches_a_fraction_reference(seed):
    # sparse random rows (zero multipliers, negative pivots), integer
    # combinations of earlier rows (dependent rows) and scales other than 1;
    # sympy's rank of the Fraction rows decides each row
    rng = random.Random(4140 + seed)
    ncols = rng.randint(6, 12)
    e = la.Elimination()
    rows: list[tuple[int, ...]] = []
    kept: list[tuple[Fraction, ...]] = []
    while len(kept) < ncols:
        if rows and rng.random() < 0.3:
            picks = rng.sample(rows, min(len(rows), rng.randint(1, 3)))
            weights = [rng.randint(-4, 4) for _ in picks]
            row = tuple(sum(w * r[c] for w, r in zip(weights, picks)) for c in range(ncols))
        else:
            row = tuple(rng.choice((0, 0, 0, 0, rng.randint(-9, 9))) for _ in range(ncols))
        rows.append(row)
        scale = rng.choice((1, 2, 3, 4, 9, 16, 27, 1024))
        scaled = tuple(Fraction(x, scale) for x in row)
        independent = to_domain(kept + [scaled]).rank() > len(kept)
        assert e.add(row, scale) == independent
        if independent:
            kept.append(scaled)
    rhs = [rand_fraction(rng) for _ in kept]
    assert e.solve(rhs) == reference_solve(kept, rhs)


def test_window_scaling_matches_repeated_halving():
    # the reference halves the Fraction point until it is within half the window
    # the first three cases land exactly on the bound, after 1, 0 and 2 halvings
    rng = random.Random(4150)
    cases = [(Fraction(2), (0, -2, 0)), (Fraction(10), (3, 0, 4)), (Fraction(5, 2), (3, 0, 4))]
    for _ in range(200):
        window = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        cases.append((window, tuple(rng.randint(-10**6, 10**6) for _ in range(3))))
    for window, p in cases:
        cone = Cone(rand_axis_plane(rng, 3), Fraction(1, 2), window)
        q = la.vec(p)
        while norm_sq(q) > window * window / 4:
            q = tuple(x / 2 for x in q)
        point = ConeSampleSet(cone, random.Random(0))._scale_into_window(p)
        assert point.point == q
        assert tuple(x * point.den for x in q) == tuple(t[1] for t in point.powers)


def test_sample_streams_are_prefix_stable():
    cone = Cone(rand_axis_plane(random.Random(5), 3), Fraction(1, 2), Fraction(1))
    a = ConeSampleSet(cone, random.Random(99))
    b = ConeSampleSet(cone, random.Random(99))
    first = a.plan(1)[0]
    a.plan(3)
    again = a.plan(1)[0]
    assert first == again
    assert b.plan(1)[0] == first


def test_cone_reconstruction_exact():
    rng = random.Random(411)
    for _ in range(8):
        n = rng.randint(3, 4)
        d = rng.randint(1, 4)
        f = rand_form(rng, n, d)
        cone = Cone(rand_axis_plane(rng, n), Fraction(1, 2), Fraction(1))
        res = reconstruct_form_from_cone(
            lambda x: evaluate_form(f, x), cone, d, mode="exact", seed=rng.randrange(10**6)
        )
        assert res.ok
        assert res.form == f
        assert res.max_residual == 0


def test_cone_reconstruction_float_mode():
    rng = random.Random(412)
    f = rand_form(rng, 3, 3, bound=20)
    cone = Cone(rand_axis_plane(rng, 3), Fraction(1, 2), Fraction(1))
    res = reconstruct_form_from_cone(
        lambda x: float(evaluate_form(f, x)), cone, 3, mode="float", seed=17
    )
    # plain Python values, so the report serializes
    assert res.ok is True and type(res.max_residual) is float
    assert res.max_residual <= 1e-9
    for idx, c in f.coefficients.items():
        assert abs(float(res.form.coefficients.get(idx, 0)) - float(c)) < 1e-6


def test_float_mode_rounds_the_exact_solution():
    # float mode solves on the plan's own elimination, as exact mode does:
    # given exact values it finds the true coefficients and rounds each to
    # binary64, on the planes exact mode uses
    path = pathlib.Path(__file__).parent / "data" / "form-n4-d4.json"
    f = form_from_data(json.loads(path.read_text()))
    cone = Cone(VectorPlane2(((1, 0, 0, 0), (0, 1, 0, 0))), Fraction(1, 2), Fraction(1))
    value = lambda x: evaluate_form(f, x)
    exact = reconstruct_form_from_cone(value, cone, 4, mode="exact", seed=3)
    res = reconstruct_form_from_cone(value, cone, 4, mode="float", seed=3)
    assert exact.ok and res.ok and res.max_residual <= 1e-9
    assert res.form.coefficients == {idx: Fraction(float(c)) for idx, c in f.coefficients.items()}
    assert res.planes_used == exact.planes_used


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_cone_reconstruction_rejects_a_bad_tol(mode):
    # a usage error, not the ReconstructionError of a failed reconstruction
    cone = Cone(rand_axis_plane(random.Random(6), 3), Fraction(1, 2), Fraction(1))
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InterpolationError, match="tol must be positive and finite") as exc:
            reconstruct_form_from_cone(norm_sq, cone, 2, mode=mode, seed=7, tol=tol)
        assert not isinstance(exc.value, ReconstructionError)


def test_cone_reconstruction_rejects_non_polynomial():
    # sigma(p) = |p|^2 is not linear, so a degree-1 fit must not check out
    cone = Cone(rand_axis_plane(random.Random(6), 3), Fraction(1, 2), Fraction(1))
    res = reconstruct_form_from_cone(norm_sq, cone, 1, mode="exact", seed=7)
    assert not res.ok
    assert res.witness is not None


def test_held_out_residuals_match_the_fraction_check():
    # the held-out check as it was: form(p) - value in Fractions, the first
    # largest |residual| as witness
    rng = random.Random(415)
    for _ in range(12):
        n, d = rng.randint(2, 4), rng.randint(1, 3)
        f = rand_form(rng, n, d, bound=30)
        cone = Cone(rand_axis_plane(rng, n), Fraction(1, 2), Fraction(1))
        bump = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        value = lambda x: evaluate_form(f, x) + bump * norm_sq(x) ** (d + 1)
        samples = ConeSampleSet(cone, random.Random(rng.randrange(10**6)))
        res = reconstruct_form_from_cone(value, cone, d, samples=samples)
        _, held, _ = samples.plan(d)
        worst, witness = 0.0, None
        for p in held:
            r = evaluate_form(res.form, p) - value(p)
            if r != 0 and (witness is None or abs(float(r)) > worst):
                worst, witness = abs(float(r)), p
        assert not res.ok and (res.max_residual, res.witness) == (worst, witness)


def test_cone_recovery_and_gluing_leave_no_cyclic_garbage():
    rng = random.Random(416)
    f = rand_form(rng, 3, 3)
    cone = Cone(rand_axis_plane(rng, 3), Fraction(1, 2), Fraction(1))
    planes = rand_hyperplane_set(rng, 3, 4)

    def run():
        res = reconstruct_form_from_cone(lambda x: evaluate_form(f, x), cone, 3, seed=5)
        assert res.ok and res.form == f
        assert glue_hyperplanes([restriction_of(f, h) for h in planes]) == f

    run()
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_cone_reconstruction_shifted_values_rejected():
    rng = random.Random(413)
    f = rand_form(rng, 3, 2)
    cone = Cone(rand_axis_plane(rng, 3), Fraction(1, 2), Fraction(1))
    res = reconstruct_form_from_cone(
        lambda x: evaluate_form(f, x) + norm_sq(x) ** 2, cone, 2, mode="exact", seed=3
    )
    assert not res.ok


def _reference_reconstruct(value_fn, cone, degree, mode, seed, tol=1e-9):
    """reconstruct_form_from_cone as it was before the held-out loop built
    monomial rows: each point cleared with `clear_denominators` and valued
    with `forms.integer_value`, which reads the basis keys per point."""
    samples = ConeSampleSet(cone, random.Random(seed))
    basis = monomial_basis(samples.dimension, degree)
    while True:
        design, held, solve = samples.plan(degree)
        if len(design) == len(basis):
            break
        samples.add_planes(2)
    values = [la.frac(value_fn(p)) for p in design]
    coeffs = solve(values)
    checked = []
    if mode == "float":
        coeffs = [Fraction(float(c)) for c in coeffs]
        checked = list(zip(design, values))
    checked += [(p, la.frac(value_fn(p))) for p in held]
    ints, den = la.clear_denominators(coeffs)
    worst, witness = 0.0, None
    for p, v in checked:
        q, qden = la.clear_denominators(p)
        scale = den * qden**degree
        diff = integer_value(basis, ints, q) * v.denominator - v.numerator * scale
        if diff:
            r = abs(float(Fraction(diff, scale * v.denominator)))
            if witness is None or r > worst:
                worst, witness = r, p
    if mode == "float":
        worst /= max(1.0, max(abs(float(v)) for _, v in checked))
        if worst <= tol:
            witness = None
    return witness is None, worst, witness


def _held_out_cases():
    """(value function, cone, degree, seed, whether it should pass)."""
    path = pathlib.Path(__file__).parent / "data" / "form-n4-d4.json"
    f4 = form_from_data(json.loads(path.read_text()))
    axis4 = VectorPlane2(((1, 0, 0, 0), (0, 1, 0, 0)))
    cases = [
        # the golden cone-exact input, and cone-exact-low-degree's degree-3 read
        (lambda x: evaluate_form(f4, x), Cone(axis4, Fraction(1, 2), Fraction(1)), 4, 3, True),
        (lambda x: evaluate_form(f4, x), Cone(axis4, Fraction(1, 2), Fraction(1)), 3, 3, False),
    ]
    rng = random.Random(417)
    for k in range(10):
        n, d = rng.randint(2, 4), rng.randint(0, 4)
        f = rand_form(rng, n, d, bound=30)
        cone = Cone(rand_axis_plane(rng, n), Fraction(1, 2), Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        if k % 2:
            bump = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            value = lambda x, f=f, b=bump, d=d: evaluate_form(f, x) + b * norm_sq(x) ** (d + 1)
        else:
            value = lambda x, f=f: evaluate_form(f, x)
        cases.append((value, cone, d, rng.randrange(10**6), not k % 2))
    return cases


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("case", range(12))
def test_held_out_check_matches_the_integer_value_reference(mode, case):
    value, cone, d, seed, passes = _held_out_cases()[case]
    if mode == "float":
        value = lambda x, exact=value: float(exact(x))
    res = reconstruct_form_from_cone(value, cone, d, mode=mode, seed=seed)
    assert (res.ok, res.max_residual, res.witness) == _reference_reconstruct(value, cone, d, mode, seed)
    assert res.ok == passes
    if mode == "exact" and not passes:
        assert res.max_residual > 0 and res.witness is not None
