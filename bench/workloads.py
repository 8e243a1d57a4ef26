"""The benchmark's four workloads.

Each workload turns a seeded random.Random into a list of requests.  A
request calls one public entry point of analytica and returns its output;
its check returns None when the output is right, or what is wrong with it.
Requests look their entry point up on the module at call time, so the
traced run's hooks see every call.

Why these four (see layers.json for what each layer metric should move):

* probe (acceptance criterion 6): one sphere per request, cycling through
  four functions that each lean on a different layer of the sphere scan:
  hartogs-f the Chebyshev fit (and the slow tail), the rational function the
  valley falsifier walking every line, curve-g oracle evaluation with the
  falsifier skipped by its size cap, and the polynomial the exact tensor
  check.
* tower (criteria 4 and 5): one sample set is reused across every degree, so
  design planning, the exact solve and line series do the work.
* reconstruct (criteria 1 and 3): every plan is used once, and it is the only
  workload that glues hyperplane restrictions.
* probe-w2 (criterion 9): the CLI with a two-thread pool and a JSON report,
  the only workload where the pool and the report writer run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

RATIONAL = "1/(2 - x1 - x2*x3)"
PROBE_FUNCTIONS = (
    ("hartogs-f", None),
    ("curve-g", None),
    ("rational", RATIONAL),
    ("polynomial", "x1^5 + x2^5 - 3*x1^2*x2^2*x3 + x3^2"),
)
ANALYTIC = {"rational", "polynomial"}
PROBE_W2_SPHERES = 2


@dataclass(frozen=True)
class Request:
    kind: str
    key: str  # the request's inputs as text: equal keys, equal inputs
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # requests per round of request kinds
    nominal_cycle_s: float  # rough seconds per cycle; sizes the traced pass
    warm_up: str  # kind of the request sent once, untimed, during set-up
    tail_percentile: float  # lies inside one request kind's latencies, see below
    build: Callable  # (lib, rng, count, context) -> list[Request]
    run_check: Callable  # list of (request, output) -> str | None


def _rational(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def _text(v) -> str:
    return ",".join(str(x) for x in v)


# ---------------------------------------------------------------------------
# probe: one sphere per request through sphere_scan, criterion 6's path


def _oracle(lib, name, text):
    if text is None:
        return lib.oracle.builtin_counterexample(name)
    return lib.oracle.oracle_from_text(text, 3)


def _sphere(lib, rng):
    """A rational 2-sphere through 0 inside the unit ball of R^3."""
    while True:
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(3)]
        if any(c):
            break
    while sum(x * x for x in c) >= 1:
        c = [x / 2 for x in c]
    return lib.geometry.SphereThroughOrigin(tuple(c), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _check_scan(kind, report):
    if report.checked != 1:
        return f"{kind}: checked {report.checked} spheres, asked for 1"
    for outcome in report.outcomes:
        for part, rep in outcome.parts:
            if rep.verdict == "pass":
                continue
            if kind in ANALYTIC:
                return f"{kind}: analytic function got {rep.verdict} on {part}"
            if rep.witness is None:
                return f"{kind}: {rep.verdict} on {part} without a witness"
    return None


def build_probe(lib, rng, count, context):
    oracles = [(name, _oracle(lib, name, text)) for name, text in PROBE_FUNCTIONS]
    out = []
    while len(out) < count:
        sphere = _sphere(lib, rng)
        for name, f in oracles:
            seed = rng.randrange(10**9)
            out.append(
                Request(
                    name,
                    f"{name} c={_text(sphere.c)} seed={seed}",
                    lambda f=f, s=sphere, seed=seed: lib.certify.sphere_scan(f, spheres=[s], seed=seed, workers=1),
                    lambda report, name=name: _check_scan(name, report),
                )
            )
    return out[:count]


def check_probe_run(done):
    """Each counterexample must fail at least one sphere it was run on."""
    for kind in ("hartogs-f", "curve-g"):
        reports = [out for req, out in done if req.kind == kind and out is not None]
        if reports and all(r.ok for r in reports):
            return f"no {kind} sphere failed in {len(reports)} requests"
    return None


def _stratified(rng, classes):
    """An endless stream that visits every class once per block, in a seeded
    order.  The criteria draw sizes (n and d, or a term count) uniformly;
    visiting them in blocks keeps those shares in every run, without the
    swing in how many of the costly sizes a run happens to draw."""
    while True:
        block = list(classes)
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# tower: build_tower on criterion-4 polynomials and two rational functions


def _random_polynomial(rng, term_count):
    """Criterion 4's generator: `term_count` terms in x1..x3, total degree
    <= 5.  Returns the text, the exponent -> coefficient map and the degree."""
    terms: dict[tuple, Fraction] = {}
    parts = []
    for _ in range(term_count):
        exps = [rng.randint(0, 2) for _ in range(3)]
        while sum(exps) > 5:
            exps[rng.randrange(3)] = 0
        c = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
        if c == 0:
            continue
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + c
        mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(exps) if e)
        parts.append(f"({c.numerator}/{c.denominator})" + (f"*{mono}" if mono else ""))
    terms = {e: c for e, c in terms.items() if c}
    degree = max((sum(e) for e in terms), default=0)
    return " + ".join(parts) or "1", terms, degree


def _poly_value(terms, p):
    return sum((c * math.prod(x**e for x, e in zip(p, exps)) for exps, c in terms.items()), Fraction(0))


def _check_poly_tower(res, terms, degree, points):
    if not res.ok:
        return f"tower failed: {res.failures[:1]}"
    if not all(res.tower.forms[r].is_zero for r in range(degree + 1, len(res.tower.forms))):
        return f"nonzero form above degree {degree}"
    for p in points:
        if res.tower.evaluate(p) != _poly_value(terms, p):
            return f"tower disagrees with the polynomial at {_text(p)}"
    return None


def _check_geometric_tower(lib, res):
    if not res.ok:
        return "1/(1 - x1) tower failed"
    for r, form in enumerate(res.tower.forms):
        if form != lib.forms.HomogeneousForm(3, r, {(r, 0, 0): Fraction(math.factorial(r))}):
            return f"1/(1 - x1) tower form {r} is not {r}!*x1^{r}"
    return None


def _check_rational_tower(res, points):
    """Along t*p, 1/(2 - x1 - x2*x3) has coefficients a_r with
    2 a_r = p1 a_{r-1} + p2 p3 a_{r-2}; the tower must give T_r(p) = r! a_r."""
    if not res.ok:
        return f"{RATIONAL} tower failed"
    for p in points:
        a = [Fraction(1, 2)]
        for r, form in enumerate(res.tower.forms):
            if r > 0:
                a.append((p[0] * a[r - 1] + (p[1] * p[2] * a[r - 2] if r > 1 else 0)) / 2)
            if form.evaluate(p) != math.factorial(r) * a[r]:
                return f"{RATIONAL} tower form {r} is wrong at {_text(p)}"
    return None


def build_tower(lib, rng, count, context):
    axis = lib.geometry.VectorPlane2(((1, 0, 0), (0, 1, 0)))
    wide = lib.geometry.Cone(axis, Fraction(1, 2), Fraction(1))
    narrow = lib.geometry.Cone(axis, Fraction(1, 2), Fraction(1, 2))
    geometric = lib.oracle.oracle_from_text("1/(1 - x1)", 3)
    rational = lib.oracle.oracle_from_text(RATIONAL, 3)

    def points(k):
        return [tuple(_rational(rng, 8) for _ in range(3)) for _ in range(k)]

    term_counts = _stratified(rng, range(2, 8))
    out = []
    while len(out) < count:
        for _ in range(4):
            text, terms, degree = _random_polynomial(rng, next(term_counts))
            f = lib.oracle.oracle_from_text(text, 3)
            seed = rng.randrange(10**9)
            out.append(
                Request(
                    "polynomial",
                    f"{text} seed={seed}",
                    lambda f=f, seed=seed: lib.taylor.build_tower(f, wide, 6, seed=seed),
                    lambda res, t=terms, d=degree, p=points(3): _check_poly_tower(res, t, d, p),
                )
            )
        seed = rng.randrange(10**9)
        out.append(
            Request(
                "geometric",
                f"1/(1 - x1) seed={seed}",
                lambda seed=seed: lib.taylor.build_tower(geometric, narrow, 8, seed=seed),
                lambda res: _check_geometric_tower(lib, res),
            )
        )
        seed = rng.randrange(10**9)
        out.append(
            Request(
                "rational",
                f"{RATIONAL} seed={seed}",
                lambda seed=seed: lib.taylor.build_tower(rational, narrow, 8, seed=seed),
                lambda res, p=points(2): _check_rational_tower(res, p),
            )
        )
    return out[:count]


# ---------------------------------------------------------------------------
# reconstruct: glue round trips (criterion 1) and cone recoveries (criterion 3)


def _random_form(lib, rng, n, d):
    basis = lib.forms.monomial_basis(n, d)
    terms = {idx: _rational(rng, 1000) for idx in basis if rng.random() < 0.7}
    if not any(terms.values()):
        terms[basis[rng.randrange(len(basis))]] = Fraction(1)
    return lib.forms.HomogeneousForm(n, d, terms)


def _hyperplanes(lib, rng, n, count):
    while True:
        normals = set()
        while len(normals) < count:
            v = tuple(rng.randint(-9, 9) for _ in range(n))
            if any(v):
                normals.add(v)
        planes = [lib.geometry.Hyperplane(v) for v in sorted(normals)]
        if lib.geometry.general_position(planes, n):
            return planes


def _axis(lib, rng, n):
    while True:
        b1 = tuple(rng.randint(-5, 5) for _ in range(n))
        b2 = tuple(rng.randint(-5, 5) for _ in range(n))
        if any(b1[i] * b2[j] != b1[j] * b2[i] for i in range(n) for j in range(i + 1, n)):
            return lib.geometry.VectorPlane2((b1, b2))


def _glue_round_trip(lib, f, planes):
    restrictions = [lib.interpolation.restriction_of(f, h) for h in planes]
    return lib.interpolation.glue_hyperplanes(restrictions)


def _check_cone(res, f):
    if not (res.ok and res.max_residual == 0.0):
        return "cone recovery did not check out on its held-out samples"
    return None if res.form == f else "cone recovery returned another form"


def build_reconstruct(lib, rng, count, context):
    glue_classes = _stratified(rng, [(n, d) for n in range(2, 5) for d in range(1, 6)])
    cone_classes = _stratified(rng, [(n, d) for n in range(2, 5) for d in range(1, 5)])
    out = []
    while len(out) < count:
        n, d = next(glue_classes)
        f = _random_form(lib, rng, n, d)
        planes = _hyperplanes(lib, rng, n, d + 1)
        out.append(
            Request(
                "glue",
                f"glue {f!r} normals={[_text(h.normal) for h in planes]}",
                lambda f=f, planes=planes: _glue_round_trip(lib, f, planes),
                lambda glued, f=f: None if glued == f else "glued form differs from its input",
            )
        )
        n, d = next(cone_classes)
        f = _random_form(lib, rng, n, d)
        cone = lib.geometry.Cone(_axis(lib, rng, n), Fraction(1, 2), Fraction(1))
        seed = rng.randrange(10**9)
        out.append(
            Request(
                "cone",
                f"cone {f!r} axis={[_text(b) for b in cone.axis.basis]} seed={seed}",
                lambda f=f, cone=cone, d=d, seed=seed: lib.interpolation.reconstruct_form_from_cone(
                    lambda x: lib.forms.evaluate_form(f, x), cone, d, seed=seed
                ),
                lambda res, f=f: _check_cone(res, f),
            )
        )
    return out[:count]


# ---------------------------------------------------------------------------
# probe-w2: the CLI with a thread pool and a JSON report


def probe_argv(kind, seed, workers, path):
    source = ["--builtin", "hartogs-f"] if kind == "hartogs-f" else ["--expr", RATIONAL]
    return [
        "probe", *source, "--spheres", str(PROBE_W2_SPHERES), "--seed", str(seed),
        "--workers", str(workers), "--out", path,
    ]


def _check_cli_probe(kind, code, path):
    want = 2 if kind == "hartogs-f" else 0
    if code != want:
        return f"probe on {kind} exited {code}, expected {want}"
    with open(path) as fh:
        report = json.load(fh)
    if report["checked"] != PROBE_W2_SPHERES:
        return f"probe on {kind} reports {report['checked']} spheres, asked for {PROBE_W2_SPHERES}"
    if any(fl["witness"] is None for fl in report["failures"]):
        return f"probe on {kind} reports a failure without a witness"
    return None


def build_probe_w2(lib, rng, count, context):
    out = []
    for i in range(count):
        kind = "hartogs-f" if i % 2 == 0 else "rational"
        seed = rng.randrange(10**9)
        path = os.path.join(context["out_dir"], f"probe-w2-{i}.json")
        argv = probe_argv(kind, seed, context["workers"], path)
        out.append(
            Request(
                kind,
                f"{kind} seed={seed}",
                lambda argv=argv: lib.cli.main(argv),
                lambda code, kind=kind, path=path: _check_cli_probe(kind, code, path),
            )
        )
    return out


def _no_run_check(done):
    return None


# Latency mixes several request kinds, so a percentile that falls between
# two kinds jumps from run to run.  Each tail percentile is the highest that
# keeps ten samples beyond it at a 30-second run and lies inside one kind:
# the rational requests for probe, the two order-8 towers (a third of the
# requests) for tower and the n=4, d=4 cone recoveries (1 request in 24) for
# reconstruct.  probe-w2 sends about 30 requests, too few for more than its
# median.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("probe", 4, 1.7, "curve-g", 75, build_probe, check_probe_run),
        Workload("tower", 6, 3.8, "polynomial", 75, build_tower, _no_run_check),
        Workload("reconstruct", 2, 0.06, "cone", 98, build_reconstruct, _no_run_check),
        Workload("probe-w2", 2, 2.1, "rational", 50, build_probe_w2, _no_run_check),
    )
}
