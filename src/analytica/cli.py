"""Command line interface.

Exit status: 0 on success or a passing verdict, 2 on an honest diagnostic
failure (a failing sphere, a reconstruction that does not check out, a
counterexample demonstration), 1 on usage and configuration errors.

Reports are byte-stable: a fixed seed gives identical output regardless of
--workers.  The seed defaults to 1729, can be set for a whole shell via
ANALYTICA_SEED, and --seed wins over both.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from .certify import CertifyError, check_plane_analytic, sphere_scan
from .forms import FormError, evaluate_form, tower_evaluate
from .geometry import (
    AffinePlane2,
    Cone,
    GeometryError,
    PoleError,
    SphereThroughOrigin,
    VectorPlane2,
    invert_mu,
    invert_mu_centered,
    sphere_to_plane,
)
from .interpolation import (
    ConeSampleSet,
    GluingError,
    InterpolationError,
    ReconstructionError,
    glue_hyperplanes,
    reconstruct_form_from_cone,
)
from .jsonio import (
    dumps,
    emit_plot_data,
    form_from_data,
    form_to_data,
    reconstruction_to_data,
    restrictions_from_data,
    scan_report_to_data,
    tower_result_to_data,
    vector_to_data,
)
from .oracle import (
    OracleError,
    ParseError,
    builtin_counterexample,
    evaluate_grid,
    oracle_from_text,
    to_text,
    translate,
)
from .taylor import build_tower, line_convergence_radius

_DEFAULT_SEED = 1729


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; this CLI reserves 2
    # for honest diagnostic failures, so usage errors must exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_vector(text: str) -> tuple:
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise OracleError(f"bad vector {text!r}: {exc}") from None


def _parse_guard(text: str | None):
    if text is None:
        return None
    point, eq, value = text.partition("=")
    if not eq:
        raise OracleError('a guard is "x1,..,xn=value"')
    try:
        return _parse_vector(point), Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise OracleError(f"bad guard value in {text!r}: {exc}") from None


def _resolve_seed(explicit: int | None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("ANALYTICA_SEED")
    if env:
        try:
            return int(env)
        except ValueError:
            raise OracleError(f"ANALYTICA_SEED must be an integer, got {env!r}") from None
    return _DEFAULT_SEED


def _load_oracle(args):
    guard = _parse_guard(getattr(args, "guard", None))
    if getattr(args, "builtin", None):
        if args.expr:
            raise OracleError("--builtin and --expr are mutually exclusive")
        if guard is not None:
            raise OracleError("--guard applies to --expr oracles; builtins carry their own")
        return builtin_counterexample(args.builtin, args.n)
    if getattr(args, "expr", None):
        return oracle_from_text(args.expr, args.n, guard=guard)
    raise OracleError("provide --builtin or --expr")


def _emit(args, data: dict) -> None:
    text = dumps(data)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    plot_dir = getattr(args, "plot_dir", None)
    if plot_dir and not emit_plot_data(data, plot_dir):
        print(
            f"analytica: note: the report has no plot data; nothing written to {plot_dir}",
            file=sys.stderr,
        )


def _default_axis(dimension: int) -> VectorPlane2:
    if dimension < 2:
        raise OracleError("need ambient dimension at least 2")
    e1 = tuple(1 if i == 0 else 0 for i in range(dimension))
    e2 = tuple(1 if i == 1 else 0 for i in range(dimension))
    return VectorPlane2((e1, e2))


def _parse_axis(text: str | None, dimension: int) -> VectorPlane2:
    if text is None:
        return _default_axis(dimension)
    parts = text.split(";")
    if len(parts) != 2:
        raise OracleError('an axis plane is "dir1; dir2" (two comma-separated vectors)')
    return VectorPlane2((_parse_vector(parts[0]), _parse_vector(parts[1])))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_probe(args) -> int:
    f = _load_oracle(args)
    report = sphere_scan(
        f,
        count=args.spheres,
        seed=_resolve_seed(args.seed),
        tol=args.tol,
        fit_degree=args.fit_degree,
        workers=args.workers,
        mode=args.mode,
    )
    _emit(args, scan_report_to_data(report))
    return 0 if report.ok else 2


def _cmd_glue(args) -> int:
    with open(args.input) as fh:
        data = json.load(fh)
    restrictions = restrictions_from_data(data)
    try:
        form = glue_hyperplanes(restrictions, degree=args.degree)
    except GluingError as exc:
        _emit(args, {"kind": "glue", "ok": False, "error": str(exc)})
        return 2
    _emit(args, {"kind": "glue", "ok": True, "form": form_to_data(form)})
    return 0


def _cmd_cone(args) -> int:
    with open(args.input) as fh:
        form = form_from_data(json.load(fh))
    degree = form.degree if args.degree is None else args.degree
    axis = _parse_axis(args.axis, form.dimension)
    cone = Cone(axis, Fraction(args.theta), Fraction(args.eta))
    try:
        result = reconstruct_form_from_cone(
            lambda x: evaluate_form(form, x),
            cone,
            degree,
            mode=args.mode,
            seed=_resolve_seed(args.seed),
            tol=args.tol,
        )
    except ReconstructionError as exc:
        _emit(args, {"kind": "reconstruct-cone", "ok": False, "error": str(exc)})
        return 2
    _emit(args, {"kind": "reconstruct-cone", **reconstruction_to_data(result)})
    return 0 if result.ok else 2


def _diagnostic_lines(f, result, directions, eta: Fraction) -> list[dict]:
    """Tabulate f and the tower's partial sums along the given sample
    directions, for plotting.  Pole rows show f as nan."""
    lines = []
    ts = [Fraction(i, 16) * eta for i in range(17)]
    for p in directions:
        xs = [tuple(float(t * xi) for xi in p) for t in ts]
        values, pole = evaluate_grid(f, list(zip(*xs)))
        rows = [
            [float(t), float("nan") if at_pole else fv, float(tower_evaluate(result.tower, x))]
            for t, x, fv, at_pole in zip(ts, xs, values.tolist(), pole.tolist())
        ]
        lines.append({"direction": vector_to_data(p), "rows": rows})
    return lines


def _cmd_tower(args) -> int:
    f = _load_oracle(args)
    if args.base is not None:
        f = translate(f, _parse_vector(args.base))
    axis = _parse_axis(args.axis, f.dimension)
    eta = Fraction(args.eta)
    cone = Cone(axis, Fraction(args.theta), eta)
    samples = ConeSampleSet(cone, random.Random(_resolve_seed(args.seed)))
    result = build_tower(f, cone, args.order, mode=args.mode, samples=samples, tol=args.tol)
    pts = samples.plan(2)[0][:3]
    radii = []
    if result.ok and args.order >= 4:
        radii = [line_convergence_radius(result.tower, tuple(map(float, p))) for p in pts]
    data = tower_result_to_data(result, radii)
    data["lines"] = _diagnostic_lines(f, result, pts, eta)
    _emit(args, data)
    return 0 if result.ok else 2


def _hartogs_demo(args, f) -> dict:
    n = f.dimension
    diag = []
    for k in range(10):
        t = Fraction(1, 10 * 2**k)
        diag.append([float(t), float(f.evaluate(tuple(t for _ in range(n))))])
    e1 = tuple(1 if i == 0 else 0 for i in range(n))
    e2 = tuple(1 if i == 1 else 0 for i in range(n))
    slices = []
    for c in (Fraction(1, 10), Fraction(-1, 10)):
        base = tuple(c if i == n - 1 else Fraction(0) for i in range(n))
        rep = check_plane_analytic(
            f, AffinePlane2(base, (e1, e2)), tol=args.tol, window=abs(c) / 4
        )
        slices.append(
            {"offset": c, "verdict": rep.verdict, "residual": float(rep.residual)}
        )
    scan = sphere_scan(f, count=3, seed=_resolve_seed(args.seed), tol=args.tol)
    return {
        "kind": "counterexample",
        "name": "hartogs-f",
        "n": n,
        "expression": to_text(f.expression),
        "note": (
            "restrictions to planes parallel to the coordinate hyperplanes are "
            "analytic, yet the diagonal values blow up at the origin and "
            "sphere restrictions through 0 fail"
        ),
        "diagonal_witness": {
            "t": 0.1,
            "value": float(f.evaluate(tuple(Fraction(1, 10) for _ in range(n)))),
        },
        "slices": slices,
        "spheres": {"checked": scan.checked, "passed": scan.passed},
        "series": [{"label": "diagonal", "rows": diag}],
    }


def _curve_demo(args, f) -> dict:
    t0 = Fraction(1, 100)
    axis_pt = (t0, Fraction(0), Fraction(0))
    cusp_pt = (t0**3, t0**2, t0**15)
    axis_rows = []
    cusp_rows = []
    for k in range(1, 11):
        t = Fraction(1, 2**k)
        axis_rows.append([float(t), float(f.evaluate((t, Fraction(0), Fraction(0))))])
        cusp_rows.append([float(t), float(f.evaluate((t**3, t**2, t**15)))])
    rep = check_plane_analytic(
        f, AffinePlane2((0, 0, 0), ((1, 0, 0), (0, 1, 0))), tol=args.tol
    )
    return {
        "kind": "counterexample",
        "name": "curve-g",
        "n": 3,
        "expression": to_text(f.expression),
        "note": (
            "values along the first axis vanish at 0 while values along the "
            "cuspidal curve blow up, so the function is not even continuous "
            "at the origin"
        ),
        "witnesses": {
            "axis": {
                "t": float(t0),
                "point": vector_to_data(axis_pt),
                "value": float(f.evaluate(axis_pt)),
            },
            "cusp": {
                "t": float(t0),
                "point": vector_to_data(cusp_pt),
                "value": float(f.evaluate(cusp_pt)),
            },
        },
        "plane_check": {
            "plane": "x3 = 0",
            "verdict": rep.verdict,
            "residual": float(rep.residual),
            "witness": vector_to_data(rep.witness) if rep.witness else None,
        },
        "series": [
            {"label": "axis", "rows": axis_rows},
            {"label": "cusp", "rows": cusp_rows},
        ],
    }


def _cmd_counterexamples(args) -> int:
    f = builtin_counterexample(args.name, args.n)
    if args.name == "hartogs-f":
        data = _hartogs_demo(args, f)
    else:
        data = _curve_demo(args, f)
    _emit(args, data)
    return 2


def _cmd_invert(args) -> int:
    if args.sphere_json:
        with open(args.sphere_json) as fh:
            raw = json.load(fh)
        try:
            c = tuple(Fraction(str(x)) for x in raw["c"])
            basis = tuple(tuple(Fraction(str(x)) for x in row) for row in raw.get("basis", ()))
        except (TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"bad sphere file {args.sphere_json}: {exc!r}") from None
        if not basis:
            if len(c) != 3:
                raise OracleError("a sphere in dimension > 3 needs an explicit basis")
            basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        sphere = SphereThroughOrigin(c, basis)
        plane = sphere_to_plane(sphere)
        _emit(
            args,
            {
                "kind": "invert",
                "sphere": {
                    "c": vector_to_data(sphere.c),
                    "basis": [vector_to_data(b) for b in sphere.basis],
                },
                "plane": {
                    "base": vector_to_data(plane.base_point),
                    "basis": [vector_to_data(b) for b in plane.basis],
                },
            },
        )
        return 0
    x = _parse_vector(args.point)
    center = _parse_vector(args.center) if args.center else None
    if center is not None and len(center) != len(x):
        raise OracleError("point and center dimensions differ")
    image = invert_mu(x) if center is None else invert_mu_centered(x, center)
    _emit(
        args,
        {"kind": "invert", "point": vector_to_data(x), "image": vector_to_data(image)},
    )
    return 0


# ---------------------------------------------------------------------------
# wiring


def _add_oracle_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builtin", help="builtin counterexample name (hartogs-f, curve-g)")
    p.add_argument("--expr", help="expression text in x1..xn")
    p.add_argument("--n", type=int, default=3, help="ambient dimension (default 3)")
    p.add_argument("--guard", help='value at a removable point, as "x1,..,xn=value"')


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--plot-dir", help="also write plot-data CSV files to this directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="analytica", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probe", help="check analyticity on random 2-spheres through 0")
    _add_oracle_options(p)
    _add_output_options(p)
    p.add_argument("--spheres", type=int, default=6, help="number of spheres to sample")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--fit-degree", type=int, default=12)
    p.add_argument(
        "--workers", type=int, default=1,
        help="pool threads for the sphere checks; they take turns, as the checks hold the GIL",
    )
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_probe)

    rec = sub.add_parser("reconstruct", help="rebuild a form from partial data")
    rsub = rec.add_subparsers(dest="source", required=True)

    p = rsub.add_parser("glue", help="glue hyperplane restrictions into a form")
    _add_output_options(p)
    p.add_argument("--input", required=True, help="restrictions JSON file")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(handler=_cmd_glue)

    p = rsub.add_parser("cone", help="recover a form from samples on cone planes")
    _add_output_options(p)
    p.add_argument("--input", required=True, help="form JSON file to sample and recover")
    p.add_argument("--degree", type=int, default=None, help="fit degree (default: the form's)")
    p.add_argument("--axis", help='axis plane "dir1; dir2"')
    p.add_argument("--theta", default="1/2", help="cone aperture in (0, 1]")
    p.add_argument("--eta", default="1", help="cone window radius")
    p.add_argument("--mode", choices=("exact", "float"), default="exact")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_cone)

    p = sub.add_parser("tower", help="build a Taylor tower from radial jets in a cone")
    _add_oracle_options(p)
    _add_output_options(p)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--base", help="expansion point (default: origin)")
    p.add_argument("--axis", help='axis plane "dir1; dir2"')
    p.add_argument("--theta", default="1/2")
    p.add_argument("--eta", default="1", help="cone window radius")
    p.add_argument("--mode", choices=("auto", "exact", "float"), default="auto")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_tower)

    p = sub.add_parser(
        "counterexamples", help="demonstrate a builtin counterexample (exits 2)"
    )
    _add_output_options(p)
    p.add_argument("--name", required=True, choices=("hartogs-f", "curve-g"))
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(handler=_cmd_counterexamples)

    p = sub.add_parser("invert", help="apply the sphere-to-plane inversion")
    _add_output_options(p)
    p.add_argument("--point", help="comma-separated rational coordinates")
    p.add_argument("--sphere-json", help="sphere JSON file to map to its plane")
    p.add_argument("--center", help="invert around this point instead of the origin")
    p.set_defaults(handler=_cmd_invert)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "invert" and bool(args.point) == bool(args.sphere_json):
        parser.error("invert needs exactly one of --point or --sphere-json")
    try:
        return args.handler(args)
    except (
        ParseError,
        OracleError,
        CertifyError,
        GeometryError,
        PoleError,
        InterpolationError,
        FormError,
        OSError,
        ValueError,
    ) as exc:
        print(f"analytica: error: {exc}", file=sys.stderr)
        return 1
    except KeyError as exc:
        print(f"analytica: error: missing key {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
