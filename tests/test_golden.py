"""Golden reports: fixed-seed CLI runs whose JSON must not change by a byte.

A refactor or speed-up of any layer under these commands has to leave the
reports identical.  After a deliberate report change, re-record them with
`PYTHONPATH=src python tests/test_golden.py` and explain the diff.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from analytica import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(__file__).parent / "data"
FORM_N4_D4 = str(DATA / "form-n4-d4.json")
# restrictions of form-n4-d4 to five hyperplanes in general position, and the
# same set with one coefficient of the third restriction changed
GLUE_N4_D4 = str(DATA / "restrictions-n4-d4.json")
GLUE_BROKEN = str(DATA / "restrictions-n4-d4-broken.json")

# name -> (argv without --out, expected exit code)
CASES = {
    "probe-hartogs": (["probe", "--builtin", "hartogs-f", "--spheres", "2", "--seed", "11"], 2),
    "probe-curve": (["probe", "--builtin", "curve-g", "--spheres", "2", "--seed", "11"], 2),
    "probe-rational": (["probe", "--expr", "1/(2 - x1 - x2*x3)", "--spheres", "2", "--seed", "2718"], 0),
    # n = 4: the carrier basis of each sphere is not the identity
    "probe-hartogs-n4": (["probe", "--builtin", "hartogs-f", "--n", "4", "--spheres", "2", "--seed", "3"], 2),
    "probe-rational-n4": (
        ["probe", "--expr", "1/(2 - x1 - x2*x4)", "--n", "4", "--spheres", "2", "--seed", "3"], 0
    ),
    "probe-polynomial": (
        ["probe", "--expr", "x1^2 + x2*x3 - 3/4*x1*x3^2", "--spheres", "3", "--seed", "7"], 0
    ),
    # constants beyond binary64 range: the valley falsifier skips the plane
    "probe-overflow-literal": (
        ["probe", "--expr", "x1/(1" + "0" * 400 + " + x2)", "--spheres", "1", "--seed", "1"], 0
    ),
    "probe-overflow-product": (
        ["probe", "--expr", "x1/(x2 + 1" + "0" * 300 + "*1" + "0" * 300 + ")", "--spheres", "1", "--seed", "1"], 0
    ),
    "tower-geometric": (
        ["tower", "--expr", "1/(1 - x1)", "--order", "8", "--eta", "1/2", "--seed", "5"], 0
    ),
    "tower-polynomial": (
        ["tower", "--expr", "x1^3 - 2*x1*x2 + 3/5*x2*x3^3 + 1", "--order", "6", "--seed", "9"], 0
    ),
    # every jet divides one power series by another
    "tower-rational": (
        ["tower", "--expr", "1/(2 - x1 - x2*x3)", "--order", "8", "--eta", "1/2", "--seed", "5"], 0
    ),
    # every jet's divisor vanishes at the origin, so it takes the unreduced
    # numerator/denominator route and cancels the removable singularity
    "tower-removable": (
        ["tower", "--expr", "(x1^2 + x2^2 + x3^2)*(1 + x1)/(x1^2 + x2^2 + x3^2)", "--order", "4", "--seed", "5"], 0
    ),
    # the held-out jet values disagree with the solved form at degree 1
    "tower-curve": (["tower", "--builtin", "curve-g", "--order", "4", "--seed", "5"], 2),
    # fitted jets: the degree-3 held-out residual, about 4.3e-8, misses tol 1e-9
    "tower-float": (
        ["tower", "--mode", "float", "--expr", "1/(1 - x1)", "--order", "4", "--eta", "1/2", "--seed", "5"], 2
    ),
    "cone-exact": (["reconstruct", "cone", "--input", FORM_N4_D4, "--seed", "3"], 0),
    "cone-exact-low-degree": (
        ["reconstruct", "cone", "--input", FORM_N4_D4, "--degree", "3", "--seed", "3"], 2
    ),
    # float mode solves on the exact elimination and calls no numpy routine
    "cone-float": (["reconstruct", "cone", "--input", FORM_N4_D4, "--mode", "float", "--seed", "3"], 0),
    "glue-n4-d4": (["reconstruct", "glue", "--input", GLUE_N4_D4], 0),
    "glue-incompatible": (["reconstruct", "glue", "--input", GLUE_BROKEN], 2),
    "counterexample-hartogs": (["counterexamples", "--name", "hartogs-f", "--seed", "5"], 2),
    "counterexample-curve": (["counterexamples", "--name", "curve-g", "--seed", "5"], 2),
}


def produce(name, out):
    argv, _ = CASES[name]
    return cli.main(argv + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / f"{name}.json"
    assert produce(name, out) == CASES[name][1]
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


# the float-route scans, whose charts the exact fold leaves open go through a
# Chebyshev fit (probe-rational's are all proven, so it runs none), and the
# fitted jets'
FLOAT_ROUTE = (
    "counterexample-curve", "counterexample-hartogs", "probe-curve", "probe-hartogs", "probe-rational", "tower-float"
)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_float_route_reports_do_not_depend_on_blas_threads(threads, tmp_path):
    """The fits run no BLAS routine, so their report bytes are the same at
    any OpenBLAS thread count.  OpenBLAS reads the count when numpy loads,
    so each count runs in a process of its own."""
    runs = [CASES[name][0] + ["--out", str(tmp_path / f"{name}.json")] for name in FLOAT_ROUTE]
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import json, sys\nfrom analytica import cli\nprint(json.dumps([cli.main(a) for a in json.loads(sys.argv[1])]))"
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == [CASES[name][1] for name in FLOAT_ROUTE]
    for name in FLOAT_ROUTE:
        assert (tmp_path / f"{name}.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes(), name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        code = produce(case, GOLDEN / f"{case}.json")
        print(f"{case}: exit {code}", file=sys.stderr)
