import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from analytica import cli
from analytica.forms import HomogeneousForm
from analytica.geometry import Hyperplane, invert_mu
from analytica.interpolation import restriction_of
from analytica.jsonio import dumps, form_to_data, restrictions_to_data


FORM_N4_D4 = str(pathlib.Path(__file__).parent / "data" / "form-n4-d4.json")


def run(argv):
    # parser.error raises SystemExit; handlers return the code directly
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


LINEAR = HomogeneousForm(3, 1, {(1, 0, 0): Fraction(1), (0, 1, 0): Fraction(2), (0, 0, 1): Fraction(3)})


def write_restrictions(path, forms_and_normals):
    rs = [restriction_of(f, Hyperplane(nrm)) for f, nrm in forms_and_normals]
    path.write_text(dumps(restrictions_to_data(rs)) + "\n")


# ---------------------------------------------------------------------------
# probe


def test_probe_polynomial_passes(capsys):
    code = run(["probe", "--expr", "x1^2 + x2*x3", "--n", "3", "--spheres", "3", "--seed", "7"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["kind"] == "sphere-scan"
    assert data["checked"] == data["passed"] == 3
    assert data["config"]["seed"] == 7


def test_probe_out_file(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = run(["probe", "--expr", "x1", "--spheres", "2", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["passed"] == 2


def test_probe_bytes_identical_across_workers(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["probe", "--builtin", "hartogs-f", "--spheres", "2", "--seed", "11"]
    assert run(base + ["--workers", "1", "--out", str(a)]) == 2
    assert run(base + ["--workers", "3", "--out", str(b)]) == 2
    assert a.read_bytes() == b.read_bytes()


def test_probe_counterexample_fails(capsys):
    code = run(["probe", "--builtin", "curve-g", "--spheres", "2", "--seed", "3"])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["failures"]
    first = data["failures"][0]
    assert first["part"] in ("origin-inversion", "point-inversion")


def test_probe_unparseable_expression(capsys):
    code = run(["probe", "--expr", "x1 + + x2", "--spheres", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "error" in err and "offset" in err


def test_probe_runs_a_long_sum(capsys):
    code = run(["probe", "--expr", "+".join(["x1"] * 3000), "--spheres", "1", "--seed", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == report["passed"] == 1


def test_probe_too_deep_nesting_is_a_usage_error(capsys):
    code = run(["probe", "--expr", "(" * 3000 + "x1" + ")" * 3000, "--spheres", "1"])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("analytica: error: expression nested too deeply (offset ")
    assert err.count("\n") == 1


def test_probe_needs_an_oracle(capsys):
    assert run(["probe", "--spheres", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_seed_resolution(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ANALYTICA_SEED", raising=False)
    run(["probe", "--expr", "x1", "--spheres", "1"])
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 1729

    monkeypatch.setenv("ANALYTICA_SEED", "42")
    run(["probe", "--expr", "x1", "--spheres", "1"])
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 42

    run(["probe", "--expr", "x1", "--spheres", "1", "--seed", "7"])
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 7

    monkeypatch.setenv("ANALYTICA_SEED", "not-a-number")
    assert run(["probe", "--expr", "x1", "--spheres", "1"]) == 1


def test_guard_flag(capsys):
    code = run([
        "probe", "--expr", "(x1*x2*x3)/(x1^6 + x2^6 + x3^6)",
        "--guard", "0,0,0=0", "--spheres", "1", "--seed", "2",
    ])
    assert code == 2  # guarded, parsed, honestly fails the scan
    capsys.readouterr()
    assert run(["probe", "--expr", "x1", "--guard", "nonsense", "--spheres", "1"]) == 1
    capsys.readouterr()
    assert run(["probe", "--builtin", "curve-g", "--guard", "0,0,0=0", "--spheres", "1"]) == 1


def test_discontinuous_guard_exits_as_a_failure(capsys):
    code = run(["probe", "--expr", "x1^2", "--guard", "0,0,0=1", "--spheres", "2", "--seed", "1729"])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["checked"] == 2 and data["passed"] == 0
    for fl in data["failures"]:
        assert fl["part"] == "point-inversion"
        assert fl["verdict"] == "fail"
        assert len(fl["witness"]) == 3


def test_a_guard_between_the_nodes_exits_as_a_failure(capsys):
    # the guard point lies on the sphere, inside the origin-inversion chart's
    # window but on no node of the tensor grid that once sampled it; the
    # polynomial's value there is 158479/320000, not 7
    guard = (Fraction(13, 200), Fraction(91, 200), Fraction(13, 40))
    code = run([
        "probe", "--expr", "x1*x2 - x3^3 + 1/2", "--guard", "13/200,91/200,13/40=7",
        "--spheres", "1", "--seed", "5",
    ])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["checked"] == 1 and data["passed"] == 0
    (fl,) = data["failures"]
    assert fl["part"] == "origin-inversion" and fl["verdict"] == "fail"
    assert fl["witness"] == [str(x) for x in invert_mu(guard)]
    assert fl["residual"] == float(7 - Fraction(158479, 320000)) / 7


@pytest.mark.parametrize("expr", ["x1^2 + x2*x3", "1/(2-x1)"], ids=["exact", "float"])
@pytest.mark.parametrize(
    "flags", [["--tol", "-1"], ["--tol", "nan"], ["--fit-degree", "1"]], ids=["tol-1", "tol-nan", "fit-1"]
)
def test_probe_rejects_bad_fit_settings_on_both_routes(expr, flags, capsys):
    assert run(["probe", "--expr", expr, "--spheres", "1", "--seed", "1", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("analytica: error:")


@pytest.mark.parametrize(
    "expr", ["x1/(10^400 + x2)", "x1/(1" + "0" * 400 + " + x2)"], ids=["power", "literal"]
)
def test_probe_overflow_is_a_report_not_a_crash(expr, capsys):
    # a constant beyond binary64 range evaluates to inf, as an overflowing product does
    code = run(["probe", "--expr", expr, "--spheres", "1", "--seed", "1"])
    assert code in (0, 2)
    assert json.loads(capsys.readouterr().out)["checked"] == 1


# ---------------------------------------------------------------------------
# reconstruct


def test_glue_round_trip(tmp_path, capsys):
    src = tmp_path / "restrictions.json"
    write_restrictions(src, [(LINEAR, (1, 1, 1)), (LINEAR, (1, -1, 2))])
    out = tmp_path / "form.json"
    code = run(["reconstruct", "glue", "--input", str(src), "--out", str(out)])
    assert code == 0
    data = read_json(out)
    assert data["ok"] is True
    terms = {tuple(t["exp"]): Fraction(t["num"], t["den"]) for t in data["form"]["terms"]}
    assert terms == {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3}


def test_glue_incompatible_data(tmp_path, capsys):
    x1 = HomogeneousForm(3, 1, {(1, 0, 0): Fraction(1)})
    x2 = HomogeneousForm(3, 1, {(0, 1, 0): Fraction(1)})
    src = tmp_path / "bad.json"
    write_restrictions(src, [(x1, (1, 1, 1)), (x2, (1, -1, 2))])
    code = run(["reconstruct", "glue", "--input", str(src)])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False and "disagree" in data["error"]


def test_glue_wrong_plane_count(tmp_path, capsys):
    src = tmp_path / "short.json"
    write_restrictions(src, [(LINEAR, (1, 1, 1)), (LINEAR, (1, -1, 2))])
    assert run(["reconstruct", "glue", "--input", str(src), "--degree", "3"]) == 2


def test_glue_missing_input(capsys):
    assert run(["reconstruct", "glue", "--input", "/nonexistent.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_cone_round_trip(tmp_path, capsys):
    form = HomogeneousForm(3, 2, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(1, 2)})
    src = tmp_path / "form.json"
    src.write_text(dumps(form_to_data(form)) + "\n")
    out = tmp_path / "rec.json"
    plots = tmp_path / "plots"
    code = run([
        "reconstruct", "cone", "--input", str(src), "--seed", "5", "--out", str(out),
        "--plot-dir", str(plots),
    ])
    assert code == 0
    data = read_json(out)
    assert data["ok"] is True and data["mode"] == "exact"
    assert data["max_residual"] == 0
    assert data["form"] == json.loads(dumps(form_to_data(form)))
    # a cone report has no plottable series: no directory, and a note says so
    assert not plots.exists()
    assert capsys.readouterr().err.startswith("analytica: note: the report has no plot data")


def test_cone_float_mode(capsys):
    code = run(["reconstruct", "cone", "--input", FORM_N4_D4, "--mode", "float", "--seed", "5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True and data["mode"] == "float"
    assert data["max_residual"] <= 1e-9


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "command",
    [
        ["reconstruct", "cone", "--input", FORM_N4_D4],
        ["tower", "--mode", "float", "--expr", "x1^2+x2"],
        ["probe", "--builtin", "curve-g", "--spheres", "1", "--seed", "1"],
    ],
    ids=["cone", "tower", "probe"],
)
def test_bad_tol_is_a_usage_error(command, tol, capsys):
    assert run([*command, "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "analytica: error: tol must be positive and finite\n"


def test_cone_wrong_degree_is_diagnosed(tmp_path, capsys):
    form = HomogeneousForm(3, 2, {(2, 0, 0): Fraction(1)})
    src = tmp_path / "form.json"
    src.write_text(dumps(form_to_data(form)) + "\n")
    code = run(["reconstruct", "cone", "--input", str(src), "--degree", "1", "--seed", "5"])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False and data["witness"]


def _restrictions_with_normal(normal):
    data = restrictions_to_data([restriction_of(LINEAR, Hyperplane((1, 1, 1)))])
    data["restrictions"][0]["normal"] = normal
    return data


@pytest.mark.parametrize(
    "command, data, names",
    [
        (["reconstruct", "cone"], {"n": 3, "d": 1, "terms": [{"exp": [1, 0, 0], "num": 1, "den": 0}]}, None),
        (["reconstruct", "cone"], [[1, 0, 0], 1], None),
        (["reconstruct", "cone"], {"n": 3, "d": 1, "terms": [{"exp": [1, 0, 0], "num": "1"}]}, None),
        (["reconstruct", "cone"], {"n": 3, "d": 2.0, "terms": [{"exp": [2, 0, 0], "num": 1}]}, "degree"),
        (["reconstruct", "cone"], {"n": "3", "d": 1, "terms": [{"exp": [1, 0, 0], "num": 1}]}, "dimension"),
        (["reconstruct", "cone"], {"n": 0, "d": 1, "terms": []}, "dimension"),
        (["reconstruct", "glue"], _restrictions_with_normal(["1/0", "1", "1"]), None),
        (["reconstruct", "glue"], _restrictions_with_normal("1,1,1"), None),
        (["reconstruct", "glue"], [1, 2], None),
        (["invert"], {"c": ["1/0", "0", "0"]}, None),
        (["invert"], ["1/2", "0", "0"], None),
        (["invert"], {"c": ["1/2", "0", "0"], "basis": 3}, None),
    ],
    ids=[
        "cone-zero-den", "cone-form-is-a-list", "cone-string-num", "cone-float-degree",
        "cone-string-dimension", "cone-zero-dimension", "glue-normal-1/0",
        "glue-normal-is-a-string", "glue-data-is-a-list", "sphere-c-1/0", "sphere-is-a-list",
        "sphere-basis-is-a-number",
    ],
)
def test_malformed_input_file_is_a_usage_error(command, data, names, tmp_path, capsys):
    src = tmp_path / "input.json"
    src.write_text(json.dumps(data))
    flag = "--sphere-json" if command == ["invert"] else "--input"
    assert run([*command, flag, str(src)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("analytica: error:") and "Traceback" not in err
    if names is not None:
        assert names in err


# ---------------------------------------------------------------------------
# tower


def test_tower_polynomial(tmp_path):
    out = tmp_path / "t.json"
    plots = tmp_path / "plots"
    code = run([
        "tower", "--expr", "x1^2 - x2*x3", "--order", "3", "--seed", "3",
        "--out", str(out), "--plot-dir", str(plots),
    ])
    assert code == 0
    data = read_json(out)
    assert data["kind"] == "tower" and data["ok"] and data["R"] == 3
    assert len(data["forms"]) == 4
    assert len(data["lines"]) == 3
    csvs = sorted(p.name for p in plots.iterdir())
    assert csvs == ["line_0.csv", "line_1.csv", "line_2.csv"]
    lines = (plots / "line_0.csv").read_text().splitlines()
    assert lines[0] == "t,f,T" and len(lines) == 18


def test_tower_with_base_point(capsys):
    code = run([
        "tower", "--expr", "1/(1 - x1)", "--base", "1/2,0,0", "--order", "4",
        "--seed", "3",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    # jets of 1/(1-x) at 1/2: r-th form is r! 2^(r+1) x1^r
    terms = {tuple(t["exp"]): (t["num"], t["den"]) for t in data["forms"][2]["terms"]}
    assert terms == {(2, 0, 0): (16, 1)}


def test_tower_pole_at_base_is_diagnosed(capsys):
    code = run(["tower", "--builtin", "hartogs-f", "--order", "4", "--seed", "3"])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["diagnostics"]["failures"]


def test_tower_bad_axis(capsys):
    assert run(["tower", "--expr", "x1", "--axis", "1,0,0", "--order", "2"]) == 1
    capsys.readouterr()
    assert run(["tower", "--expr", "x1", "--axis", "1,0,0; 2,0,0", "--order", "2"]) == 1


# ---------------------------------------------------------------------------
# counterexamples


def test_counterexamples_curve(tmp_path):
    out = tmp_path / "g.json"
    plots = tmp_path / "plots"
    code = run([
        "counterexamples", "--name", "curve-g", "--seed", "5",
        "--out", str(out), "--plot-dir", str(plots),
    ])
    assert code == 2
    data = read_json(out)
    w = data["witnesses"]
    assert abs(w["axis"]["value"]) < 1e-7
    assert w["cusp"]["value"] > 1e6
    assert data["plane_check"]["verdict"] != "pass"
    names = sorted(p.name for p in plots.iterdir())
    assert names == ["axis.csv", "cusp.csv"]


def test_counterexamples_hartogs(capsys):
    code = run(["counterexamples", "--name", "hartogs-f", "--seed", "5"])
    assert code == 2
    data = json.loads(capsys.readouterr().out)
    assert abs(data["diagonal_witness"]["value"] - 1000 / 3) < 1e-9
    assert all(s["verdict"] == "pass" for s in data["slices"])
    assert data["spheres"]["passed"] < data["spheres"]["checked"]


def test_counterexamples_unknown_name(capsys):
    assert run(["counterexamples", "--name", "nope"]) == 1


# ---------------------------------------------------------------------------
# invert


def test_invert_point(capsys):
    code = run(["invert", "--point", "1/2,0,0"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["image"] == ["2", "0", "0"]


def test_invert_point_centered(capsys):
    code = run(["invert", "--point", "3,0,0", "--center", "1,0,0"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["image"] == ["3/2", "0", "0"]


def test_invert_origin_is_an_input_error(capsys):
    assert run(["invert", "--point", "0,0,0"]) == 1


def test_invert_sphere_json(tmp_path, capsys):
    src = tmp_path / "sphere.json"
    src.write_text('{"c": ["1/2", "0", "0"]}\n')
    code = run(["invert", "--sphere-json", str(src)])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    base = [Fraction(x) for x in data["plane"]["base"]]
    c = [Fraction(x) for x in data["sphere"]["c"]]
    assert sum(a * b for a, b in zip(base, c)) == 1


def test_invert_usage(capsys):
    assert run(["invert"]) == 1
    capsys.readouterr()
    assert run(["invert", "--point", "1,0,0", "--sphere-json", "s.json"]) == 1


def test_unknown_subcommand():
    assert run(["frobnicate"]) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "analytica.cli", "probe", "--expr", "x1 + x2",
         "--spheres", "2", "--seed", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] == 2
