import json
import math
import random
import struct
from fractions import Fraction

import pytest

from analytica.forms import HomogeneousForm
from analytica.geometry import Cone, Hyperplane, VectorPlane2
from analytica.interpolation import restriction_of
from analytica.jsonio import (
    dumps,
    emit_plot_data,
    form_from_data,
    form_to_data,
    format_float,
    format_fraction,
    restrictions_from_data,
    scan_report_to_data,
    tower_result_to_data,
    vector_from_data,
    vector_to_data,
)
from analytica.certify import sphere_scan
from analytica.oracle import oracle_from_text
from analytica.taylor import build_tower

from conftest import rand_form, rand_hyperplane_set, restrictions_to_data


def test_float_formatting_round_trips():
    rng = random.Random(701)
    for _ in range(300):
        # random bit patterns, filtered to finite floats
        x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        if not math.isfinite(x):
            continue
        s = format_float(x)
        assert float(s.strip('"')) == x


def test_float_formatting_special_values():
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"
    assert format_float(math.nan) == '"nan"'
    assert format_float(math.inf) == '"inf"'
    assert format_float(-math.inf) == '"-inf"'
    assert format_float(1.0) == "1"


def test_fraction_formatting():
    assert format_fraction(Fraction(3, 4)) == "3/4"
    assert format_fraction(Fraction(-8, 2)) == "-4"
    assert format_fraction(5) == "5"


def test_dumps_is_valid_json():
    data = {
        "a": [1, 2.5, "x", None, True, False],
        "b": {"nested": {"f": Fraction(1, 3)}},
        "c": [],
        "d": {},
        "e": [[1, 2], [3, 4]],
    }
    parsed = json.loads(dumps(data))
    assert parsed["a"] == [1, 2.5, "x", None, True, False]
    assert parsed["b"]["nested"]["f"] == "1/3"
    assert parsed["c"] == [] and parsed["d"] == {}


def test_dumps_preserves_insertion_order():
    text = dumps({"zebra": 1, "alpha": 2})
    assert text.index("zebra") < text.index("alpha")


def test_dumps_deterministic_bytes():
    data = {"x": [0.1, 0.2, 0.3], "y": {"k": Fraction(22, 7)}}
    again = {"x": [0.1, 0.2, 0.3], "y": {"k": Fraction(22, 7)}}
    assert dumps(data) == dumps(again)


def test_dumps_inlines_short_scalar_lists():
    assert dumps([1, 2, 3]) == "[1, 2, 3]"
    long = dumps(list(range(17)))
    assert "\n" in long


def test_dumps_rejects_bad_input():
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_vector_round_trip():
    v = (Fraction(1, 2), Fraction(-3), Fraction(0))
    data = vector_to_data(v)
    assert data == ["1/2", "-3", "0"]
    assert vector_from_data(data) == v
    # floats pass through untouched
    assert vector_to_data((0.5, 1.25)) == [0.5, 1.25]


def test_form_round_trip():
    rng = random.Random(702)
    for _ in range(20):
        f = rand_form(rng, rng.randint(1, 4), rng.randint(0, 5))
        data = form_to_data(f)
        assert form_from_data(data) == f
        # serialized term order is canonical, so bytes are reproducible
        assert dumps(data) == dumps(form_to_data(f))


def test_form_data_shape():
    f = HomogeneousForm(3, 2, {(2, 0, 0): Fraction(1), (0, 1, 1): Fraction(-2, 3)})
    data = form_to_data(f)
    assert data["n"] == 3 and data["d"] == 2
    assert {"exp": [2, 0, 0], "num": 1, "den": 1} in data["terms"]
    assert {"exp": [0, 1, 1], "num": -2, "den": 3} in data["terms"]


def test_restrictions_round_trip():
    rng = random.Random(703)
    f = rand_form(rng, 3, 3)
    planes = rand_hyperplane_set(rng, 3, 4)
    rs = [restriction_of(f, h) for h in planes]
    data = restrictions_to_data(rs)
    back = restrictions_from_data(data)
    assert len(back) == 4
    for a, b in zip(rs, back):
        assert b.hyperplane.normal == a.hyperplane.normal
        assert b.form == a.form
        assert b.chart == a.chart
    with pytest.raises(ValueError):
        restrictions_to_data([])


def test_scan_report_data_shape():
    f = oracle_from_text("x1*x2 - x3^2", 3)
    report = sphere_scan(f, count=3, seed=41)
    data = scan_report_to_data(report)
    assert list(data) == [
        "kind", "checked", "passed", "residuals", "failures", "skipped", "config",
    ]
    assert data["kind"] == "sphere-scan"
    assert data["checked"] == data["passed"] == 3
    assert len(data["residuals"]) == 3
    json.loads(dumps(data))


def test_tower_result_data_shape():
    f = oracle_from_text("x1^2 + x2", 3)
    cone = Cone(VectorPlane2(((1, 0, 0), (0, 1, 0))), Fraction(1, 2), Fraction(1))
    res = build_tower(f, cone, 3, seed=11)
    data = tower_result_to_data(res, line_radii=(1.0, math.inf))
    assert data["kind"] == "tower"
    assert data["R"] == 3 and data["ok"]
    assert len(data["forms"]) == 4
    assert data["diagnostics"]["line_radii"] == [1.0, math.inf]
    text = dumps(data)
    assert '"inf"' in text
    json.loads(text)


# ---------------------------------------------------------------------------
# plot emission


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_emit_tower_lines(tmp_path):
    data = {
        "kind": "tower",
        "lines": [
            {"direction": [1, 0, 0], "rows": [[0.0, 1.0, 1.0], [0.5, 2.0, 1.996]]},
            {"direction": [0, 1, 0], "rows": [[0.0, 1.0, 1.0]]},
            {"direction": [0, 0, 1], "rows": []},
        ],
    }
    paths = emit_plot_data(data, str(tmp_path))
    assert [p.rsplit("/", 1)[1] for p in paths] == [
        "line_0.csv", "line_1.csv", "line_2.csv",
    ]
    lines = read_lines(paths[0])
    assert lines[0] == "t,f,T"
    assert lines[1] == "0,1,1"
    assert lines[2].startswith("0.5,2,")
    assert read_lines(paths[2]) == ["t,f,T"]


def test_emit_scan_residuals(tmp_path):
    data = {"kind": "sphere-scan", "residuals": [0.0, 2.5e-13]}
    (path,) = emit_plot_data(data, str(tmp_path))
    lines = read_lines(path)
    assert lines[0] == "index,residual"
    assert lines[1] == "0,0"
    idx, val = lines[2].split(",")
    assert idx == "1" and float(val) == 2.5e-13


def test_emit_empty_scan_is_header_only(tmp_path):
    data = {"kind": "sphere-scan", "checked": 0, "residuals": []}
    (path,) = emit_plot_data(data, str(tmp_path))
    assert read_lines(path) == ["index,residual"]
    assert path.endswith("spheres.csv")


def test_emit_counterexample_series(tmp_path):
    data = {
        "kind": "counterexample",
        "series": [
            {"label": "diagonal", "rows": [[0.1, 333.33333333333331]]},
            {"label": "axis", "rows": [[0.5, 0.25]]},
        ],
    }
    paths = emit_plot_data(data, str(tmp_path))
    assert paths[0].endswith("diagonal.csv") and paths[1].endswith("axis.csv")
    lines = read_lines(paths[0])
    assert lines[0] == "t,value"
    assert lines[1] == "0.10000000000000001,333.33333333333331"
