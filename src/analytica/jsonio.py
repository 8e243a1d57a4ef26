"""Canonical JSON for forms, restrictions, towers, and reports.

The emitter is deliberately hand-rolled so output is byte-stable across
platforms and worker counts: floats print through {:.17g} (with -0.0
collapsed to 0 and infinities as the strings "inf"/"-inf"), rationals in
vectors print as "p/q" strings, and form coefficients split into explicit
num/den integers.  Dict insertion order is preserved, never sorted.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from ._linalg import frac
from .forms import HomogeneousForm
from .geometry import Hyperplane
from .interpolation import HyperplaneRestriction


def format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        return "0"
    return format(float(x), ".17g")


def format_fraction(x) -> str:
    x = frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _write(value, out: list, level: int, indent: int) -> None:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings, got {k!r}")
            out.append(pad + json.dumps(k) + ": ")
            _write(v, out, level + 1, indent)
            out.append(",\n" if i < len(value) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(value, (list, tuple)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        simple = all(
            not isinstance(v, (dict, list, tuple)) for v in items
        ) and len(items) <= 16
        if simple:
            out.append("[")
            for i, v in enumerate(items):
                _write(v, out, level + 1, indent)
                if i < len(items) - 1:
                    out.append(", ")
            out.append("]")
            return
        out.append("[\n")
        for i, v in enumerate(items):
            out.append(pad)
            _write(v, out, level + 1, indent)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(close_pad + "]")
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(format_float(value))
    elif isinstance(value, Fraction):
        out.append(json.dumps(format_fraction(value)))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value, indent: int = 2) -> str:
    out: list[str] = []
    _write(value, out, 0, indent)
    return "".join(out)


# ---------------------------------------------------------------------------
# converters


def vector_to_data(v) -> list:
    out = []
    for x in v:
        if isinstance(x, float):
            out.append(x)
        else:
            out.append(format_fraction(x))
    return out


def vector_from_data(data) -> tuple:
    try:
        return tuple(frac(Fraction(x) if isinstance(x, str) else x) for x in data)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad vector {data!r}: {exc!r}") from None


def form_to_data(f: HomogeneousForm) -> dict:
    terms = []
    for idx in sorted(f.coefficients, reverse=True):
        c = f.coefficients[idx]
        terms.append({"exp": list(idx), "num": c.numerator, "den": c.denominator})
    return {"n": f.dimension, "d": f.degree, "terms": terms}


def form_from_data(data: dict) -> HomogeneousForm:
    try:
        terms = {tuple(t["exp"]): Fraction(t["num"], t.get("den", 1)) for t in data["terms"]}
    except (TypeError, AttributeError, ZeroDivisionError) as exc:
        raise ValueError(f"bad form {data!r}: {exc!r}") from None
    return HomogeneousForm(data["n"], data["d"], terms)


def restrictions_to_data(restrictions) -> dict:
    rs = list(restrictions)
    if not rs:
        raise ValueError("no restrictions to serialize")
    return {
        "d": rs[0].degree,
        "restrictions": [
            {
                "normal": vector_to_data(r.hyperplane.normal),
                "chart": [vector_to_data(row) for row in r.chart],
                "form": form_to_data(r.form),
            }
            for r in rs
        ],
    }


def restrictions_from_data(data: dict) -> list[HyperplaneRestriction]:
    try:
        entries = [(e["normal"], list(e["chart"]), e["form"]) for e in data["restrictions"]]
    except TypeError as exc:
        raise ValueError(f"bad restrictions data: {exc!r}") from None
    return [
        HyperplaneRestriction(
            Hyperplane(vector_from_data(normal)),
            tuple(vector_from_data(row) for row in chart),
            form_from_data(form),
        )
        for normal, chart, form in entries
    ]


def tower_result_to_data(result, line_radii=()) -> dict:
    return {
        "kind": "tower",
        "R": len(result.tower.forms) - 1,
        "ok": result.ok,
        "mode": result.mode,
        "forms": [form_to_data(g) for g in result.tower.forms],
        "diagnostics": {
            "per_degree_residual": list(result.per_degree_residual),
            "line_radii": list(line_radii),
            "failures": [
                {"degree": fl.degree, "kind": fl.kind, "detail": fl.detail}
                for fl in result.failures
            ],
        },
    }


def reconstruction_to_data(result) -> dict:
    data = {
        "ok": result.ok,
        "degree": result.degree,
        "mode": result.mode,
        "planes_used": result.planes_used,
        "max_residual": float(result.max_residual),
        "form": form_to_data(result.form),
    }
    if result.witness is not None:
        data["witness"] = vector_to_data(result.witness)
    return data


def _witness_to_data(w):
    if w is None:
        return None
    return vector_to_data(w)


def scan_report_to_data(report) -> dict:
    config = dict(report.config)
    return {
        "kind": "sphere-scan",
        "checked": report.checked,
        "passed": report.passed,
        "residuals": [
            max((rep.residual for _, rep in outcome.parts), default=0.0)
            for outcome in report.outcomes
        ],
        "failures": [
            {
                "index": fl.index,
                "sphere": {
                    "c": vector_to_data(fl.sphere.c),
                    "basis": [vector_to_data(b) for b in fl.sphere.basis],
                },
                "part": fl.part,
                "verdict": fl.verdict,
                "witness": _witness_to_data(fl.witness),
                "residual": float(fl.residual),
            }
            for fl in report.failures
        ],
        "skipped": list(report.skipped),
        "config": config,
    }


# ---------------------------------------------------------------------------
# plot data


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return format_float(v).strip('"')
    return str(v)


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")


def emit_plot_data(data: dict, directory: str) -> list[str]:
    """Write the plottable series of a report as CSV files and return the
    paths written.  Tower reports yield one file per diagnostic line with
    columns t,f,T (the function and the partial sums along t*p); scan
    reports yield a single file of per-sphere residuals, header-only when
    nothing was checked; counterexample reports yield one file per value
    series (t,value); other reports yield none.  The directory is created
    only when a file is written."""
    kind = data.get("kind")
    tables = []
    if kind == "tower":
        lines = data.get("lines", ())
        tables = [(f"line_{i}.csv", "t,f,T", line["rows"]) for i, line in enumerate(lines)]
    elif kind == "sphere-scan":
        rows = [(i, float(r)) for i, r in enumerate(data.get("residuals", ()))]
        tables = [("spheres.csv", "index,residual", rows)]
    elif kind == "counterexample":
        tables = [(f"{s['label']}.csv", "t,value", s["rows"]) for s in data.get("series", ())]
    if tables:
        os.makedirs(directory, exist_ok=True)
    written: list[str] = []
    for name, header, rows in tables:
        path = os.path.join(directory, name)
        _write_csv(path, header, rows)
        written.append(path)
    return written
