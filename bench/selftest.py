"""Tests of the benchmark itself.  Not collected by the repository's test run
(the name does not start with test_); run them with

    python3 -m pytest bench/selftest.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from ruler import Ruler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# short traced passes: enough requests to reach every layer of a workload
TRACE_COUNT = {"probe": 4, "tower": 6, "reconstruct": 6, "probe-w2": 2}


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


def keys(lib, name, seed):
    workload = WORKLOADS[name]
    return [r.key for r in run.build_requests(lib, workload, seed, 2 * workload.cycle)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_inputs(lib, name):
    assert keys(lib, name, 7) == keys(lib, name, 7)
    assert keys(lib, name, 7) != keys(lib, name, 8)


def traced_counts(lib, name, seed):
    workload = WORKLOADS[name]
    requests = run.build_requests(lib, workload, seed, TRACE_COUNT[name])
    tracer = tracing.Tracer()
    with tracer.tracing(), run.ThreadCount() as threads:
        done = run.closed_loop(requests, Ruler()).done
    _, errors = run.check_outputs(workload, done)
    assert not errors
    assert not tracer.missing
    counts = {layer: (s.calls, dict(s.counts)) for layer, s in tracer.stats.items()}
    return counts, threads.peak


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_threads_stay_within_nproc(lib, name):
    first, peak = traced_counts(lib, name, 3)
    second, _ = traced_counts(lib, name, 3)
    assert first == second
    assert first, "the traced pass saw no layer at all"
    assert peak <= run.nproc()


def test_hooks_are_removed_after_a_traced_pass(lib):
    before = lib.certify._valley_scan
    tracer = tracing.Tracer()
    tracer.install()
    assert lib.certify._valley_scan is not before
    tracer.uninstall()
    assert lib.certify._valley_scan is before


def test_a_missing_hook_nulls_its_metrics_without_failing():
    hooks = tracing.HOOKS + (tracing.Hook("certify.gone", ("analytica.certify:_no_such_layer",)),)
    tracer = tracing.Tracer(hooks)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["analytica.certify:_no_such_layer"]
    assert tracer.unhooked == {"certify.gone"}
    tracer.unhooked.add("certify.valley")
    metrics = tracing.layer_metrics(tracer)
    assert metrics["certify.valley.calls"] is None
    assert metrics["certify.fit.calls"] == 0


def test_benchmark_file_lists_every_layer_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    extra = {"jsonio.reports_changed", "trace.overhead_ratio", "trace.requests", "trace.request_s", "trace.missing_hooks"}
    assert listed == set(tracing.LAYER_METRICS) | extra
    assert listed == set(layers["layers"])
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(layers["workloads"])
