"""analytica benchmark.

    python3 bench/run.py --workload probe --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from src/.  Each run
is one closed loop with one client: the next request is sent when the
previous one returns.  With --trace 0 the run sends requests for --seconds
and prints the end-to-end metrics; with --trace 1 it sends a fixed list of
requests once untraced and once traced and prints the per-layer metrics.
Every output is checked.  The last line of standard output is the result as
one JSON object; the line before it stamps the machine and the code and
gives the unscaled timings.

Timings are scaled to a reference machine speed by the ruler (ruler.py),
because the shared host's speed drifts by a third within a minute.  The
set-up (importing analytica, drawing the inputs from the seed, one warm-up
request on fixed inputs) is repeated and its median reported as setup_s.
BLAS is pinned to one thread so that the pool in probe-w2 is the only
parallelism and no run starts more threads than the machine has CPUs.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse
import hashlib
import importlib
import json
import math
import platform
import random
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = BENCH / "out"
MODULES = ("oracle", "geometry", "forms", "interpolation", "taylor", "certify", "jsonio", "cli")
SETUP_REPEATS = 3
WARM_UP_SEED = 0  # warm-up inputs stay fixed, so set-up time does not follow --seed
REFERENCE_SEED = 2718

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402
from ruler import Ruler  # noqa: E402
from workloads import WORKLOADS, probe_argv  # noqa: E402


class SetupError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def load_library() -> SimpleNamespace:
    """Import analytica afresh from src/, so every set-up pays for it."""
    if not (SRC / "analytica" / "__init__.py").is_file():
        raise SetupError(f"no analytica package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "analytica" or m.startswith("analytica.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"analytica.{m}") for m in MODULES})


def context() -> dict:
    return {"out_dir": str(OUT_DIR), "workers": min(2, nproc())}


def list_size(workload, seconds: float) -> int:
    """Half again the requests a run is expected to send, so that a fast run
    rarely comes back to inputs it has already sent."""
    return workload.cycle * max(1, math.ceil(1.5 * seconds / workload.nominal_cycle_s))


def trace_size(workload, seconds: float) -> int:
    """Fixed per workload and --seconds, so traced counts repeat exactly."""
    return workload.cycle * max(1, round(seconds / (2 * workload.nominal_cycle_s)))


def build_requests(lib, workload, seed: int, count: int):
    rng = random.Random(f"{workload.name}:{seed}")
    return workload.build(lib, rng, count, context())


def set_up(workload, seed: int, count: int, ruler: Ruler):
    """Import, draw the inputs and warm up, SETUP_REPEATS times; returns the
    last library and requests and the median scaled set-up time."""
    OUT_DIR.mkdir(exist_ok=True)
    times = []
    for _ in range(SETUP_REPEATS):
        ruler.sample()
        start = time.perf_counter()
        lib = load_library()
        requests = build_requests(lib, workload, seed, count)
        warm_up = build_requests(lib, workload, WARM_UP_SEED, workload.cycle)
        next(r for r in warm_up if r.kind == workload.warm_up).run()
        end = time.perf_counter()
        ruler.sample()
        times.append((end - start) * ruler.factor(start, end))
    return lib, requests, statistics.median(times)


class ThreadCount:
    """Peak number of threads alive besides the main one while active."""

    def __init__(self):
        self.peak = 0
        self._start = threading.Thread.start

    def __enter__(self):
        counter = self
        original = self._start

        def start(thread, *args, **kwargs):
            original(thread, *args, **kwargs)
            counter.peak = max(counter.peak, threading.active_count() - 1)

        threading.Thread.start = start
        return self

    def __exit__(self, *exc):
        threading.Thread.start = self._start


@dataclass
class Loop:
    done: list  # (request, output, error)
    raw: list  # wall seconds per request
    cpu: list  # process CPU seconds per request
    scale: list  # ruler factor per request

    @property
    def latencies(self) -> list:
        return [t * f for t, f in zip(self.raw, self.scale)]

    @property
    def cpu_s(self) -> float:
        return sum(c * f for c, f in zip(self.cpu, self.scale))


def closed_loop(requests, ruler: Ruler, seconds=None, on_request=None) -> Loop:
    """Send requests one after another, cycling through the list, for
    `seconds` (or exactly once through the list when seconds is None),
    sampling the ruler between requests."""
    loop = Loop([], [], [], [])
    bounds = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    i = 0
    while (i < len(requests)) if deadline is None else (i == 0 or time.perf_counter() < deadline):
        if ruler.due():
            ruler.sample()
        request = requests[i % len(requests)]
        if on_request is not None:
            on_request(i)
        cpu0, start = time.process_time(), time.perf_counter()
        try:
            output, error = request.run(), None
        except Exception as exc:  # a failed request is counted, not fatal
            output, error = None, f"{request.kind}: {type(exc).__name__}: {exc}"
        end, cpu1 = time.perf_counter(), time.process_time()
        loop.done.append((request, output, error))
        loop.raw.append(end - start)
        loop.cpu.append(cpu1 - cpu0)
        bounds.append((start, end))
        i += 1
    ruler.sample()
    loop.scale = [ruler.factor(start, end) for start, end in bounds]
    return loop


def check_outputs(workload, done):
    errors = []
    for request, output, error in done:
        if error is None:
            try:
                error = request.check(output)
            except Exception as exc:
                error = f"{request.kind}: check raised {type(exc).__name__}: {exc}"
        if error is not None:
            errors.append(error)
    failed = len(errors)
    problem = workload.run_check([(r, o) for r, o, e in done if e is None])
    if problem is not None:
        errors.append(problem)
    return failed, errors


def percentile(values, q):
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# stamp


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_stats():
    lines, digest = 0, hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()[:16]


def stamp(seed: int) -> dict:
    import numpy

    lines, digest = src_stats()
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest,
        "src_lines": lines,
        "seed": seed,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced_run(workload, seed, seconds):
    ruler = Ruler()
    with ThreadCount() as threads:
        lib, requests, setup_s = set_up(workload, seed, list_size(workload, seconds), ruler)
        loop = closed_loop(requests, ruler, seconds)
    failed, errors = check_outputs(workload, loop.done)
    n = len(loop.done)
    latencies = loop.latencies
    q = workload.tail_percentile
    info = {
        "requests": n,
        "latency_samples": n,
        "latency_tail_percentile": q,
        "samples_beyond_tail": sum(1 for t in latencies if t > percentile(latencies, q)),
        "error_rate": failed / n,
        "unscaled": {
            "throughput_rps": n / sum(loop.raw),
            "latency_p50_ms": 1000 * statistics.median(loop.raw),
            "cpu_ms_per_req": 1000 * sum(loop.cpu) / n,
        },
        "ruler_ms_median": ruler.median_ms(),
        "threads_peak": threads.peak,
        "errors": errors[:5],
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "throughput_rps": metric(n / sum(latencies), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(1000 * percentile(latencies, q), "ms"),
        "cpu_ms_per_req": metric(1000 * loop.cpu_s / n, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    return n, failed, errors, info, metrics


def reference_digests(lib) -> dict:
    """sha256 of the probe-w2 reports for a fixed CLI seed.  Reports are
    byte-identical at any worker count, so the key leaves the count out."""
    OUT_DIR.mkdir(exist_ok=True)
    out = {}
    for kind in ("hartogs-f", "rational"):
        path = OUT_DIR / f"reference-{kind}.json"
        lib.cli.main(probe_argv(kind, REFERENCE_SEED, context()["workers"], str(path)))
        out[f"{kind} seed={REFERENCE_SEED}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def reports_changed(lib) -> int:
    golden = json.loads((BENCH / "golden_digests.json").read_text())["digests"]
    now = reference_digests(lib)
    return sum(1 for key, digest in golden.items() if now.get(key) != digest)


def write_spans(tracer, workload, seed):
    path = OUT_DIR / f"spans-{workload.name}-{seed}.jsonl"
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def traced_run(workload, seed, seconds):
    ruler = Ruler()
    with ThreadCount() as threads:
        lib, requests, _ = set_up(workload, seed, list_size(workload, seconds), ruler)
        requests = requests[: trace_size(workload, seconds)]
        plain = closed_loop(requests, ruler)
        tracer = tracing.Tracer()
        with tracer.tracing():
            traced = closed_loop(requests, ruler, on_request=lambda i: setattr(tracer, "request", i))
        changed = reports_changed(lib) if workload.name == "probe-w2" else 0
    failed, errors = check_outputs(workload, traced.done)
    write_spans(tracer, workload, seed)
    layers = tracing.layer_metrics(tracer)
    layers["jsonio.reports_changed"] = changed
    layers["trace.overhead_ratio"] = sum(plain.latencies) / sum(traced.latencies)
    layers["trace.requests"] = len(traced.done)
    layers["trace.request_s"] = sum(traced.raw)
    layers["trace.missing_hooks"] = len(tracer.missing)
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    metrics = {name: metric(layers[name], unit) for name, unit in units.items()}
    info = {
        "requests": len(traced.done),
        "missing_hooks": tracer.missing,
        "spans": len(tracer.spans),
        "threads_peak": threads.peak,
        "errors": errors[:5],
    }
    return len(traced.done), failed, errors, info, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    try:
        attempted, failed, errors, info, metrics = run(workload, args.seed, args.seconds)
    except (SetupError, ImportError, OSError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 1
    for error in errors:
        print(f"bench: {error}", file=sys.stderr)
    print(json.dumps({"workload": workload.name, "trace": args.trace, "stamp": stamp(args.seed), **info}))
    result = {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
