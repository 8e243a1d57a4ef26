"""Runtime tracing for the benchmark's traced run.

Hooks replace module attributes of analytica (and `numpy.linalg.lstsq`)
with timing wrappers for the length of one traced pass and put the
originals back afterwards, so nothing under src/ changes.  A layer that is
imported under several names is wrapped under each of them; otherwise calls
made through the other name would go unseen.

Each timed call pushes a frame on a per-thread stack.  When it returns, its
duration is added to the parent frame's child time, so a layer's self time
is its duration minus the time spent in hooked calls below it.  Span records
(id, layer, start, end, parent id, request id, thread) stay in memory until
the run ends.  Counting hooks push no frame: they bump a counter on the
enclosing frame, which is how the valley scan learns how many lines it
walked and whether its denominator construction gave up.

A hooked name that a later refactor removes is listed in `missing`; the
metrics that need it come out as None instead of failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Hook:
    layer: str
    targets: tuple[str, ...]  # "module:attr" or "module:Class.attr"
    kind: str = "span"  # "span" (timed frame), "count" (counter only) or "pool"
    record: bool = True  # keep span records; the hottest leaf only aggregates


HOOKS = (
    Hook("oracle.eval", ("analytica.oracle:evaluate_oracle", "analytica.certify:evaluate_oracle"), record=False),
    Hook("certify.sphere_scan", ("analytica.certify:sphere_scan", "analytica.cli:sphere_scan")),
    Hook("certify.scan_one", ("analytica.certify:_scan_one",)),
    Hook(
        "certify.pullback",
        ("analytica.certify:pullback_through_inversion", "analytica.certify:pullback_through_centered_inversion"),
    ),
    Hook("certify.fit", ("analytica.certify:_cheb_fit",)),
    Hook("numpy.lstsq", ("numpy.linalg:lstsq",)),
    Hook("certify.valley", ("analytica.certify:_valley_scan",)),
    Hook("certify.valley.line", ("analytica.certify:_golden_min",), kind="count"),
    Hook("certify.valley.denominator", ("analytica.certify:_pullback_fraction",), kind="count"),
    Hook("certify.exact", ("analytica.certify:_exact_tensor_check",)),
    Hook("certify.pool", ("analytica.certify:ThreadPoolExecutor",), kind="pool"),
    Hook("interpolation.plan", ("analytica.interpolation:ConeSampleSet.plan",)),
    Hook("linalg.solve", ("analytica._linalg:solve",)),
    Hook(
        "interpolation.reconstruct",
        ("analytica.interpolation:reconstruct_form_from_cone", "analytica.taylor:reconstruct_form_from_cone"),
    ),
    Hook("taylor.line_series", ("analytica.taylor:line_series",)),
    Hook("interpolation.glue", ("analytica.interpolation:glue_hyperplanes",)),
    Hook("interpolation.compat", ("analytica.interpolation:check_compatibility",)),
    Hook("forms.compose_linear", ("analytica.forms:compose_linear", "analytica.interpolation:compose_linear")),
    Hook("jsonio.dumps", ("analytica.cli:dumps",)),
)


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    children: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(int))


class _Frame:
    __slots__ = ("id", "layer", "parent", "start", "child_time", "child_by_layer", "events")

    def __init__(self, span_id, layer, parent, start):
        self.id = span_id
        self.layer = layer
        self.parent = parent
        self.start = start
        self.child_time = 0.0
        self.child_by_layer = defaultdict(float)
        self.events = defaultdict(int)


def _note_eval(stats, frame, args, kwargs, result):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "exact")
    stats.counts[mode] += 1


def _note_valley(stats, frame, args, kwargs, result):
    lines = frame.events["certify.valley.line"]
    stats.counts["lines"] += lines
    if result is not None:
        stats.counts["hits"] += 1
    elif lines == 0:
        # _pullback_fraction raising _ScanCap is the size-cap / zero-divisor
        # exit; a denominator that came back constant is the other one.
        capped = frame.events["certify.valley.denominator!_ScanCap"] > 0
        stats.counts["skipped_cap" if capped else "skipped_const"] += 1


def _note_dumps(stats, frame, args, kwargs, result):
    stats.counts["bytes"] += len(result.encode())


_NOTES = {"oracle.eval": _note_eval, "certify.valley": _note_valley, "jsonio.dumps": _note_dumps}


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.active = False
        self.request = None
        self.spans: list[tuple] = []
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.pool_waits: list[float] = []
        self.pool_busy = 0.0
        self.pool_capacity = 0.0
        self.missing: list[str] = []
        self.unhooked: set[str] = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for hook in self.hooks:
            found = False
            for target in hook.targets:
                owner, attr = _resolve(target)
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(target)
                    continue
                setattr(owner, attr, self._wrap(hook, original))
                self._restore.append((owner, attr, original))
                found = True
            if not found:
                self.unhooked.add(hook.layer)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def tracing(self):
        """Hooks in place and recording for the length of the block."""
        self.install()
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            self.uninstall()

    def _wrap(self, hook: Hook, original):
        if hook.kind == "pool":
            return self._pool_class(original)
        if hook.kind == "count":
            return self._counter(hook.layer, original)
        return self._timer(hook.layer, original, hook.record, _NOTES.get(hook.layer))

    # -- per-thread frames -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timer(self, layer, fn, record, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            parent_id = parent.id if parent else getattr(tracer._local, "detached_parent", None)
            frame = _Frame(next(tracer._ids), layer, parent_id, time.perf_counter())
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame.start
                if parent is not None:
                    parent.child_time += duration
                    parent.child_by_layer[layer] += duration
                with tracer._lock:
                    stats = tracer.stats[layer]
                    stats.calls += 1
                    stats.busy += duration
                    stats.self_time += duration - frame.child_time
                    for child, spent in frame.child_by_layer.items():
                        stats.children[child] += spent
                    if note is not None:
                        note(stats, frame, args, kwargs, result)
                    if record:
                        tracer.spans.append(
                            (frame.id, layer, frame.start, end, parent_id, tracer.request, threading.get_ident())
                        )

        return traced

    def _counter(self, layer, fn):
        tracer = self

        def bump(event):
            stack = tracer._stack()
            if stack:
                stack[-1].events[event] += 1
            with tracer._lock:
                tracer.stats[layer].counts[event] += 1

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            bump(layer)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                bump(f"{layer}!{type(exc).__name__}")
                raise

        return counted

    def _pool_class(self, base):
        """A subclass of the scan's executor that times each job from the
        moment `map` submitted it; jobs run on worker threads, so their spans
        name the submitting frame as parent without adding to its child time."""
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._bench_opened = time.perf_counter()

            def map(self, fn, *iterables, **kwargs):
                submitted = time.perf_counter()
                stack = tracer._stack()
                parent_id = stack[-1].id if stack else None

                def job(*args):
                    started = time.perf_counter()
                    tracer._local.detached_parent = parent_id
                    try:
                        return fn(*args)
                    finally:
                        tracer._local.detached_parent = None
                        if tracer.active:
                            with tracer._lock:
                                tracer.pool_waits.append(started - submitted)
                                tracer.pool_busy += time.perf_counter() - started

                return super().map(job, *iterables, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if tracer.active:
                    with tracer._lock:
                        tracer.pool_capacity += self._max_workers * (time.perf_counter() - self._bench_opened)

        TracedPool.__name__ = base.__name__
        return TracedPool


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    return owner, attr


# ---------------------------------------------------------------------------
# per-layer metrics


def _lstsq_in_fit(t: Tracer) -> float:
    return t.stats["certify.fit"].children["numpy.lstsq"]


def _skips(t: Tracer, kind: str) -> int:
    c = t.stats["certify.valley"].counts
    return c["skipped_cap"] + c["skipped_const"] if kind == "all" else c[kind]


def _pool_wait_ms_p50(t: Tracer) -> float:
    return 1000.0 * statistics.median(t.pool_waits) if t.pool_waits else 0.0


def _pool_busy_ratio(t: Tracer) -> float:
    return t.pool_busy / t.pool_capacity if t.pool_capacity else 0.0


def _calls(layer):
    return lambda t: t.stats[layer].calls


def _busy(layer):
    return lambda t: t.stats[layer].busy


def _self(layer):
    return lambda t: t.stats[layer].self_time


def _count(layer, key):
    return lambda t: t.stats[layer].counts[key]


# name -> (layers the value needs, how to compute it from the tracer)
LAYER_METRICS = {
    "oracle.evals_float": (("oracle.eval",), _count("oracle.eval", "float")),
    "oracle.evals_exact": (("oracle.eval",), _count("oracle.eval", "exact")),
    "oracle.eval_busy_s": (("oracle.eval",), _busy("oracle.eval")),
    "certify.fit.calls": (("certify.fit",), _calls("certify.fit")),
    "certify.fit.busy_s": (("certify.fit",), _busy("certify.fit")),
    "certify.fit.self_s": (("certify.fit", "oracle.eval", "numpy.lstsq"), _self("certify.fit")),
    "certify.fit.lstsq_s": (("certify.fit", "numpy.lstsq"), _lstsq_in_fit),
    "certify.valley.calls": (("certify.valley",), _calls("certify.valley")),
    "certify.valley.lines": (("certify.valley", "certify.valley.line"), _count("certify.valley", "lines")),
    "certify.valley.skipped": (("certify.valley", "certify.valley.line"), lambda t: _skips(t, "all")),
    "certify.valley.skipped_cap": (
        ("certify.valley", "certify.valley.line", "certify.valley.denominator"),
        lambda t: _skips(t, "skipped_cap"),
    ),
    "certify.valley.skipped_const": (
        ("certify.valley", "certify.valley.line", "certify.valley.denominator"),
        lambda t: _skips(t, "skipped_const"),
    ),
    "certify.valley.hits": (("certify.valley",), _count("certify.valley", "hits")),
    "certify.valley.self_s": (("certify.valley", "oracle.eval"), _self("certify.valley")),
    "certify.exact.calls": (("certify.exact",), _calls("certify.exact")),
    "certify.exact.self_s": (("certify.exact", "oracle.eval"), _self("certify.exact")),
    "certify.pullback_s": (("certify.pullback",), _busy("certify.pullback")),
    "certify.pool.wait_ms_p50": (("certify.pool",), _pool_wait_ms_p50),
    "certify.pool.busy_ratio": (("certify.pool",), _pool_busy_ratio),
    "interpolation.plan.calls": (("interpolation.plan",), _calls("interpolation.plan")),
    "interpolation.plan.busy_s": (("interpolation.plan",), _busy("interpolation.plan")),
    "linalg.solve.calls": (("linalg.solve",), _calls("linalg.solve")),
    "linalg.solve.busy_s": (("linalg.solve",), _busy("linalg.solve")),
    "interpolation.reconstruct.calls": (("interpolation.reconstruct",), _calls("interpolation.reconstruct")),
    "interpolation.reconstruct.retries": (
        ("interpolation.reconstruct", "interpolation.plan"),
        lambda t: t.stats["interpolation.plan"].calls - t.stats["interpolation.reconstruct"].calls,
    ),
    "taylor.line_series.calls": (("taylor.line_series",), _calls("taylor.line_series")),
    "taylor.line_series.busy_s": (("taylor.line_series",), _busy("taylor.line_series")),
    "interpolation.glue.calls": (("interpolation.glue",), _calls("interpolation.glue")),
    "interpolation.glue.busy_s": (("interpolation.glue",), _busy("interpolation.glue")),
    "interpolation.glue.self_s": (
        ("interpolation.glue", "interpolation.compat", "forms.compose_linear", "linalg.solve"),
        _self("interpolation.glue"),
    ),
    "interpolation.compat.busy_s": (("interpolation.compat",), _busy("interpolation.compat")),
    "forms.compose_linear.calls": (("forms.compose_linear",), _calls("forms.compose_linear")),
    "forms.compose_linear.busy_s": (("forms.compose_linear",), _busy("forms.compose_linear")),
    "jsonio.dumps_s": (("jsonio.dumps",), _busy("jsonio.dumps")),
    "jsonio.report_bytes": (("jsonio.dumps",), _count("jsonio.dumps", "bytes")),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every LAYER_METRICS value; None where a layer it needs had no hook."""
    out = {}
    for name, (needs, compute) in LAYER_METRICS.items():
        out[name] = None if tracer.unhooked.intersection(needs) else compute(tracer)
    return out
