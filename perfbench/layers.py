"""Per-layer timing of a workload from outside the program.

The tracer replaces the public names that iriscc's modules and the
benchmark's workload code call with timing wrappers, and wraps every controller
that ``netsim.build_controller`` returns in a timing proxy.  Each
wrapper is a span: its self time is its duration minus the time of the
spans it encloses, so the self times of all layers add up to the
duration of the outermost span.

Layers are iriscc's modules:

* ``netsim``      -- ``run_scenario``, minus the controllers' ``on_epoch``;
* ``controller``  -- iris ``on_epoch`` calls, minus ``fit_k_b``;
* ``baselines``   -- AIMD / Vegas / constant-rate ``on_epoch`` calls;
* ``regression.fit``     -- ``fit_k_b``, from the controller and the CLI;
* ``regression.analyze`` -- ``analyze_trace``;
* ``trace.write`` / ``trace.read`` -- ``write_trace_csv`` / ``read_trace_csv``;
* ``metrics``     -- the metrics functions callers use;
* ``cli``         -- ``cli.main``, minus the layers it calls;
* ``bench``       -- the benchmark's own workload code around those calls.
"""

from __future__ import annotations

import heapq
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

# (module, attribute, span name).  Missing attributes are skipped, so a
# refactor that stops importing a name moves its time to the caller
# instead of breaking the benchmark; ``cli.analyze_trace`` is listed for
# the day ``cli analyze`` calls it instead of its own fit.
PATCHES = (
    ("netsim", "run_scenario", "netsim.run_scenario"),
    ("cli", "run_scenario", "netsim.run_scenario"),
    ("trace", "write_trace_csv", "trace.write"),
    ("cli", "write_trace_csv", "trace.write"),
    ("trace", "read_trace_csv", "trace.read"),
    ("cli", "read_trace_csv", "trace.read"),
    ("controller", "fit_k_b", "regression.fit"),
    ("cli", "fit_k_b", "regression.fit.cli"),
    ("regression", "analyze_trace", "regression.analyze"),
    ("cli", "analyze_trace", "regression.analyze"),
    ("metrics", "fairness_report", "metrics.fairness_report"),
    ("metrics", "convergence_time", "metrics.convergence_time"),
    ("metrics", "jain_series", "metrics.jain_series"),
    ("metrics", "stability", "metrics.stability"),
    ("metrics", "utilization", "metrics.utilization"),
    ("metrics", "mean_throughput", "metrics.mean_throughput"),
    ("metrics", "mean_rtt", "metrics.mean_rtt"),
    ("cli", "main", "cli.main"),
)

LAYERS = ("netsim", "controller", "baselines", "regression.fit", "regression.analyze",
          "trace.write", "trace.read", "metrics", "cli", "bench")


def layer_of(span: str) -> str:
    """Span name -> layer: ``metrics.utilization`` -> ``metrics``."""
    for layer in LAYERS:
        if span == layer or span.startswith(layer + "."):
            return layer
    raise ValueError(f"span {span!r} belongs to no layer")


def busy_wait(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _CountingHeapq:
    """Stand-in for the ``heapq`` module that counts pushes."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, item):
        self.pushes += 1
        heapq.heappush(heap, item)


class _TimedController:
    """Proxy around a rate controller whose ``on_epoch`` is a span."""

    def __init__(self, inner, on_epoch: Callable):
        self._inner = inner
        self.kind = inner.kind
        self.epoch_len = inner.epoch_len
        self.on_epoch = on_epoch

    def start_rate(self) -> float:
        return self._inner.start_rate()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    """Collects self time, calls and counts for one traced iteration.

    ``delays`` maps a span name (``controller.on_epoch``,
    ``metrics.utilization``, ...) to a busy-wait in seconds added inside
    every call of that span; the self-tests use it to check that the
    split charges time to the layer that spent it.
    """

    def __init__(self, delays: dict[str, float] | None = None, count_heap: bool = False):
        self.delays = dict(delays or {})
        self.count_heap = count_heap
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.iris: list = []
        self._stack = [0.0]  # child time of each open span; [0] is the root
        self._heapq: _CountingHeapq | None = None

    def wrap(self, span: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        layer = layer_of(span)
        delay = self.delays.get(span, 0.0)
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        durations = self.durations[span] if span == "controller.on_epoch" else None
        perf = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                if delay:
                    busy_wait(delay)
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                stack[-1] += dt
                self_s[layer] += dt - child
                calls[span] += 1
                if durations is not None:
                    durations.append(dt)
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def _count_traces(self, traces) -> None:
        counts = self.counts
        for tr in traces:
            totals = tr.totals
            counts["pkts_sent"] += totals.sent
            counts["pkts_delivered"] += totals.delivered
            counts["drops_overflow"] += totals.dropped_overflow
            counts["drops_random"] += totals.dropped_random
            counts["trace_rows"] += len(tr.rows)

    def _count_jain(self, series) -> None:
        self.counts["jain_points"] += len(series)

    def _build_controller(self, original: Callable) -> Callable:
        def build(*args, **kwargs):
            ctrl = original(*args, **kwargs)
            if ctrl.kind == "iris":
                self.iris.append(ctrl)
                span = "controller.on_epoch"
            else:
                span = "baselines.on_epoch"
            return _TimedController(ctrl, self.wrap(span, ctrl.on_epoch))
        return build

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        from iriscc import cli, controller, metrics, netsim, regression, trace

        modules = {"cli": cli, "controller": controller, "metrics": metrics,
                   "netsim": netsim, "regression": regression, "trace": trace}
        saved = []
        wrappers: dict[tuple[int, str], Callable] = {}

        def patch(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        try:
            for mod_name, attr, span in PATCHES:
                module = modules[mod_name]
                if not hasattr(module, attr):
                    continue
                original = getattr(module, attr)
                key = (id(original), span)
                if key not in wrappers:
                    on_result = {"netsim.run_scenario": self._count_traces,
                                 "metrics.jain_series": self._count_jain}.get(span)
                    wrappers[key] = self.wrap(span, original, on_result)
                patch(module, attr, wrappers[key])
            if hasattr(netsim, "build_controller"):
                patch(netsim, "build_controller", self._build_controller(netsim.build_controller))
            if self.count_heap and hasattr(netsim, "heapq"):
                self._heapq = _CountingHeapq()
                patch(netsim, "heapq", self._heapq)
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def run(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the root ``bench`` span with the wrappers installed."""
        with self.installed():
            return self.wrap("bench.run", fn)(*args, **kwargs)

    # -- results -----------------------------------------------------------

    def scale(self, factor: float) -> None:
        """Multiply every recorded time by ``factor`` (see calibrate.py)."""
        for layer in self.self_s:
            self.self_s[layer] *= factor
        for values in self.durations.values():
            values[:] = [v * factor for v in values]
        self._stack[0] *= factor

    def wall_s(self) -> float:
        return self._stack[0]

    def exact_counts(self) -> dict[str, int]:
        """Counts that a given program version repeats exactly."""
        counts = {key: self.counts[key] for key in
                  ("pkts_sent", "pkts_delivered", "drops_overflow", "drops_random",
                   "trace_rows", "jain_points")}
        counts["controller_calls"] = self.calls["controller.on_epoch"]
        counts["baselines_calls"] = self.calls["baselines.on_epoch"]
        counts["fit_calls"] = self.calls["regression.fit"] + self.calls["regression.fit.cli"]
        counts["fits_adopted"] = sum(len(getattr(c.state, "applied_fits", ())) for c in self.iris)
        if self._heapq is not None:
            counts["heap_pushes"] = self._heapq.pushes
        return counts

    def call_us(self, q: float) -> float:
        """Quantile ``q`` of iris ``on_epoch`` call time, microseconds."""
        durations = self.durations.get("controller.on_epoch")
        if not durations:
            return 0.0
        if len(durations) < 2:
            return 1e6 * durations[0]
        cuts = statistics.quantiles(durations, n=100, method="inclusive")
        return 1e6 * (cuts[int(q * 100) - 1] if q < 1 else max(durations))
