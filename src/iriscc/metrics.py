"""Fairness and stability metrics over simulation traces.

Throughput fairness uses Jain's index over sliding one-second windows
of delivered throughput; convergence is the earliest instant from which
the index stays above a threshold for a sustained stretch.
"""

from __future__ import annotations

import math
import statistics
import sys
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .trace import FlowTrace

DEFAULT_WINDOW = 1000.0    # ms of throughput behind each fairness point
DEFAULT_GRID = 50.0        # ms between evaluation points
DEFAULT_SUSTAIN = 5000.0   # ms the index must stay above threshold
DEFAULT_THRESHOLD = 0.9
_TINY = sys.float_info.min  # smallest normal float: below it, squares lose precision


def jain_index(values: Sequence[float]) -> float | None:
    """Jain's fairness index: (sum x)^2 / (n * sum x^2), in [1/n, 1].

    1 means perfectly equal shares, 1/n a single hog.  Undefined (None)
    for an empty set or all-zero shares; a negative, infinite or NaN
    share is a ValueError.  The index does not change when every share
    is scaled alike, so shares whose squares or sums leave the normal
    float range are first divided by the largest.
    """
    if not values:
        return None
    try:
        total = math.fsum(values)
        # The sum of non-negative shares is finite only if each one is.
        finite = total < math.inf
    except OverflowError:  # finite shares whose sum leaves the float range
        total = math.inf   # rescaled below
        # fsum stops at the overflow, before a later NaN or infinite share.
        finite = all(v < math.inf for v in values)
    if not (min(values) >= 0 and finite):
        raise ValueError("shares must be non-negative and finite")
    n = len(values)
    try:
        square_sum = math.fsum(map(mul, values, values))
    except OverflowError:  # a partial sum left the float range
        square_sum = math.inf
    if not (n * square_sum < math.inf and total * total < math.inf
            and (square_sum >= n * _TINY or max(values) ** 2 >= _TINY)):
        top = max(values)
        if top == 0.0:
            return None
        values = [v / top for v in values]
        square_sum = math.fsum(map(mul, values, values))
        total = math.fsum(values)
    # Rounding can put a lone hog a hair below 1/n; clamp to the exact range.
    return min(1.0, max(1.0 / n, total * total / (n * square_sum)))


def _row_spacing(trace: FlowTrace) -> float:
    rows = trace.rows
    if len(rows) >= 2:
        return rows[1].time - rows[0].time
    return DEFAULT_GRID


def _check_span(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def window_throughput(trace: FlowTrace, t: float, window: float) -> float:
    """Mean delivered rate (packets/ms) over (t - window, t]."""
    _check_span("window", window)
    spacing = _row_spacing(trace)
    delivered = math.fsum(row.throughput * spacing for row in trace.rows_between(t - window, t))
    return delivered / window


def _window_throughputs(trace: FlowTrace, times: Sequence[float], window: float) -> list[float]:
    """:func:`window_throughput` at each of ``times``, which must not
    decrease, from one pass over the rows: each window is a slice of
    their amounts, summed by ``fsum``."""
    spacing = _row_spacing(trace)
    amounts = [row.throughput * spacing for row in trace.rows]
    row_times = [row.time for row in trace.rows]
    row_times.append(math.inf)  # stops both walks, as ``times`` are finite
    rates = []
    lo = hi = 0  # counts of rows with time <= t - window, and with time <= t
    for t in times:
        while row_times[hi] <= t:
            hi += 1
        start = t - window
        while row_times[lo] <= start:
            lo += 1
        rates.append(math.fsum(amounts[lo:hi]) / window)
    return rates


def jain_series(
    traces: Sequence[FlowTrace],
    duration: float,
    window: float = DEFAULT_WINDOW,
    grid: float = DEFAULT_GRID,
    starts: Sequence[float] | None = None,
) -> list[tuple[float, float | None]]:
    """Jain index of windowed throughputs at each grid point.

    A flow joins the index once it has started (``starts`` gives the
    start times; by default a flow counts from just before its first
    trace row).  Points where fewer than two flows are active, or all
    active flows delivered nothing, carry None.  ``window`` and ``grid``
    must be positive and finite, ``duration`` non-negative and finite.
    """
    if not 0 <= duration < math.inf:
        raise ValueError(f"duration must be non-negative and finite, got {duration}")
    _check_span("window", window)
    _check_span("grid", grid)
    if starts is None:
        starts = [
            (trace.rows[0].time - _row_spacing(trace)) if trace.rows else math.inf
            for trace in traces
        ]
    times = [i * grid for i in range(1, int(duration // grid) + 1)]
    rates = [iter(_window_throughputs(trace, [t for t in times if start <= t], window))
             for trace, start in zip(traces, starts)]
    series: list[tuple[float, float | None]] = []
    for t in times:
        shares = [next(flow_rates) for flow_rates, start in zip(rates, starts) if start <= t]
        series.append((t, jain_index(shares) if len(shares) >= 2 else None))
    return series


def _sustained_start(series: Sequence[tuple[float, float | None]], after: float,
                     threshold: float, sustain: float, grid: float) -> float | None:
    """First point >= ``after`` that opens a run of values above
    ``threshold`` lasting at least ``sustain`` ms, else None."""
    needed = int(sustain // grid) + 1
    run_start: float | None = None
    run_len = 0
    for t, value in series:
        if t < after:
            continue
        if value is not None and value > threshold:
            if run_start is None:
                run_start = t
                run_len = 0
            run_len += 1
            if run_len >= needed:
                return run_start
        else:
            run_start = None
            run_len = 0
    return None


def stability(traces: Sequence[FlowTrace], t0: float) -> float | None:
    """Mean per-flow standard deviation of epoch throughput after t0.

    Lower is steadier.  None when no flow has rows after t0.
    """
    devs = []
    for trace in traces:
        values = [row.throughput for row in trace.rows_between(t0, math.inf)]
        if values:
            devs.append(statistics.pstdev(values))
    if not devs:
        return None
    return math.fsum(devs) / len(devs)


def mean_throughput(trace: FlowTrace, t0: float, t1: float) -> float:
    """Mean delivered rate over rows in (t0, t1], packets/ms."""
    rows = trace.rows_between(t0, t1)
    if not rows:
        return 0.0
    return math.fsum(row.throughput for row in rows) / len(rows)


def mean_rtt(trace: FlowTrace, t0: float, t1: float) -> float | None:
    rows = trace.rows_between(t0, t1)
    if not rows:
        return None
    return math.fsum(row.rtt for row in rows) / len(rows)


def utilization(traces: Sequence[FlowTrace], capacity: float, t0: float, t1: float) -> float:
    """Packets delivered in (t0, t1] as a fraction of what capacity allows.

    Integrates each flow's delivered packets over the window, so flows
    active for only part of it contribute only what they delivered.
    """
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    if t1 <= t0:
        raise ValueError(f"window must be non-empty, got ({t0}, {t1}]")
    delivered = 0.0
    for trace in traces:
        spacing = _row_spacing(trace)
        delivered += math.fsum(row.throughput * spacing for row in trace.rows_between(t0, t1))
    return delivered / (capacity * (t1 - t0))


@dataclass(frozen=True)
class FairnessReport:
    """Fairness summary of one multi-flow run."""

    convergence_time: float | None     # absolute ms, None if never converged
    stability: float | None            # mean per-flow throughput stddev after convergence
    mean_jain: float | None            # mean index after `after`
    per_flow_throughput: tuple[float, ...]  # mean delivered rate after `after`


def fairness_report(
    traces: Sequence[FlowTrace],
    duration: float,
    after: float = 0.0,
    threshold: float = DEFAULT_THRESHOLD,
    sustain: float = DEFAULT_SUSTAIN,
    window: float = DEFAULT_WINDOW,
    grid: float = DEFAULT_GRID,
    starts: Sequence[float] | None = None,
) -> FairnessReport:
    """Fairness summary.  Convergence is the earliest grid point >= ``after``
    from which the Jain index stays above ``threshold`` for ``sustain`` ms;
    None if that never happens within the trace (flows starved included)."""
    series = jain_series(traces, duration, window, grid, starts)
    converged = _sustained_start(series, after, threshold, sustain, grid)
    values = [v for t, v in series if t >= after and v is not None]
    return FairnessReport(
        convergence_time=converged,
        stability=stability(traces, converged) if converged is not None else None,
        mean_jain=(math.fsum(values) / len(values)) if values else None,
        per_flow_throughput=tuple(mean_throughput(trace, after, duration) for trace in traces),
    )
