"""Fairness and stability metrics, checked against hand-built traces
whose windowed values are computable in closed form, and against the
same metrics with every window found by a full scan of the rows."""

import math
from unittest.mock import patch

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iriscc.metrics import (
    fairness_report,
    jain_index,
    jain_series,
    mean_rtt,
    mean_throughput,
    stability,
    utilization,
    window_throughput,
)
from iriscc.trace import FlowTotals, FlowTrace, TraceRow


def make_trace(throughputs, flow_id=0, spacing=50.0, rtt=50.0):
    """A trace with one row per value, times spacing, 2*spacing, ..."""
    trace = FlowTrace(flow_id=flow_id, kind="constant", totals=FlowTotals())
    for i, tput in enumerate(throughputs):
        trace.rows.append(TraceRow(
            time=spacing * (i + 1), send_rate=tput, throughput=tput,
            rtt=rtt, queue=0.0, drops=0,
        ))
    return trace


# --- Jain's index ---------------------------------------------------------------

def test_jain_equal_shares():
    assert jain_index([1.0, 1.0, 1.0]) == pytest.approx(1.0)


def test_jain_single_hog():
    assert jain_index([1.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)


def test_jain_mild_skew():
    assert jain_index([2.0, 1.0, 1.0]) == pytest.approx(16.0 / 18.0)


def test_jain_undefined_cases():
    assert jain_index([]) is None
    assert jain_index([0.0, 0.0]) is None


def test_jain_extreme_magnitudes():
    # Squares or sums that leave the float range do not change the index:
    # 1e300 squared overflows, 1e-200 squared underflows to zero, and 100
    # shares of 1e153 overflow n * sum x^2.
    assert jain_index([1e300, 1e300]) == 1.0
    assert jain_index([1e-200, 1e-200]) == 1.0
    assert jain_index([1e153] * 100) == 1.0
    assert jain_index([1e300, 0.0]) == jain_index([1e-200, 0.0]) == 0.5
    for power in range(-300, 301):
        share = 10.0 ** power
        for n in (2, 64):  # power-of-two counts round alike on both sides
            assert jain_index([share] * n) == 1.0
        for n in (3, 100):
            assert jain_index([share] * n) == pytest.approx(1.0, abs=1e-15)
        assert jain_index([2.0 * share, share, share]) == pytest.approx(16.0 / 18.0, rel=1e-12)


def test_jain_rejects_negative_shares():
    with pytest.raises(ValueError):
        jain_index([1.0, -0.1])


@pytest.mark.parametrize("values", [[math.nan, 1.0], [math.inf, 1.0], [math.nan, math.nan]])
def test_jain_rejects_non_finite_shares(values):
    with pytest.raises(ValueError, match="non-negative and finite"):
        jain_index(values)


def test_jain_rescales_shares_whose_sum_overflows():
    # fsum raises OverflowError on the finite shares' sum, before it
    # reaches a later NaN or infinite share; those are still rejected.
    assert jain_index([1e308, 1e308]) == 1.0
    for last in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^shares must be non-negative and finite$"):
            jain_index([1e308, 1e308, last])


# Shares are throughputs in packets/ms; at least one must be large
# enough that its square cannot underflow to zero.
shares = (st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=10)
          .filter(lambda vs: any(v > 1e-3 for v in vs)))


@given(shares, st.floats(min_value=1e-3, max_value=1e3))
def test_jain_scale_invariant(values, c):
    assert jain_index([c * v for v in values]) == pytest.approx(
        jain_index(values), rel=1e-9)


@given(shares)
@example([0, 0, 0, 0, 1.014749187947018])  # unclamped, rounds to just below 1/5
def test_jain_range(values):
    index = jain_index(values)
    assert 1.0 / len(values) <= index <= 1.0 + 1e-12


# --- windowed throughput -----------------------------------------------------------

def test_window_throughput_averages_trailing_window():
    trace = make_trace([1.0] * 10 + [3.0] * 10)
    # (0, 1000] covers all twenty rows: mean of 1s and 3s.
    assert window_throughput(trace, 1000.0, 1000.0) == pytest.approx(2.0)
    # (500, 1000] covers only the 3s... minus nothing: rows 11-20.
    assert window_throughput(trace, 1000.0, 500.0) == pytest.approx(3.0)


def test_mean_throughput_window_is_left_open():
    trace = make_trace([1.0, 3.0])
    assert mean_throughput(trace, 50.0, 100.0) == 3.0  # row at 50 excluded
    assert mean_throughput(trace, 0.0, 50.0) == 1.0
    assert mean_throughput(trace, 200.0, 300.0) == 0.0


def test_mean_rtt_of_empty_window_is_undefined():
    trace = make_trace([1.0, 1.0], rtt=60.0)
    assert mean_rtt(trace, 0.0, 100.0) == 60.0
    assert mean_rtt(trace, 500.0, 600.0) is None


# --- utilization ---------------------------------------------------------------

def test_utilization_exact_half():
    trace = make_trace([1.0] * 200)
    assert utilization([trace], 2.0, 0.0, 10_000.0) == 0.5


def test_utilization_sums_flows():
    a = make_trace([0.5] * 200)
    b = make_trace([1.0] * 200, flow_id=1)
    assert utilization([a, b], 2.0, 0.0, 10_000.0) == pytest.approx(0.75)


@pytest.mark.parametrize("name", ["window", "grid"])
@pytest.mark.parametrize("value", [0.0, -1000.0, math.inf, math.nan])
def test_windowed_metrics_reject_a_window_or_grid_not_positive_and_finite(name, value):
    traces = staggered_pair()
    message = f"{name} must be positive and finite"
    with pytest.raises(ValueError, match=message):
        jain_series(traces, 10_000.0, **{name: value})
    with pytest.raises(ValueError, match=message):
        fairness_report(traces, 10_000.0, **{name: value})
    if name == "window":
        with pytest.raises(ValueError, match=message):
            window_throughput(traces[0], 1000.0, value)


def test_utilization_validation():
    trace = make_trace([1.0] * 10)
    with pytest.raises(ValueError):
        utilization([trace], 0.0, 0.0, 500.0)
    with pytest.raises(ValueError):
        utilization([trace], 2.0, 500.0, 500.0)


# --- convergence ---------------------------------------------------------------

def staggered_pair(duration=10_000.0, join=2000.0):
    """Flow A runs at 1.0 throughout; flow B delivers nothing until
    ``join`` and 1.0 afterwards."""
    steps = int(duration / 50.0)
    a = make_trace([1.0] * steps)
    b = make_trace([0.0 if 50.0 * (i + 1) <= join else 1.0 for i in range(steps)],
                   flow_id=1)
    return [a, b]


def test_convergence_time_closed_form():
    # jain([1, w]) > 0.9 exactly when w > 0.5.  B's windowed throughput
    # reaches 0.55 once 11 of the 20 rows in the trailing second lie
    # past the join at t=2000 - first true at t = 2550.
    traces = staggered_pair()
    assert fairness_report(traces, 10_000.0, starts=[0.0, 0.0]).convergence_time == 2550.0


def test_convergence_requires_sustained_fairness():
    # Same pair, but the run after 2550 is shorter than the sustain
    # requirement: no convergence verdict.
    traces = staggered_pair(duration=5000.0)
    assert fairness_report(traces, 5000.0, starts=[0.0, 0.0]).convergence_time is None


def test_convergence_none_when_starved():
    steps = 200
    a = make_trace([1.0] * steps)
    b = make_trace([0.0] * steps, flow_id=1)
    assert fairness_report([a, b], 10_000.0, starts=[0.0, 0.0]).convergence_time is None


def test_convergence_respects_after_bound():
    traces = staggered_pair()
    report = fairness_report(traces, 10_000.0, after=3000.0, starts=[0.0, 0.0])
    assert report.convergence_time == 3000.0


def test_fairness_report_on_staggered_pair():
    traces = staggered_pair()
    report = fairness_report(traces, 10_000.0, starts=[0.0, 0.0])
    assert report.convergence_time == 2550.0
    assert report.stability == 0.0  # both flows hold 1.0 after converging
    series = jain_series(traces, 10_000.0, starts=[0.0, 0.0])
    assert report.mean_jain == pytest.approx(sum(v for _, v in series) / len(series))
    assert report.per_flow_throughput == (1.0, 0.8)  # B idle for 40 of 200 rows
    late = fairness_report(traces, 10_000.0, after=3000.0, starts=[0.0, 0.0])
    assert late.convergence_time == 3000.0
    assert late.mean_jain == pytest.approx(1.0)


def test_jain_series_skips_inactive_flows():
    traces = staggered_pair()
    series = dict(jain_series(traces, 10_000.0, starts=[0.0, 6000.0]))
    assert series[5000.0] is None       # only one flow counted yet
    assert series[8000.0] == pytest.approx(1.0)


def test_jain_series_single_flow_is_undefined():
    trace = make_trace([1.0] * 100)
    assert all(value is None for _, value in jain_series([trace], 5000.0))


# --- stability -----------------------------------------------------------------

def test_stability_alternating_rate():
    trace = make_trace([1.0, 3.0] * 50)
    assert stability([trace], 0.0) == pytest.approx(1.0)


def test_stability_steady_rate_is_zero():
    trace = make_trace([2.0] * 100)
    assert stability([trace], 0.0) == 0.0


def test_stability_none_without_rows():
    trace = make_trace([1.0] * 10)
    assert stability([trace], 10_000.0) is None


# --- bisection against a full scan ---------------------------------------------

def scan_rows(trace, t0, t1):
    """The oracle: rows with t0 < time <= t1, each row tested in turn."""
    return [row for row in trace.rows if t0 < row.time <= t1]


def scanned(metric, *args, **kwargs):
    """``metric`` with every window of rows found by :func:`scan_rows`."""
    with patch.object(FlowTrace, "rows_between", scan_rows):
        return metric(*args, **kwargs)


def lattice_trace(rows):
    """A trace of ``(step, throughput)`` rows at ``25 * step`` ms, sorted by time."""
    trace = FlowTrace(flow_id=0, kind="constant", totals=FlowTotals())
    for step, tput in sorted(rows):
        trace.rows.append(TraceRow(time=25.0 * step, send_rate=tput, throughput=tput,
                                   rtt=50.0, queue=0.0, drops=0))
    return trace


# Row times, window edges and grid points all lie on a 25 ms lattice, so
# rows fall exactly on ``t - window`` and on ``t``; times repeat, and
# traces may be empty or hold one row.
lattice = st.integers(min_value=-2, max_value=50).map(lambda step: 25.0 * step)
lattice_traces = st.lists(st.tuples(st.integers(0, 48), st.floats(0.0, 10.0)),
                          max_size=30).map(lattice_trace)
windows = st.sampled_from([25.0, 50.0, 100.0, 1000.0])


@given(lattice_traces, lattice, lattice)
@example(lattice_trace([(1, 1.0), (2, 2.0), (2, 3.0), (3, 4.0)]), 50.0, 75.0)
@example(lattice_trace([(2, 1.0)]), 50.0, 50.0)
@example(lattice_trace([(2, 1.0)]), 25.0, 50.0)
@example(lattice_trace([]), 0.0, 100.0)
def test_rows_between_matches_scan(trace, t0, t1):
    assert trace.rows_between(t0, t1) == scan_rows(trace, t0, t1)


@given(lattice_traces, lattice, windows)
def test_window_throughput_matches_scan(trace, t, window):
    assert window_throughput(trace, t, window) == scanned(window_throughput, trace, t, window)


@given(st.lists(lattice_traces, min_size=1, max_size=4), st.integers(0, 1300),
       lattice, windows, st.sampled_from([25.0, 50.0]),
       st.sampled_from([0.0, 0.5, 0.9]), st.sampled_from([0.0, 100.0, 500.0]))
# Sparse rows: a window starts past the end of the one before it.
@example([lattice_trace([(0, 1.0), (40, 2.0)]), lattice_trace([(1, 1.0), (44, 3.0)])],
         1100, 0.0, 25.0, 25.0, 0.5, 100.0)
# Repeated row times, exactly on ``t - window`` and on ``t``.
@example([lattice_trace([(2, 1.0), (2, 2.0), (4, 3.0), (4, 4.0), (6, 5.0)]),
          lattice_trace([(2, 1.0), (4, 1.0), (4, 1.0)])],
         200, 0.0, 50.0, 50.0, 0.5, 0.0)
def test_jain_series_and_fairness_report_match_scan(traces, duration, after, window, grid,
                                                    threshold, sustain):
    assert jain_series(traces, duration, window, grid) == scanned(
        jain_series, traces, duration, window, grid)
    args = (traces, duration, after, threshold, sustain, window, grid)
    assert fairness_report(*args) == scanned(fairness_report, *args)


# --- the one-pass Jain series against a point-by-point fsum -----------------------

# Shares from tiny subnormals to near overflow, so one window's sum can
# hold 2**-1074 and ~1e300 amounts at once.
extreme_throughputs = st.one_of(
    st.floats(0.0, 10.0),
    st.sampled_from([5e-324, 1e-323, 2.2250738585072014e-308, 1e300, 9.99e299]),
    st.floats(0.0, 1e-320),
    st.floats(1e299, 1e300),
)
extreme_traces = st.lists(st.tuples(st.integers(0, 48), extreme_throughputs),
                          max_size=30).map(lattice_trace)


def jain_by_points(traces, duration, window, grid, starts):
    """The oracle: each point's shares summed afresh by :func:`window_throughput`."""
    series = []
    for i in range(1, int(duration // grid) + 1):
        t = i * grid
        shares = [window_throughput(trace, t, window)
                  for trace, start in zip(traces, starts) if start <= t]
        series.append((t, jain_index(shares) if len(shares) >= 2 else None))
    return series


def outcome(series, *args):
    """What ``series`` returns, or the message of the ValueError or
    OverflowError it raises."""
    try:
        return series(*args)
    except (ValueError, OverflowError) as exc:
        return str(exc)


def default_start(trace):
    rows = trace.rows
    if not rows:
        return math.inf
    spacing = rows[1].time - rows[0].time if len(rows) >= 2 else 50.0
    return rows[0].time - spacing


@given(st.lists(extreme_traces, min_size=1, max_size=4), st.integers(0, 1300), windows,
       st.sampled_from([25.0, 50.0]), st.lists(lattice, min_size=4, max_size=4) | st.none())
@example([lattice_trace([(1, 1.0), (1, 3.0), (2, 2.0)]), lattice_trace([(1, 5e-324)])],
         200, 50.0, 25.0, None)
@example([lattice_trace([]), lattice_trace([(2, 1e300)]), lattice_trace([(3, 1e300), (4, 5e-324)])],
         300, 100.0, 25.0, None)
# A trace read from a file may hold non-finite rates, and their windows
# read as fsum reads them.  A window that holds one is a share Jain's
# index rejects; one that starts after it reads the finite rows alone.
@example([lattice_trace([(1, 1.0), (3, math.inf)]), lattice_trace([(2, math.nan), (9, 2.0)]),
          lattice_trace([(4, 1.0)])], 400, 50.0, 25.0, None)
@example([lattice_trace([(1, 1.0), (3, math.inf), (8, 2.0)]),
          lattice_trace([(2, math.nan), (9, 2.0)]), lattice_trace([(4, 1.0)])],
         400, 50.0, 25.0, [150.0, 150.0, 0.0, 0.0])
# A window whose partial sums overflow, though its total does not,
# raises as fsum raises.
@example([lattice_trace([(2, 2e306), (4, 2e306), (6, -2e306)]), lattice_trace([(1, 1.0)])],
         200, 1000.0, 25.0, None)
# Sparse rows: a window starts past the end of the one before it.
@example([lattice_trace([(0, 1.0), (40, 2.0)]), lattice_trace([(1, 1.0), (44, 3.0)])],
         1100, 25.0, 25.0, None)
# Repeated row times, exactly on ``t - window`` and on ``t``.
@example([lattice_trace([(2, 1.0), (2, 2.0), (4, 3.0), (4, 4.0), (6, 5.0)]),
          lattice_trace([(2, 1.0), (4, 1.0), (4, 1.0)])],
         200, 50.0, 50.0, [0.0, 0.0, 0.0, 0.0])
def test_jain_series_equals_fsum_per_point(traces, duration, window, grid, starts):
    expected_starts = [default_start(trace) for trace in traces] if starts is None else starts
    assert outcome(jain_series, traces, duration, window, grid, starts) == outcome(
        jain_by_points, traces, duration, window, grid, expected_starts)
