"""Controller decision math, slope adoption gates, and cold start.

Numeric expectations are frozen from independent evaluation of the
closed forms (math.tanh, ordinary least squares) rather than from the
implementation under test.
"""

import importlib.util
import math
import random
import statistics
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import feedback, flow, make_link, scenario
from iriscc import netsim
from iriscc.controller import (
    CONTRACTION_CAP,
    EXCITATION_FLOOR,
    HISTORY_CAP,
    INITIAL_RATE,
    K_MIN,
    MIN_FIT_PLCC,
    MIN_FIT_SAMPLES,
    RATE_CEILING,
    SUM_DRIFT,
    IrisController,
    Measurement,
    Phase,
    _gated_fit,
    _screen_rejects,
    compute_objective,
    effective_slope,
    expected_rtt_variation,
    gap_contraction_factor,
    next_sending_rate,
)
from iriscc.feedback import EpochFeedback

NOTHING_SENT = feedback(sent=0, measured=False)


def decide(ctrl, fb, now):
    """Step ``ctrl`` through one epoch; return the decision it logged."""
    ctrl.on_epoch(fb, now)
    return ctrl.decisions[-1]


# --- objective ---------------------------------------------------------------

def test_objective_zero_on_target():
    # 2 pkt/ms with 5 ms of queueing delay holds exactly 10 packets.
    assert compute_objective(2.0, 55.0, 50.0, 10.0) == 0.0


def test_objective_signs():
    assert compute_objective(2.0, 60.0, 50.0, 10.0) == pytest.approx(10.0)
    assert compute_objective(2.0, 50.0, 50.0, 10.0) == pytest.approx(-10.0)


# --- bounded rtt step ---------------------------------------------------------

def test_rtt_step_small_objective():
    # -3 * tanh(10/100), evaluated independently.
    step = expected_rtt_variation(10.0, 3.0, 100.0)
    assert step == pytest.approx(-0.29900398387486746, abs=1e-15)


def test_rtt_step_deep_negative_objective_approaches_bound():
    step = expected_rtt_variation(-1000.0, 3.0, 100.0)
    assert step == pytest.approx(3.0, abs=1e-6)
    assert step < 3.0


def test_rtt_step_strictly_inside_bound_at_float_saturation():
    # tanh saturates to exactly 1.0 in floats around |arg| ~ 20; the
    # step must stay strictly inside the open interval anyway.
    for objective in (1e6, -1e6, 1e300, -1e300, math.inf, -math.inf):
        step = expected_rtt_variation(objective, 3.0, 100.0)
        assert abs(step) < 3.0
        assert abs(step) == math.nextafter(3.0, 0.0)


def test_rtt_step_zero_objective():
    assert expected_rtt_variation(0.0, 3.0, 100.0) == 0.0


# Magnitudes below ~1e-302 underflow to zero when divided by the
# 100 ms scale, so the sign-opposition guarantee starts at 1e-300.
@given(st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-300, max_value=1e12),
    st.floats(min_value=-1e12, max_value=-1e-300),
))
def test_rtt_step_bound_and_sign_opposition(objective):
    step = expected_rtt_variation(objective, 3.0, 100.0)
    assert abs(step) < 3.0
    if objective > 0:
        assert step < 0
    elif objective < 0:
        assert step > 0
    else:
        assert step == 0.0


@given(st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
       st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))
def test_rtt_step_monotone_decreasing(a, b):
    lo, hi = min(a, b), max(a, b)
    assert (expected_rtt_variation(lo, 3.0, 100.0)
            >= expected_rtt_variation(hi, 3.0, 100.0))


# --- rate update ---------------------------------------------------------------

def test_next_rate_from_slope():
    # 1.0 + (-3*tanh(0.1)) / 0.5, evaluated independently.
    rate = next_sending_rate(1.0, -0.29900398387486746, 0.5)
    assert rate == pytest.approx(0.4019920322502651, abs=1e-15)


def test_next_rate_floor():
    assert next_sending_rate(0.05, -3.0, 0.01) == 0.01


def test_next_rate_rejects_unclamped_slope():
    with pytest.raises(ValueError):
        next_sending_rate(1.0, 0.1, 0.001)


# --- loop-gain bound -------------------------------------------------------------

def test_contraction_factor_value():
    assert gap_contraction_factor(55.0, 50.0, 3.0, 3.0, 100.0) == pytest.approx(0.05)
    assert gap_contraction_factor(100.0, 50.0, 1.5, 3.0, 100.0) == pytest.approx(1.0)


def test_effective_slope_floors_small_k():
    # floor = 3 * 50 / (100 * 0.95)
    floor = 1.5789473684210527
    assert effective_slope(0.5, 100.0, 50.0, 3.0, 100.0) == pytest.approx(floor, abs=1e-12)
    assert effective_slope(10.0, 100.0, 50.0, 3.0, 100.0) == 10.0


def test_effective_slope_respects_cap_exactly():
    k = effective_slope(0.01, 100.0, 50.0, 3.0, 100.0)
    assert gap_contraction_factor(100.0, 50.0, k, 3.0, 100.0) == pytest.approx(0.95, abs=1e-12)


def test_effective_slope_noop_when_rtt_below_target():
    assert effective_slope(2.0, 48.0, 50.0, 3.0, 100.0) == 2.0


@given(st.floats(min_value=0.01, max_value=100.0),
       st.floats(min_value=0.0, max_value=500.0))
def test_effective_slope_keeps_gain_below_one(k, queueing):
    used = effective_slope(k, 50.0 + queueing, 50.0, 3.0, 100.0)
    assert gap_contraction_factor(50.0 + queueing, 50.0, used, 3.0, 100.0) < 1.0
    assert used >= k


# --- target delay window ----------------------------------------------------------

def test_target_tracks_window_minimum():
    ctrl = IrisController()
    ctrl.rtt_samples.extend([(0.0, 50.0), (5000.0, 60.0)])
    assert ctrl.update_target_delay(10_000.0) == 50.0


def test_target_evicts_stale_samples():
    ctrl = IrisController()
    ctrl.rtt_samples.extend([(0.0, 50.0), (5000.0, 60.0)])
    assert ctrl.update_target_delay(12_000.0) == 60.0
    assert list(ctrl.rtt_samples) == [(5000.0, 60.0)]


def test_target_survives_empty_window_with_staleness():
    ctrl = IrisController()
    ctrl.rtt_samples.append((0.0, 50.0))
    ctrl.update_target_delay(5000.0)
    assert ctrl.update_target_delay(20_000.0) == 50.0
    assert ctrl.target_stale_epochs == 1


@given(st.sampled_from([1.0, 120.0, 1000.0]),
       st.lists(st.tuples(st.booleans(), st.sampled_from([40.0, 50.0, 50.0, 60.0, 75.0]),
                          st.floats(0.0, 300.0)), max_size=60))
def test_target_is_the_window_minimum_of_every_sample(rtt_window, steps):
    # Each step closes a 50 ms epoch, released `lag` ms after its end but
    # never before the previous release; a measured one records its RTT
    # first.  RTTs repeat, and lags beyond a short window evict a sample
    # on arrival.  The kept samples must give the minimum over every
    # sample in the window, and the same staleness count.
    ctrl = IrisController(rtt_window=rtt_window)
    seen = []
    target, stale = None, 0
    now = 0.0
    for i, (measured, rtt, lag) in enumerate(steps):
        end = 50.0 * (i + 1)
        now = max(now, end + lag)
        if measured:
            ctrl._record_measurement(feedback(index=i, rtt=rtt, end=end))
            seen.append((end, rtt))
        window = [r for t, r in seen if t >= now - rtt_window]
        if window:
            target, stale = min(window), 0
        else:
            stale += 1
        assert ctrl.update_target_delay(now) == target
        assert ctrl.target_stale_epochs == stale


# --- receive-rate and RTT-change estimates -------------------------------------

def estimates(*feedbacks):
    """A fresh controller and iris's records of ``feedbacks``, in order."""
    ctrl = IrisController()
    return ctrl, [ctrl._record_measurement(fb) for fb in feedbacks]


def test_recv_rate_from_ack_spacing():
    # 100 packets sent over the epoch, ACK span of 100 ms.
    _, (_, rec) = estimates(feedback(last_ack=50.0),
                            feedback(index=1, send=2.0, end=100.0, last_ack=150.0))
    assert rec.recv_rate == 1.0


def test_recv_rate_compressed_acks_read_high():
    _, (_, rec) = estimates(feedback(last_ack=50.0),
                            feedback(index=1, send=2.0, end=100.0, last_ack=90.0))
    assert rec.recv_rate == 2.5


@pytest.mark.parametrize("last_ack", [50.0, 40.0])
def test_recv_rate_is_the_send_rate_without_a_later_ack(last_ack):
    # The first measured epoch has no earlier ACK to span from, and an
    # ACK at or before the previous one spans nothing; either reads its
    # own send rate.  The estimate then spans from the newer ACK.
    ctrl, (first, rec) = estimates(feedback(send=3.0, last_ack=50.0),
                                    feedback(index=1, send=2.0, end=100.0, last_ack=last_ack))
    assert first.recv_rate == 3.0 and rec.recv_rate == 2.0
    assert ctrl.last_meas_ack == last_ack


def test_delta_rtt_is_the_change_from_the_previous_measured_epoch():
    _, (first, rec) = estimates(feedback(rtt=50.0), feedback(index=1, rtt=54.5, end=100.0))
    assert first.delta_rtt is None
    assert rec.delta_rtt == 4.5


@pytest.mark.parametrize("phase", list(Phase))
def test_unmeasured_epochs_advance_no_estimate(phase):
    ctrl = IrisController()
    ctrl.phase = phase
    ctrl.k = 2.0
    ctrl.on_epoch(feedback(rtt=50.0, last_ack=100.0), 50.0)
    ctrl.on_epoch(feedback(index=1, end=100.0, dropped=50, measured=False), 100.0)
    ctrl.on_epoch(NOTHING_SENT._replace(index=2, end=150.0), 150.0)
    assert (ctrl.last_meas_ack, ctrl.prev_rtt) == (100.0, 50.0)
    # 150 packets over the 150 ms since the last measured epoch's ACK.
    ctrl.on_epoch(feedback(index=3, send=3.0, rtt=60.0, end=200.0, last_ack=250.0), 200.0)
    assert ctrl.decisions[-1].recv_rate == 1.0
    assert ctrl.history[-1].delta_rtt == 10.0


# --- steady-state step ---------------------------------------------------------

def steady_state(**kwargs):
    ctrl = IrisController(**kwargs)
    ctrl.phase = Phase.STEADY
    ctrl.k = 2.0
    return ctrl


def test_equilibrium_is_a_fixed_point():
    ctrl = steady_state()
    ctrl.rtt_samples.append((0.0, 50.0))  # establishes the 50 ms baseline
    fb = feedback(send=2.0, rtt=55.0, end=50.0)
    entry = decide(ctrl, fb, 50.0)
    assert entry.objective == 0.0
    assert entry.rtt_step == 0.0
    assert entry.rate == 2.0
    assert entry.contraction == pytest.approx(3.0 / 2.0 * 5.0 / 100.0)  # loop gain


def test_floored_slope_logs_the_loop_gain_it_realizes():
    # A learned slope far below the floor: the step divides by the
    # floored slope, and the logged loop gain is that step's, at the cap.
    ctrl = steady_state()
    ctrl.k = 1e-3
    ctrl.rtt_samples.append((0.0, 50.0))
    entry = decide(ctrl, feedback(send=2.0, rtt=100.0, end=50.0), 50.0)
    assert entry.k == pytest.approx(3.0 * 50.0 / (100.0 * CONTRACTION_CAP))
    assert entry.contraction == pytest.approx(CONTRACTION_CAP)


def test_queue_above_target_pushes_rate_down():
    ctrl = steady_state()
    ctrl.rtt_samples.append((0.0, 50.0))
    fb = feedback(send=2.0, rtt=60.0, end=50.0)  # 20 packets queued
    entry = decide(ctrl, fb, 50.0)
    assert entry.objective == pytest.approx(10.0)
    assert entry.rate < 2.0


def test_empty_queue_pushes_rate_up():
    ctrl = steady_state()
    fb = feedback(send=2.0, rtt=50.0, end=50.0)  # rtt == target
    entry = decide(ctrl, fb, 50.0)
    assert entry.objective == pytest.approx(-10.0)
    assert entry.rate > 2.0


@pytest.mark.parametrize("target, expected", [(None, 50.0), (40.0, 40.0)])
def test_steady_target_when_the_window_is_empty(target, expected):
    # The epoch is released 150 ms after it ends, so a 1 ms window has
    # evicted its RTT sample: a flow that never had a target takes the
    # epoch's RTT, and one that had a target keeps it, stale.
    ctrl = steady_state(rtt_window=1.0)
    ctrl.target_delay = target
    entry = decide(ctrl, feedback(end=50.0), 200.0)
    assert ctrl.target_delay == entry.target_delay == expected
    assert ctrl.target_stale_epochs == 1
    assert entry.objective == pytest.approx(1.0 * (50.0 - expected) - 10.0)


def ack_driven(samples, rtt=50.0):
    """Measured 50 ms epochs, the first ending at 50 ms, whose ACK times
    and RTTs make iris estimate each ``(send, recv, delta)`` sample: an
    epoch's latest ACK follows the previous one by ``send * 50 / recv``
    and its RTT moves by ``delta``.  The first sample only primes the
    estimator, so its ``recv`` is its ``send`` and its ``delta`` None."""
    fbs = []
    ack = None
    for i, (send, recv, delta) in enumerate(samples):
        end = 50.0 * (i + 1)
        if ack is None:
            ack = end + rtt
        else:
            ack += send * 50.0 / recv
            rtt += delta
        fbs.append(feedback(index=i, send=send, rtt=rtt, end=end, last_ack=ack))
    return fbs


def push(ctrl, end, send, recv, delta, rtt=50.0):
    """Append iris's record of a measured epoch as if it had estimated it."""
    ctrl._append_record(Measurement(end, send, recv, rtt, delta))


def test_slope_refit_recovers_linear_response():
    ctrl = steady_state()
    ctrl.k = 0.01
    samples = [(1.0, 1.0, None)]
    for i in range(12):
        diff = 0.5 if i % 2 == 0 else -0.5
        samples.append((1.0 + diff, 1.0, 2.0 * diff))  # network responds with slope 2
    for fb in ack_driven(samples):
        ctrl.on_epoch(fb, fb.end)
    assert ctrl.k == pytest.approx(2.0, rel=1e-9)
    (time, fit), = ctrl.applied_fits
    assert time == 550.0  # the first window with MIN_FIT_SAMPLES RTT changes
    assert fit.plcc == pytest.approx(1.0)


def test_slope_refit_skips_quiet_windows():
    # Same setup but with no real rate excursions: the send/receive gap
    # is pure noise, so no fit may be adopted no matter how correlated.
    ctrl = steady_state()
    ctrl.k = 5.0
    samples = [(1.0, 1.0, None)]
    for i in range(12):
        diff = 1e-4 if i % 2 == 0 else -1e-4
        samples.append((1.0 + diff, 1.0, 2.0 * diff))
    for fb in ack_driven(samples):
        ctrl.on_epoch(fb, fb.end)
    assert ctrl.k == 5.0
    assert ctrl.applied_fits == []


def test_slope_refit_rejects_weak_correlation():
    ctrl = steady_state()
    ctrl.k = 5.0
    # Excited but orthogonal: rate swings follow a +,-,-,+ pattern while
    # the RTT deltas follow +,+,-,-, so their sample covariance is zero.
    diff_cycle = [0.5, -0.5, -0.5, 0.5]
    delta_cycle = [1.0, 1.0, -1.0, -1.0]
    samples = [(1.0, 1.0, None)]
    samples += [(1.0 + diff_cycle[i % 4], 1.0, delta_cycle[i % 4]) for i in range(12)]
    for fb in ack_driven(samples):
        ctrl.on_epoch(fb, fb.end)
    assert ctrl.k == 5.0
    assert ctrl.applied_fits == []


def _excitation_window(spread):
    # Eleven steady epochs, the first without an RTT change and with a
    # higher send rate, so the mean over all records differs from the
    # mean over the fitted ones; the RTT follows the overshoot with
    # slope 2.  The overshoots are scaled so that the window's relative
    # spread, the population deviation of the overshoots over the mean
    # send rate of every record, is ``spread``.
    base = [0.3, -0.1, 0.25, -0.4, 0.05, 0.35, -0.2, 0.15, -0.3, 0.1]
    # spread = c * pstdev(base) / ((3 + 10 + c * sum(base)) / 11), solved for c
    scale = 13.0 * spread / (11.0 * statistics.pstdev(base) - spread * math.fsum(base))
    return ack_driven([(3.0, 3.0, None)] + [(1.0 + scale * d, 1.0, 2.0 * scale * d) for d in base])


@pytest.mark.parametrize("floor_scale, adopted", [(1.0 - 1e-9, True), (1.0 + 1e-9, False)])
def test_slope_refit_excitation_gate_at_its_floor(floor_scale, adopted):
    # A window whose relative spread sits just above the floor adopts
    # the fit and one just below rejects it.  The sample deviation
    # (about 5% larger with 10 samples) or a mean over the fitted
    # records only (lower, because the first record sends the most)
    # would adopt both.  Ten fitted records meet MIN_FIT_SAMPLES exactly.
    spread = EXCITATION_FLOOR / floor_scale
    ctrl = steady_state()
    ctrl.rtt_samples.append((0.0, 50.0))
    for fb in _excitation_window(spread):
        ctrl.on_epoch(fb, fb.end)
    overshoots = [rec.send_rate - rec.recv_rate
                  for rec in ctrl.history if rec.delta_rtt is not None]
    assert (statistics.pstdev(overshoots) / statistics.fmean(rec.send_rate for rec in ctrl.history)
            == pytest.approx(spread, rel=1e-12))
    assert len(ctrl.applied_fits) == (1 if adopted else 0)
    if adopted:
        assert ctrl.k == pytest.approx(2.0, rel=1e-9)


def test_history_is_bounded_by_its_cap_when_no_record_ages_out():
    # With an infinite re-fit period the window never evicts by time;
    # quiet records keep every attempt rejected, so the history would grow
    # without the cap, which evicts the oldest record and its sums.
    ctrl = steady_state(k_update_period=math.inf)
    for i in range(HISTORY_CAP + 50):
        diff = 1e-4 if i % 2 else -1e-4
        end = 50.0 * (i + 1)
        push(ctrl, end, 1.0 + diff, 1.0, 2.0 * diff if i % 3 else None)
        ctrl._maybe_refit_k(end)
    assert ctrl.applied_fits == []
    assert len(ctrl.history) == HISTORY_CAP
    assert ctrl.history[0].end == 50.0 * 51  # the 51st record
    assert ctrl.sums.n == sum(rec.delta_rtt is not None for rec in ctrl.history)
    assert ctrl.sums.send == pytest.approx(math.fsum(rec.send_rate for rec in ctrl.history),
                                            rel=1e-12)


def _unit(values):
    """``values`` centred and scaled to a population deviation of 1, or
    None when they have no spread."""
    mean = math.fsum(values) / len(values)
    centred = [v - mean for v in values]
    spread = math.sqrt(math.fsum(c * c for c in centred) / len(values))
    return [c / spread for c in centred] if spread > 1e-3 else None


@st.composite
def screened_windows(draw):
    """A controller whose history is a re-fit window, built through the
    controller's own pushes and evictions.

    Its n overshoots x and RTT changes y are unit-spread shapes, shifted
    by offsets of up to 1000 spreads (so the raw sums cancel when
    centred) and scaled by 1e-150 to 1e150.  The correlation or the
    excitation can sit at its gate threshold, within 1e-12; x or y can
    be flat.  Up to three epochs carry no RTT change, and up to two
    overshoots of up to 1e300 (whose squares can overflow) pass through
    the sums before it.
    """
    n = draw(st.integers(MIN_FIT_SAMPLES - 1, 24))
    unit = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    u = _unit(draw(unit)) or _unit([(-1.0) ** i + i / n for i in range(n)])
    z = _unit(draw(unit)) or _unit([(-1.0) ** (i // 2) for i in range(n)])
    shape = draw(st.sampled_from(("plcc edge", "excitation edge", "flat x", "flat y", "free")))
    edge = draw(st.sampled_from((-1e-12, 0.0, 1e-12)))
    if shape == "plcc edge":
        along = math.fsum(a * b for a, b in zip(u, z)) / n
        z = _unit([b - along * a for a, b in zip(u, z)])
        assume(z is not None)
        rho = MIN_FIT_PLCC + edge
        x_unit, y_unit = u, [rho * a + math.sqrt(1.0 - rho * rho) * b for a, b in zip(u, z)]
    elif shape == "excitation edge":
        x_unit, y_unit = u, [a + 0.1 * b for a, b in zip(u, z)]
    elif shape == "flat x":
        x_unit, y_unit = [0.0] * n, z
    elif shape == "flat y":
        x_unit, y_unit = u, [0.0] * n
    else:
        x_unit, y_unit = u, z
    power_x = draw(st.integers(-150, 150))
    power_y = draw(st.integers(-150, 150))
    scale_x = 10.0 ** power_x
    scale_y = 10.0 ** power_y
    # A negative mean overshoot keeps the excitation up.
    offset_x = scale_x * draw(st.sampled_from((0.0, -1e2, -1e3)))
    offset_y = scale_y * draw(st.sampled_from((0.0, 1e2, -1e3)))
    xs = [offset_x + scale_x * a for a in x_unit]
    ys = [offset_y + scale_y * b for b in y_unit]
    plain = draw(st.integers(0, 3))  # epochs without an RTT change, overshooting by offset_x
    lowest = -min(0.0, offset_x, *xs)  # receive rate that keeps every send rate non-negative
    if shape == "excitation edge":
        mean_send = statistics.pstdev(xs) / (EXCITATION_FLOOR * (1.0 + edge))
        rate = mean_send - (math.fsum(xs) + plain * offset_x) / (n + plain)
        assume(rate >= lowest)
    else:
        rate = lowest + scale_x * draw(st.floats(0.0, 4.0))
    # From 1e4 to 1e16 times the scale, a transient's rounding in the
    # squared sums is as large as the window's spread.  Transients stay
    # within 1e300, so every send rate is finite, while squares overflow
    # from about 1e154 on.
    powers = st.one_of(st.integers(4, 16), st.integers(0, 300 - max(power_x, power_y)))
    transients = [(10.0 ** (power_x + k), 10.0 ** (power_y + k))
                  for k in draw(st.lists(powers, max_size=2))]
    ctrl = IrisController()
    records = [*transients, *[(offset_x, None)] * plain, *zip(xs, ys)]
    for i, (x, y) in enumerate(records):
        push(ctrl, 50.0 * (i + 1), rate + x, rate, y)
    for _ in transients:
        ctrl._evict_oldest()
    return ctrl


def window_of(recv, records):
    """A controller whose window holds ``(send, delta)`` records, 50 ms apart."""
    ctrl = IrisController()
    for i, (send, delta) in enumerate(records):
        push(ctrl, 50.0 * (i + 1), send, recv, delta)
    return ctrl


# A window whose PLCC sits exactly at the gate: the exact fit adopts it,
# and only a screen with no PLCC margin would reject it.
AT_THE_PLCC_GATE = window_of(1.3849306072454481, [
    (1.9175962254167742, -0.09026952547956833), (0.0, -0.7544404356724392),
    (2.0596403902624614, -0.04107168028009642), (0.14204416484568694, -0.7052425904729673),
    (2.201684555108148, 0.008126164919375484), (0.2840883296913739, -0.6560447452734954),
    (2.3437287199538352, 0.05732401011884744), (0.4261324945370609, -0.6068469000740235),
    (2.4857728847995224, 0.10652185531831942), (0.568176659382748, -0.5576490548745515),
    (2.627817049645209, 0.15571970051779133), (0.7102208242284349, -0.5084512096750796),
    (2.7698612144908963, 0.20491754571726323), (0.852264989074122, 3.387406865210625)])


@settings(max_examples=400)
@given(screened_windows())
@example(AT_THE_PLCC_GATE)
def test_screen_rejects_only_windows_the_exact_gate_rejects(ctrl):
    if _screen_rejects(ctrl.sums, len(ctrl.history), MIN_FIT_SAMPLES):
        assert _gated_fit(ctrl.history, MIN_FIT_SAMPLES) is None


def test_screen_stays_one_sided_after_an_overshoot_leaves():
    # An overshoot of 1e6 to 1e9 leaves rounding in the squared sums
    # about as large as the unit-spread window that follows it, while
    # those sums are far from tiny: a guard relative to the raw sums
    # would read them and reject windows the exact gate adopts.
    rng = random.Random(3)
    adopted = 0
    for _ in range(1500):
        ctrl = IrisController()
        big = 10.0 ** rng.uniform(6.0, 9.0)
        records = [(big, big)]
        for _ in range(20):
            x = rng.gauss(0.0, 1.0)
            records.append((x, 0.5 * x + rng.gauss(0.0, 1.0)))
        for i, (x, y) in enumerate(records):
            push(ctrl, 50.0 * (i + 1), 10.0 + x, 10.0, y)
        ctrl._evict_oldest()
        if _gated_fit(ctrl.history, MIN_FIT_SAMPLES) is not None:
            adopted += 1
            assert not _screen_rejects(ctrl.sums, len(ctrl.history), MIN_FIT_SAMPLES)
    assert adopted > 1000


def test_running_sums_stay_within_their_drift_bound():
    # 100k epochs through a 1 s re-fit window, one of them overshooting
    # by 1e200: its square overflows, so the sums stay non-finite from
    # its push until the first re-sum after it leaves.  Meanwhile the
    # screen leaves every window with enough samples to the exact fit.
    rng = random.Random(5)
    ctrl = steady_state(k_update_period=1000.0)
    non_finite = 0
    for i in range(100_000):
        end = 50.0 * (i + 1)
        diff = 1e200 if i == 50_000 else rng.uniform(-0.5, 0.5)
        delta = rng.uniform(-1.0, 1.0) if i % 7 else None
        push(ctrl, end, 1.0 + diff, 1.0, delta)
        ctrl._maybe_refit_k(end)
        sums = ctrl.sums
        if not all(map(math.isfinite, (sums.sx, sums.sy, sums.sxx, sums.syy, sums.sxy))):
            non_finite += 1
            assert sums.n >= MIN_FIT_SAMPLES
            assert not _screen_rejects(sums, len(ctrl.history), MIN_FIT_SAMPLES)
    assert 0 < non_finite <= 2 * HISTORY_CAP
    usable = [rec for rec in ctrl.history if rec.delta_rtt is not None]
    xs = [rec.send_rate - rec.recv_rate for rec in usable]
    ys = [rec.delta_rtt for rec in usable]
    sends = [rec.send_rate for rec in ctrl.history]
    assert sums.n == len(usable)
    for value, terms, largest in (
            (sums.sx, xs, sums.max_x),
            (sums.sy, ys, sums.max_y),
            (sums.sxx, [x * x for x in xs], sums.max_x ** 2),
            (sums.syy, [y * y for y in ys], sums.max_y ** 2),
            (sums.sxy, [x * y for x, y in zip(xs, ys)], sums.max_x * sums.max_y),
            (sums.send, sends, sums.max_send)):
        assert abs(value - math.fsum(terms)) <= SUM_DRIFT * largest
    assert max(map(abs, xs)) <= sums.max_x < 1.0  # the 1e200 overshoot is forgotten
    assert max(map(abs, ys)) <= sums.max_y and max(sends) <= sums.max_send


# --- cold start -----------------------------------------------------------------

def test_cold_ramp_doubles_every_epoch():
    ctrl = IrisController()
    start = ctrl.current_rate
    for i in range(3):
        ctrl.on_epoch(NOTHING_SENT, 50.0 * (i + 1))
    assert ctrl.current_rate == pytest.approx(8.0 * start)
    assert ctrl.phase is Phase.COLD_START


def cold_state(rate):
    ctrl = IrisController()
    ctrl.current_rate = rate
    return ctrl


def test_cold_ramp_caps_at_ceiling_then_exits():
    ctrl = cold_state(0.4 * RATE_CEILING)
    ctrl.on_epoch(NOTHING_SENT, 50.0)
    assert ctrl.current_rate == pytest.approx(0.8 * RATE_CEILING)
    ctrl.on_epoch(NOTHING_SENT, 100.0)
    assert ctrl.current_rate == RATE_CEILING
    ctrl.on_epoch(NOTHING_SENT, 150.0)
    assert ctrl.phase is Phase.STEADY
    assert ctrl.k == K_MIN  # no data: conservative slope


def test_cold_ceiling_exit_installs_plain_fit_of_quiet_ramp():
    # A quiet ramp history: the gate rejects it at a loss burst, but the
    # rate ceiling forces the exit with its ordinary least-squares fit.
    ctrl = IrisController()
    xs, ys = [], []
    now = 0.0
    for i in range(10):
        now += 50.0
        diff = 1e-4 * (1 + i % 3) * (1 if i % 2 == 0 else -1)
        delta = 2.0 * diff + 1e-5 * (i % 4)
        xs.append(diff)
        ys.append(delta)
        push(ctrl, now, 1.0 + diff, 1.0, delta)
    ctrl.current_rate = RATE_CEILING / 2.0
    now += 50.0
    ctrl.on_epoch(feedback(index=10, end=now, dropped=30, measured=False), now)
    assert ctrl.phase is Phase.COLD_START and ctrl.applied_fits == []  # gate rejected
    for _ in range(3):  # a quarter -> half -> all of the ceiling, then the exit there
        now += 50.0
        ctrl.on_epoch(NOTHING_SENT, now)
    assert ctrl.phase is Phase.STEADY
    ref = statistics.linear_regression(xs, ys)
    (time, fit), = ctrl.applied_fits
    assert time == now
    assert fit.n == 10
    assert fit.k == pytest.approx(ref.slope, rel=1e-9)
    assert fit.b == pytest.approx(ref.intercept, rel=1e-9, abs=1e-12)
    assert fit.plcc == pytest.approx(statistics.correlation(xs, ys), rel=1e-9)
    assert ctrl.k == fit.k
    assert ctrl.current_rate == 1.0  # lands on the last known receiving rate


def test_cold_backoff_on_early_loss_burst():
    ctrl = cold_state(1.0)
    entry = decide(ctrl, feedback(send=1.0, rtt=60.0, dropped=25), 50.0)
    assert entry.rate == pytest.approx(0.5)
    assert ctrl.phase is Phase.COLD_START


def test_cold_ignores_steady_background_loss():
    ctrl = cold_state(1.0)
    entry = decide(ctrl, feedback(send=1.0, rtt=50.0, dropped=1), 50.0)
    assert entry.rate == pytest.approx(2.0)  # 2% loss
    entry = decide(ctrl, feedback(index=1, send=2.0, rtt=50.0, end=100.0, sent=250, dropped=7),
                   100.0)  # 2.8%: above threshold but no jump over the last epoch
    assert entry.rate == pytest.approx(4.0)
    assert ctrl.phase is Phase.COLD_START


def test_cold_loss_jump_below_severe_is_a_burst():
    # 10% loss after a clean epoch: a jump over the previous epoch's
    # loss rate, though below COLD_LOSS_SEVERE, so the probe backs off.
    ctrl = cold_state(1.0)
    assert decide(ctrl, feedback(send=1.0), 50.0).rate == pytest.approx(2.0)
    entry = decide(ctrl, feedback(index=1, send=2.0, end=100.0, sent=100, dropped=10), 100.0)
    assert entry.rate == pytest.approx(1.0)
    assert ctrl.phase is Phase.COLD_START


def test_cold_saturated_loss_keeps_backing_off():
    ctrl = cold_state(8.0)
    ctrl.on_epoch(feedback(send=8.0, rtt=90.0, dropped=45), 50.0)
    assert ctrl.current_rate == pytest.approx(4.0)
    # No epoch-over-epoch jump, but the rate is pinned at severe loss:
    # the burst must re-fire rather than let doubling resume.
    ctrl.on_epoch(feedback(index=1, send=4.0, rtt=90.0, end=100.0, dropped=44), 100.0)
    assert ctrl.current_rate == pytest.approx(2.0)
    assert ctrl.phase is Phase.COLD_START


def test_cold_exit_requires_informative_history():
    # Plenty of samples, but all quiet: a burst must back off, not exit.
    ctrl = IrisController()
    now = 0.0
    for i in range(10):
        now += 50.0
        diff = 1e-4 if i % 2 == 0 else -1e-4
        push(ctrl, now, 1.0 + diff, 1.0, 2.0 * diff)
    ctrl.current_rate = 1.0
    ctrl.on_epoch(feedback(index=10, end=now + 50.0, dropped=30, measured=False),
                    now + 50.0)  # 60% loss, nothing ACKed
    assert ctrl.phase is Phase.COLD_START
    assert ctrl.current_rate == pytest.approx(0.5)


def test_cold_exit_fits_slope_from_ramp():
    # A first epoch at 0.05 pkt/ms primes the estimator, then the ramp
    # doubles from 0.1 to 25.6 pkt/ms into a 2 pkt/ms bottleneck whose
    # RTT grows 24 ms per pkt/ms of overshoot, and the next epoch, at
    # 51.2 pkt/ms, loses half its packets.
    ctrl = cold_state(0.05)
    sends = [0.05 * 2.0 ** i for i in range(11)]
    *ramp, burst = ack_driven([(send, min(send, 2.0), 24.0 * (send - min(send, 2.0)))
                               for send in sends])
    for fb in ramp:
        assert fb.send_rate == ctrl.current_rate
        ctrl.on_epoch(fb, fb.end)
    assert ctrl.phase is Phase.COLD_START
    entry = decide(ctrl, burst._replace(acked=25, dropped=25), burst.end)
    assert ctrl.phase is Phase.STEADY
    assert ctrl.k == pytest.approx(24.0, rel=0.2)
    # The exit step is logged as cold start, with the slope it started from.
    assert entry.phase is Phase.COLD_START and entry.k == K_MIN
    assert ctrl.current_rate == pytest.approx(2.0)  # lands on the receiving rate
    assert len(ctrl.applied_fits) == 1


# --- feedback and parameter validation --------------------------------------------

def test_feedback_rejects_bad_values():
    with pytest.raises(ValueError):
        feedback(send=-1.0)
    with pytest.raises(ValueError):
        feedback(rtt=0.0)
    with pytest.raises(ValueError):
        feedback(rtt=math.nan)
    with pytest.raises(ValueError):
        feedback(last_ack=-math.inf)
    with pytest.raises(ValueError):
        feedback(rtt=math.inf)
    with pytest.raises(ValueError):
        feedback(last_ack=math.nan)
    for send in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            feedback(send=send)
        with pytest.raises(ValueError, match="finite"):
            feedback(send=send, sent=0, measured=False)
    with pytest.raises(ValueError, match="finite"):
        feedback(last_ack=math.inf)
    # An ACK time exists exactly when an ACK came back.
    with pytest.raises(ValueError, match="last_ack"):
        feedback()._replace(last_ack=None)
    unmeasured = feedback(sent=0, measured=False)
    assert unmeasured.mean_rtt is None and unmeasured.last_ack is None
    with pytest.raises(ValueError, match="last_ack"):
        unmeasured._replace(last_ack=1.0)
    with pytest.raises(ValueError, match="last_ack"):
        unmeasured._replace(last_ack=0.0)


@pytest.mark.parametrize("changes, match", [
    ({"send_rate": -1.0}, "finite"),
    ({"send_rate": math.nan}, "finite"),
    ({"send_rate": math.inf}, "finite"),
    ({"last_ack": -math.inf}, "finite"),
    ({"last_ack": math.inf}, "finite"),
    ({"last_ack": None}, "last_ack"),
    ({"mean_rtt": 0.0}, "mean_rtt"),
    ({"mean_rtt": math.nan}, "mean_rtt"),
    ({"mean_rtt": math.inf}, "mean_rtt"),
    ({"last_ack": math.nan}, "finite"),
    ({"mean_rtt": -1.0}, "mean_rtt"),
    ({"mean_rtt": -math.inf}, "mean_rtt"),
])
def test_feedback_make_and_replace_check_like_the_constructor(changes, match):
    good = feedback()
    fields = {**good._asdict(), **changes}
    with pytest.raises(ValueError, match=match):
        EpochFeedback(**fields)
    with pytest.raises(ValueError, match=match):
        EpochFeedback._make(fields.values())
    with pytest.raises(ValueError, match=match):
        good._replace(**changes)
    assert EpochFeedback._make(good) == good


def test_feedback_is_immutable():
    fb = feedback()
    with pytest.raises(AttributeError):
        fb.last_ack = 2.0
    with pytest.raises(AttributeError):
        fb.extra = 1


@pytest.mark.parametrize("kwargs", [
    *({name: value}
      for name in ("epoch_len", "queue_load_target", "objective_scale", "rtt_step_bound")
      for value in (0.0, math.nan, math.inf)),
    # Infinity reads as "never" for these two, so only minus infinity is out.
    *({name: value}
      for name in ("k_update_period", "rtt_window")
      for value in (0.0, math.nan, -math.inf)),
])
def test_params_validation(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        IrisController(**kwargs)


# --- simulator-facing adapter ---------------------------------------------------

def test_adapter_holds_rate_on_unmeasured_epoch():
    ctrl = IrisController()
    ctrl.phase = Phase.STEADY
    ctrl.k = 2.0
    ctrl.current_rate = 1.5
    rate = ctrl.on_epoch(NOTHING_SENT, 50.0)
    assert rate == 1.5
    entry = ctrl.decisions[-1]
    assert entry.measured is False and entry.rtt is None
    assert entry.phase is Phase.STEADY and entry.k == 2.0 and entry.objective is None


def test_steady_decision_record_holds_what_the_control_law_gives():
    ctrl = IrisController(queue_load_target=4.0)
    ctrl.phase = Phase.STEADY
    ctrl.k = 0.1
    decide(ctrl, feedback(rtt=50.0, end=50.0, last_ack=100.0), 50.0)
    entry = decide(ctrl, feedback(index=1, send=2.0, rtt=58.0, end=100.0, last_ack=140.0), 110.0)
    # 100 packets over the 40 ms from the last measured epoch's ACK.
    recv = 2.5
    objective = compute_objective(2.0, 58.0, 50.0, 4.0)
    rtt_step = expected_rtt_variation(objective, 3.0, 100.0)
    k_used = effective_slope(0.1, 58.0, 50.0, 3.0, 100.0)
    assert k_used > 0.1  # the gain bound lifted the slope
    assert entry._asdict() == {
        "time": 110.0,
        "epoch_index": 1,
        "phase": Phase.STEADY,
        "rate": next_sending_rate(recv, rtt_step, k_used),
        "k": k_used,
        "measured": True,
        "rtt": 58.0,
        "target_delay": 50.0,
        "objective": objective,
        "rtt_step": rtt_step,
        "recv_rate": recv,
        "contraction": gap_contraction_factor(58.0, 50.0, k_used, 3.0, 100.0),
    }
    assert ctrl.current_rate == entry.rate
    # An unmeasured steady epoch logs only the held rate, slope and target.
    held = decide(ctrl, feedback(index=2, end=150.0, measured=False), 160.0)
    assert held == (160.0, 2, Phase.STEADY, entry.rate, 0.1, False, None, 50.0,
                    None, None, None, None)
    # A cold epoch logs its measurement but none of the steady law's terms.
    cold = decide(IrisController(), feedback(rtt=40.0, end=50.0), 50.0)
    assert cold == (50.0, 0, Phase.COLD_START, 2 * INITIAL_RATE, K_MIN, True, 40.0, 40.0,
                    None, None, 1.0, None)


def test_adapter_cold_doubles_then_logs():
    ctrl = IrisController()
    start = ctrl.start_rate()
    rate = ctrl.on_epoch(feedback(), 50.0)
    assert rate == pytest.approx(2.0 * start)
    assert ctrl.decisions[-1].phase is Phase.COLD_START


def test_adapter_contraction_logged_only_in_steady_state():
    ctrl = IrisController()
    ctrl.on_epoch(feedback(), 50.0)
    assert ctrl.decisions[-1].contraction is None
    ctrl.phase = Phase.STEADY
    ctrl.k = 3.0
    ctrl.on_epoch(feedback(index=1, rtt=55.0, end=100.0), 100.0)
    entry = ctrl.decisions[-1]
    assert entry.contraction is not None and entry.contraction < 1.0


def test_benchmark_counts_the_fits_the_controllers_adopted():
    # The benchmark's tracer counts `fits_adopted` through each iris
    # controller's `state.applied_fits`; it must count the adopted fits.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    tracer = layers.Tracer(count_heap=True)
    tracer.run(netsim.run_scenario, scenario(make_link(mbps=10, queue=52), (flow("iris"),), 2000.0))
    adopted = sum(len(c.applied_fits) for c in tracer.iris)
    assert tracer.exact_counts()["fits_adopted"] == adopted > 0
