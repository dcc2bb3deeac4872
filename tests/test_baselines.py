"""Reference controllers: AIMD window arithmetic, Vegas band walking,
and their characteristic behaviour on a shared bottleneck."""

import math
import statistics

import pytest

from conftest import feedback, flow, make_link, scenario
from iriscc.baselines import (
    AimdController,
    AimdState,
    ConstantRateController,
    VegasController,
    VegasState,
    aimd_on_ack,
    aimd_on_loss,
    vegas_update,
)
from iriscc.metrics import mean_rtt, mean_throughput
from iriscc.netsim import run_scenario


# --- AIMD window arithmetic ---------------------------------------------------

def test_aimd_loss_halves_window():
    state = AimdState(cwnd=10.0, ssthresh=1e9, rtt_est=100.0)
    aimd_on_loss(state)
    assert state.cwnd == 5.0
    assert state.ssthresh == 5.0
    aimd_on_ack(state)  # cwnd == ssthresh: avoidance, one packet per window
    assert state.cwnd == pytest.approx(5.2)


def test_aimd_loss_never_drops_below_one_packet():
    state = AimdState(cwnd=1.5, ssthresh=1.5, rtt_est=100.0)
    aimd_on_loss(state)
    assert state.cwnd == 1.0
    aimd_on_loss(state)
    assert state.cwnd == 1.0


def test_aimd_ack_exponential_below_ssthresh():
    state = AimdState(cwnd=3.0, ssthresh=1e9, rtt_est=100.0)
    aimd_on_ack(state)
    assert state.cwnd == 4.0
    assert state.ssthresh == 1e9
    aimd_on_ack(state)  # still below ssthresh: another whole packet
    assert state.cwnd == 5.0


def test_aimd_ack_linear_above_ssthresh():
    state = AimdState(cwnd=10.0, ssthresh=5.0, rtt_est=100.0)
    aimd_on_ack(state)
    assert state.cwnd == pytest.approx(10.1)


def test_aimd_ack_crosses_into_avoidance():
    state = AimdState(cwnd=9.5, ssthresh=10.0, rtt_est=100.0)
    aimd_on_ack(state)
    assert state.cwnd == 10.5
    aimd_on_ack(state)  # now above ssthresh: 1/cwnd per ACK
    assert state.cwnd == pytest.approx(10.5 + 1.0 / 10.5)
    assert state.ssthresh == 10.0


def test_aimd_controller_one_halving_per_epoch():
    ctrl = AimdController(initial_cwnd=16.0)
    ctrl.on_epoch(feedback(dropped=5, rtt=100.0), 50.0)
    assert ctrl.state.cwnd == 8.0  # five drops, one multiplicative decrease


def test_aimd_controller_smooths_rtt():
    ctrl = AimdController(initial_cwnd=16.0, initial_rtt=100.0)
    ctrl.on_epoch(feedback(rtt=60.0, acked=0, sent=0), 50.0)
    assert ctrl.state.rtt_est == pytest.approx(95.0)  # 100 + 0.125*(60-100)


def test_aimd_controller_rate_is_window_over_rtt():
    ctrl = AimdController(initial_cwnd=10.0, initial_rtt=100.0)
    assert ctrl.start_rate() == pytest.approx(0.1)
    rate = ctrl.on_epoch(feedback(rtt=100.0, acked=3), 50.0)
    assert rate == pytest.approx(13.0 / 100.0)  # three slow-start increments


def test_aimd_controller_rejects_tiny_window():
    with pytest.raises(ValueError):
        AimdController(initial_cwnd=0.5)


# --- Vegas band walking -------------------------------------------------------

def test_vegas_tracks_minimum_rtt():
    state = VegasState(cwnd=10.0, base_rtt=math.inf, alpha=2.0, beta=4.0)
    vegas_update(state, 50.0)
    assert state.base_rtt == 50.0
    vegas_update(state, 80.0)
    assert state.base_rtt == 50.0
    vegas_update(state, 45.0)
    assert state.base_rtt == 45.0


def test_vegas_grows_when_queue_share_below_band():
    state = VegasState(cwnd=10.0, base_rtt=50.0, alpha=2.0, beta=4.0)
    vegas_update(state, 50.0)  # no queueing observed
    assert state.cwnd == 11.0


def test_vegas_shrinks_when_queue_share_above_band():
    state = VegasState(cwnd=10.0, base_rtt=50.0, alpha=2.0, beta=4.0)
    vegas_update(state, 100.0)  # ~5 of its packets queued
    assert state.cwnd == 9.0


def test_vegas_holds_inside_band():
    state = VegasState(cwnd=18.0, base_rtt=50.0, alpha=2.0, beta=4.0)
    vegas_update(state, 60.0)  # 18 * (1 - 50/60) = 3 queued
    assert state.cwnd == 18.0


def test_vegas_window_floor():
    state = VegasState(cwnd=1.0, base_rtt=10.0, alpha=0.1, beta=0.2)
    vegas_update(state, 100.0)
    assert state.cwnd == 1.0


def test_vegas_controller_validation():
    with pytest.raises(ValueError):
        VegasController(alpha=4.0, beta=2.0)
    with pytest.raises(ValueError):
        VegasController(initial_cwnd=0.0)


def test_vegas_controller_holds_on_unmeasured_epoch():
    ctrl = VegasController(initial_cwnd=10.0, initial_rtt=100.0)
    rate = ctrl.on_epoch(feedback(measured=False, acked=0, sent=0), 50.0)
    assert rate == pytest.approx(0.1)
    assert ctrl.state.cwnd == 10.0


# --- constant-rate sender -------------------------------------------------------

def test_constant_rate_is_constant():
    ctrl = ConstantRateController(rate=0.5)
    assert ctrl.start_rate() == 0.5
    assert ctrl.on_epoch(feedback(), 50.0) == 0.5


def test_constant_rate_rejects_nonpositive():
    with pytest.raises(ValueError):
        ConstantRateController(rate=0.0)
    with pytest.raises(ValueError):
        ConstantRateController(rate=-1.0)


# --- behaviour on a simulated bottleneck ------------------------------------------

def test_vegas_keeps_a_few_packets_queued():
    sc = scenario(make_link(mbps=20, queue=200, seed=3), [flow("vegas")], 20_000.0)
    trace = run_scenario(sc)[0]
    rows = trace.rows_between(10_000.0, 20_000.0)
    occupancy = statistics.mean(r.queue for r in rows)
    assert 1.0 <= occupancy <= 6.0


def test_aimd_fills_deep_buffers_vegas_does_not():
    link = make_link(mbps=20, queue=200, seed=3)
    rtts = {}
    for kind in ("aimd", "vegas"):
        trace = run_scenario(scenario(link, [flow(kind)], 20_000.0))[0]
        rtts[kind] = mean_rtt(trace, 10_000.0, 20_000.0)
    assert rtts["aimd"] > rtts["vegas"] + 10.0


def test_loss_based_sender_starves_delay_based_sender():
    sc = scenario(make_link(mbps=20, queue=200, seed=3),
                  [flow("aimd"), flow("vegas")], 30_000.0)
    traces = run_scenario(sc)
    aimd_rate = mean_throughput(traces[0], 15_000.0, 30_000.0)
    vegas_rate = mean_throughput(traces[1], 15_000.0, 30_000.0)
    share = vegas_rate / (aimd_rate + vegas_rate)
    assert 0.02 < share < 0.3
