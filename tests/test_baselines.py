"""Reference controllers: AIMD window arithmetic, Vegas band walking,
and their characteristic behaviour on a shared bottleneck."""

import math
import statistics

import pytest

from conftest import feedback, flow, make_link, scenario
from iriscc.baselines import (
    INITIAL_RTT,
    AimdController,
    ConstantRateController,
    VegasController,
)
from iriscc.metrics import mean_rtt, mean_throughput
from iriscc.netsim import run_scenario


# Epochs measured at the initial RTT leave AIMD's smoothed RTT alone.

def loss():
    """An epoch that lost one of its two packets."""
    return feedback(rtt=INITIAL_RTT, sent=2, dropped=1)


def acks(count):
    """An epoch that ACKed ``count`` packets and lost none."""
    return feedback(rtt=INITIAL_RTT, sent=count)


def measured(rtt):
    return feedback(rtt=rtt)


def unmeasured():
    return feedback(measured=False, sent=0)


# --- AIMD window arithmetic ---------------------------------------------------

def test_aimd_loss_halves_window():
    ctrl = AimdController(initial_cwnd=10.0)
    ctrl.on_epoch(loss(), 50.0)
    assert ctrl.cwnd == 5.0
    assert ctrl.ssthresh == 5.0
    ctrl.on_epoch(acks(1), 100.0)  # cwnd == ssthresh: avoidance, one packet per window
    assert ctrl.cwnd == pytest.approx(5.2)


def test_aimd_loss_never_drops_below_one_packet():
    ctrl = AimdController(initial_cwnd=1.5)
    ctrl.on_epoch(loss(), 50.0)
    assert ctrl.cwnd == ctrl.ssthresh == 1.0
    ctrl.on_epoch(loss(), 100.0)
    assert ctrl.cwnd == ctrl.ssthresh == 1.0


def test_aimd_ack_exponential_below_ssthresh():
    ctrl = AimdController(initial_cwnd=3.0)
    ctrl.on_epoch(acks(1), 50.0)
    assert ctrl.cwnd == 4.0
    assert ctrl.ssthresh == 1e9
    ctrl.on_epoch(acks(1), 100.0)  # still below ssthresh: another whole packet
    assert ctrl.cwnd == 5.0


def test_aimd_ack_linear_above_ssthresh():
    ctrl = AimdController(initial_cwnd=10.0)
    ctrl.ssthresh = 5.0
    ctrl.on_epoch(acks(1), 50.0)
    assert ctrl.cwnd == pytest.approx(10.1)


def test_aimd_ack_crosses_into_avoidance():
    ctrl = AimdController(initial_cwnd=9.5)
    ctrl.ssthresh = 10.0
    ctrl.on_epoch(acks(2), 50.0)  # one whole packet, then 1/cwnd above ssthresh
    assert ctrl.cwnd == 10.5 + 1.0 / 10.5
    assert ctrl.ssthresh == 10.0


def test_aimd_controller_one_halving_per_epoch():
    ctrl = AimdController(initial_cwnd=16.0)
    ctrl.on_epoch(feedback(dropped=5, rtt=100.0), 50.0)
    assert ctrl.cwnd == 8.0  # five drops, one multiplicative decrease


def test_aimd_controller_smooths_rtt():
    ctrl = AimdController(initial_cwnd=16.0)
    ctrl.on_epoch(feedback(rtt=60.0, acked=0, sent=0), 50.0)
    assert ctrl.rtt_est == pytest.approx(95.0)  # 100 + 0.125*(60-100)
    ctrl.on_epoch(unmeasured(), 100.0)
    assert ctrl.rtt_est == pytest.approx(95.0)


def test_aimd_controller_rate_is_window_over_rtt():
    ctrl = AimdController(initial_cwnd=10.0)
    assert ctrl.start_rate() == pytest.approx(0.1)  # INITIAL_RTT is 100 ms
    rate = ctrl.on_epoch(feedback(rtt=100.0, acked=3), 50.0)
    assert rate == pytest.approx(13.0 / 100.0)  # three slow-start increments


def test_aimd_controller_rejects_tiny_window():
    with pytest.raises(ValueError):
        AimdController(initial_cwnd=0.5)


# --- Vegas band walking -------------------------------------------------------

def vegas(cwnd=10.0, base_rtt=50.0, alpha=2.0, beta=4.0):
    ctrl = VegasController(alpha=alpha, beta=beta, initial_cwnd=cwnd)
    ctrl.base_rtt = base_rtt
    return ctrl


def test_vegas_tracks_minimum_rtt():
    ctrl = vegas(base_rtt=math.inf)
    ctrl.on_epoch(measured(50.0), 50.0)
    assert ctrl.base_rtt == 50.0
    ctrl.on_epoch(measured(80.0), 100.0)
    assert ctrl.base_rtt == 50.0
    ctrl.on_epoch(measured(45.0), 150.0)
    assert ctrl.base_rtt == 45.0


def test_vegas_grows_when_queue_share_below_band():
    ctrl = vegas()
    ctrl.on_epoch(measured(50.0), 50.0)  # no queueing observed
    assert ctrl.cwnd == 11.0


def test_vegas_shrinks_when_queue_share_above_band():
    ctrl = vegas()
    ctrl.on_epoch(measured(100.0), 50.0)  # ~5 of its packets queued
    assert ctrl.cwnd == 9.0


def test_vegas_holds_inside_band():
    ctrl = vegas(cwnd=18.0)
    ctrl.on_epoch(measured(60.0), 50.0)  # 18 * (1 - 50/60) = 3 queued
    assert ctrl.cwnd == 18.0


@pytest.mark.parametrize("cwnd", [8.0, 16.0])
def test_vegas_holds_on_the_edges_of_the_band(cwnd):
    # 1 - 48/64 is exactly 0.25, so 8 and 16 packets put exactly alpha
    # and beta in the queue: the band is closed.
    ctrl = vegas(cwnd=cwnd, base_rtt=48.0)
    ctrl.on_epoch(measured(64.0), 50.0)
    assert ctrl.cwnd == cwnd


def test_vegas_window_floor():
    ctrl = vegas(cwnd=1.0, base_rtt=10.0, alpha=0.1, beta=0.2)
    ctrl.on_epoch(measured(100.0), 50.0)
    assert ctrl.cwnd == 1.0


def test_vegas_controller_validation():
    with pytest.raises(ValueError):
        VegasController(alpha=4.0, beta=2.0)
    with pytest.raises(ValueError):
        VegasController(initial_cwnd=0.0)


def test_vegas_controller_holds_on_unmeasured_epoch():
    ctrl = VegasController(initial_cwnd=10.0)
    assert ctrl.start_rate() == 0.1
    rate = ctrl.on_epoch(unmeasured(), 50.0)
    assert rate == pytest.approx(0.1)
    assert ctrl.cwnd == 10.0


def test_vegas_rate_is_window_over_the_latest_rtt():
    ctrl = vegas()
    assert ctrl.on_epoch(measured(50.0), 50.0) == 11.0 / 50.0
    assert ctrl.on_epoch(measured(80.0), 100.0) == 10.0 / 80.0  # 4.125 queued
    assert ctrl.on_epoch(unmeasured(), 150.0) == 10.0 / 80.0


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
