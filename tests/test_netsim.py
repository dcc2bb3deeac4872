"""Event-driven bottleneck simulation: queue mechanics, epoch release,
accounting identities, and determinism."""

import itertools
import json
import math
import random

import pytest

from conftest import flow, make_link, scenario, watch_refills
from diffcheck import random_scenario
from iriscc import baselines, controller, netsim
from iriscc.metrics import mean_throughput
from iriscc.netsim import Simulation, run_scenario
from iriscc.scenario import CONTROLLER_KINDS, ScenarioError, scenario_from_dict
from iriscc.trace import write_trace_csv
from test_golden import SCENARIOS as GOLDEN


# --- drop-tail queue -------------------------------------------------------------
#
# The FIFO's rules, seen through whole runs.  One constant flow sends at
# most one packet per epoch over a 2 pkt/ms link, so each packet holds
# the server for 0.5 ms, and every time is binary-exact: each closed
# epoch's trace row is one packet's fate, with the occupancy it found,
# and its RTT less the round trip is its wait for service.

RTPROP = 0.5  # 0.25 ms each way


def tiny_link(capacity=2, loss=0.0, sched=((0.0, 2.0),)):
    return make_link(sched=sched, queue=capacity, loss=loss)


def fifo_run(link, rate=8.0, epoch_len=0.125, duration=3.0):
    """A Simulation of one constant flow; with the defaults it sends one
    packet at the start of each 0.125 ms epoch."""
    return Simulation(scenario(link, [flow("constant", prop=RTPROP / 2, rate=rate,
                                           epoch_len=epoch_len)], duration))


def packet_fates(sim):
    """Per packet of a closed epoch: the occupancy it found on arrival and
    its wait for service, or None when it was dropped."""
    return [(row.queue, None if row.drops else row.rtt - RTPROP)
            for row in sim.run()[0].rows if row.send_rate]


def service_starts(sim, count):
    """Service starts of the first ``count`` packets, sent every 0.125 ms."""
    waits = [wait for _, wait in packet_fates(sim)[:count]]
    return [0.125 * i + wait for i, wait in enumerate(waits)]


def test_queue_serves_immediately_when_idle():
    assert packet_fates(fifo_run(tiny_link()))[0] == (0.0, 0.0)


def test_queue_waits_behind_in_service_packet():
    # The first packet holds the server until 0.5 ms; the packet sent at
    # 0.125 waits for it, and the next arrival finds both.
    fates = packet_fates(fifo_run(tiny_link()))
    assert fates[1] == (1.0, 0.375)
    assert fates[2][0] == 2.0


def test_queue_drop_tail_at_capacity():
    # Two packets fill the queue until the first leaves at 0.5 ms; the
    # packet sent then finds one and waits for it until 1.0 ms.
    fates = packet_fates(fifo_run(tiny_link(capacity=2)))
    assert fates[:5] == [(0.0, 0.0), (1.0, 0.375), (2.0, None), (2.0, None), (1.0, 0.5)]


def test_queue_next_starts_at_previous_departure():
    assert service_starts(fifo_run(tiny_link(capacity=3)), 3) == [0.0, 0.5, 1.0]


class FakeRng:
    """Deterministic stand-in for random.Random in queue tests."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return next(self._values)


def test_queue_random_loss_decided_before_overflow():
    # Four packets; one draw each.  The third finds the queue full, but
    # the loss draw fires first; the fourth draws no loss and overflows.
    sim = fifo_run(tiny_link(capacity=2, loss=0.5), duration=0.375)
    sim._rng = FakeRng([0.9, 0.9, 0.01, 0.99])
    totals = sim.run()[0].totals
    assert (totals.sent, totals.in_flight) == (4, 2)
    assert (totals.dropped_random, totals.dropped_overflow) == (1, 1)


def test_queue_rate_change_applies_to_next_service():
    # The first packet is in service across the change at 0.3 ms, so it
    # takes 0.5 ms; the second starts at 0.5 at the new rate: 0.25 ms.
    sim = fifo_run(tiny_link(capacity=3, sched=((0.0, 2.0), (0.3, 4.0))))
    assert service_starts(sim, 3) == [0.0, 0.5, 0.75]


def test_queue_change_at_a_start_applies_from_the_next_packet():
    # The second packet starts exactly at the change: old rate.
    sim = fifo_run(tiny_link(capacity=3, sched=((0.0, 2.0), (0.5, 4.0))))
    assert service_starts(sim, 3) == [0.0, 0.5, 1.0]


def test_queue_counts_a_packet_departing_now():
    # 0.375 ms epochs paced at 0.5 ms: packets at 0, 0.5 and 1.0, and
    # no timer at 0.5.  The packet arriving as the first departs finds
    # it still queued; by 1.0 the queue is empty.
    fates = packet_fates(fifo_run(tiny_link(capacity=1), rate=2.0, epoch_len=0.375))
    assert fates[:3] == [(0.0, 0.0), (1.0, None), (0.0, 0.0)]


def test_queue_retire_through_forgets_a_departure_now():
    # 0.5 ms epochs: the timer at 0.5 retires the departure at 0.5, so
    # the packet it emits then is served at once.
    fates = packet_fates(fifo_run(tiny_link(capacity=1), rate=2.0, epoch_len=0.5))
    assert fates[:2] == [(0.0, 0.0), (0.0, 0.0)]


# --- end-to-end accounting ---------------------------------------------------------

def test_uncongested_rtt_is_exactly_propagation():
    sc = scenario(make_link(sched=((0.0, 2.0),), prop=25.0),
                  [flow("constant", rate=0.5)], 10_000.0)
    trace = run_scenario(sc)[0]
    assert trace.rows
    assert {row.rtt for row in trace.rows} == {50.0}
    assert trace.totals.dropped_overflow == 0
    assert trace.totals.dropped_random == 0


def test_overload_conserves_every_packet():
    sc = scenario(make_link(sched=((0.0, 2.0),), queue=100),
                  [flow("constant", rate=4.0)], 10_000.0)
    trace = run_scenario(sc)[0]
    t = trace.totals
    assert t.dropped_overflow > 0
    assert t.sent == t.delivered + t.dropped_overflow + t.dropped_random + t.in_flight


def test_overloaded_link_delivers_at_capacity():
    sc = scenario(make_link(sched=((0.0, 2.0),), queue=100),
                  [flow("constant", rate=4.0)], 10_000.0)
    trace = run_scenario(sc)[0]
    assert mean_throughput(trace, 5_000.0, 10_000.0) == pytest.approx(2.0, rel=1e-3)


def test_bandwidth_schedule_takes_effect():
    link = make_link(sched=((0.0, 2.0), (5_000.0, 1.0)))
    sc = scenario(link, [flow("constant", rate=1.8)], 12_000.0)
    trace = run_scenario(sc)[0]
    assert mean_throughput(trace, 1_000.0, 5_000.0) == pytest.approx(1.8, rel=1e-2)
    assert mean_throughput(trace, 7_000.0, 12_000.0) == pytest.approx(1.0, rel=1e-2)


def test_zero_duration_produces_no_rows():
    sc = scenario(make_link(), [flow("constant", rate=1.0)], 0.0)
    assert run_scenario(sc)[0].rows == []


def test_flow_specific_propagation_delay():
    sc = scenario(make_link(prop=25.0),
                  [flow("constant", rate=0.1, prop=75.0)], 5_000.0)
    trace = run_scenario(sc)[0]
    assert {row.rtt for row in trace.rows} == {150.0}


# --- determinism ----------------------------------------------------------------

def lossy_scenario(seed):
    return scenario(make_link(sched=((0.0, 2.0),), loss=0.05, seed=seed),
                    [flow("constant", rate=1.0)], 10_000.0)


def test_same_seed_reproduces_rows_exactly():
    first = run_scenario(lossy_scenario(7))[0]
    second = run_scenario(lossy_scenario(7))[0]
    assert first.rows == second.rows
    assert first.totals == second.totals
    assert first.totals.dropped_random > 0


def test_different_seed_changes_loss_pattern():
    first = run_scenario(lossy_scenario(7))[0]
    second = run_scenario(lossy_scenario(8))[0]
    assert first.rows != second.rows


# --- runaway guards ---------------------------------------------------------------

class BrokenController:
    kind = "broken"
    epoch_len = 50.0

    def start_rate(self):
        return 1.0

    def on_epoch(self, feedback, now):
        return 0.0


def test_nonpositive_controller_rate_is_fatal():
    sc = scenario(make_link(), [flow("constant", rate=1.0)], 1_000.0)
    sim = Simulation(sc)
    sim.flows[0].controller = BrokenController()
    with pytest.raises(RuntimeError, match="non-positive"):
        sim.run()


class InfiniteController(BrokenController):
    def on_epoch(self, feedback, now):
        return math.inf


def test_infinite_controller_rate_is_fatal_before_the_next_epoch_sends():
    # An infinite rate paces with no gap, so the next epoch would send a
    # million packets at one instant before the emission guard tripped.
    # Epoch 0's last ACK is due at 99 ms: it is released at the 100 ms
    # timer, which stops before epoch 2 sends anything.
    sc = scenario(make_link(), [flow("constant", rate=1.0)], 1_000.0)
    sim = Simulation(sc)
    sim.flows[0].controller = InfiniteController()
    with pytest.raises(RuntimeError, match="non-positive or non-finite rate: inf"):
        sim.run()
    assert [acc.planned for acc in sim.flows[0].epochs] == [50]


class InfiniteStartController(BrokenController):
    def start_rate(self):
        return math.inf


def test_infinite_start_rate_is_fatal_at_construction(monkeypatch):
    # The first epoch's chain could not pace an infinite start rate.
    monkeypatch.setattr(netsim, "build_controller",
                        lambda spec, flow_index, packet_bytes: InfiniteStartController())
    sc = scenario(make_link(), [flow("constant", rate=1.0)], 1_000.0)
    with pytest.raises(RuntimeError, match="non-positive or non-finite rate: inf"):
        Simulation(sc)


@pytest.mark.parametrize("limit", [50, 49])
def test_emission_guard_allows_exactly_its_limit(limit, monkeypatch):
    # A 1 pkt/ms flow sends 50 packets in every 50 ms epoch.
    monkeypatch.setattr(netsim, "_MAX_EMISSIONS_PER_EPOCH", limit)
    sc = scenario(make_link(), [flow("constant", rate=1.0)], 1_000.0)
    if limit == 50:
        assert run_scenario(sc)[0].totals.sent == 1001
        return
    with pytest.raises(RuntimeError) as excinfo:
        run_scenario(sc)
    assert str(excinfo.value) == "flow 0 emission rate exploded (1.0/ms)"


def test_emission_guard_counts_only_arrivals_within_the_run(monkeypatch):
    # The run ends 30 ms into its one 50 ms epoch: the chain paces 50
    # packets, but only the 31 at 0, 1, ..., 30 ms are within the run.
    monkeypatch.setattr(netsim, "_MAX_EMISSIONS_PER_EPOCH", 31)
    sc = scenario(make_link(), [flow("constant", rate=1.0)], 30.0)
    sim = Simulation(sc)
    assert sim.flows[0].epoch_len * sim.flows[0].rate == 50 > netsim._MAX_EMISSIONS_PER_EPOCH
    assert sim.run()[0].totals.sent == 31


def test_emission_budget_guard(monkeypatch):
    monkeypatch.setattr(netsim, "_MAX_EMISSIONS_PER_EPOCH", 10)
    sc = scenario(make_link(), [flow("constant", rate=1.0)], 1_000.0)
    with pytest.raises(RuntimeError) as excinfo:
        run_scenario(sc)
    assert str(excinfo.value) == "flow 0 emission rate exploded (1.0/ms)"


def test_simulation_runs_only_once():
    sim = Simulation(scenario(make_link(), [flow("constant", rate=0.5)], 500.0))
    sim.run()
    with pytest.raises(RuntimeError):
        sim.run()


@pytest.mark.parametrize("kind", ["vegas", "iris", "aimd"])
def test_an_rtt_that_rounds_to_zero_is_fatal(kind):
    # A 2e-12 ms round trip rounds away against a 2e7 ms clock, so an
    # unqueued packet measures an RTT of 0.  The simulator builds its
    # feedback unchecked, except for this: the run stops with the
    # feedback constructor's error before a controller sees the RTT.
    sc = scenario(make_link(mbps=1.0, prop=1e-12), [flow(kind, start=2e7)], 2e7 + 300.0)
    with pytest.raises(ValueError, match="mean_rtt must be positive"):
        run_scenario(sc)


# --- controller construction from flow specs -------------------------------------

def build(spec_flow):
    return netsim.build_controller(spec_flow, 0, 1200)


def test_build_iris_rejects_bad_target_mode():
    with pytest.raises(ScenarioError) as excinfo:
        build(flow("iris", target_mode="min"))
    assert str(excinfo.value) == "flows[0].params.target_mode: unknown parameter"
    assert excinfo.value.field == "flows[0].params.target_mode"


def test_build_rejects_unknown_controller():
    with pytest.raises(ScenarioError) as excinfo:
        build(flow("reno"))
    assert str(excinfo.value) == "flows[0].controller: unknown controller 'reno'"
    assert excinfo.value.field == "flows[0].controller"


def test_build_knows_exactly_the_scenario_kinds():
    # scenario names the kinds without importing the controllers, so
    # the two lists are kept apart and must agree.
    assert sorted(netsim._CONTROLLERS) == sorted(CONTROLLER_KINDS)


@pytest.mark.parametrize("name, value", [
    ("epoch_len", 20.0), ("queue_load_target", 5.0), ("objective_scale", 50.0),
    ("rtt_step_bound", 1.5), ("k_update_period", 2000.0), ("rtt_window", 3000.0),
])
def test_build_passes_each_iris_knob_to_its_attribute(name, value):
    assert getattr(build(flow("iris", **{name: value})), name) == value


def test_build_rejects_unknown_parameter():
    with pytest.raises(ScenarioError) as excinfo:
        build(flow("iris", warp_factor=9))
    assert excinfo.value.field == "flows[0].params.warp_factor"
    with pytest.raises(ScenarioError):
        build(flow("aimd", warp_factor=9))


def test_build_constant_accepts_mbps():
    ctrl = build(flow("constant", rate_mbps=9.6))
    assert ctrl.rate == pytest.approx(1.0)


def test_build_constant_needs_exactly_one_rate_key():
    with pytest.raises(ScenarioError):
        build(flow("constant"))
    with pytest.raises(ScenarioError):
        build(flow("constant", rate=1.0, rate_mbps=9.6))


def test_build_surfaces_controller_validation_errors():
    with pytest.raises(ScenarioError):
        build(flow("iris", queue_load_target=-1.0))
    with pytest.raises(ScenarioError):
        build(flow("vegas", alpha=5.0, beta=2.0))


@pytest.mark.parametrize("controller, params, name", [
    ("iris", {"epoch_len": "50"}, "epoch_len"),
    ("iris", {"queue_load_target": True}, "queue_load_target"),
    ("iris", {"rtt_step_bound": [0.1]}, "rtt_step_bound"),
    ("vegas", {"alpha": None}, "alpha"),
    ("aimd", {"initial_cwnd": "10"}, "initial_cwnd"),
    ("constant", {"rate": "1.0"}, "rate"),
    ("constant", {"rate_mbps": {}}, "rate_mbps"),
])
def test_build_rejects_non_numeric_params(controller, params, name):
    with pytest.raises(ScenarioError, match="must be a number") as excinfo:
        build(flow(controller, **params))
    assert excinfo.value.field == f"flows[0].params.{name}"


@pytest.mark.parametrize("name", [
    "k_min", "history_cap", "rate_floor", "initial_rate", "cold_loss_threshold",
    "cold_loss_jump", "cold_loss_severe", "cold_backoff", "cold_fit_samples",
    "rate_ceiling", "min_fit_samples", "min_fit_plcc", "excitation_floor", "contraction_cap",
])
def test_build_rejects_iris_constants_as_params(name):
    # Guards, gates and cold-start values are module constants, not
    # knobs: a config that sets one, even to its value, is rejected.
    with pytest.raises(ScenarioError, match="unknown parameter") as excinfo:
        build(flow("iris", **{name: getattr(controller, name.upper())}))
    assert excinfo.value.field == f"flows[0].params.{name}"


@pytest.mark.parametrize("controller, name", [
    ("aimd", "initial_ssthresh"),
    ("aimd", "initial_rtt"),
    ("vegas", "initial_rtt"),
])
def test_build_rejects_baseline_start_values_as_params(controller, name):
    # The baselines' start values are module constants, not knobs, as
    # iris's are.
    with pytest.raises(ScenarioError, match="unknown parameter") as excinfo:
        build(flow(controller, **{name: getattr(baselines, name.upper())}))
    assert excinfo.value.field == f"flows[0].params.{name}"


@pytest.mark.parametrize("controller, params", [
    ("constant", {"rate": 1.0, "epoch_len": -5.0}),
    ("constant", {"rate": 1.0, "epoch_len": math.inf}),
    ("constant", {"rate": math.nan}),
    ("aimd", {"epoch_len": 0.0}),
    ("aimd", {"epoch_len": -1.0}),
    ("aimd", {"epoch_len": math.inf}),
    ("vegas", {"epoch_len": 0.0}),
    ("vegas", {"epoch_len": math.nan}),
    ("iris", {"epoch_len": math.inf}),
])
def test_build_rejects_epoch_and_rtt_that_are_not_positive_and_finite(controller, params):
    with pytest.raises(ScenarioError) as excinfo:
        build(flow(controller, **params))
    assert excinfo.value.field == "flows[0].params"


@pytest.mark.parametrize("controller, params, name", [
    ("iris", {"k_update_period": math.nan}, "k_update_period"),
    ("iris", {"rtt_window": math.nan}, "rtt_window"),
    ("iris", {"queue_load_target": math.inf}, "queue_load_target"),
    ("iris", {"objective_scale": math.inf}, "objective_scale"),
    ("iris", {"rtt_step_bound": math.inf}, "rtt_step_bound"),
    ("iris", {"queue_load_target": math.nan}, "queue_load_target"),
    ("iris", {"objective_scale": math.nan}, "objective_scale"),
    ("iris", {"rtt_step_bound": math.nan}, "rtt_step_bound"),
    ("iris", {"epoch_len": math.nan}, "epoch_len"),
    ("aimd", {"initial_cwnd": math.nan}, "initial_cwnd"),
    ("aimd", {"initial_cwnd": math.inf}, "initial_cwnd"),
    ("aimd", {"epoch_len": math.nan}, "epoch_len"),
    ("vegas", {"alpha": math.nan}, "alpha"),
    ("vegas", {"initial_cwnd": math.nan}, "initial_cwnd"),
    ("vegas", {"initial_cwnd": math.inf}, "initial_cwnd"),
    ("vegas", {"beta": math.inf}, "beta"),
    ("vegas", {"alpha": math.inf, "beta": math.inf}, "alpha"),
])
def test_build_rejects_non_finite_knobs(controller, params, name):
    with pytest.raises(ScenarioError, match=name) as excinfo:
        build(flow(controller, **params))
    assert excinfo.value.field == "flows[0].params"


@pytest.mark.parametrize("controller, params", [
    ("iris", {"k_update_period": math.inf}),
    ("iris", {"rtt_window": math.inf}),
])
def test_build_accepts_infinity_that_reads_as_never(controller, params):
    # No periodic re-fit, no RTT sample eviction.
    build(flow(controller, **params))


def test_iris_params_flow_through_scenario():
    sc = scenario(make_link(), [flow("iris", queue_load_target=5)], 500.0)
    sim = Simulation(sc)
    assert sim.controllers[0].queue_load_target == 5.0


# --- epoch release ----------------------------------------------------------------

class RecordingController:
    """Passes feedback through to ``inner`` and keeps what it was given."""

    def __init__(self, inner):
        self.inner = inner
        self.kind = inner.kind
        self.epoch_len = inner.epoch_len
        self.received = []

    def start_rate(self):
        return self.inner.start_rate()

    def on_epoch(self, feedback, now):
        self.received.append((feedback, now))
        return self.inner.on_epoch(feedback, now)


def test_dropped_epochs_released_after_their_predecessor_carry_no_receive_estimate():
    # The link nearly stops at 1000 ms: epoch 20's four admitted packets
    # drain for two seconds while epochs 21-25 are dropped whole, so
    # those resolve first.  They are released in index order, at the
    # same instant as epoch 20, and with nothing ACKed they carry no
    # RTT or ACK time, so iris makes no receive estimate of them.
    sc = scenario(make_link(sched=((0.0, 2.0), (1000.0, 0.001)), queue=3),
                  [flow("constant", rate=0.1)], 4000.0)
    sim = Simulation(sc)
    recorder = RecordingController(sim.flows[0].controller)
    sim.flows[0].controller = recorder
    sim.run()
    by_index = {fb.index: (fb, now) for fb, now in recorder.received}
    assert [fb.index for fb, _ in recorder.received] == sorted(by_index)
    epoch20, released = by_index[20]
    assert epoch20.measured and epoch20.acked == 4
    iris = controller.IrisController()  # iris's estimator, on epochs as long
    assert iris.epoch_len == sim.flows[0].epoch_len
    estimates = {fb.index: iris._record_measurement(fb)
                 for fb, _ in recorder.received if fb.measured}
    assert estimates[20].recv_rate == pytest.approx(0.002475, abs=1e-6)
    for index in range(21, 26):
        fb, now = by_index[index]
        assert not fb.measured and fb.dropped == fb.sent > 0
        assert now == released
        assert fb.last_ack is None and index not in estimates


def test_ack_at_a_timer_instant_counts_at_that_timer():
    # One packet per 50 ms epoch over a 50 ms RTT: every ACK lands
    # exactly on the next epoch timer, and an ACK precedes a timer at
    # the same instant, so epoch 0 is measured at 50 ms, not at 100.
    sc = scenario(make_link(sched=((0.0, 2.0),), prop=25.0),
                  [flow("constant", rate=0.02)], 300.0)
    sim = Simulation(sc)
    recorder = RecordingController(sim.flows[0].controller)
    sim.flows[0].controller = recorder
    sim.run()
    released = [(fb.index, fb.sent, fb.measured, now) for fb, now in recorder.received]
    assert released == [(i, 1, True, 50.0 * (i + 1)) for i in range(6)]


def test_ack_at_the_end_of_the_run_counts_as_delivered():
    # One packet per 50 ms epoch over an idle link with a 50 ms RTT: the
    # packet sent at 250 ms is ACKed exactly at the 300 ms end of the
    # run and counts as delivered; the one sent at 300 ms is ACKed after
    # it and is still in flight.
    sc = scenario(make_link(sched=((0.0, 2.0),), prop=25.0),
                  [flow("constant", rate=0.02)], 300.0)
    totals = run_scenario(sc)[0].totals
    assert (totals.sent, totals.delivered, totals.in_flight) == (7, 6, 1)


def test_coinciding_timers_emit_in_flow_id_order():
    # Three flows send one packet per 100 ms from 0 on, so their timers
    # and their arrivals share each instant.  Arrivals at one instant
    # queue in flow-id order: flow i waits for i packets of 9.6 ms each.
    sc = scenario(make_link(mbps=1.0, prop=25.0),
                  [flow("constant", rate=0.01) for _ in range(3)], 1000.0)
    for i, trace in enumerate(run_scenario(sc)):
        rtts = [row.rtt for row in trace.rows if row.send_rate]
        assert len(rtts) == 10
        assert rtts == pytest.approx([50.0 + i * 9.6] * 10)


# Drawn by tools/diffcheck.py's random_scenario(random.Random(110)) before
# its generator changed, and pinned here so the case outlives it.
BACKLOG_SCENARIO = """
{"duration_ms": 1881.6715328671512,
 "link": {"bandwidth_schedule": [[0.0, 0.8066677227583877], [1.0, 0.001],
                                 [273.38809943694486, 0.001], [331.98344416963744, 0.001],
                                 [332.48344416963744, 1.080877103208759]],
          "prop_delay_ms": 57.05662630666165, "queue_capacity_pkts": 102,
          "random_loss": 0.06611426936934493, "seed": 372},
 "flows": [{"controller": "iris", "start_ms": 0.0, "params": {"epoch_len": 99.41973519800187},
            "prop_delay_ms": 25.822195689148618},
           {"controller": "iris", "start_ms": 465.58080590299596, "params": {"epoch_len": 20.0},
            "prop_delay_ms": 19.741901458288567},
           {"controller": "iris", "start_ms": 3.6663045715878764, "params": {"epoch_len": 50.0}}]}
"""


def watched_run(sc, path):
    """The trace bytes and totals of a run, and the most pending arrivals
    one flow held."""
    sim = Simulation(sc)
    most = [0]

    def note(flow):
        most[0] = max(most[0], len(flow.run) - flow.head)

    watch_refills(sim, note)
    traces = sim.run()
    write_trace_csv(traces, path)
    return path.read_bytes(), [trace.totals for trace in traces], most[0]


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "backlog"])
def test_segment_refills_keep_the_bytes(name, monkeypatch, tmp_path):
    # Three arrivals per segment make every flow refill all the time,
    # the backlog's flooding iris flow too: the trace and totals are
    # those of the default segment, and no flow holds more than three.
    sc = GOLDEN[name] if name in GOLDEN else scenario_from_dict(json.loads(BACKLOG_SCENARIO))
    trace, totals, _ = watched_run(sc, tmp_path / "default.csv")
    monkeypatch.setattr(netsim, "_SEGMENT", 3)
    assert watched_run(sc, tmp_path / "refilled.csv") == (trace, totals, 3)


@pytest.mark.parametrize("seed", range(30))
def test_segment_size_never_changes_the_bytes(seed, monkeypatch, tmp_path):
    # Random scenarios put delays and start times on a 5 ms grid, so a
    # segment's last arrival often ties with another flow's arrival or
    # timer.  Refilled at every arrival, a run keeps its trace and totals.
    sc = scenario_from_dict(random_scenario(random.Random(seed)))

    def run(path):
        traces = run_scenario(sc)
        write_trace_csv(traces, path)
        return path.read_bytes(), [trace.totals for trace in traces]

    default = run(tmp_path / "default.csv")
    monkeypatch.setattr(netsim, "_SEGMENT", 1)
    assert run(tmp_path / "refilled.csv") == default


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "backlog"])
def test_departure_compaction_keeps_the_bytes(name, monkeypatch, tmp_path):
    # With a compaction limit of one, the FIFO deletes its forgotten
    # departures at nearly every heap event and keeps the pending ones:
    # the trace and totals are those of the default limit.
    sc = GOLDEN[name] if name in GOLDEN else scenario_from_dict(json.loads(BACKLOG_SCENARIO))
    trace, totals, _ = watched_run(sc, tmp_path / "default.csv")
    monkeypatch.setattr(netsim, "_COMPACT", 1)
    assert watched_run(sc, tmp_path / "compacted.csv")[:2] == (trace, totals)


@pytest.mark.xfail(strict=True, reason="cold start doubles once per released epoch, "
                                       "so a backlog released at one instant compounds")
def test_backlog_released_at_one_instant_grows_the_rate_at_most_twofold():
    # Flow 1's empty cold-start epochs wait behind a slow predecessor
    # and 19 of them are released at 1065.58 ms.  With no feedback in
    # between, the rate may not grow more than one doubling there.
    sim = Simulation(scenario_from_dict(json.loads(BACKLOG_SCENARIO)))
    sim.run()
    before = controller.INITIAL_RATE
    growth = []
    for _, entries in itertools.groupby(sim.controllers[1].decisions, key=lambda e: e.time):
        rates = [entry.rate for entry in entries]
        growth.append(max(rates) / before)
        before = rates[-1]
    assert max(growth) <= 2.0


@pytest.mark.xfail(strict=True, reason="RTT samples are keyed by epoch end but evicted "
                                       "against the later release time")
def test_short_rtt_window_keeps_the_target_fresh():
    # A 1 ms RTT window is shorter than the lag from an epoch's end to
    # its release, so every sample is evicted on arrival: the target is
    # never refreshed and stays at the first steady epoch's RTT.
    sim = Simulation(scenario(make_link(mbps=20.0, prop=30.0, queue=104, seed=1),
                              [flow("iris", rtt_window=1)], 5000.0))
    iris = sim.controllers[0]
    on_epoch = iris.on_epoch
    stale = []

    def recording_on_epoch(fb, now):
        steady = iris.phase is controller.Phase.STEADY
        rate = on_epoch(fb, now)
        if steady and fb.measured:
            stale.append(iris.target_stale_epochs)
        return rate

    iris.on_epoch = recording_on_epoch
    sim.run()
    assert stale
    assert stale == [0] * len(stale)
