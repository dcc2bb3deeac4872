"""Simulator invariants over small seeded random scenarios, drawn by the
generator that ``tools/diffcheck.py`` also uses."""

import heapq
import random
from collections import Counter, deque

import pytest

from conftest import watch_refills
from diffcheck import random_scenario
from iriscc import netsim
from iriscc.feedback import EpochFeedback
from iriscc.netsim import Simulation
from iriscc.scenario import scenario_from_dict


def capacity_integral(schedule, duration):
    """Packets the link can serve over ``[0, duration]``."""
    ends = [start for start, _ in schedule[1:]] + [duration]
    return sum(cap * (min(end, duration) - start)
               for (start, cap), end in zip(schedule, ends) if start < duration)


def recheck_feedback(controller, checked):
    """Wrap ``controller.on_epoch`` so that it re-checks each feedback,
    which the simulator builds unchecked, and appends it to ``checked``."""
    on_epoch = controller.on_epoch

    def rechecked(fb, now):
        assert type(fb) is EpochFeedback and EpochFeedback(*fb) == fb
        checked.append(fb)
        return on_epoch(fb, now)

    controller.on_epoch = rechecked


@pytest.mark.parametrize("seed", range(30))
def test_simulator_invariants(seed):
    scenario = scenario_from_dict(random_scenario(random.Random(seed)))
    sim = Simulation(scenario)
    checked = []
    for controller in sim.controllers:
        recheck_feedback(controller, checked)
    traces = sim.run()
    assert bool(checked) == any(trace.rows for trace in traces)  # not vacuous
    link = scenario.link
    for flow, trace in zip(sim.flows, traces):
        totals = trace.totals
        assert totals.sent == (totals.delivered + totals.dropped_random
                               + totals.dropped_overflow + totals.in_flight)
        assert all(row.queue <= link.queue_capacity for row in trace.rows)
        # Sorted rows are what FlowTrace.rows_between bisects over.
        assert all(a.time <= b.time for a, b in zip(trace.rows, trace.rows[1:]))
        times = [flow.spec.start_time] + [row.time for row in trace.rows]
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert gaps == pytest.approx([flow.epoch_len] * len(gaps))
    # A capacity change applies from the next packet on, so the packet in
    # service when the capacity drops finishes at the old rate: each
    # change can add at most one packet beyond the integral, and so can
    # the last packet, still in service at the end.
    delivered = sum(trace.totals.delivered for trace in traces)
    bound = capacity_integral(link.bandwidth_schedule, scenario.duration)
    assert delivered <= bound + len(link.bandwidth_schedule)


class _Clock:
    """Notes each arrival as the loop handles it: every materialized
    arrival is rewritten as a tuple that notes its time when unpacked,
    and the loop unpacks each arrival it handles once, in order."""

    def __init__(self, sim):
        self.now = None
        self.arrivals = []
        clock = self

        class Arrival(tuple):
            def __iter__(self):
                clock.now = self[0]
                clock.arrivals.append(clock.now)
                return super().__iter__()

        def note(flow):
            flow.run = [Arrival(arrival) for arrival in flow.run]

        watch_refills(sim, note)


class _StartRecorder(deque):
    """Departure FIFO that notes each admitted packet's service start:
    the later of the last pending departure and the arrival time, or the
    arrival time when none is pending.  The loop pops departures once
    they have left, so what the FIFO holds is pending."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.starts = []

    def append(self, departure):
        self.starts.append(max(self[-1], self.clock.now) if self else self.clock.now)
        super().append(departure)


@pytest.mark.parametrize("seed", range(30))
def test_service_starts_and_ack_times_never_decrease(seed):
    # The premise of tallying each ACK when its packet is queued: a
    # flow's ACK is its service start plus a fixed round-trip
    # propagation delay, so non-decreasing starts give each flow's ACKs
    # in send order, and an epoch's latest ACK is its last admitted one.
    scenario = scenario_from_dict(random_scenario(random.Random(seed)))
    sim = Simulation(scenario)
    clock = _Clock(sim)
    sim._departures = recorder = _StartRecorder(clock)
    traces = sim.run()
    starts = recorder.starts
    assert starts
    assert all(a <= b for a, b in zip(starts, starts[1:]))
    # Packet conservation, counted apart from the simulator's own
    # totals: every arrival within the run is sent, and every admitted
    # one is delivered or still in flight.
    assert len(starts) == sum(trace.totals.delivered + trace.totals.in_flight
                              for trace in traces)
    sent = sum(1 for t in clock.arrivals if t <= scenario.duration)
    assert sent == sum(trace.totals.sent for trace in traces)
    assert sent - len(starts) == sum(trace.totals.dropped_random + trace.totals.dropped_overflow
                                     for trace in traces)


class _CheckedHeapq:
    """``heapq`` stand-in that checks the event heap after every push,
    and notes when each flow's open epoch began: every event is an epoch
    timer, ``(time, flow id)``."""

    def __init__(self):
        self.opened = {}

    def heappush(self, heap, event):
        heapq.heappush(heap, event)
        assert max(Counter(flow_id for _, flow_id in heap).values()) == 1

    def heappop(self, heap):
        now, flow_id = heapq.heappop(heap)
        self.opened[flow_id] = now
        return now, flow_id


class _CheckedRuns:
    """Checks, after every segment materialized, that its arrivals are
    all within the run and that each flow holds at most ``_SEGMENT``
    pending arrivals, all inside its open epoch, and counts the arrivals
    materialized."""

    def __init__(self, sim, opened):
        self.flows = sim.flows
        self.opened = opened
        self.duration = sim.scenario.duration
        self.materialized = 0
        watch_refills(sim, self.check)

    def check(self, refilled):
        assert all(t <= self.duration for t, _ in refilled.run)
        self.materialized += len(refilled.run)
        for flow in self.flows:
            pending = flow.run[flow.head:]
            assert len(pending) <= netsim._SEGMENT
            for t, flow_id in pending:
                assert flow_id == flow.flow_id
                start = self.opened[flow_id]
                assert start <= t < start + flow.epoch_len


@pytest.mark.parametrize("seed", range(30))
def test_heap_holds_one_arrival_and_one_timer_per_flow(seed, monkeypatch):
    # The heap holds at most one timer per flow and nothing else; each
    # flow's run, refilled every five arrivals here, holds at most a
    # segment of its open epoch, and every arrival it materializes is
    # sent.
    checked = _CheckedHeapq()
    monkeypatch.setattr(netsim, "heapq", checked)
    monkeypatch.setattr(netsim, "_SEGMENT", 5)
    sim = Simulation(scenario_from_dict(random_scenario(random.Random(seed))))
    runs = _CheckedRuns(sim, checked.opened)
    traces = sim.run()
    assert runs.materialized == sum(trace.totals.sent for trace in traces)
