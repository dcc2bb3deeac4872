"""Simulator invariants over small seeded random scenarios, drawn by the
generator that ``tools/diffcheck.py`` also uses."""

import heapq
import random
from collections import Counter, deque

import pytest

from diffcheck import random_scenario
from iriscc import netsim
from iriscc.netsim import Simulation
from iriscc.scenario import scenario_from_dict


def capacity_integral(schedule, duration):
    """Packets the link can serve over ``[0, duration]``."""
    ends = [start for start, _ in schedule[1:]] + [duration]
    return sum(cap * (min(end, duration) - start)
               for (start, cap), end in zip(schedule, ends) if start < duration)


@pytest.mark.parametrize("seed", range(30))
def test_simulator_invariants(seed):
    scenario = scenario_from_dict(random_scenario(random.Random(seed)))
    sim = Simulation(scenario)
    traces = sim.run()
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
    """``heapq`` stand-in that notes the time of the event last popped,
    and the time of every arrival popped."""

    heappush = staticmethod(heapq.heappush)

    def __init__(self):
        self.now = None
        self.arrivals = []

    def heappop(self, heap):
        event = heapq.heappop(heap)
        self.now = event[0]
        if event[1] == netsim._ARRIVAL:
            self.arrivals.append(self.now)
        return event


class _StartRecorder(deque):
    """Departure FIFO that notes each admitted packet's service start:
    the last pending departure, or the arrival time if none is pending."""

    def __init__(self, clock):
        super().__init__()
        self.clock = clock
        self.starts = []

    def append(self, departure):
        self.starts.append(self[-1] if self else self.clock.now)
        super().append(departure)


@pytest.mark.parametrize("seed", range(30))
def test_service_starts_and_ack_times_never_decrease(seed, monkeypatch):
    # The premise of tallying each ACK when its packet is queued: a
    # flow's ACK is its service start plus a fixed round-trip
    # propagation delay, so non-decreasing starts give each flow's ACKs
    # in send order, and an epoch's latest ACK is its last admitted one.
    clock = _Clock()
    monkeypatch.setattr(netsim, "heapq", clock)
    scenario = scenario_from_dict(random_scenario(random.Random(seed)))
    sim = Simulation(scenario)
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
    """``heapq`` stand-in that checks the event heap after every push."""

    heappop = staticmethod(heapq.heappop)

    def __init__(self):
        self.pushes = 0

    def heappush(self, heap, event):
        heapq.heappush(heap, event)
        self.pushes += 1
        per_flow = Counter((kind, flow_id) for _, kind, flow_id, *_ in heap)
        assert max(per_flow.values()) == 1


@pytest.mark.parametrize("seed", range(30))
def test_heap_holds_one_arrival_and_one_timer_per_flow(seed, monkeypatch):
    checked = _CheckedHeapq()
    monkeypatch.setattr(netsim, "heapq", checked)
    traces = Simulation(scenario_from_dict(random_scenario(random.Random(seed)))).run()
    assert checked.pushes >= sum(trace.totals.sent for trace in traces)
