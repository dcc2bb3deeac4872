"""Simulator invariants over small seeded random scenarios, drawn by the
generator that ``tools/diffcheck.py`` also uses."""

import random

import pytest

from diffcheck import random_scenario
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
