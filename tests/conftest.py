"""Shared scenario and feedback builders and the acceptance-summary hook."""

from __future__ import annotations

from iriscc.feedback import EpochFeedback
from iriscc.scenario import FlowSpec, LinkConfig, Scenario
from iriscc.units import mbps_to_pkts_per_ms

# One line per acceptance criterion; echoed as a terminal section so the
# verdicts are visible in normal pytest output.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def make_link(mbps: float = 20.0, prop: float = 25.0, queue: int = 104,
              loss: float = 0.0, seed: int = 1,
              sched: tuple | None = None) -> LinkConfig:
    """Bottleneck shorthand; ``sched`` overrides the flat bandwidth."""
    if sched is None:
        sched = ((0.0, mbps_to_pkts_per_ms(mbps)),)
    return LinkConfig(bandwidth_schedule=sched, prop_delay=prop,
                      queue_capacity=queue, random_loss=loss, seed=seed)


def flow(controller: str = "iris", start: float = 0.0,
         prop: float | None = None, **params) -> FlowSpec:
    return FlowSpec(controller=controller, start_time=start,
                    prop_delay=prop, params=params)


def scenario(link: LinkConfig, flows: tuple[FlowSpec, ...],
             duration: float) -> Scenario:
    return Scenario(link=link, flows=flows, duration=duration)


def watch_refills(sim, note) -> None:
    """Call ``note(flow)`` each time ``sim`` materializes a segment of a
    flow's pacing chain as the flow's run of pending arrivals."""
    refill = sim._refill

    def watched(flow, *chain):
        run = flow.run
        refill(flow, *chain)
        if flow.run is not run:
            note(flow)

    sim._refill = watched


def feedback(index: int = 0, send: float = 1.0, rtt: float = 50.0, end: float = 50.0,
             sent: int = 50, acked: int | None = None, dropped: int = 0,
             measured: bool = True, last_ack: float | None = None) -> EpochFeedback:
    """One epoch's feedback; ``acked`` defaults to the packets not
    dropped (none when unmeasured), and a measured epoch's ``last_ack``
    to ``end + rtt``, the ACK of a packet sent as the epoch closed.  An
    unmeasured epoch has no RTT, and no ACK time unless one is given."""
    if acked is None:
        acked = sent - dropped if measured else 0
    if measured and last_ack is None:
        last_ack = end + rtt
    return EpochFeedback(index=index, end=end, send_rate=send, sent=sent, acked=acked,
                         dropped=dropped, mean_rtt=rtt if measured else None, last_ack=last_ack)
