"""Deterministic discrete-event simulation of flows over one bottleneck.

Topology: every flow paces packets into a shared drop-tail FIFO queue
served at the link capacity; delivered packets are acknowledged over an
ideal reverse path (no queueing, no loss).  Serialization occupies the
server but is not added to a packet's own latency, so an unqueued
packet measures exactly its two-way propagation delay.

Arrivals are known ahead: an epoch timer fixes its flow's pacing chain
up to the epoch's end and materializes it as the flow's *run*, a sorted
list of pending ``(time, flow id)`` arrivals read from a head index, so
the heap holds only epoch timers, as ``(time, flow id)``.  Before each
timer the loop takes from every run its arrivals up to that timer's
instant, that instant included, joins them in flow-id order and, only
when more than one flow contributed, sorts them on time alone (a stable
sort, so ties keep flow-id order), admits them and then handles the
timer: arrivals come before timers at equal timestamps, then lower flow
ids first, and the only randomness is a seeded Bernoulli draw per
arrival for random loss — so a scenario is a pure function of its
description and seed, and equal seeds give byte-identical traces.  Each
arrival is sorted at most once, with the arrivals of the other flows
due by the same timer.
The timers of one instant share a loop turn: the loop handles them one
after another, in flow-id order, before its next scan.  A timer reads
and writes only its own flow's tallies, run and controller, so the
arrivals an earlier one emits at that instant cannot change what a
later one does; the next scan admits them all, merged in flow-id order,
the order they would have had one timer at a time.
Departures need no events: the capacity schedule is known in advance,
so the FIFO fixes each admitted packet's service start and departure
when it arrives.  The FIFO is an append-only list of departure times
read from a head index: the occupancy is the number of entries past the
head, and once more than ``_COMPACT`` entries before it have left, the
next timer deletes them.  The loop keeps the latest departure at
hand, so an arrival after it finds the FIFO empty without a scan and an
admitted packet starts from it.  Its one server runs at the scheduled
link capacity, and :meth:`Simulation.run` applies its rules inline:

- each arrival takes one seeded draw for random loss first (when the
  link has any), then is dropped if the occupancy, the packets queued
  or in service, is at least the queue capacity;
- a packet counts towards the occupancy through the instant of its
  departure, so a departure follows its instant's arrivals and
  precedes its timers: an arrival forgets only departures before it,
  a timer (and the arrivals it emits at once) those at its instant too;
- an admitted packet starts when the last pending departure leaves, at
  once if none is pending, and is sent at the capacity of the last
  schedule entry strictly before that start, so an entry at exactly a
  packet's start applies only from the next packet on.

Packets arrive in time order, so service starts never decrease and the
schedule entry in force only moves forward.

A flow's chain stops short of its epoch's end and at the run's end,
so it holds only arrivals within the run.  A flow materializes at most
``_SEGMENT`` arrivals of its open epoch at a time, and after a full
segment keeps the rest of its chain as ``pacing``, the next time, the
gap and the stop; the loop materializes the next segment when it takes
the last arrival of a run.  Each arrival is one gap added to the one
before it.  A chain's times strictly increase unless a gap rounds away,
and then it stalls until the emission guard ends the run, so a segment
taken after the one before it keeps the order.  The chain's last
arrival, noted when it is materialized, keeps the pacing gap into the
next epoch.

ACKs need no events either.  Delivery and ACK happen at known offsets
from the start of service (the reverse path is ideal), so an admitted
packet's ACK time is fixed on arrival, and the packet is tallied into
its epoch then: RTT sum and latest ACK time.  Per packet, only these,
the epoch's occupancy sum and overflow or random drop, and the flow's
in-flight packets (ACKed after the run) are counted.  An epoch's
planned count grows by each segment it materializes, and the emission
guard checks it there.  An epoch's planned packets and drops add to the
flow's totals when its timer closes it, and the open epoch's at the end
of the run; delivered is sent less drops and in-flight packets.  At
release an epoch's ACK count is planned less its drops.

Only the flow's own timer reads the tally, and it treats an epoch as
resolved once its latest ACK is due: service starts never decrease and
a flow's round-trip propagation delay is fixed, so each flow's ACK
times never decrease in send order, and an ACK precedes a timer at the
same instant.

Each flow tallies its packets per sender epoch.  Its timer moves the
open tally into a FIFO of closed epochs, and then the resolved ones are
summarized from the front of the FIFO, each into one
:class:`~iriscc.feedback.EpochFeedback` of what the sender observed
(the controller makes its own estimates from it) and one trace row;
the end of the run does the same without decisions.  Both are built
with ``tuple.__new__``, unchecked: the counts pass the feedback's
checks by construction, and only a measured RTT that rounds to zero
against a large clock goes through the checking constructor, which
raises.
Measured epochs resolve in index order anyway; only an all-dropped
epoch can resolve before its predecessor, and it then waits for it.

Time is ms, rates are packets/ms throughout.
"""

from __future__ import annotations

import heapq
import inspect
import math
import random
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

from .baselines import AimdController, ConstantRateController, VegasController
from .controller import IrisController
from .feedback import EpochFeedback, RateController
from .scenario import FlowSpec, Scenario, ScenarioError, _number
from .trace import FlowTotals, FlowTrace, TraceRow
from .units import mbps_to_pkts_per_ms

_MAX_EMISSIONS_PER_EPOCH = 1_000_000  # guard against runaway controllers
_SEGMENT = 2048  # arrivals a flow materializes at a time
_COMPACT = 4096  # forgotten departures the FIFO may hold before a timer drops them
_arrival_time = itemgetter(0)


@dataclass(slots=True)
class _EpochAccum:
    """Running tallies for one sender epoch until it is released; an
    admitted packet's ACK is tallied when it is queued."""

    planned: int = 0     # arrivals within the run, counted per segment
    overflow: int = 0    # drop-tail drops
    lost: int = 0        # random drops
    rtt_sum: float = 0.0
    last_ack: float | None = None
    occ_sum: int = 0     # occupancy found by each arrival; an int, so exact


@dataclass(slots=True)
class _FlowRuntime:
    flow_id: int
    spec: FlowSpec
    controller: RateController
    rtprop: float                # round-trip propagation delay
    epoch_len: float
    rate: float
    prev_mean_rtt: float         # of the latest measured epoch, for the trace; rtprop before one
    trace: FlowTrace
    # After a full segment, the rest of the open epoch's chain:
    # (next time, gap, the stop it stays short of).
    pacing: tuple = ()
    run: list = field(default_factory=list)  # materialized (time, flow id) arrivals, sorted
    head: int = 0                    # index of the first one in ``run`` not yet admitted
    due: float = math.inf            # its time, or inf once all are admitted
    last_emit: float | None = None   # the last arrival of the latest epoch that sent one
    epochs: deque = field(default_factory=deque)  # closed _EpochAccum tallies not yet released
    next_release: int = 0            # index of the epoch at the front of ``epochs``


# Each kind's class and the params it accepts, its constructor's
# keywords; ``constant`` also takes ``rate_mbps`` (see _constant_rate).
_CONTROLLERS = {
    cls.kind: (cls, frozenset(inspect.signature(cls).parameters))
    for cls in (IrisController, AimdController, VegasController, ConstantRateController)
}


def _checked_params(params: dict, allowed: frozenset[str], prefix: str) -> dict:
    """Reject unknown names and values that are not numbers."""
    unknown = set(params) - allowed
    if unknown:
        raise ScenarioError(f"{prefix}.{sorted(unknown)[0]}", "unknown parameter")
    return {name: _number(value, f"{prefix}.{name}") for name, value in params.items()}


def _constant_rate(kwargs: dict, prefix: str, packet_bytes: int) -> None:
    """Turn a constant sender's ``rate_mbps`` into its ``rate`` at the
    link's packet size."""
    if ("rate" in kwargs) == ("rate_mbps" in kwargs):
        raise ScenarioError(prefix, "give exactly one of rate (packets/ms) or rate_mbps")
    if "rate_mbps" in kwargs:
        kwargs["rate"] = mbps_to_pkts_per_ms(kwargs.pop("rate_mbps"), packet_bytes)


def build_controller(spec: FlowSpec, flow_index: int, packet_bytes: int) -> RateController:
    if spec.controller not in _CONTROLLERS:
        raise ScenarioError(f"flows[{flow_index}].controller",
                            f"unknown controller {spec.controller!r}")
    cls, accepted = _CONTROLLERS[spec.controller]
    prefix = f"flows[{flow_index}].params"
    if cls is ConstantRateController:
        kwargs = _checked_params(spec.params, accepted | {"rate_mbps"}, prefix)
        _constant_rate(kwargs, prefix, packet_bytes)
    else:
        kwargs = _checked_params(spec.params, accepted, prefix)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ScenarioError(prefix, str(exc)) from exc


def _checked_rate(rate: float) -> float:
    """A controller's rate, if the chain can pace it: positive and finite."""
    if not 0 < rate < math.inf:
        raise RuntimeError(f"controller returned a non-positive or non-finite rate: {rate}")
    return rate


def _count(totals: FlowTotals, acc: _EpochAccum) -> None:
    """Add a closed or final epoch's planned packets and drops to its flow's totals."""
    totals.sent += acc.planned
    totals.dropped_overflow += acc.overflow
    totals.dropped_random += acc.lost


class Simulation:
    """One scenario run; keeps controllers accessible for inspection."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self._rng = random.Random(scenario.link.seed)
        # Departures in FIFO order; the run forgets them from a head index.
        self._departures: list[float] = []
        self._heap: list = []
        self.flows: list[_FlowRuntime] = []
        for i, spec in enumerate(scenario.flows):
            controller = build_controller(spec, i, scenario.link.packet_bytes)
            rtprop = 2.0 * (spec.prop_delay if spec.prop_delay is not None else scenario.link.prop_delay)
            self.flows.append(_FlowRuntime(
                flow_id=i,
                spec=spec,
                controller=controller,
                rtprop=rtprop,
                epoch_len=controller.epoch_len,
                rate=_checked_rate(controller.start_rate()),
                prev_mean_rtt=rtprop,
                trace=FlowTrace(flow_id=i, kind=spec.controller, totals=FlowTotals()),
            ))
            if spec.start_time <= scenario.duration:
                heapq.heappush(self._heap, (spec.start_time, i))
        self._open: list[_EpochAccum | None] = [None] * len(self.flows)  # open tallies by flow id
        self._duration = scenario.duration
        self._ran = False

    @property
    def controllers(self) -> list[RateController]:
        return [flow.controller for flow in self.flows]

    # -- event handlers -----------------------------------------------------
    #
    # A heap event is an epoch timer, (time, flow id), at most one per
    # flow.  Arrivals, refills and the departures a timer forgets are
    # handled in :meth:`run` itself.

    def _on_timer(self, now: float, flow_id: int) -> None:
        """Close the flow's open epoch, release what is resolved, open the next."""
        flow = self.flows[flow_id]
        closed = self._open[flow_id]
        if closed is not None:
            _count(flow.trace.totals, closed)
            flow.epochs.append(closed)
            self._release(flow, now)
        interval = 1.0 / flow.rate
        self._open[flow_id] = _EpochAccum()
        window_end = now + flow.epoch_len
        paced = now if flow.last_emit is None else flow.last_emit + interval
        first = paced if paced > now else now  # max(now, paced), cheaper
        if window_end <= self._duration:
            self._refill(flow, first, interval, window_end)
            heapq.heappush(self._heap, (window_end, flow_id))
        else:  # the last epoch: its chain stops at the run's end, that instant included
            self._refill(flow, first, interval, math.nextafter(self._duration, math.inf))

    def _refill(self, flow: _FlowRuntime, t: float, interval: float, stop: float) -> None:
        """Materialize the next segment of the flow's chain, from ``t`` on
        and short of ``stop``, as its run; count its arrivals into the open
        epoch, and keep the rest of the chain as ``pacing`` if the segment
        is full, else clear it.

        The flow's previous run is all admitted by now: a timer follows
        its epoch's arrivals, and the loop refills only a used-up run."""
        flow_id = flow.flow_id
        segment = []
        append = segment.append
        for _ in repeat(None, _SEGMENT):
            if t >= stop:
                break
            append((t, flow_id))
            t += interval
        flow.pacing = (t, interval, stop) if len(segment) == _SEGMENT else ()
        flow.due = segment[0][0] if segment else math.inf
        if not segment:
            return
        flow.run = segment
        flow.head = 0
        flow.last_emit = segment[-1][0]
        acc = self._open[flow_id]
        acc.planned += len(segment)
        if acc.planned > _MAX_EMISSIONS_PER_EPOCH:
            raise RuntimeError(f"flow {flow_id} emission rate exploded ({flow.rate}/ms)")

    # -- epoch accounting ---------------------------------------------------

    def _release(self, flow: _FlowRuntime, now: float, decide: bool = True) -> None:
        """Summarize closed epochs whose ACKs are all due by ``now``, in
        index order.

        Each one becomes an :class:`EpochFeedback`, goes to the
        controller (unless ``decide`` is False) and adds a trace row.
        Its packets are in the totals already, counted when it closed.
        """
        epoch_len = flow.epoch_len
        epochs = flow.epochs
        while epochs:
            acc = epochs[0]
            if acc.last_ack is not None and acc.last_ack > now:
                return
            epochs.popleft()
            index = flow.next_release
            flow.next_release = index + 1
            send_rate = acc.planned / epoch_len
            dropped = acc.overflow + acc.lost
            acked = acc.planned - dropped
            end = (flow.spec.start_time + index * epoch_len) + epoch_len
            mean_rtt = None
            if acked > 0:
                mean_rtt = flow.prev_mean_rtt = acc.rtt_sum / acked
                # An RTT can round to zero against a large clock; the
                # checking constructor then raises its ValueError.
                if not mean_rtt > 0.0:
                    EpochFeedback(index, end, send_rate, acc.planned, acked, dropped,
                                  mean_rtt, acc.last_ack)
            # Unchecked: the counts pass the other checks by construction.
            fb = tuple.__new__(EpochFeedback, (index, end, send_rate, acc.planned, acked,
                                               dropped, mean_rtt, acc.last_ack))
            if decide:
                flow.rate = rate = flow.controller.on_epoch(fb, now)
                if not 0 < rate < math.inf:  # _checked_rate's test, inline
                    _checked_rate(rate)
            # tuple.__new__ skips the namedtuple's Python-level __new__.
            flow.trace.rows.append(tuple.__new__(TraceRow, (
                end, send_rate, acked / epoch_len, flow.prev_mean_rtt,
                acc.occ_sum / acc.planned if acc.planned else 0.0, dropped)))

    # -- main loop ----------------------------------------------------------

    def run(self) -> list[FlowTrace]:
        """Run the event loop; each arrival is admitted or dropped here."""
        if self._ran:
            raise RuntimeError("a Simulation can only run once")
        self._ran = True
        duration = self.scenario.duration
        link = self.scenario.link
        flows = self.flows
        open_tally = self._open
        rtprops = [flow.rtprop for flow in flows]
        heap = self._heap
        heappop = heapq.heappop
        on_timer = self._on_timer
        refill = self._refill
        departures = self._departures
        depart = departures.append
        gone = 0  # departures[:gone] have left; the rest are pending
        tail = -math.inf  # the latest departure, or -inf when a timer forgot them all
        capacity = link.queue_capacity
        random_loss = link.random_loss
        draw = self._rng.random
        change_times = [t for t, _ in link.bandwidth_schedule[1:]] + [math.inf]
        service_times = [1.0 / rate for _, rate in link.bandwidth_schedule]
        entry = 0  # schedule entry of the latest service start
        next_change = change_times[0]
        service_time = service_times[0]
        while True:
            # Every heap event is due within the run.  The arrivals up to
            # the next one, at its instant too, or else up to the end.
            bound = heap[0][0] if heap else duration
            chunk = ()
            taken = 0  # runs that contributed to the chunk
            for flow in flows:
                while flow.due <= bound:
                    run = flow.run
                    head = flow.head
                    flow.head = hi = bisect_right(run, bound, head, key=_arrival_time)
                    if taken:
                        chunk += run[head:hi]
                    else:
                        chunk = run[head:hi]
                    taken += 1
                    if hi < len(run):
                        flow.due = run[hi][0]
                        break
                    if flow.pacing:  # used up, and the chain may go on
                        refill(flow, *flow.pacing)
                    else:
                        flow.due = math.inf
            if taken > 1:
                # Merges the sorted runs: they were joined in flow-id
                # order and the sort is stable.
                chunk.sort(key=_arrival_time)
            for now, flow_id in chunk:
                # An arrival: it belongs to its flow's open epoch.  It
                # forgets the departures before it: all of them if it
                # comes after the latest one, else the head stops at or
                # before that one.
                acc = open_tally[flow_id]
                if tail < now:
                    gone = len(departures)
                    occupancy = 0
                else:
                    while departures[gone] < now:
                        gone += 1
                    occupancy = len(departures) - gone
                acc.occ_sum += occupancy
                if random_loss > 0.0 and draw() < random_loss:
                    acc.lost += 1
                    continue
                if occupancy >= capacity:
                    acc.overflow += 1
                    continue
                start = tail if occupancy else now
                while next_change < start:
                    entry += 1
                    next_change = change_times[entry]
                    service_time = service_times[entry]
                tail = start + service_time
                depart(tail)
                ack = start + rtprops[flow_id]
                acc.rtt_sum += ack - now
                acc.last_ack = ack
                if ack > duration:
                    flows[flow_id].trace.totals.in_flight += 1
            if not heap:
                break
            if gone > _COMPACT:
                del departures[:gone]
                gone = 0
            now, flow_id = heappop(heap)
            # This instant's departures precede the timer and the
            # arrivals it emits now.
            if tail <= now:
                gone = len(departures)
                tail = -math.inf  # none pending, so the next arrival starts at once
            else:
                while departures[gone] <= now:
                    gone += 1
            on_timer(now, flow_id)
            # The other timers of this instant, before the next scan: each
            # reads and writes only its own flow's state.
            while heap and heap[0][0] == now:
                on_timer(*heappop(heap))
        for flow in flows:
            totals = flow.trace.totals
            # The open epoch is never released, but its packets count.
            final = open_tally[flow.flow_id]
            if final is not None:
                _count(totals, final)
            self._release(flow, duration, decide=False)
            totals.delivered = (totals.sent - totals.dropped_random
                                - totals.dropped_overflow - totals.in_flight)
        return [flow.trace for flow in flows]


def run_scenario(scenario: Scenario) -> list[FlowTrace]:
    """Simulate a scenario and return one trace per flow."""
    return Simulation(scenario).run()
