"""Epoch-driven congestion controller built on a learned delay response.

The controller treats the network as a black box whose queueing delay
reacts linearly when the send rate exceeds the receiving rate, with a
slope ``k`` that is re-learned online by least squares (see
:mod:`iriscc.regression`).  Once per epoch it scores the last
measurement with an objective

    objective = send_rate * (rtt - target_delay) - queue_load_target

which is zero exactly when the flow keeps ``queue_load_target`` packets
queued at the bottleneck.  The objective is squashed through ``tanh``
into a bounded desired RTT change, which the learned slope converts
into a rate adjustment on top of the receiving rate it estimates from ACKs.

A new flow starts in a cold-start phase: it sends at a low initial rate
and doubles every epoch until loss appears, then fits an initial slope
from the data it gathered and switches to steady-state control.

:class:`IrisController` is the whole controller: the six knobs of its
control law are its constructor's keywords, they and a flow's rate,
slope, target delay and records are its attributes, and each phase's
step is one of its methods.  The decision math and the slope-fit gate
read no state and stay module functions.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .feedback import EpochFeedback, require_positive
from .regression import RegressionFit, fit_k_b
from .units import kbps_to_pkts_per_ms

# Guards, gates and cold-start values.  They bound and seed the control
# law rather than state it, so they are fixed, not per-flow knobs.
K_MIN = 0.01                 # lower clamp for the learned slope
HISTORY_CAP = 1000           # epoch records kept for fitting
RATE_FLOOR = 0.01            # never pace below this, packets/ms
INITIAL_RATE = kbps_to_pkts_per_ms(100.0)  # cold start begins at 100 kbit/s
COLD_LOSS_THRESHOLD = 0.01   # loss rate that can end cold start
COLD_LOSS_JUMP = 0.05        # loss-rate rise over the previous epoch
COLD_LOSS_SEVERE = 0.25      # loss rate treated as a burst on its own
COLD_BACKOFF = 0.5           # rate multiplier when probing past a loss burst
COLD_FIT_SAMPLES = 8         # samples the cold-exit fit needs
RATE_CEILING = 1e4           # cold-start safety cap, packets/ms
MIN_FIT_SAMPLES = 10         # samples required for a periodic re-fit
MIN_FIT_PLCC = 0.2           # correlation a re-fit needs to be adopted
EXCITATION_FLOOR = 0.05      # rate-excursion spread a window needs, relative
CONTRACTION_CAP = 0.95       # loop-gain bound enforced per decision

# The re-fit screen (see :func:`_screen_rejects`) reads running sums
# over the history; it may only reject windows the exact gate rejects.
# Between re-sums a running sum takes under 3 * HISTORY_CAP pushes and
# evictions and a re-sum of at most HISTORY_CAP terms, each rounding a
# partial sum of at most HISTORY_CAP terms by 2**-53.  So it is off the
# exact sum of its terms by at most 4 * HISTORY_CAP**2 * 2**-53 = 4.4e-10
# times its largest term; SUM_DRIFT rounds that up.
SUM_DRIFT = 1e-9
# A centred sum is then off by at most 3 * SUM_DRIFT times the largest
# squared term, so above SCREEN_CONDITION times it, it is good to 0.3%.
SCREEN_CONDITION = 1000 * SUM_DRIFT
# Centred sums good to 0.3% move the plcc estimate by under 0.01.
SCREEN_PLCC_MARGIN = 0.05
# ... and, with the send-rate sum, the excitation estimate by under 0.3%.
SCREEN_EXCITATION_MARGIN = 0.1   # relative


class Phase(Enum):
    COLD_START = "cold_start"
    STEADY = "steady"


class Measurement(NamedTuple):
    """The controller's record of one measured epoch, by
    :meth:`IrisController._record_measurement`."""

    end: float
    send_rate: float
    recv_rate: float   # estimated from ACK spacing, packets/ms
    mean_rtt: float
    delta_rtt: float | None  # mean_rtt minus the previous measured epoch's, if any


class DecisionLogEntry(NamedTuple):
    """One epoch's rate decision, as the step that made it reports it.

    ``phase`` is the phase the step ran in and ``k`` the slope it used
    (for a steady step, after the gain bound); ``objective``,
    ``rtt_step`` and ``contraction`` are None except on a measured
    steady epoch.
    """

    time: float
    epoch_index: int
    phase: Phase
    rate: float
    k: float
    measured: bool
    rtt: float | None
    target_delay: float | None
    objective: float | None
    rtt_step: float | None
    recv_rate: float | None
    contraction: float | None  # gap-contraction factor at this decision


@dataclass(slots=True)
class WindowSums:
    """Running sums over the records of ``IrisController.history``.

    Over the records with an RTT change, where x is ``send_rate -
    recv_rate`` and y is ``delta_rtt``: their count ``n`` and the sums
    of x, y, x², y² and xy.  Over all records: the sum of
    ``send_rate``.  ``max_x``, ``max_y`` and ``max_send`` are the
    largest |x|, |y| and send rate the sums have held since they were
    last re-summed, which bound their rounding (see ``SUM_DRIFT``).
    """

    n: int = 0
    sx: float = 0.0
    sy: float = 0.0
    sxx: float = 0.0
    syy: float = 0.0
    sxy: float = 0.0
    send: float = 0.0
    max_x: float = 0.0
    max_y: float = 0.0
    max_send: float = 0.0
    evictions: int = 0   # since the last re-sum

    def add(self, rec: Measurement) -> None:
        _, send, recv, _, y = rec
        self.send += send
        if send > self.max_send:
            self.max_send = send
        if y is not None:
            x = send - recv
            self.n += 1
            self.sx += x
            self.sy += y
            self.sxx += x * x
            self.syy += y * y
            self.sxy += x * y
            ax, ay = abs(x), abs(y)
            if ax > self.max_x:
                self.max_x = ax
            if ay > self.max_y:
                self.max_y = ay

    def remove(self, rec: Measurement) -> None:
        _, send, recv, _, y = rec
        self.send -= send
        if y is not None:
            x = send - recv
            self.n -= 1
            self.sx -= x
            self.sy -= y
            self.sxx -= x * x
            self.syy -= y * y
            self.sxy -= x * y
        self.evictions += 1

    @classmethod
    def of(cls, records) -> WindowSums:
        """Fresh sums over ``records``, free of the rounding of any that left."""
        sums = cls()
        for rec in records:
            sums.add(rec)
        return sums


# --- pure decision math ----------------------------------------------------

def compute_objective(send_rate: float, rtt: float, target_delay: float,
                      queue_load_target: float) -> float:
    """Estimated queued packets beyond the target.

    ``send_rate * (rtt - target_delay)`` estimates how many of this
    flow's packets sit in the bottleneck queue; the objective is the
    excess over the configured target.  Zero means "exactly on target".
    """
    return send_rate * (rtt - target_delay) - queue_load_target


def expected_rtt_variation(objective: float, rtt_step_bound: float,
                           objective_scale: float) -> float:
    """Bounded RTT change to aim for next epoch, in ms.

    Opposes the objective: positive objective (too much queueing) asks
    for a negative RTT change and vice versa.  ``tanh`` keeps the
    magnitude strictly below ``rtt_step_bound`` mathematically; at
    arguments where floating-point ``tanh`` saturates to exactly one,
    the result is nudged back inside the open interval so the strict
    bound survives in floats too.
    """
    step = -rtt_step_bound * math.tanh(objective / objective_scale)
    if abs(step) >= rtt_step_bound:
        step = math.copysign(math.nextafter(rtt_step_bound, 0.0), step)
    return step


def next_sending_rate(recv_rate: float, rtt_step: float, k: float) -> float:
    """Next pacing rate from the latest receiving rate and desired RTT step.

    The learned slope ``k`` (ms of RTT change per packet/ms of
    overshoot) converts the desired RTT change into a rate delta.
    ``k`` below ``K_MIN`` is a contract violation: callers must clamp
    when they adopt a fit.
    """
    if k < K_MIN:
        raise ValueError(f"k={k} below K_MIN={K_MIN}; clamp fits before use")
    return max(RATE_FLOOR, recv_rate + rtt_step / k)


def gap_contraction_factor(rtt: float, target_delay: float, k: float,
                           rtt_step_bound: float, objective_scale: float) -> float:
    """Sufficient-condition factor for two flows' rate gap to shrink.

    When this is below 1 at a decision point, the rate difference of two
    flows sharing the bottleneck cannot grow at that step (the tanh
    slope is at most 1, so the realized factor is never larger).
    """
    return (rtt_step_bound / k) * ((rtt - target_delay) / objective_scale)


def effective_slope(k: float, rtt: float, target_delay: float,
                    rtt_step_bound: float, objective_scale: float) -> float:
    """Slope a decision divides by: the learned ``k``, floored so the
    per-step loop gain (:func:`gap_contraction_factor`) stays at or
    below ``CONTRACTION_CAP``.

    A slope estimate far below the network's true response turns the
    bounded RTT step into an outsized rate swing; bounding the realized
    gain keeps one bad fit from destabilizing the loop until the next
    re-fit corrects it.
    """
    floor = (rtt_step_bound * (rtt - target_delay)
             / (objective_scale * CONTRACTION_CAP))
    return max(k, floor)


# --- the slope-fit gate ----------------------------------------------------

def _plain_fit(records) -> RegressionFit | None:
    """Least-squares fit over the records that carry an RTT change."""
    usable = [rec for rec in records if rec.delta_rtt is not None]
    return fit_k_b([rec.send_rate - rec.recv_rate for rec in usable],
                   [rec.delta_rtt for rec in usable])


def _gated_fit(records, min_samples: int) -> RegressionFit | None:
    """Fit ``records``; return the fit only if the window identifies the slope.

    The slope is only identifiable from data that actually moved the
    rate: in a quiet steady state the send/receive gap is measurement
    noise, and — worse — the control loop itself couples that noise
    back into the RTT, so a regression over a quiet window can look
    well-correlated while its slope is an artifact of the loop, not the
    network.  Dividing the next rate step by such a slope is what makes
    the controller lurch.  The fit is returned only when it has
    ``min_samples`` samples, its correlation clears ``MIN_FIT_PLCC``,
    and its excitation — ``x_std`` over the mean send rate of all the
    records, 0.0 when that mean is not positive — clears
    ``EXCITATION_FLOOR``.
    """
    fit = _plain_fit(records)
    if fit is None or fit.n < min_samples or fit.plcc < MIN_FIT_PLCC:
        return None
    mean_rate = math.fsum(rec.send_rate for rec in records) / len(records)
    excitation = fit.x_std / mean_rate if mean_rate > 0.0 else 0.0
    if excitation < EXCITATION_FLOOR:
        return None
    return fit


def _screen_rejects(sums: WindowSums, records: int, min_samples: int) -> bool:
    """Whether ``sums`` show that :func:`_gated_fit` rejects the
    window of ``records`` records they sum.

    Fewer than ``min_samples`` samples is exact.  Otherwise the window's
    correlation and excitation are estimated from the centred sums and
    rejected when they fall short of the gate by more than their
    margins.  That is done only when the sums are finite, each centred
    sum exceeds ``SCREEN_CONDITION`` times its largest squared term and
    the send-rate sum that times its largest rate: there ``SUM_DRIFT``
    keeps the estimates within the margins of the exact fit's values.
    Every other window is left to the exact fit, so ``fit_k_b`` decides
    each adopted fit.
    """
    n = sums.n
    if n < min_samples:
        return True
    mx = sums.sx / n
    cxx = sums.sxx - mx * sums.sx
    cyy = sums.syy - sums.sy / n * sums.sy
    cxy = sums.sxy - mx * sums.sy
    if not (math.isfinite(cxx) and math.isfinite(cyy) and math.isfinite(cxy)
            and math.isfinite(sums.send)
            and cxx > SCREEN_CONDITION * sums.max_x * sums.max_x
            and cyy > SCREEN_CONDITION * sums.max_y * sums.max_y
            and sums.send > SCREEN_CONDITION * sums.max_send):
        return False
    plcc = cxy / (math.sqrt(cxx) * math.sqrt(cyy))
    excitation = math.sqrt(cxx / n) / (sums.send / records)
    return (plcc < MIN_FIT_PLCC - SCREEN_PLCC_MARGIN
            or excitation < EXCITATION_FLOOR * (1.0 - SCREEN_EXCITATION_MARGIN))


# --- the controller --------------------------------------------------------

class IrisController:
    """The iris controller, driven by the simulator's epoch feedback.

    ``on_epoch`` records a measured epoch, refreshes the target delay,
    runs the step of the current phase and logs its decision in
    ``decisions``.  ``history`` holds measured epochs in order of their
    ends, at most ``HISTORY_CAP`` of them.  Each steady re-fit attempt
    first trims it to the re-fit window, the records of the last
    ``k_update_period``; cold start trims nothing.  ``sums`` follows it.
    ``rtt_samples`` keeps only the samples that can still be a window
    minimum, each below every later one.
    """

    kind = "iris"

    def __init__(self, epoch_len: float = 50.0, queue_load_target: float = 10.0,
                 objective_scale: float = 100.0, rtt_step_bound: float = 3.0,
                 k_update_period: float = 5000.0, rtt_window: float = 10_000.0):
        require_positive("epoch_len", epoch_len)
        require_positive("queue_load_target", queue_load_target)
        require_positive("objective_scale", objective_scale)
        require_positive("rtt_step_bound", rtt_step_bound)
        for name, value in (("k_update_period", k_update_period), ("rtt_window", rtt_window)):
            if not value > 0:  # infinity reads as "never"
                raise ValueError(f"{name} must be positive, got {value}")
        # The knobs of the control law.  Times are ms, queue loads packets.
        self.epoch_len = epoch_len                  # decision interval
        self.queue_load_target = queue_load_target  # packets to keep queued at the bottleneck
        self.objective_scale = objective_scale      # tanh input scale for the objective
        self.rtt_step_bound = rtt_step_bound        # max desired RTT change per epoch
        self.k_update_period = k_update_period      # how often the slope is re-fitted
        self.rtt_window = rtt_window                # sliding window for the target delay
        self.phase = Phase.COLD_START
        self.current_rate = INITIAL_RATE
        self.k = K_MIN
        self.target_delay: float | None = None
        self.target_stale_epochs = 0
        self.rtt_samples: deque = deque()   # (time, rtt), rtt increasing
        self.history: deque = deque(maxlen=HISTORY_CAP)  # of Measurement
        self.sums = WindowSums()
        self.last_meas_ack: float | None = None  # latest ACK time of the last measured epoch
        self.prev_rtt: float | None = None       # mean RTT of the last measured epoch
        self.prev_loss_rate = 0.0
        self.applied_fits: list = []    # (time, RegressionFit)
        self.decisions: list[DecisionLogEntry] = []

    @property
    def state(self) -> IrisController:
        return self  # perfbench/layers.py reads `c.state.applied_fits`

    def start_rate(self) -> float:
        return self.current_rate

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        recv = target = None
        if feedback.mean_rtt is not None:
            recv = self._record_measurement(feedback).recv_rate
            target = self.update_target_delay(now)
        step = self._cold_step if self.phase is Phase.COLD_START else self._steady_step
        entry = step(feedback, now, recv, target)
        self.decisions.append(entry)
        return entry.rate

    def update_target_delay(self, now: float) -> float | None:
        """Refresh the target delay: the minimum RTT inside the sliding window.

        The minimum estimates the base RTT, so ``send_rate * (rtt -
        target_delay)`` counts this flow's queued packets.  Samples older
        than ``rtt_window`` are evicted.  If the window goes empty (a long
        stall), the previous target survives and a staleness counter is
        bumped so callers can notice.  The samples rise from oldest to
        newest (see :meth:`_record_measurement`), so the oldest is the
        minimum.
        """
        window_start = now - self.rtt_window
        samples = self.rtt_samples
        while samples and samples[0][0] < window_start:
            samples.popleft()
        if not samples:
            self.target_stale_epochs += 1
            return self.target_delay
        target = samples[0][1]
        self.target_delay = target
        self.target_stale_epochs = 0
        return target

    def _adopt_fit(self, fit: RegressionFit | None, now: float) -> bool:
        """Clamp and install a fitted slope; report whether one was applied."""
        if fit is None or not math.isfinite(fit.k):
            return False
        self.k = max(K_MIN, fit.k)
        self.applied_fits.append((now, fit))
        return True

    def _screened_fit(self, min_samples: int) -> RegressionFit | None:
        """:func:`_gated_fit` of the history, unless the screen rejects it."""
        if _screen_rejects(self.sums, len(self.history), min_samples):
            return None
        return _gated_fit(self.history, min_samples)

    def _evict_oldest(self) -> None:
        self.sums.remove(self.history.popleft())
        if self.sums.evictions >= HISTORY_CAP:
            self.sums = WindowSums.of(self.history)

    def _maybe_refit_k(self, now: float) -> None:
        """Periodic slope re-fit over the most recent window of records.

        The history drops the records that ended before the last
        ``k_update_period`` and is fitted whole.  Attempts the gate rejects
        do not advance the update clock, so the fit retries every epoch and
        adopts as soon as an informative window (a capacity change, a
        competing flow, a loss burst) shows up, instead of waiting out
        another full period.
        """
        fits = self.applied_fits
        if fits and now - fits[-1][0] < self.k_update_period:
            return
        cutoff = now - self.k_update_period
        history = self.history
        while history and history[0].end < cutoff:
            self._evict_oldest()
        self._adopt_fit(self._screened_fit(MIN_FIT_SAMPLES), now)

    def _record_measurement(self, fb: EpochFeedback) -> Measurement:
        """Record a measured epoch with :meth:`_append_record`, estimating
        its RTT change and its receiving rate: its ``send_rate * epoch_len``
        packets over the span from the last measured epoch's latest ACK to
        its own, or its send rate if there is none or its ACK is no later.
        """
        last = self.last_meas_ack
        recv = (fb.send_rate if last is None or fb.last_ack <= last
                else fb.send_rate * self.epoch_len / (fb.last_ack - last))
        delta = None if self.prev_rtt is None else fb.mean_rtt - self.prev_rtt
        self.last_meas_ack = fb.last_ack
        self.prev_rtt = fb.mean_rtt
        rec = Measurement(fb.end, fb.send_rate, recv, fb.mean_rtt, delta)
        self._append_record(rec)
        return rec

    def _append_record(self, rec: Measurement) -> None:
        """Append a record to the history, its sums and the RTT samples.

        A full history evicts its oldest record first.  The RTT samples
        drop every sample at or above the new one, which outlives them in
        any window, so the rest stay the candidates for its minimum.
        """
        if len(self.history) == HISTORY_CAP:
            self._evict_oldest()
        self.history.append(rec)
        self.sums.add(rec)
        samples = self.rtt_samples
        while samples and samples[-1][1] >= rec.mean_rtt:
            samples.pop()
        samples.append((rec.end, rec.mean_rtt))

    def _log_entry(self, fb: EpochFeedback, now: float, phase: Phase, k: float,
                   recv_rate: float | None = None, objective: float | None = None,
                   rtt_step: float | None = None,
                   contraction: float | None = None) -> DecisionLogEntry:
        """The record of the decision a step just made: its rate is the
        current rate, its target the current target delay."""
        rtt = fb.mean_rtt
        # Positional: keywords cost about twice as much per epoch.
        return DecisionLogEntry(now, fb.index, phase, self.current_rate, k, rtt is not None, rtt,
                                self.target_delay, objective, rtt_step, recv_rate, contraction)

    def _steady_step(self, fb: EpochFeedback, now: float, recv: float | None,
                     target: float | None) -> DecisionLogEntry:
        """One steady-state control step on what :meth:`on_epoch` measured.

        An unmeasured epoch holds the rate.  A measured one derives the
        next pacing rate from its receiving rate ``recv`` and the target
        delay ``target``, and periodically re-fits the slope.  With no
        target yet, the epoch's own RTT becomes the target.  Loss does not
        enter the decision directly: random loss must not read as
        congestion, and genuine congestion already shows up in the RTT.
        """
        if recv is None:
            return self._log_entry(fb, now, Phase.STEADY, self.k)
        if target is None:
            target = self.target_delay = fb.mean_rtt
        bound, scale = self.rtt_step_bound, self.objective_scale
        objective = compute_objective(fb.send_rate, fb.mean_rtt, target, self.queue_load_target)
        rtt_step = expected_rtt_variation(objective, bound, scale)
        k_used = effective_slope(self.k, fb.mean_rtt, target, bound, scale)
        self.current_rate = next_sending_rate(recv, rtt_step, k_used)
        self._maybe_refit_k(now)
        return self._log_entry(fb, now, Phase.STEADY, k_used, recv, objective, rtt_step,
                               gap_contraction_factor(fb.mean_rtt, target, k_used, bound, scale))

    def _exit_cold(self, fit: RegressionFit | None, now: float) -> None:
        """Leave the ramp: install the fit and land on the latest receiving rate."""
        self.phase = Phase.STEADY
        if not self._adopt_fit(fit, now):
            self.k = K_MIN  # ramp data was degenerate; learn on the fly
        landing = self.history[-1].recv_rate if self.history else self.current_rate
        self.current_rate = max(RATE_FLOOR, landing)

    def _cold_step(self, fb: EpochFeedback, now: float, recv: float | None,
                   target: float | None) -> DecisionLogEntry:
        """One cold-start step: double the rate until loss reveals capacity.

        A loss burst — a per-epoch loss rate that jumps ``COLD_LOSS_JUMP``
        above the previous epoch's and clears ``COLD_LOSS_THRESHOLD`` —
        marks the probe as having overfilled the bottleneck.  (Requiring a
        jump keeps a noisy but steady background loss rate from reading as
        an overshoot; on thin epochs of one or two packets a single stray
        drop swings the measured rate violently.)  Loss pinned at
        saturation never jumps epoch over epoch, so a rate at or above
        ``COLD_LOSS_SEVERE`` counts as a burst on its own; without that a
        rejected burst would resume doubling into a saturated queue
        unchecked.  The ramp ends there only
        if the gathered records already support a usable slope fit — enough
        samples, real rate excursions, adequate correlation — because the
        exit fit seeds every early steady-state decision, and a fit taken
        from two or three quiet epochs is noise that can start the flow
        with a wildly wrong slope.  When the data is not yet informative
        the rate is halved instead and probing continues, so the next
        overshoot adds more learnable records.  The safety rate ceiling
        forces an exit with the ungated fit of the whole history.  On exit
        the pacing rate falls back to the last observed receiving rate.  The
        record logs ``recv`` and the slope the flow had before the step.
        """
        k = self.k
        loss_rate = fb.loss_rate
        prev_loss = self.prev_loss_rate
        self.prev_loss_rate = loss_rate
        loss_burst = (
            loss_rate > COLD_LOSS_THRESHOLD
            and (loss_rate > prev_loss + COLD_LOSS_JUMP or loss_rate >= COLD_LOSS_SEVERE)
        )
        if self.current_rate >= RATE_CEILING:
            self._exit_cold(_plain_fit(self.history), now)
        elif loss_burst:
            fit = self._screened_fit(COLD_FIT_SAMPLES)
            if fit is not None:
                self._exit_cold(fit, now)
            else:
                # Burst before the ramp became informative: back off, keep probing.
                self.current_rate = max(RATE_FLOOR, self.current_rate * COLD_BACKOFF)
        else:
            self.current_rate = min(self.current_rate * 2.0, RATE_CEILING)
        return self._log_entry(fb, now, Phase.COLD_START, k, recv)
