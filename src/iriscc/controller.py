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
into a rate adjustment on top of the latest receiving-rate estimate.

A new flow starts in a cold-start phase: it sends at a low initial rate
and doubles every epoch until loss appears, then fits an initial slope
from the data it gathered and switches to steady-state control.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from .feedback import EpochFeedback
from .regression import RegressionFit, fit_k_b
from .units import kbps_to_pkts_per_ms

DEFAULT_INITIAL_RATE = kbps_to_pkts_per_ms(100.0)  # 100 kbit/s worth of packets


class Phase(Enum):
    COLD_START = "cold_start"
    STEADY = "steady"


@dataclass(frozen=True)
class IrisParams:
    """Tuning knobs for the controller.

    Times are ms, rates packets/ms, queue loads packets.
    """

    epoch_len: float = 50.0             # decision interval
    queue_load_target: float = 10.0     # packets to keep queued at the bottleneck
    objective_scale: float = 100.0      # tanh input scale for the objective
    rtt_step_bound: float = 3.0         # max desired RTT change per epoch, ms
    k_update_period: float = 5000.0     # how often the slope is re-fitted, ms
    rtt_window: float = 10_000.0        # sliding window for the target delay, ms
    k_min: float = 0.01                 # lower clamp for the learned slope
    history_cap: int = 1000             # epoch records kept for fitting
    rate_floor: float = 0.01            # never pace below this, packets/ms
    initial_rate: float = DEFAULT_INITIAL_RATE
    cold_loss_threshold: float = 0.01   # loss rate that can end cold start
    cold_loss_jump: float = 0.05        # loss-rate rise over the previous epoch
    cold_loss_severe: float = 0.25      # loss rate treated as a burst on its own
    cold_backoff: float = 0.5           # rate multiplier when probing past a loss burst
    cold_fit_samples: int = 8           # samples the cold-exit fit needs
    rate_ceiling: float = 1e4           # cold-start safety cap, packets/ms
    min_fit_samples: int = 10           # samples required for a periodic re-fit
    min_fit_plcc: float = 0.2           # correlation a re-fit needs to be adopted
    excitation_floor: float = 0.05      # rate-excursion spread a window needs, relative
    contraction_cap: float = 0.95       # loop-gain bound enforced per decision

    def __post_init__(self) -> None:
        positive = [
            "epoch_len", "queue_load_target", "objective_scale", "rtt_step_bound",
            "k_min", "rate_floor", "initial_rate", "rate_ceiling",
        ]
        for name in positive:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("k_update_period", "rtt_window"):  # infinity reads as "never"
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("history_cap", "min_fit_samples", "cold_fit_samples"):
            value = getattr(self, name)
            if not (isinstance(value, int) and value >= 2):
                raise ValueError(f"{name} must be an int >= 2, got {value!r}")
        if not 0.0 <= self.min_fit_plcc < 1.0:
            raise ValueError(f"min_fit_plcc must be in [0, 1), got {self.min_fit_plcc}")
        if not 0.0 <= self.excitation_floor < math.inf:
            raise ValueError(f"excitation_floor must be >= 0 and finite, got {self.excitation_floor}")
        if not 0.0 < self.contraction_cap < 1.0:
            raise ValueError(f"contraction_cap must be in (0, 1), got {self.contraction_cap}")
        if not 0.0 <= self.cold_loss_threshold < 1.0:
            raise ValueError(f"cold_loss_threshold must be in [0, 1), got {self.cold_loss_threshold}")
        if not 0.0 <= self.cold_loss_jump < 1.0:
            raise ValueError(f"cold_loss_jump must be in [0, 1), got {self.cold_loss_jump}")
        if not 0.0 < self.cold_loss_severe <= 1.0:
            raise ValueError(f"cold_loss_severe must be in (0, 1], got {self.cold_loss_severe}")
        if not 0.0 < self.cold_backoff < 1.0:
            raise ValueError(f"cold_backoff must be in (0, 1), got {self.cold_backoff}")


@dataclass(frozen=True)
class DecisionLogEntry:
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


@dataclass
class IrisState:
    """Mutable controller state; create via :func:`new_state`."""

    params: IrisParams
    phase: Phase
    current_rate: float
    k: float
    target_delay: float | None = None
    target_stale_epochs: int = 0
    rtt_samples: deque = field(default_factory=deque)   # (time, rtt)
    history: deque = field(default_factory=deque)       # measured EpochFeedback
    prev_loss_rate: float = 0.0
    applied_fits: list = field(default_factory=list)    # (time, RegressionFit)

    @property
    def last_fit(self) -> RegressionFit | None:
        return self.applied_fits[-1][1] if self.applied_fits else None

    @property
    def last_k_update(self) -> float:
        return self.applied_fits[-1][0] if self.applied_fits else -math.inf


def new_state(params: IrisParams | None = None) -> IrisState:
    params = params or IrisParams()
    state = IrisState(
        params=params,
        phase=Phase.COLD_START,
        current_rate=params.initial_rate,
        k=params.k_min,
    )
    state.history = deque(maxlen=params.history_cap)
    return state


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


def next_sending_rate(recv_rate: float, rtt_step: float, k: float,
                      k_min: float = 0.01, rate_floor: float = 0.01) -> float:
    """Next pacing rate from the latest receiving rate and desired RTT step.

    The learned slope ``k`` (ms of RTT change per packet/ms of
    overshoot) converts the desired RTT change into a rate delta.
    ``k`` below ``k_min`` is a contract violation: callers must clamp
    when they adopt a fit.
    """
    if k < k_min:
        raise ValueError(f"k={k} below k_min={k_min}; clamp fits before use")
    return max(rate_floor, recv_rate + rtt_step / k)


def gap_contraction_factor(params: IrisParams, rtt: float, target_delay: float,
                           k: float) -> float:
    """Sufficient-condition factor for two flows' rate gap to shrink.

    When this is below 1 at a decision point, the rate difference of two
    flows sharing the bottleneck cannot grow at that step (the tanh
    slope is at most 1, so the realized factor is never larger).
    """
    return (params.rtt_step_bound / k) * ((rtt - target_delay) / params.objective_scale)


def effective_slope(params: IrisParams, k: float, rtt: float,
                    target_delay: float) -> float:
    """Slope a decision divides by: the learned ``k``, floored so the
    per-step loop gain (:func:`gap_contraction_factor`) stays at or
    below ``contraction_cap``.

    A slope estimate far below the network's true response turns the
    bounded RTT step into an outsized rate swing; bounding the realized
    gain keeps one bad fit from destabilizing the loop until the next
    re-fit corrects it.
    """
    floor = (params.rtt_step_bound * (rtt - target_delay)
             / (params.objective_scale * params.contraction_cap))
    return max(k, floor)


# --- stateful steps --------------------------------------------------------

def update_target_delay(state: IrisState, now: float) -> float | None:
    """Refresh the target delay: the minimum RTT inside the sliding window.

    The minimum estimates the base RTT, so ``send_rate * (rtt -
    target_delay)`` counts this flow's queued packets.  Samples older
    than ``rtt_window`` are evicted.  If the window goes empty (a long
    stall), the previous target survives and a staleness counter is
    bumped so callers can notice.
    """
    window_start = now - state.params.rtt_window
    samples = state.rtt_samples
    while samples and samples[0][0] < window_start:
        samples.popleft()
    if not samples:
        state.target_stale_epochs += 1
        return state.target_delay
    target = min(rtt for _, rtt in samples)
    state.target_delay = target
    state.target_stale_epochs = 0
    return target


def _adopt_fit(state: IrisState, fit: RegressionFit | None, now: float) -> bool:
    """Clamp and install a fitted slope; report whether one was applied."""
    if fit is None or not math.isfinite(fit.k):
        return False
    state.k = max(state.params.k_min, fit.k)
    state.applied_fits.append((now, fit))
    return True


def _plain_fit(records) -> RegressionFit | None:
    """Least-squares fit over the records that carry an RTT change."""
    usable = [fb for fb in records if fb.delta_rtt is not None]
    return fit_k_b([fb.send_rate - fb.recv_rate for fb in usable],
                   [fb.delta_rtt for fb in usable])


def _gated_fit(params: IrisParams, records, min_samples: int) -> RegressionFit | None:
    """Fit ``records``; return the fit only if the window identifies the slope.

    The slope is only identifiable from data that actually moved the
    rate: in a quiet steady state the send/receive gap is measurement
    noise, and — worse — the control loop itself couples that noise
    back into the RTT, so a regression over a quiet window can look
    well-correlated while its slope is an artifact of the loop, not the
    network.  Dividing the next rate step by such a slope is what makes
    the controller lurch.  The fit is returned only when it has
    ``min_samples`` samples, its correlation clears ``min_fit_plcc``,
    and its excitation — ``x_std`` over the mean send rate of all the
    records, 0.0 when that mean is not positive — clears
    ``excitation_floor``.
    """
    fit = _plain_fit(records)
    if fit is None or fit.n < min_samples or fit.plcc < params.min_fit_plcc:
        return None
    mean_rate = math.fsum(fb.send_rate for fb in records) / len(records)
    excitation = fit.x_std / mean_rate if mean_rate > 0.0 else 0.0
    if excitation < params.excitation_floor:
        return None
    return fit


def _maybe_refit_k(state: IrisState, now: float) -> None:
    """Periodic slope re-fit over the most recent window of records.

    Attempts the gate rejects do not advance the update clock, so the
    fit retries every epoch and adopts as soon as an informative window
    (a capacity change, a competing flow, a loss burst) shows up,
    instead of waiting out another full period.
    """
    params = state.params
    if now - state.last_k_update < params.k_update_period:
        return
    cutoff = now - params.k_update_period
    recent = [fb for fb in state.history if fb.end >= cutoff]
    _adopt_fit(state, _gated_fit(params, recent, params.min_fit_samples), now)


def _record_measurement(state: IrisState, fb: EpochFeedback) -> None:
    state.history.append(fb)
    state.rtt_samples.append((fb.end, fb.mean_rtt))


def _log_entry(state: IrisState, fb: EpochFeedback, now: float, phase: Phase, k: float,
               objective: float | None = None, rtt_step: float | None = None,
               contraction: float | None = None) -> DecisionLogEntry:
    """The record of the decision a step just made: its rate is the
    state's current rate, its target the state's target delay."""
    return DecisionLogEntry(
        time=now,
        epoch_index=fb.index,
        phase=phase,
        rate=state.current_rate,
        k=k,
        measured=fb.measured,
        rtt=fb.mean_rtt,
        target_delay=state.target_delay,
        objective=objective,
        rtt_step=rtt_step,
        recv_rate=fb.recv_rate if fb.measured else None,
        contraction=contraction,
    )


def on_epoch_end(state: IrisState, fb: EpochFeedback, now: float) -> DecisionLogEntry:
    """One steady-state control step.

    An unmeasured epoch holds the rate.  A measured one is recorded,
    refreshes the target delay, derives the next pacing rate, and
    periodically re-fits the slope.  If the target window holds no
    sample and no target was ever set, the epoch's own RTT becomes the
    target.  Loss does not enter the decision directly: random loss must
    not read as congestion, and genuine congestion already shows up in
    the RTT.
    """
    if not fb.measured:
        return _log_entry(state, fb, now, Phase.STEADY, state.k)
    params = state.params
    _record_measurement(state, fb)
    target = update_target_delay(state, now)
    if target is None:
        target = state.target_delay = fb.mean_rtt
    objective = compute_objective(fb.send_rate, fb.mean_rtt, target, params.queue_load_target)
    rtt_step = expected_rtt_variation(objective, params.rtt_step_bound, params.objective_scale)
    k_used = effective_slope(params, state.k, fb.mean_rtt, target)
    state.current_rate = next_sending_rate(fb.recv_rate, rtt_step, k_used,
                                           params.k_min, params.rate_floor)
    _maybe_refit_k(state, now)
    return _log_entry(state, fb, now, Phase.STEADY, k_used, objective, rtt_step,
                      gap_contraction_factor(params, fb.mean_rtt, target, k_used))


def _exit_cold(state: IrisState, fb: EpochFeedback,
               fit: RegressionFit | None, now: float) -> None:
    """Leave the ramp: install the fit and land on the receiving rate."""
    state.phase = Phase.STEADY
    if not _adopt_fit(state, fit, now):
        state.k = state.params.k_min  # ramp data was degenerate; learn on the fly
    if fb.measured:
        landing = fb.recv_rate
    elif state.history:
        landing = state.history[-1].recv_rate
    else:
        landing = state.current_rate
    state.current_rate = max(state.params.rate_floor, landing)


def cold_start_step(state: IrisState, fb: EpochFeedback, now: float) -> DecisionLogEntry:
    """One cold-start step: double the rate until loss reveals capacity.

    A loss burst — a per-epoch loss rate that jumps ``cold_loss_jump``
    above the previous epoch's and clears ``cold_loss_threshold`` —
    marks the probe as having overfilled the bottleneck.  (Requiring a
    jump keeps a noisy but steady background loss rate from reading as
    an overshoot; on thin epochs of one or two packets a single stray
    drop swings the measured rate violently.)  Loss pinned at
    saturation never jumps epoch over epoch, so a rate at or above
    ``cold_loss_severe`` counts as a burst on its own; without that a
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
    record logs the slope the flow had before the step.
    """
    params = state.params
    k = state.k
    if fb.measured:
        _record_measurement(state, fb)
        update_target_delay(state, now)
    loss_rate = fb.loss_rate
    prev_loss = state.prev_loss_rate
    state.prev_loss_rate = loss_rate
    loss_burst = (
        loss_rate > params.cold_loss_threshold
        and (loss_rate > prev_loss + params.cold_loss_jump
             or loss_rate >= params.cold_loss_severe)
    )
    if state.current_rate >= params.rate_ceiling:
        _exit_cold(state, fb, _plain_fit(state.history), now)
    elif loss_burst:
        fit = _gated_fit(params, state.history, params.cold_fit_samples)
        if fit is not None:
            _exit_cold(state, fb, fit, now)
        else:
            # Burst before the ramp became informative: back off, keep probing.
            state.current_rate = max(params.rate_floor,
                                     state.current_rate * params.cold_backoff)
    else:
        state.current_rate = min(state.current_rate * 2.0, params.rate_ceiling)
    return _log_entry(state, fb, now, Phase.COLD_START, k)


# --- simulator-facing adapter ----------------------------------------------

class IrisController:
    """Adapter that drives the controller from simulator epoch feedback."""

    kind = "iris"

    def __init__(self, params: IrisParams | None = None):
        self.params = params or IrisParams()
        self.state = new_state(self.params)
        self.decisions: list[DecisionLogEntry] = []

    @property
    def epoch_len(self) -> float:
        return self.params.epoch_len

    def start_rate(self) -> float:
        return self.state.current_rate

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        step = cold_start_step if self.state.phase is Phase.COLD_START else on_epoch_end
        entry = step(self.state, feedback, now)
        self.decisions.append(entry)
        return entry.rate
