"""Reference controllers to compare against: loss-based AIMD and
delay-based Vegas, both reduced to their textbook cores, plus a trivial
constant-rate sender.

Both TCP-style baselines keep a congestion window in packets and
convert it to a pacing rate with ``cwnd / rtt_estimate``; the epoch
length is close to one RTT in the scenarios of interest, so per-epoch
updates approximate per-RTT updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .feedback import EpochFeedback

_RTT_EWMA_WEIGHT = 0.125  # classic smoothed-RTT gain


def _require_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _require_initial_cwnd(initial_cwnd: float) -> None:
    if not 1 <= initial_cwnd < math.inf:
        raise ValueError(f"initial_cwnd must be >= 1 and finite, got {initial_cwnd}")


@dataclass
class AimdState:
    """Slow start is ``cwnd < ssthresh``: a loss sets both to the same
    value, and above ssthresh the window only grows."""

    cwnd: float              # packets
    ssthresh: float          # packets
    rtt_est: float           # smoothed RTT, ms


def aimd_on_ack(state: AimdState) -> None:
    """Grow the window for one ACK: exponentially below ssthresh,
    by 1/cwnd (one packet per window) above it."""
    if state.cwnd < state.ssthresh:
        state.cwnd += 1.0
    else:
        state.cwnd += 1.0 / state.cwnd


def aimd_on_loss(state: AimdState) -> None:
    """Multiplicative decrease: halve the window, never below one packet."""
    state.ssthresh = max(1.0, state.cwnd / 2.0)
    state.cwnd = max(1.0, state.cwnd / 2.0)


class AimdController:
    """Loss-driven sawtooth controller (slow start + AIMD)."""

    kind = "aimd"

    def __init__(self, epoch_len: float = 50.0, initial_cwnd: float = 10.0,
                 initial_ssthresh: float = 1e9, initial_rtt: float = 100.0):
        _require_positive("epoch_len", epoch_len)
        _require_positive("initial_rtt", initial_rtt)
        _require_initial_cwnd(initial_cwnd)
        if not initial_ssthresh >= 1:  # infinity: no threshold
            raise ValueError(f"initial_ssthresh must be >= 1, got {initial_ssthresh}")
        self.epoch_len = epoch_len
        self.state = AimdState(cwnd=initial_cwnd, ssthresh=initial_ssthresh, rtt_est=initial_rtt)

    def start_rate(self) -> float:
        return self.state.cwnd / self.state.rtt_est

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        state = self.state
        if feedback.measured:
            assert feedback.mean_rtt is not None
            state.rtt_est += _RTT_EWMA_WEIGHT * (feedback.mean_rtt - state.rtt_est)
        if feedback.dropped > 0:
            # One congestion event per epoch, however many packets died.
            aimd_on_loss(state)
        else:
            for _ in range(feedback.acked):
                aimd_on_ack(state)
        return state.cwnd / state.rtt_est


@dataclass
class VegasState:
    cwnd: float      # packets
    base_rtt: float  # smallest RTT seen, ms
    alpha: float     # lower bound of the queued-packet band
    beta: float      # upper bound of the queued-packet band


def vegas_update(state: VegasState, rtt: float) -> float:
    """One per-RTT window update from the queued-packet estimate.

    ``cwnd * (1 - base_rtt/rtt)`` estimates how many of this flow's
    packets are queued; the window walks up or down by one packet to
    keep that inside [alpha, beta].  Returns the new window.
    """
    state.base_rtt = min(state.base_rtt, rtt)
    diff = state.cwnd * (1.0 - state.base_rtt / rtt)
    if diff < state.alpha:
        state.cwnd += 1.0
    elif diff > state.beta:
        state.cwnd = max(1.0, state.cwnd - 1.0)
    return state.cwnd


class VegasController:
    """Delay-driven controller holding a few packets in the queue."""

    kind = "vegas"

    def __init__(self, epoch_len: float = 50.0, alpha: float = 2.0, beta: float = 4.0,
                 initial_cwnd: float = 10.0, initial_rtt: float = 100.0):
        _require_positive("epoch_len", epoch_len)
        _require_positive("initial_rtt", initial_rtt)
        _require_initial_cwnd(initial_cwnd)
        if not 0 < alpha <= beta < math.inf:
            raise ValueError(f"need 0 < alpha <= beta, both finite, got alpha={alpha}, beta={beta}")
        self.epoch_len = epoch_len
        self.state = VegasState(cwnd=initial_cwnd, base_rtt=math.inf, alpha=alpha, beta=beta)
        self._rtt_est = initial_rtt

    def start_rate(self) -> float:
        return self.state.cwnd / self._rtt_est

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        if feedback.measured:
            assert feedback.mean_rtt is not None
            self._rtt_est = feedback.mean_rtt
            vegas_update(self.state, feedback.mean_rtt)
        return self.state.cwnd / self._rtt_est


class ConstantRateController:
    """Fixed pacing rate; useful for load generators in tests."""

    kind = "constant"

    def __init__(self, rate: float, epoch_len: float = 50.0):
        _require_positive("rate", rate)
        _require_positive("epoch_len", epoch_len)
        self.rate = rate
        self.epoch_len = epoch_len

    def start_rate(self) -> float:
        return self.rate

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        return self.rate
