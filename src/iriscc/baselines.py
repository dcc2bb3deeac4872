"""Reference controllers to compare against: loss-based AIMD and
delay-based Vegas, both reduced to their textbook cores, plus a trivial
constant-rate sender.

Both TCP-style baselines keep a congestion window in packets and
convert it to a pacing rate with ``cwnd / rtt_estimate``; the epoch
length is close to one RTT in the scenarios of interest, so per-epoch
updates approximate per-RTT updates.  Both start from an RTT estimate
of :data:`INITIAL_RTT`, and AIMD from a slow-start threshold of
:data:`INITIAL_SSTHRESH`, so large that only a loss ends slow start.
"""

from __future__ import annotations

import math

from .feedback import EpochFeedback, require_positive

_RTT_EWMA_WEIGHT = 0.125  # classic smoothed-RTT gain
INITIAL_RTT = 100.0       # ms, the RTT estimate before any feedback
INITIAL_SSTHRESH = 1e9    # packets: no threshold until the first loss


def _require_initial_cwnd(initial_cwnd: float) -> None:
    if not 1 <= initial_cwnd < math.inf:
        raise ValueError(f"initial_cwnd must be >= 1 and finite, got {initial_cwnd}")


class AimdController:
    """Loss-driven sawtooth controller (slow start + AIMD).  Slow start
    is ``cwnd < ssthresh``: a loss sets both to the same value, and
    above ssthresh the window only grows."""

    kind = "aimd"

    def __init__(self, epoch_len: float = 50.0, initial_cwnd: float = 10.0):
        require_positive("epoch_len", epoch_len)
        _require_initial_cwnd(initial_cwnd)
        self.epoch_len = epoch_len
        self.cwnd = initial_cwnd          # packets
        self.ssthresh = INITIAL_SSTHRESH  # packets
        self.rtt_est = INITIAL_RTT        # smoothed RTT, ms

    def start_rate(self) -> float:
        return self.cwnd / self.rtt_est

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        rtt = feedback.mean_rtt
        if rtt is not None:
            self.rtt_est += _RTT_EWMA_WEIGHT * (rtt - self.rtt_est)
        if feedback.dropped > 0:
            # One multiplicative decrease per epoch, however many packets
            # died: halve the window, never below one packet.
            self.ssthresh = self.cwnd = max(1.0, self.cwnd / 2.0)
        else:
            # Each ACK grows the window exponentially below ssthresh, by
            # 1/cwnd (one packet per window) above it.
            cwnd, ssthresh = self.cwnd, self.ssthresh
            for _ in range(feedback.acked):
                cwnd += 1.0 if cwnd < ssthresh else 1.0 / cwnd
            self.cwnd = cwnd
        return self.cwnd / self.rtt_est


class VegasController:
    """Delay-driven controller holding a few packets in the queue."""

    kind = "vegas"

    def __init__(self, epoch_len: float = 50.0, alpha: float = 2.0, beta: float = 4.0,
                 initial_cwnd: float = 10.0):
        require_positive("epoch_len", epoch_len)
        _require_initial_cwnd(initial_cwnd)
        if not 0 < alpha <= beta < math.inf:
            raise ValueError(f"need 0 < alpha <= beta, both finite, got alpha={alpha}, beta={beta}")
        self.epoch_len = epoch_len
        self.cwnd = initial_cwnd     # packets
        self.base_rtt = math.inf     # smallest RTT seen, ms
        self.alpha = alpha           # lower bound of the queued-packet band
        self.beta = beta             # upper bound of the queued-packet band
        self.rtt_est = INITIAL_RTT   # the latest epoch's mean RTT, ms

    def start_rate(self) -> float:
        return self.cwnd / self.rtt_est

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        """One per-RTT window update from the queued-packet estimate.

        ``cwnd * (1 - base_rtt/rtt)`` estimates how many of this flow's
        packets are queued; the window walks up or down by one packet to
        keep that inside [alpha, beta].  An unmeasured epoch holds it.
        """
        rtt = feedback.mean_rtt
        if rtt is not None:
            self.rtt_est = rtt
            self.base_rtt = min(self.base_rtt, rtt)
            diff = self.cwnd * (1.0 - self.base_rtt / rtt)
            if diff < self.alpha:
                self.cwnd += 1.0
            elif diff > self.beta:
                self.cwnd = max(1.0, self.cwnd - 1.0)
        return self.cwnd / self.rtt_est


class ConstantRateController:
    """Fixed pacing rate; useful for load generators in tests."""

    kind = "constant"

    def __init__(self, rate: float, epoch_len: float = 50.0):
        require_positive("rate", rate)
        require_positive("epoch_len", epoch_len)
        self.rate = rate
        self.epoch_len = epoch_len

    def start_rate(self) -> float:
        return self.rate

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        return self.rate
