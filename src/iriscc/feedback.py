"""Per-epoch feedback handed from the simulator to rate controllers.

Controllers never see individual packets.  At each epoch timer the
simulator summarizes every closed epoch whose packets have all been
ACKed or dropped, in index order: sending rate, mean RTT, estimated
receiving rate and RTT change.  That :class:`EpochFeedback` goes to the
controller, which returns the rate to use next, and the controllers
keep it as their record of the epoch.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol


# A NamedTuple may not override __new__, so the checks live in a subclass.
class _Fields(NamedTuple):
    index: int
    end: float              # epoch window end, ms
    send_rate: float        # actually emitted packets / epoch length
    sent: int
    acked: int
    dropped: int
    recv_rate: float | None # estimated receiving rate, packets/ms
    mean_rtt: float | None  # mean RTT over this epoch's ACKed packets, ms
    delta_rtt: float | None # mean_rtt minus previous measured epoch's, ms


class EpochFeedback(_Fields):
    """Measurement summary for one finished sender epoch.

    An epoch is :attr:`measured` when an ACK came back; otherwise
    (nothing was sent, or every packet was lost) it carries no receive
    estimate or RTT: ``recv_rate``, ``mean_rtt`` and ``delta_rtt`` are
    None.  Immutable; construction, :meth:`_make` and :meth:`_replace` check.
    """

    __slots__ = ()

    def __new__(cls, index, end, send_rate, sent, acked, dropped, recv_rate, mean_rtt, delta_rtt):
        measured = mean_rtt is not None
        if measured != (recv_rate is not None):
            raise ValueError(f"recv_rate must be None exactly when no ACK came back, got {recv_rate}")
        if not 0 <= send_rate < math.inf or (measured and not 0 <= recv_rate < math.inf):
            raise ValueError(f"rates must be non-negative and finite: {send_rate}, {recv_rate}")
        if measured and not (math.isfinite(mean_rtt) and mean_rtt > 0):
            raise ValueError(f"mean_rtt must be positive and finite, got {mean_rtt}")
        return tuple.__new__(cls, (index, end, send_rate, sent, acked, dropped,
                                   recv_rate, mean_rtt, delta_rtt))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def measured(self) -> bool:
        return self.mean_rtt is not None

    @property
    def loss_rate(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0


class RateController(Protocol):
    """What the simulator needs from any congestion controller."""

    kind: str
    epoch_len: float

    def start_rate(self) -> float:
        """Initial pacing rate in packets/ms, before any feedback."""
        ...

    def on_epoch(self, feedback: EpochFeedback, now: float) -> float:
        """Consume one epoch's feedback, return the next pacing rate."""
        ...
