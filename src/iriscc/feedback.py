"""Per-epoch feedback handed from the simulator to rate controllers.

Controllers never see individual packets.  At each epoch timer the
simulator summarizes every closed epoch whose packets have all been
ACKed or dropped, in index order, into what its sender observed:
sending rate, packet counts, mean RTT and latest ACK time.  That
:class:`EpochFeedback` goes to the controller, which makes its own
estimates from it and returns the rate to use next.
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
    mean_rtt: float | None  # mean RTT over this epoch's ACKed packets, ms
    last_ack: float | None  # time of this epoch's latest ACK, ms


class EpochFeedback(_Fields):
    """Measurement summary for one finished sender epoch.

    An epoch is :attr:`measured` when an ACK came back; otherwise
    (nothing was sent, or every packet was lost) it carries no RTT or
    ACK time: ``mean_rtt`` and ``last_ack`` are None.  Immutable;
    construction, :meth:`_make` and :meth:`_replace` check.
    """

    __slots__ = ()

    def __new__(cls, index, end, send_rate, sent, acked, dropped, mean_rtt, last_ack):
        measured = mean_rtt is not None
        if measured != (last_ack is not None):
            raise ValueError(f"last_ack must be None exactly when no ACK came back, got {last_ack}")
        if not 0 <= send_rate < math.inf:
            raise ValueError(f"send_rate must be non-negative and finite, got {send_rate}")
        # Chained comparisons: NaN fails them as it fails isfinite.
        if measured and not (0 < mean_rtt < math.inf and -math.inf < last_ack < math.inf):
            raise ValueError(f"mean_rtt must be positive and finite and last_ack finite, "
                             f"got {mean_rtt} and {last_ack}")
        return tuple.__new__(cls, (index, end, send_rate, sent, acked, dropped, mean_rtt, last_ack))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def measured(self) -> bool:
        return self.mean_rtt is not None

    @property
    def loss_rate(self) -> float:
        return self.dropped / self.sent if self.sent else 0.0


def require_positive(name: str, value: float) -> None:
    """Reject a controller knob that is not positive and finite."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


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
