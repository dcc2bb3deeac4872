"""Least-squares fitting of the delay-response model.

The controller models the per-epoch RTT change as a linear response to
rate overshoot::

    delta_rtt = k * (send_rate - recv_rate) + b

``k`` (ms per packet/ms) captures how fast queueing delay reacts when a
sender outpaces the bottleneck; ``b`` absorbs measurement noise.  The
fit is ordinary least squares, which is the maximum-likelihood estimate
under Gaussian noise.  Sums are computed around the means (with
``math.fsum``) so large offsets do not cancel catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Sample:
    """One regression observation: rate overshoot vs. RTT change."""

    rate_diff: float   # send_rate - recv_rate, packets/ms
    delta_rtt: float   # rtt_i - rtt_{i-1}, ms


@dataclass(frozen=True)
class RegressionFit:
    """A fitted slope/intercept plus goodness of fit."""

    k: float      # slope, ms per (packet/ms)
    b: float      # intercept, ms
    plcc: float   # Pearson linear correlation coefficient, in [-1, 1]
    n: int        # number of samples behind the fit

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"a defined fit needs n >= 2 samples, got {self.n}")
        if not -1.0 - 1e-12 <= self.plcc <= 1.0 + 1e-12:
            raise ValueError(f"plcc out of [-1, 1]: {self.plcc}")


def fit_k_b(samples: Sequence[Sample]) -> RegressionFit | None:
    """Fit ``delta_rtt = k * rate_diff + b`` by least squares.

    Returns ``None`` when no meaningful fit exists: fewer than two
    samples, non-finite values, or zero variance in either coordinate
    (a degenerate cloud has no usable slope and an undefined
    correlation).  Callers treat ``None`` as "keep whatever estimate you
    already have".
    """
    n = len(samples)
    if n < 2:
        return None
    xs = [s.rate_diff for s in samples]
    ys = [s.delta_rtt for s in samples]
    if not all(map(math.isfinite, xs)) or not all(map(math.isfinite, ys)):
        return None
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    if sxx <= 0.0 or syy <= 0.0:
        return None
    k = sxy / sxx
    b = my - k * mx
    corr = sxy / math.sqrt(sxx * syy)
    # Guard against rounding pushing a perfect correlation past +/-1.
    corr = max(-1.0, min(1.0, corr))
    return RegressionFit(k=k, b=b, plcc=corr, n=n)


def delta_samples(rows: Iterable[tuple[float, float, float]]) -> list[Sample]:
    """Difference a time-ordered rate/RTT series into regression samples.

    ``rows`` holds ``(send_rate, recv_rate, rtt)`` triples, one per
    epoch.  Row *i* (for ``i >= 1``) contributes ``(send_rate_i -
    recv_rate_i, rtt_i - rtt_{i-1})``.  For a trace CSV the receive rate
    is the ``throughput`` column; each flow's rows are differenced on
    their own, so samples never span two flows.
    """
    samples: list[Sample] = []
    prev_rtt: float | None = None
    for send_rate, recv_rate, rtt in rows:
        if prev_rtt is not None:
            samples.append(Sample(rate_diff=send_rate - recv_rate, delta_rtt=rtt - prev_rtt))
        prev_rtt = rtt
    return samples


def analyze_trace(rows: Iterable[tuple[float, float, float]]) -> RegressionFit | None:
    """Fit the delay-response model to one flow's rate/RTT series.

    The samples are :func:`delta_samples` of ``rows``.  Fewer than three
    rows cannot produce the two samples a fit needs, so the result is
    ``None``.  ``iriscc analyze`` pools every flow's samples into one
    fit instead of fitting each flow alone.
    """
    return fit_k_b(delta_samples(rows))
