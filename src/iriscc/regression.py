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
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

# A spread below this fraction of its mean is the mean's own rounding:
# equal samples whose mean does not round back to them deviate from it
# by a few ulps, about 2**-52 of it each.
_MEAN_ROUNDING = 2.0 ** -50


@dataclass(frozen=True)
class RegressionFit:
    """A fitted slope/intercept plus goodness of fit."""

    k: float      # slope, ms per (packet/ms)
    b: float      # intercept, ms
    plcc: float   # Pearson linear correlation coefficient, in [-1, 1]
    n: int        # number of samples behind the fit
    x_std: float  # population standard deviation of the rate overshoot

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"a defined fit needs n >= 2 samples, got {self.n}")
        if not -1.0 - 1e-12 <= self.plcc <= 1.0 + 1e-12:
            raise ValueError(f"plcc out of [-1, 1]: {self.plcc}")


def fit_k_b(xs: Sequence[float], ys: Sequence[float]) -> RegressionFit | None:
    """Fit ``delta_rtt = k * rate_diff + b`` by least squares.

    ``xs`` holds the rate overshoots and ``ys`` the RTT changes, pairwise.
    Returns ``None`` when no meaningful fit exists: fewer than two
    samples, non-finite values, a sum beyond the float range, or no
    variance in either coordinate (a degenerate cloud has no usable
    slope and an undefined correlation; a sum of squares below the
    smallest normal float has lost its precision, and a spread below
    ``_MEAN_ROUNDING`` of its mean is that mean's rounding, so both
    count as none).
    Callers treat ``None`` as "keep whatever estimate you already
    have".  The fit also reports ``x_std``, the population standard
    deviation of ``xs``.
    """
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"xs and ys differ in length: {n} != {len(ys)}")
    if n < 2:
        return None
    if not all(map(math.isfinite, xs)) or not all(map(math.isfinite, ys)):
        return None
    try:
        mx = math.fsum(xs) / n
        my = math.fsum(ys) / n
        sxx = math.fsum((x - mx) ** 2 for x in xs)
        syy = math.fsum((y - my) ** 2 for y in ys)
        sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    except OverflowError:  # a sum beyond the float range
        return None
    if sxx < sys.float_info.min or syy < sys.float_info.min:
        return None
    x_std = math.sqrt(sxx / n)
    if x_std <= abs(mx) * _MEAN_ROUNDING or math.sqrt(syy / n) <= abs(my) * _MEAN_ROUNDING:
        return None
    k = sxy / sxx
    b = my - k * mx
    product = sxx * syy  # the roots are taken apart only where this under- or overflows
    corr = sxy / (math.sqrt(product) if sys.float_info.min <= product <= sys.float_info.max
                  else math.sqrt(sxx) * math.sqrt(syy))
    # Guard against rounding pushing a perfect correlation past +/-1.
    corr = max(-1.0, min(1.0, corr))
    return RegressionFit(k=k, b=b, plcc=corr, n=n, x_std=x_std)


def delta_samples(rows: Iterable[tuple[float, float, float]]) -> tuple[list[float], list[float]]:
    """Difference a time-ordered rate/RTT series into regression samples.

    ``rows`` holds ``(send_rate, recv_rate, rtt)`` triples, one per
    epoch.  Row *i* (for ``i >= 1``) adds ``send_rate_i - recv_rate_i``
    to ``xs`` and ``rtt_i - rtt_{i-1}`` to ``ys``; the result ``(xs,
    ys)`` is what :func:`fit_k_b` takes.  For a trace CSV the receive
    rate is the ``throughput`` column; each flow's rows are differenced
    on their own, so samples never span two flows.
    """
    xs: list[float] = []
    ys: list[float] = []
    prev_rtt: float | None = None
    for send_rate, recv_rate, rtt in rows:
        if prev_rtt is not None:
            xs.append(send_rate - recv_rate)
            ys.append(rtt - prev_rtt)
        prev_rtt = rtt
    return xs, ys


def analyze_trace(rows: Iterable[tuple[float, float, float]]) -> RegressionFit | None:
    """Fit the delay-response model to one flow's rate/RTT series.

    The samples are :func:`delta_samples` of ``rows``.  Fewer than three
    rows cannot produce the two samples a fit needs, so the result is
    ``None``.  ``iriscc analyze`` pools every flow's samples into one
    fit instead of fitting each flow alone.
    """
    return fit_k_b(*delta_samples(rows))
