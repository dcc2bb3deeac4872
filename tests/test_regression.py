"""Least-squares fitting of the delay-response model.

Noisy-fit results are checked against two independent implementations
(numpy.polyfit and statistics.linear_regression); algebraic identities
of ordinary least squares (residual orthogonality, scale equivariance,
plcc**2 == R**2) are checked as properties.
"""

import math
import random
import statistics
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from iriscc.regression import (
    RegressionFit,
    analyze_trace,
    delta_samples,
    fit_k_b,
)


# --- exact fits --------------------------------------------------------------

def test_exact_line_recovered():
    xs = [0.0, 1.0, 2.0, 3.0]
    fit = fit_k_b(xs, [2.0 * x + 1.0 for x in xs])
    assert fit.k == pytest.approx(2.0, abs=1e-12)
    assert fit.b == pytest.approx(1.0, abs=1e-12)
    assert fit.plcc == pytest.approx(1.0, abs=1e-12)
    assert fit.n == 4


def test_negative_slope_and_plcc_sign():
    xs = [0.0, 1.0, 2.0]
    fit = fit_k_b(xs, [-0.5 * x + 3.0 for x in xs])
    assert fit.k == pytest.approx(-0.5, abs=1e-12)
    assert fit.plcc == pytest.approx(-1.0, abs=1e-12)


def test_two_points_exact():
    # Slope through (1, 10) and (-0.5, -5): 15 / 1.5 = 10, intercept 0.
    fit = fit_k_b([1.0, -0.5], [10.0, -5.0])
    assert fit.k == pytest.approx(10.0, abs=1e-9)
    assert fit.b == pytest.approx(0.0, abs=1e-9)
    assert fit.plcc == pytest.approx(1.0, abs=1e-12)


# --- agreement with independent implementations ------------------------------

def test_matches_numpy_polyfit_on_noisy_data():
    rng = random.Random(7)
    xs = [rng.uniform(-3.0, 3.0) for _ in range(200)]
    ys = [1.7 * x - 0.4 + rng.gauss(0.0, 0.3) for x in xs]
    fit = fit_k_b(xs, ys)
    k_np, b_np = np.polyfit(np.array(xs), np.array(ys), 1)
    assert fit.k == pytest.approx(float(k_np), rel=1e-9)
    assert fit.b == pytest.approx(float(b_np), rel=1e-9)
    corr_np = float(np.corrcoef(xs, ys)[0, 1])
    assert fit.plcc == pytest.approx(corr_np, rel=1e-9)


def test_matches_stdlib_linear_regression():
    rng = random.Random(11)
    xs = [rng.uniform(0.0, 10.0) for _ in range(50)]
    ys = [-2.2 * x + 5.0 + rng.gauss(0.0, 1.0) for x in xs]
    fit = fit_k_b(xs, ys)
    ref = statistics.linear_regression(xs, ys)
    assert fit.k == pytest.approx(ref.slope, rel=1e-9)
    assert fit.b == pytest.approx(ref.intercept, rel=1e-9)
    assert fit.plcc == pytest.approx(statistics.correlation(xs, ys), rel=1e-9)


# --- degenerate inputs --------------------------------------------------------

def test_too_few_samples():
    assert fit_k_b([], []) is None
    assert fit_k_b([1.0], [2.0]) is None


def test_series_of_different_lengths_are_an_error():
    with pytest.raises(ValueError):
        fit_k_b([1.0, 2.0, 3.0], [1.0, 2.0])


def test_zero_variance_x():
    assert fit_k_b([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


def test_zero_variance_y():
    assert fit_k_b([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None


def test_equal_samples_have_no_variance_though_their_mean_rounds():
    v = 699051.2133770275
    assert math.fsum([v] * 3) / 3 == v - 2.0 ** -33  # the mean does not round back to v
    assert fit_k_b([v] * 3, [0.0, 0.0, 1.0]) is None
    assert fit_k_b([0.0, 1.0, 2.0], [v] * 3) is None


def test_tiny_clouds():
    # The product of the two sums of squares (about 4e-377) underflows;
    # the correlation must still come out.
    tiny = [0.0, 0.0, 1.152558453460336e-94]
    fit = fit_k_b(tiny, tiny)
    assert fit.k == pytest.approx(1.0, rel=1e-12)
    assert fit.plcc == pytest.approx(1.0, rel=1e-12)
    # A sum of squares below the smallest normal float has lost its
    # precision: no spread to fit.
    assert fit_k_b([0.0, 0.0, 1e-160], [1.0, 2.0, 3.0]) is None


def test_sums_beyond_float_range():
    # Each of these sums overflows: the mean, a square, a sum of squares.
    assert fit_k_b([1.7e308, 1.7e308, 1.0], [0.0, 1.0, 2.0]) is None
    assert fit_k_b([0.0, 1.0, 1e200], [0.0, 1.0, 2.0]) is None
    assert fit_k_b([0.0, 1.0, 2.0], [0.0, 1e154, -1e154]) is None


def test_huge_clouds():
    # The product of the two sums of squares (about 4e400) overflows;
    # the correlation must still come out.
    huge = [0.0, 1e100, 2e100]
    fit = fit_k_b(huge, huge)
    assert fit.k == pytest.approx(1.0, rel=1e-12)
    assert fit.plcc == pytest.approx(1.0, rel=1e-12)


def test_non_finite_samples():
    assert fit_k_b([1.0, math.nan], [1.0, 2.0]) is None
    assert fit_k_b([1.0, 2.0], [math.inf, 2.0]) is None


def test_fit_requires_two_samples_to_construct():
    with pytest.raises(ValueError):
        RegressionFit(k=1.0, b=0.0, plcc=1.0, n=1, x_std=1.0)
    with pytest.raises(ValueError):
        RegressionFit(k=1.0, b=0.0, plcc=1.5, n=3, x_std=1.0)


def test_plcc_clamped_to_unit_interval():
    # A perfectly collinear cloud must not exceed 1.0 through rounding.
    xs = [i * 0.1 for i in range(100)]
    ys = [3.0 * x + 1e-9 for x in xs]
    assert abs(fit_k_b(xs, ys).plcc) <= 1.0


# --- trace differencing --------------------------------------------------------

def test_analyze_trace_differences_consecutive_rtts():
    # rtts 50 -> 60 -> 55 with overshoots 1 and -0.5 give samples
    # (1, +10) and (-0.5, -5): slope 10, intercept 0.
    rows = [(2.0, 2.0, 50.0), (3.0, 2.0, 60.0), (1.5, 2.0, 55.0)]
    fit = analyze_trace(rows)
    assert fit.k == pytest.approx(10.0, abs=1e-9)
    assert fit.b == pytest.approx(0.0, abs=1e-9)
    assert fit.n == 2


def test_delta_samples_pairs_overshoot_with_rtt_change():
    rows = [(2.0, 2.0, 50.0), (3.0, 2.0, 60.0), (1.5, 2.0, 55.0)]
    assert delta_samples(rows) == ([1.0, -0.5], [10.0, -5.0])
    assert delta_samples(rows[:1]) == ([], [])
    assert analyze_trace(rows) == fit_k_b(*delta_samples(rows))


def test_analyze_trace_too_short():
    assert analyze_trace([]) is None
    assert analyze_trace([(1.0, 1.0, 50.0)]) is None
    assert analyze_trace([(1.0, 1.0, 50.0), (2.0, 1.0, 60.0)]) is None


# --- algebraic properties -------------------------------------------------------

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@st.composite
def sample_clouds(draw):
    n = draw(st.integers(min_value=3, max_value=40))
    xs = draw(st.lists(finite_floats, min_size=n, max_size=n))
    ys = draw(st.lists(finite_floats, min_size=n, max_size=n))
    return xs, ys


@given(sample_clouds())
def test_residuals_orthogonal_to_regressor(cloud):
    xs, ys = cloud
    fit = fit_k_b(xs, ys)
    if fit is None:
        return
    residuals = [y - (fit.k * x + fit.b) for x, y in zip(xs, ys)]
    scale = max(1.0, max(abs(y) for y in ys)) * len(xs)
    assert math.fsum(residuals) == pytest.approx(0.0, abs=1e-6 * scale)
    xscale = max(1.0, max(abs(x) for x in xs))
    assert math.fsum(r * x for r, x in zip(residuals, xs)) == pytest.approx(
        0.0, abs=1e-6 * scale * xscale)


@given(sample_clouds(), st.floats(min_value=0.01, max_value=100.0))
@example(([0.0, 1.0, 2.0], [0.0, 2e-154, 0.0]), 0.5)
@example(([699051.2133770275] * 3, [0.0, 0.0, 1.0]), 0.01171875)
def test_slope_scale_equivariance(cloud, c):
    xs, ys = cloud
    fit = fit_k_b(xs, ys)
    if fit is None:
        return
    scaled_ys = [c * y for y in ys]
    scaled = fit_k_b(xs, scaled_ys)
    my = math.fsum(scaled_ys) / len(scaled_ys)
    if math.fsum((y - my) ** 2 for y in scaled_ys) < sys.float_info.min:
        # Scaled below the smallest normal float, the spread counts as none.
        assert scaled is None
        return
    assert scaled is not None
    assert scaled.k == pytest.approx(c * fit.k, rel=1e-6, abs=1e-9 * c)
    assert scaled.plcc == pytest.approx(fit.plcc, rel=1e-6, abs=1e-9)


@given(sample_clouds())
def test_plcc_squared_is_variance_explained(cloud):
    xs, ys = cloud
    fit = fit_k_b(xs, ys)
    if fit is None:
        return
    my = math.fsum(ys) / len(ys)
    sst = math.fsum((y - my) ** 2 for y in ys)
    sse = math.fsum((y - (fit.k * x + fit.b)) ** 2 for x, y in zip(xs, ys))
    assert fit.plcc ** 2 == pytest.approx(1.0 - sse / sst, rel=1e-6, abs=1e-9)


@given(sample_clouds())
def test_fit_reports_population_spread_of_overshoot(cloud):
    # The spread comes from the fit's own centred sum of squares; the
    # exact (fraction-based) pstdev and numpy's two-pass std are the
    # oracles.  Clouds whose spread is below 1e-6 of their magnitude are
    # left out: there every float algorithm loses relative precision.
    xs, ys = cloud
    assume(statistics.pstdev(xs) > 1e-6 * max(map(abs, xs)))
    fit = fit_k_b(xs, ys)
    assume(fit is not None)
    assert fit.x_std == pytest.approx(statistics.pstdev(xs), rel=1e-12)
    assert fit.x_std == pytest.approx(float(np.std(xs)), rel=1e-12)
