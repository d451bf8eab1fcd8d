"""Power-kernel integration against scipy.integrate.quad oracles.

The library's quadrature routines avoid scipy.integrate on purpose so that
quad can serve as an independent check here: every window, closed-form tail,
and suffix sweep is compared against adaptive quadrature or an exact
antiderivative.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ultraweight import GridTooCoarse, InvalidArgument
from ultraweight.quadrature import (
    Y_CUT,
    SuffixSamples,
    TailSamples,
    power_log_tail,
    kernel_window,
    suffix_integral_grid,
)


class TestKernelWindow:
    def test_matches_quad_on_smooth_integrand(self):
        f = lambda u: np.log1p(u)
        a, b, s = 0.5, 200.0, 2.0
        oracle, err = quad(lambda u: math.log1p(u) * u ** -s, a, b, limit=400)
        got = kernel_window(f, a, b).integral(s)
        assert got == pytest.approx(oracle, rel=1e-10, abs=err)

    def test_exact_on_pure_power(self):
        # integral_1^b u**(1/2 - 2) du = 2 (1 - b**(-1/2))
        b = 1e6
        got = kernel_window(np.sqrt, 1.0, b).integral(2.0)
        assert got == pytest.approx(2.0 * (1.0 - b ** -0.5), rel=1e-12)

    def test_kink_forced_onto_panel_boundary(self):
        f = lambda u: np.maximum(u, 10.0)
        s = 2.0
        oracle, err = quad(lambda u: max(u, 10.0) * u ** -s, 1.0, 100.0,
                           points=[10.0], limit=400)
        got = kernel_window(f, 1.0, 100.0, kinks=(10.0,)).integral(s)
        assert got == pytest.approx(oracle, rel=1e-10, abs=err)

    def test_rejects_bad_window(self):
        with pytest.raises(InvalidArgument):
            kernel_window(np.sqrt, 0.0, 1.0)
        with pytest.raises(InvalidArgument):
            kernel_window(np.sqrt, 5.0, 5.0)


class TestPowerLogTail:
    def test_pure_power_closed_form(self):
        # integral_Y^inf 3 u**(1/2) u**(-2) du = 6 / sqrt(Y)
        Y = 50.0
        got = power_log_tail(3.0, 0.5, 0.0, 0.0, 2.0, Y)
        assert got == pytest.approx(6.0 / math.sqrt(Y), rel=1e-12)

    def test_log_factor_matches_quad(self):
        c, a, k, s, Y = 2.0, 0.3, 2.0, 2.0, 10.0
        oracle, err = quad(lambda u: c * u ** a * math.log(u) ** k * u ** -s,
                           Y, np.inf, limit=400)
        got = power_log_tail(c, a, k, 0.0, s, Y)
        assert got == pytest.approx(oracle, rel=1e-8, abs=10 * err)

    def test_offset_subtraction(self):
        c, a, k, off, s, Y = 2.0, 0.3, 1.0, 0.7, 2.0, 20.0
        oracle, err = quad(
            lambda u: (c * u ** a * math.log(u) ** k - off) * u ** -s,
            Y, np.inf, limit=400)
        got = power_log_tail(c, a, k, off, s, Y)
        assert got == pytest.approx(oracle, rel=1e-8, abs=10 * err)

    def test_divergent_growth_reports_infinity(self):
        assert power_log_tail(1.0, 1.0, 0.0, 0.0, 2.0, 10.0) == math.inf
        assert power_log_tail(1.0, 1.5, 2.0, 0.0, 2.0, 10.0) == math.inf

    def test_offset_with_nonintegrable_kernel_reports_infinity(self):
        assert power_log_tail(1.0, -0.5, 0.0, 0.3, 1.0, 10.0) == math.inf


class TestIntegralToInfinity:
    """integral_t^inf from one lower limit: a one-point suffix grid."""

    def test_closed_form_tail_on_sqrt_weight(self):
        # integral_t^inf u**(1/2) u**(-2) du = 2 / sqrt(t)
        tail = lambda Y: 2.0 / math.sqrt(Y)
        for t in (1.0, 10.0, 1e4):
            (got,) = suffix_integral_grid(np.sqrt, [t], 2.0, model_tail=tail)
            assert got == pytest.approx(2.0 / math.sqrt(t), rel=1e-10)

    def test_fitted_tail_is_exact_for_power_law(self):
        for t in (1.0, 250.0):
            (got,) = suffix_integral_grid(np.sqrt, [t], 2.0)
            assert got == pytest.approx(2.0 / math.sqrt(t), rel=1e-10)

    def test_fitted_tail_rejected_near_divergence(self):
        f = lambda u: u ** 0.46
        with pytest.raises(GridTooCoarse):
            suffix_integral_grid(f, [1.0], 1.5)

    def test_rejects_nonpositive_lower_limit(self):
        with pytest.raises(InvalidArgument):
            suffix_integral_grid(np.sqrt, [0.0], 2.0)
        with pytest.raises(InvalidArgument):
            TailSamples(np.sqrt, 0.0)

    @pytest.mark.parametrize("tail", [None, lambda Y: 2.0 / math.sqrt(Y)])
    def test_one_point_grid_is_the_tail_sampler(self, tail):
        for t in (0.5, 1.0, 37.0):
            (got,) = SuffixSamples(np.sqrt, np.array([t])).integrals(2.0, tail)
            assert got == TailSamples(np.sqrt, t).integral(2.0, tail)

    def test_one_point_grid_samples_no_panels(self):
        calls = []

        def f(u):
            calls.append(np.size(u))
            return np.sqrt(u)
        suffix_integral_grid(f, [3.0], 2.0, model_tail=lambda Y: 2.0 / math.sqrt(Y))
        assert calls == [len(kernel_window(np.sqrt, 3.0, 3.0 * Y_CUT).v)]


class TestSuffixGrid:
    def test_matches_pointwise_and_closed_form(self):
        ts = np.geomspace(1.0, 1e4, 25)
        tail = lambda Y: 2.0 / math.sqrt(Y)
        G = suffix_integral_grid(np.sqrt, ts, 2.0, model_tail=tail)
        for i, t in enumerate(ts):
            (point,) = suffix_integral_grid(np.sqrt, [t], 2.0, model_tail=tail)
            assert G[i] == pytest.approx(point, rel=1e-10)
            assert G[i] == pytest.approx(2.0 / math.sqrt(t), rel=1e-10)

    def test_piecewise_integrand_with_kink(self):
        # f jumps 1 -> 3 at u = 50; the jump is pinned to a panel boundary.
        f = lambda u: np.where(np.asarray(u) < 50.0, 1.0, 3.0)
        ts = np.geomspace(1.0, 1e3, 10)
        tail = lambda Y: 3.0 / Y
        G = suffix_integral_grid(f, ts, 2.0, model_tail=tail, kinks=(50.0,))
        for i, t in enumerate(ts):
            expect = 3.0 / t if t >= 50.0 else (1.0 / t - 1.0 / 50.0) + 3.0 / 50.0
            assert G[i] == pytest.approx(expect, rel=1e-10)

    def test_suffixes_decrease_for_positive_integrand(self):
        ts = np.geomspace(2.0, 500.0, 12)
        G = suffix_integral_grid(np.sqrt, ts, 2.0,
                                 model_tail=lambda Y: 2.0 / math.sqrt(Y))
        assert np.all(np.diff(G) < 0)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(InvalidArgument):
            suffix_integral_grid(np.sqrt, np.array([1.0, 3.0, 2.0]), 2.0)
