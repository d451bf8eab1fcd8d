"""Convex piecewise-linear conjugation."""

import math

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import (ConvexPL, LogPower, PowerLaw, conjugate_pl,
                         convexify, normalize, young_conjugate)

from conftest import brute_conjugate


def random_convex_pl(rng: np.random.Generator, scale: float = 10.0) -> ConvexPL:
    k = int(rng.integers(3, 12))
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, size=k))])
    slopes = np.cumsum(rng.uniform(0.0, scale, size=k))
    vals = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return ConvexPL(xs, vals, extrapolation_slope=float(slopes[-1] + 1.0))


class TestConvexPL:
    def test_interpolation_exact_at_breakpoints(self):
        pl = ConvexPL(np.array([0.0, 1.0, 3.0]), np.array([0.0, 1.0, 5.0]),
                      extrapolation_slope=3.0)
        assert pl.value(1.0) == 1.0
        assert pl.value(2.0) == pytest.approx(3.0)
        assert pl.value(4.0) == pytest.approx(8.0)

    def test_nonconvex_breakpoints_rejected_at_conjugation(self):
        bad = ConvexPL(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 2.5]),
                       extrapolation_slope=0.1)
        with pytest.raises(uw.ConvexityViolation) as err:
            conjugate_pl(bad)
        assert err.value.triple is not None

    def test_convexify_reports_defect(self):
        xs = np.array([0.0, 1.0, 2.0, 3.0])
        vals = np.array([0.0, 1.5, 2.0, 4.0])  # middle point above the hull
        pl, defect = convexify(xs, vals)
        assert defect > 0
        hull_at_1 = pl.value(1.0)
        assert hull_at_1 <= 1.5


class TestConjugation:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            pl = random_convex_pl(rng)
            conj = conjugate_pl(pl)
            for x in np.linspace(0.0, conj.xs[-1], 9):
                brute = brute_conjugate(pl, float(x), float(pl.xs[-1]))
                assert conj.value(float(x)) == pytest.approx(brute, abs=1e-6)

    def test_biconjugation_fixes_convex_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            pl = random_convex_pl(rng)
            back = conjugate_pl(conjugate_pl(pl))
            vals = np.array([pl.value(float(x)) for x in pl.xs])
            rebuilt = np.array([back.value(float(x)) for x in pl.xs])
            assert np.max(np.abs(vals - rebuilt)) <= 1e-9

    def test_conjugate_slopes_nondecreasing(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            conj = conjugate_pl(random_convex_pl(rng))
            assert np.all(np.diff(conj.slopes) >= -1e-12)


class TestYoungConjugate:
    def test_zero_at_zero_for_normalized_weights(self):
        inputs = []
        for a in np.linspace(0.1, 1.0, 10):
            inputs.append(normalize(PowerLaw(float(a))))
        for k in (1.0, 1.5, 2.0, 3.0):
            inputs.append(normalize(LogPower(k)))
        inputs.append(normalize(uw.associated_function(uw.gevrey(1.0))))
        inputs.append(normalize(uw.associated_function(uw.gevrey(2.0))))
        inputs.append(normalize(uw.KappaPower(PowerLaw(0.5), 1.0)))
        inputs.append(normalize(power_substitute_chain()))
        assert len(inputs) >= 20 - 2
        for fn in inputs:
            conj = young_conjugate(fn)
            assert abs(conj.value(0.0)) <= 1e-9, fn.label

    def test_clamped_exponential_closed_form(self):
        # the normalized linear weight has log-scale profile e^y - 1, whose
        # conjugate is x log x - x + 1 above slope 1 and 0 below it
        conj = young_conjugate(normalize(PowerLaw(1.0)))
        for x in (1.0, math.e, 5.0, 20.0):
            expected = x * math.log(x) - x + 1.0 if x >= 1.0 else 0.0
            assert conj.value(x) == pytest.approx(expected, abs=1e-3)
        assert conj.value(0.5) == pytest.approx(0.0, abs=1e-3)

    def test_nondecreasing_output(self):
        conj = young_conjugate(normalize(PowerLaw(0.5)))
        xs = np.linspace(0.0, conj.xs[-1], 200)
        vals = np.array([conj.value(float(x)) for x in xs])
        assert np.all(np.diff(vals) >= -1e-12)

    def test_nonconvex_profile_rejected(self):
        # a weight whose log-scale profile is concave must be refused
        with pytest.raises(uw.ConvexityViolation) as err:
            young_conjugate(LogPower(0.5))
        assert err.value.triple is not None


def power_substitute_chain():
    return uw.power_substitute(PowerLaw(0.25), 2.0)
