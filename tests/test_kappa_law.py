"""Kernel averages of an exact power law, read from the law against quadrature.

`KappaPower.eval` gives every point t >= the start of its exact model
coeff * t**a - offset (`GrowthModel.law`) and integrates only below it.  The
differential part computes the same points by the suffix-integral route that
every point took before (`suffix_integral_grid` on the node's own base,
closing tail and kinks), by a 30-digit mpmath integral of the base's law,
and by `perfbench/oracle.py`'s independent quad formula; the rest pins the
per-point split and the gauges that keep the integral route.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import ultraweight as uw
from ultraweight import functions
from ultraweight.functions import (GrowthModel, KappaPower, NormalizedShift,
                                   PiecewiseGlue, PowerLaw, PowerSubst)
from ultraweight.quadrature import suffix_integral_grid
from ultraweight.specio import make_function

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from oracle import kappa_power_normalized_quad  # noqa: E402

REL = 1e-12


def root_glue() -> PiecewiseGlue:
    """sqrt(t) below 10, 2 sqrt(t) - sqrt(10) past it: exact from 10 on."""
    return PiecewiseGlue(PowerLaw(0.5), [10.0], [1.0, 2.0], [0.0, math.sqrt(10.0)])


# name -> (base factory, exponent a of its law, its law for mpmath): each
# law holds from the start of the base's model on
BASES = {
    "power": (lambda: PowerLaw(0.5, 3.0), 0.5, lambda u: 3 * mp.sqrt(u)),
    "normalized": (lambda: NormalizedShift(PowerLaw(0.5, 3.0)), 0.5,
                   lambda u: 3 * mp.sqrt(u) - 3),
    "subst": (lambda: PowerSubst(PowerLaw(0.5), 1.5), 0.75, lambda u: u ** 0.75),
    "glue": (root_glue, 0.5, lambda u: 2 * mp.sqrt(u) - mp.sqrt(10)),
    "kappa": (lambda: KappaPower(PowerLaw(0.5), 1.0), 0.5, lambda u: 2 * mp.sqrt(u)),
}


def mp_kappa(law, r: float, t: float) -> float:
    """(1/r) integral_0^inf law(t e^v) e^(-v/r) dv at 30 digits: u = t e^v
    in the defining integral."""
    with mp.workdps(30):
        t, r = mp.mpf(t), mp.mpf(r)
        return float(mp.quad(lambda v: law(t * mp.exp(v)) * mp.exp(-v / r),
                             [0, 1, 10, mp.inf]) / r)


def quadrature_route(node: KappaPower, ts: np.ndarray) -> np.ndarray:
    """(1/r) t**(1/r) integral_t^inf base(u) u**(-1-1/r) du at ascending ts."""
    G = suffix_integral_grid(node.base.eval, ts, node.s, model_tail=node._tail,
                             kinks=node.base.kinks)
    return ts ** (1.0 / node.r) * G / node.r


def rel_err(got, want) -> float:
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.fixture
def integral_calls(monkeypatch) -> list:
    """The calls `KappaPower.eval` makes to `suffix_integral_grid`."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return suffix_integral_grid(*args, **kwargs)
    monkeypatch.setattr(functions, "suffix_integral_grid", counted)
    return calls


def points_past(node: KappaPower) -> np.ndarray:
    start = node.model.law_start
    return np.geomspace(start, start * 1e8, 41)


# kernel orders r; "close" is the r with r * a = 0.99, where the factor
# 1/(1 - r a) is 100 and the kernel decays slowly
ORDERS = [0.25, 0.5, 1.0, "close"]


def kappa_of(base: str, r) -> KappaPower:
    build, a, _ = BASES[base]
    return KappaPower(build(), 0.99 / a if r == "close" else r)


class TestTheLawAgreesWithQuadrature:
    @pytest.mark.parametrize("r", ORDERS)
    @pytest.mark.parametrize("base", sorted(BASES))
    def test_against_the_suffix_integral(self, base, r):
        node = kappa_of(base, r)
        assert math.isfinite(node.model.law_start)
        ts = points_past(node)
        assert rel_err(node.eval(ts), quadrature_route(node, ts)) <= REL

    @pytest.mark.parametrize("r", ORDERS)
    @pytest.mark.parametrize("base", sorted(BASES))
    def test_against_a_30_digit_integral(self, base, r):
        node = kappa_of(base, r)
        ts = points_past(node)[::10]
        want = [mp_kappa(BASES[base][2], node.r, float(t)) for t in ts]
        assert rel_err(node.eval(ts), want) <= REL

    @pytest.mark.parametrize("a, r", [(0.5, 0.25), (0.5, 0.5), (0.5, 1.0),
                                      (2.0, 0.25), (0.99, 1.0), (1.98, 0.5)])
    def test_normalized_power_against_the_benchmark_oracle(self, a, r):
        # the oracle integrates with scipy's quad, which is good to a few 1e-6
        # here (the benchmark judges answers against it at 1e-4)
        node = uw.normalize(KappaPower(PowerLaw(a), r))
        ts = np.geomspace(1.0, 1e8, 17)
        want = [kappa_power_normalized_quad(a, r, float(t)) for t in ts]
        assert rel_err(node.eval(ts), want) <= 1e-5

    def test_the_law_is_the_closed_form(self):
        node = KappaPower(PowerLaw(0.5, 3.0), 0.5)
        assert node.model.law_start == 1.0
        ts = np.geomspace(1.0, 1e6, 7)
        assert np.array_equal(node.eval(ts), 3.0 / (1.0 - 0.25) * ts ** 0.5)

    def test_no_quadrature_past_the_start(self, integral_calls):
        for base in sorted(BASES):
            node = KappaPower(BASES[base][0](), 1.0)
            node.eval(points_past(node))
        assert integral_calls == []


class TestThePerPointSplit:
    @pytest.mark.parametrize("base", sorted(BASES))
    def test_one_point_is_the_sweep_value(self, base):
        # a sweep straddling the start: past it every value is the law's, bit
        # for bit; below it a lone point integrates on a grid of its own
        node = KappaPower(BASES[base][0](), 0.5)
        start = node.model.law_start
        ts = np.geomspace(start / 50.0, start * 1e6, 301)
        sweep = node.eval(ts)
        for i in range(0, len(ts), 20):
            one = node.value(float(ts[i]))
            if ts[i] >= start:
                assert one == sweep[i]
            else:
                assert one == pytest.approx(sweep[i], rel=1e-10)

    def test_unsorted_and_repeated_points(self):
        node = KappaPower(root_glue(), 1.0)
        ts = np.array([1e3, 2.0, 0.0, 50.0, 2.0, 10.0, 0.5, 1e3])
        got = node.eval(ts)
        order = np.argsort(ts)
        assert np.array_equal(got[order], node.eval(ts[order]))
        assert got[2] == 0.0 and got[1] == got[4] and got[0] == got[7]

    def test_a_glue_start_inside_the_grid_is_continuous(self):
        node = KappaPower(root_glue(), 1.0)
        start = node.model.law_start
        assert start == 10.0
        below, at = node.eval(np.array([np.nextafter(start, 0.0), start]))
        assert abs(below - at) / at <= 1e-9
        ts = np.geomspace(1.0, 100.0, 401)
        vals = node.eval(ts)
        assert rel_err(vals[ts < start], quadrature_route(node, ts)[ts < start]) <= REL
        assert np.all(np.diff(vals) > 0)

    def test_the_law_refuses_points_below_its_start(self):
        with pytest.raises(uw.EvaluationRangeError):
            GrowthModel(0.5, exact=True, start=10.0).law(np.array([5.0, 20.0]))


class TestGaugesWithoutALawKeepTheIntegral:
    @pytest.mark.parametrize("desc", ["logpower:2", "assoc(gevrey:2)", "assoc(gevrey:1.5)"])
    @pytest.mark.parametrize("nest", [1, 2])
    def test_quadrature_is_called(self, desc, nest, integral_calls):
        node = make_function(desc)
        for _ in range(nest):
            node = KappaPower(node, 1.0)
        assert node.model.law_start == math.inf
        ts = np.geomspace(1.0, 1e6, 13)
        got = node.eval(ts)
        assert len(integral_calls) >= nest
        assert np.array_equal(got, quadrature_route(node, ts))
