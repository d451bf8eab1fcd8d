"""The in-repo special functions against mpmath, and scipy.

`ultraweight.special` replaces scipy.special in the library, so both stay
here as independent oracles.  The bounds are those of the module's contract:
`gammaln` within 4e-15 * max(1, |ref|) on [0.1, 1e30], indices beyond 2**53
included; `hurwitz_zeta` and `gammaincc` within 1e-13 relative.  A
subprocess checks that importing the CLI loads no scipy module.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import ultraweight
from ultraweight.sequences import TailModel
from ultraweight.special import gammaincc, gammaln, hurwitz_zeta

SETTINGS = dict(max_examples=60, deadline=None)
GAMMALN_TOL = 4e-15
TOL = 1e-13


@mpmath.workdps(40)
def mp_gammaln(x: float) -> float:
    return float(mpmath.loggamma(mpmath.mpf(x)))


# at an integer x mpmath's zeta loses about x * log10(q) digits: at 40 it is
# off by 6.5e-13 at x = 12, q = 2487, at 100 it equals the 200-digit value
@mpmath.workdps(100)
def mp_zeta(x: float, q: float) -> float:
    return float(mpmath.zeta(mpmath.mpf(x), mpmath.mpf(q)))


@mpmath.workdps(40)
def mp_gammaincc(a: float, x: float) -> float:
    return float(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x), mpmath.inf,
                                 regularized=True))


def gammaln_points() -> np.ndarray:
    rng = np.random.default_rng(8)
    return np.concatenate([
        np.exp(rng.uniform(math.log(0.1), math.log(1e30), 400)),
        2.0 ** np.arange(-3, 100),
        2.0 ** 53 + 2.0 * np.arange(20),
        np.arange(1.0, 40.0) / 2.0,  # integers and half-integers about 16
        np.nextafter(16.0, [0.0, 32.0]),
    ])


def assert_gammaln_close(x: np.ndarray, value: np.ndarray) -> None:
    ref = np.array([mp_gammaln(v) for v in x])
    err = np.abs(value - ref) / np.maximum(1.0, np.abs(ref))
    assert err.max() <= GAMMALN_TOL, f"x = {x[err.argmax()]!r}: error {err.max():.3g}"


class TestGammaln:
    def test_array_against_mpmath_and_scipy(self):
        x = gammaln_points()
        value = gammaln(x)
        assert value.shape == x.shape
        assert_gammaln_close(x, value)
        assert_gammaln_close(x, scipy.special.gammaln(x))

    def test_scalar_equals_array_element(self):
        x = gammaln_points()
        scalars = [gammaln(float(v)) for v in x]
        assert all(np.ndim(s) == 0 for s in scalars)
        assert np.array_equal(scalars, gammaln(x))
        assert np.ndim(gammaln(np.array(3.0))) == 0

    @settings(**SETTINGS)
    @given(st.floats(min_value=0.1, max_value=1e30))
    def test_scalar_against_mpmath(self, x):
        assert_gammaln_close(np.array([x]), np.array([gammaln(x)]))

    def test_indices_past_2_53_from_count_quotients_below(self):
        # count_quotients_below returns float indices far past int64 range
        p = TailModel.power(0.5).count_quotients_below(np.linspace(18.0, 35.0, 60))
        assert p.max() > 2.0 ** 53
        assert_gammaln_close(p + 1.0, gammaln(p + 1.0))

    def test_special_values_match_scipy(self):
        x = np.array([1.0, 2.0, math.inf, math.nan, 1e306])
        np.testing.assert_array_equal(gammaln(x), scipy.special.gammaln(x))


class TestHurwitzZeta:
    @settings(**SETTINGS)
    @given(st.floats(min_value=1.0, max_value=12.0, exclude_min=True),
           st.floats(min_value=1.0, max_value=1e5))
    def test_against_mpmath_and_scipy(self, x, q):
        value = hurwitz_zeta(x, q)
        ref = mp_zeta(x, q)
        assert abs(value - ref) <= TOL * ref
        assert abs(value - float(scipy.special.zeta(x, q))) <= TOL * ref

    @pytest.mark.parametrize("x", [1.0 + 1e-9, 1.5, 2.0, 3.0, 12.0])
    @pytest.mark.parametrize("q", [1.0, 2.0, 13.0, 1e5 + 1.0])
    def test_grid(self, x, q):
        ref = mp_zeta(x, q)
        assert abs(hurwitz_zeta(x, q) - ref) <= TOL * ref

    @pytest.mark.parametrize("x", [1.0, 0.5, -2.0])
    def test_diverges_at_and_below_one(self, x):
        assert hurwitz_zeta(x, 1.0) == math.inf

    @pytest.mark.parametrize("x", [1.0 + 1e-12, 1.001, 2.0, 50.0, 1e154, 1e300,
                                   math.inf])
    @pytest.mark.parametrize("q", [1.0, 2.0, 1e5 + 1.0])
    def test_up_to_infinite_x(self, x, q):
        """Past x = 1e154 the Euler-Maclaurin terms underflow while their
        rising factors overflow; the value is the direct sum, never nan."""
        value = hurwitz_zeta(x, q)
        if x >= 1e154:
            assert value == (1.0 if q == 1.0 else 0.0)
        # mpmath gives zeta(inf, q) = 1 for every q, and takes seconds on a
        # q**(-x) that underflows
        if x < math.inf and (q == 1.0 or x < 1e154):
            ref = mp_zeta(x, q)
            assert abs(value - ref) <= TOL * ref


class TestGammaincc:
    @staticmethod
    def check(a: float, x: float) -> None:
        oracle = float(scipy.special.gammaincc(a, x))
        if oracle <= 1e-300:
            return
        value = gammaincc(a, x)
        ref = mp_gammaincc(a, x)
        assert abs(value - ref) <= TOL * ref, (a, x)
        assert abs(value - oracle) <= TOL * ref, (a, x)

    @settings(**SETTINGS)
    @given(st.floats(min_value=1.0, max_value=12.0),
           st.floats(min_value=0.0, max_value=500.0))
    def test_against_mpmath_and_scipy(self, a, x):
        self.check(a, x)

    @pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 5.0, 11.75, 12.0])
    def test_grid_and_branch_switch(self, a):
        # the series serves x < a + 1, the continued fraction the rest
        for x in (0.0, 1e-8, 0.5, a, a + 1.0 - 1e-9, a + 1.0, 20.0, 330.0, 500.0):
            self.check(a, x)

    def test_limits(self):
        assert gammaincc(3.0, 0.0) == 1.0
        assert gammaincc(3.0, math.inf) == 0.0
        assert gammaincc(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_cli_import_loads_no_scipy():
    src = str(Path(ultraweight.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, ultraweight.cli; "
         "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "[]"
