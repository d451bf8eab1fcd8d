"""Array kernels: the lower hull by rounds, and exact-tail inversion.

`convexify` eliminates points in vectorised rounds and finishes with the
monotone chain after a fixed number of rounds; it must give the hull of the
one-point-at-a-time chain kept in conftest.  `TailModel.count_quotients_below`
and `TailModel.log_value` work on arrays and must agree with scalar math
evaluations of the same formulas, at the quotients themselves too.
`AssociatedOf` tabulates a closed-form sequence only up to its read limit and
takes everything past it from the tail model; other sequences keep the table.
`log_suffix_sums` sums in scaled blocks and `log_sum_exp` in one shifted pass;
both must agree with the sequential running logaddexp kept in conftest and with
mpmath, to 1e-12 times max(1, |value|) in the log.
"""

import math
import sys
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ultraweight as uw
from ultraweight import functions, sequences
from ultraweight.functions import convexify
from ultraweight.sequences import (TailModel, WeightSequence, log_sum_exp,
                                   log_suffix_sums)
from ultraweight.verdict import EvaluationRangeError
from ultraweight.specio import make_function

from conftest import (reference_log_suffix_sums, reference_lower_hull,
                      scalar_count_quotients_below, scalar_log_quotient,
                      scalar_log_value)

SETTINGS = dict(max_examples=25, deadline=None)


def assert_same_hull(xs: np.ndarray, vals: np.ndarray) -> None:
    pl, defect = convexify(xs, vals)
    hx, hv, ref_defect = reference_lower_hull(xs, vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    ref = np.interp(xs, hx, hv)
    assert np.all(np.abs(pl(xs) - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
    assert abs(defect - ref_defect) <= 1e-12 * scale
    assert pl.xs[0] == xs[0] and pl.xs[-1] == xs[-1]


class TestConvexifyMatchesChain:
    @settings(**SETTINGS)
    @given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=5.0),
                              st.floats(min_value=-100.0, max_value=100.0)),
                    min_size=2, max_size=400))
    def test_random_points(self, pts):
        xs = np.cumsum([dx for dx, _ in pts])
        vals = np.array([v for _, v in pts])
        assert_same_hull(xs, vals)

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=0.5, max_value=3.0),
           st.integers(min_value=100, max_value=20000),
           st.floats(min_value=5.0, max_value=60.0))
    def test_associated_profile_on_linspace(self, s, n, y_max):
        # phi(y) = omega(e^y) of a sup transform is piecewise linear in y, so
        # a linspace sample has long runs of (nearly) collinear points
        y = np.linspace(0.0, y_max, n)
        assert_same_hull(y, make_function(f"assoc(gevrey:{s})").eval(np.exp(y)))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=3, max_value=10),
           st.integers(min_value=2, max_value=5))
    def test_more_rounds_than_the_cap(self, depth, tail):
        # a very low first point ahead of a convex parabola: each round drops
        # only the point next to it, until the tangent point at x = k
        k = depth * functions._HULL_ROUNDS
        xs = np.arange(tail * k, dtype=float)
        vals = xs ** 2
        vals[0] = -float(k * k)
        with mock.patch.object(functions, "_monotone_chain",
                               wraps=functions._monotone_chain) as chain:
            assert_same_hull(xs, vals)
        assert chain.called
        pl, _ = convexify(xs, vals)
        assert pl.xs[1] == k

    def test_convex_input_keeps_every_vertex(self):
        xs = np.linspace(0.0, 3.0, 1000)
        pl, defect = convexify(xs, np.exp(xs))
        assert len(pl.xs) == 1000 and defect == 0.0


B = sequences._SUM_BLOCK
SUM_LENGTHS = [0, 1, B - 1, B, B + 1, 3 * B + 7]
# a qgevrey:s term at order r falls by 2 log(q) / r per index: up to about
# 140 nats at s = 3, r = 1/64, far past the span one block scale can hold
SLOPE_MAX = 64 * 2 * math.log(3.0)


def mp_log_suffix_sums(x: np.ndarray, seed: float) -> list[float]:
    """The same suffix sums in 40-digit arithmetic."""
    with mpmath.workdps(40):
        total = mpmath.exp(mpmath.mpf(seed)) if seed > -math.inf else mpmath.mpf(0)
        out = []
        for v in x[::-1]:
            total += mpmath.exp(mpmath.mpf(float(v)))
            out.append(float(mpmath.log(total)) if total > 0 else -math.inf)
        return out[::-1]


def assert_log_close(got, want) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    finite = np.isfinite(want)
    np.testing.assert_array_equal(got[~finite], want[~finite])
    err = np.abs(got[finite] - want[finite])
    assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want[finite]))), float(np.max(err))


@st.composite
def term_arrays(draw):
    n = draw(st.sampled_from(SUM_LENGTHS))
    k = np.arange(n, dtype=float)
    shape = draw(st.sampled_from(["linear", "log", "kinked", "noise"]))
    if shape == "linear":  # increasing or decreasing, up to the qgevrey slope
        x = draw(st.floats(-SLOPE_MAX, SLOPE_MAX)) * k + draw(st.floats(-50.0, 50.0))
    elif shape == "log":  # -a log k, a gevrey-like term
        x = -draw(st.floats(0.01, 200.0)) * np.log1p(k)
    elif shape == "kinked":  # gevrey-like, then falling steeply from index m on
        m = draw(st.integers(0, max(n, 1)))
        x = -np.log1p(k) - draw(st.floats(0.0, SLOPE_MAX)) * np.maximum(k - m, 0.0)
    else:
        x = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(
            0.0, draw(st.floats(0.1, 400.0)), n)
    seed = draw(st.one_of(st.sampled_from([-math.inf, math.inf]),
                          st.floats(-2000.0, 2000.0)))
    return x, seed


class TestLogSuffixSums:
    @settings(max_examples=40, deadline=None)
    @given(term_arrays())
    def test_matches_sequential_reference(self, case):
        x, seed = case
        assert_log_close(log_suffix_sums(x, seed), reference_log_suffix_sums(x, seed))

    @settings(max_examples=15, deadline=None)
    @given(term_arrays())
    def test_matches_mpmath(self, case):
        x, seed = case
        assert_log_close(log_suffix_sums(x, seed), mp_log_suffix_sums(x, seed))

    @pytest.mark.parametrize("n", SUM_LENGTHS)
    def test_every_length_slope_and_seed(self, n):
        for slope in [-SLOPE_MAX, -1.0, 0.0, 1.0, SLOPE_MAX]:
            for seed in [-math.inf, 3.0, math.inf]:
                x = slope * np.arange(n, dtype=float)
                got = log_suffix_sums(x, seed)
                assert_log_close(got, reference_log_suffix_sums(x, seed))
                assert_log_close(got, mp_log_suffix_sums(x, seed))

    @pytest.mark.parametrize("wide_blocks", [1, 3])
    def test_wide_blocks_are_summed_exactly(self, wide_blocks):
        # of four blocks, the last one or three fall too steeply for one scale
        k = np.arange(4 * B, dtype=float)
        x = -np.log1p(k) - SLOPE_MAX * np.maximum(k - (4 - wide_blocks) * B, 0.0)
        with mock.patch.object(sequences, "_MAX_BLOCK_SPAN", math.inf):
            blocked = log_suffix_sums(x)
        # summed in one scale, the far end of a steep block underflows
        assert np.isinf(blocked).any()
        assert_log_close(log_suffix_sums(x), reference_log_suffix_sums(x))

    def test_infinite_term_and_all_minus_inf(self):
        x = np.zeros(2 * B + 5)
        x[B + 2] = math.inf
        got = log_suffix_sums(x)
        assert np.all(got[: B + 3] == math.inf) and np.all(np.isfinite(got[B + 3:]))
        assert_log_close(got, reference_log_suffix_sums(x))
        empty = np.full(B + 1, -math.inf)
        assert np.all(log_suffix_sums(empty) == -math.inf)
        assert_log_close(log_suffix_sums(empty, 2.0), np.full(B + 1, 2.0))


class TestLogSumExp:
    @settings(max_examples=40, deadline=None)
    @given(term_arrays())
    def test_matches_fsum_and_reference(self, case):
        x, _ = case
        got = log_sum_exp(x)
        want = reference_log_suffix_sums(x)[0] if len(x) else -math.inf
        assert_log_close([got], [want])
        if len(x):
            m = float(np.max(x))
            fsum = m + math.log(math.fsum(math.exp(v - m) for v in x))
            assert_log_close([got], [fsum])

    def test_empty_and_infinite(self):
        assert log_sum_exp(np.empty(0)) == -math.inf
        assert log_sum_exp(np.array([-math.inf, -math.inf])) == -math.inf
        assert log_sum_exp(np.array([1.0, math.inf])) == math.inf

    def test_exp_is_zero_below_the_cut(self):
        # the skipped exponentials are exactly the +0.0 that exp gives
        x = np.concatenate([-np.geomspace(np.nextafter(746.0, math.inf), 1e300, 5000),
                            np.nextafter(-746.0, -math.inf) - np.linspace(0.0, 1.0, 4097),
                            [-math.inf]])
        assert np.all(x < -746.0)
        assert np.all(np.exp(x) == 0.0) and not np.signbit(np.exp(x)).any()

    @pytest.mark.parametrize("where", ["ends", "first", "last", "middle", "nowhere",
                                       "everywhere", "inf", "nan"])
    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 4097])
    def test_skipped_underflow_is_bit_identical(self, where, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(-700.0, 0.0, n)
        low = rng.uniform(-3000.0, -746.5, n)
        if where == "ends":
            x[[0, -1]] = low[[0, -1]]
        elif where == "first":
            x[0] = low[0]
        elif where == "last":
            x[-1] = low[-1]
        elif where == "middle":
            x[n // 4: 3 * n // 4] = low[n // 4: 3 * n // 4]
        elif where == "everywhere":
            x = low
            x[n // 2] = 0.0  # the one term that survives the shift
        elif where == "inf":
            x[0], x[-1] = -math.inf, low[-1]
            x[n // 2] = math.inf if n % 2 else -math.inf
        else:
            x[[0, n // 2]] = low[0], math.nan
        m = float(np.max(x))
        with np.errstate(invalid="ignore"):
            plain = m + math.log(float(np.sum(np.exp(x - m)))) if math.isfinite(m) else m
        got = log_sum_exp(x.copy())
        assert np.array_equal([got], [plain], equal_nan=True)
        assert np.array_equal([log_sum_exp(x.copy(), out=np.empty(n))], [plain],
                              equal_nan=True)


POWER_MODELS = [TailModel.power(1.0), TailModel.power(1.5),
                TailModel.power(0.6), TailModel.power(2.0, 3.0),
                TailModel.power(0.7, 0.25)]
LOGLINEAR_MODELS = [TailModel.log_linear(2.0 * math.log(2.0), -math.log(2.0)),
                    TailModel.log_linear(0.3, 0.1, 0.7),
                    TailModel.log_linear(1e-4, -5e-5, 1.5)]


class TestTailArrays:
    def check_counts(self, tm, log_t):
        got = tm.count_quotients_below(log_t)
        want = [scalar_count_quotients_below(tm, float(lt)) for lt in log_t]
        np.testing.assert_array_equal(got, want)
        return got

    def test_counts_match_scalar_off_the_quotients(self):
        log_t = np.random.default_rng(3).uniform(0.0, 14.0, 4000)
        for tm in POWER_MODELS + LOGLINEAR_MODELS:
            self.check_counts(tm, log_t)

    def test_counts_exactly_at_a_quotient(self):
        p = np.arange(1, 3001)
        for tm in POWER_MODELS + LOGLINEAR_MODELS:
            at = np.array([scalar_log_quotient(tm, int(k)) for k in p])
            np.testing.assert_array_equal(self.check_counts(tm, at), p)
            # just below a quotient the count drops by one
            np.testing.assert_array_equal(
                self.check_counts(tm, np.nextafter(at, -np.inf)), p - 1)

    def test_counts_below_the_first_quotient_are_zero(self):
        tm = TailModel.power(2.0, 3.0)
        np.testing.assert_array_equal(
            tm.count_quotients_below(np.array([-5.0, 0.0, 1.0])), [0, 0, 0])

    def test_log_values_match_lgamma(self):
        p = np.concatenate([np.arange(0, 500), [1e4, 3e6, 1e9, 1e15, 1e20]])
        for tm in POWER_MODELS + LOGLINEAR_MODELS:
            got = tm.log_value(p)
            want = np.array([scalar_log_value(tm, int(k)) for k in p])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@mpmath.workdps(30)
def mp_loglinear_tail(tm: TailModel, inv_r: float, start: int) -> float:
    """sum_{k >= start} exp(-(a k + b) inv_r) k**(-g inv_r), to 30 digits,
    as exp(-(a start + b) inv_r) times the Lerch transcendent
    Phi(exp(-a inv_r), g inv_r, start).  (mpmath's nsum misses these tails
    by orders of magnitude.)"""
    a, b, g, i = (mpmath.mpf(v) for v in (tm.a, tm.b, tm.g, inv_r))
    return float(mpmath.exp(-(a * start + b) * i)
                 * mpmath.lerchphi(mpmath.exp(-a * i), g * i, start))


class TestLogLinearTailSum:
    @pytest.mark.parametrize("q", [1.001, 1.1, 2.0])
    @pytest.mark.parametrize("inv_r, start", [(1.0 / 64.0, 100001), (1.0, 10), (4.0, 1)])
    def test_geometric_tail_is_closed_form(self, q, inv_r, start):
        """qgevrey and its powers have g = 0: the tail is exactly geometric."""
        tm = uw.qgevrey(q).tail_model
        lo, hi = tm.tail_power_sum(inv_r, start)
        ref = mp_loglinear_tail(tm, inv_r, start)
        assert lo <= hi
        assert lo == pytest.approx(ref, rel=1e-13, abs=1e-300)
        assert hi == pytest.approx(ref, rel=1e-11, abs=1e-300)

    def test_nq_r_of_a_slow_qgevrey(self):
        got = uw.check_sequence_condition(uw.qgevrey(1.001), "nq_r", r=64)
        assert got.witness["sum_lower"] == pytest.approx(32015.9973333679, rel=1e-12)
        assert got.witness["sum"] == pytest.approx(32015.9973333679, rel=1e-11)

    @pytest.mark.parametrize("tm", [TailModel.log_linear(1e-6, 0.0, 0.5),
                                    TailModel.log_linear(1e-6, 0.0, -0.5),
                                    TailModel.log_linear(2e-4, 0.0, 0.3),
                                    TailModel.log_linear(2e-4, 0.0, -0.3)])
    def test_a_capped_sum_brackets_the_tail(self, tm):
        """Past the term cap the upper end is a geometric bound or inf."""
        lo, hi = tm.tail_power_sum(1.0, 10)
        ref = mp_loglinear_tail(tm, 1.0, 10)
        assert lo <= ref * (1 + 1e-12) and ref <= hi

    def test_a_slope_that_underflows(self):
        """Where a * inv_r underflows, 1 - exp(-a * inv_r) is that product."""
        lo, hi = TailModel.log_linear(1e-150).tail_power_sum(1e-155, 1)
        assert lo == pytest.approx(1e305, rel=1e-12)
        assert TailModel.log_linear(4e-316).tail_power_sum(1e-10, 1) == (
            sys.float_info.max, math.inf)

    def test_a_tail_past_the_float_range_certifies_no_sweep(self):
        N = uw.power(uw.qgevrey(1.0000000000000002), 1e-300)  # a = 4.4e-316
        verdict = uw.check_sequence_condition(N, "gamma1")
        assert verdict.is_inconclusive
        assert verdict.diagnostics["note"] == ("sup stabilized but the "
                                               "inner-sum tail is uncertified")

    def test_a_short_sum_keeps_its_bracket(self):
        tm = LOGLINEAR_MODELS[1]
        lo, hi = tm.tail_power_sum(1.0, 5)
        assert hi == lo * (1.0 + 1e-12)
        assert lo == pytest.approx(mp_loglinear_tail(tm, 1.0, 5), rel=1e-13)


class TestAssociatedBeyondTable:
    def test_power_tail_matches_local_sup(self):
        s = 0.7
        t = np.geomspace(1e3, 1e12, 3000)  # quotients of the table end near 900
        got = uw.associated_eval(uw.gevrey(s), t)
        for ti, g in zip(t[::97], got[::97]):
            p0 = math.floor(ti ** (1.0 / s))
            want = max(p * math.log(ti) - s * math.lgamma(p + 1)
                       for p in range(max(p0 - 1, 0), p0 + 2))
            assert g == pytest.approx(want, rel=1e-12, abs=1e-9)

    def test_loglinear_tail_matches_local_sup(self):
        lq = math.log(1.0001)  # quotients q**(2p-1) stay below 27 in the table
        t = np.geomspace(30.0, 1e12, 2000)
        got = uw.associated_eval(uw.qgevrey(1.0001), t)
        for ti, g in zip(t[::53], got[::53]):
            p0 = math.floor((math.log(ti) + lq) / (2.0 * lq))
            want = max(p * math.log(ti) - p * p * lq
                       for p in range(max(p0 - 1, 0), p0 + 2))
            assert g == pytest.approx(want, rel=1e-12, abs=1e-9)


def gevrey_like(s: float, **kwargs) -> WeightSequence:
    return WeightSequence("gevrey-like", lambda lo, hi: s * np.log(
        np.arange(lo, hi + 1, dtype=float)), **kwargs)


def table_size(f: uw.AssociatedOf) -> int:
    return len(f.seq._data[0])


class TestAssociatedReadLimit:
    def test_closed_form_table_stops_at_the_read_limit(self):
        f = make_function("assoc(gevrey:2)")
        f.eval(np.array([1e30]))  # maximizer near 1e15
        assert table_size(f) <= (1 << 15) + 1

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.5, max_value=3.0),
           st.floats(min_value=10.0, max_value=22.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_matches_mpmath_on_both_sides_of_the_limit(self, s, log2_p, frac):
        # log t between the quotients of p and p + 1, so p is the maximizer
        p = math.floor(2.0 ** log2_p)
        log_t = s * (math.log(p) + frac * math.log1p(1.0 / p))
        got = float(make_function(f"assoc(gevrey:{s!r})").eval(
            np.array([math.exp(log_t)]))[0])
        with mpmath.workdps(40):
            lt = mpmath.mpf(log_t)
            want = max(k * lt - s * mpmath.loggamma(k + 1)
                       for k in range(p - 1, p + 3))
        assert abs(got - float(want)) <= 1e-13 * abs(float(want))

    def test_inexact_tail_still_tabulates_and_raises(self, monkeypatch):
        monkeypatch.setattr(functions, "_ASSOC_TABLE_CAP", 1 << 15)
        f = uw.AssociatedOf(gevrey_like(1.5, tail_model=TailModel.power(
            1.5, exact=False)))
        t = 20000.5 ** 1.5
        got = float(f.eval(np.array([t]))[0])
        assert table_size(f) > 20000
        want = 20000 * math.log(t) - 1.5 * math.lgamma(20001)
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(EvaluationRangeError):
            f.eval(np.array([40000.0 ** 1.5]))

    def test_nonzero_log_m0_still_tabulates_and_raises(self, monkeypatch):
        monkeypatch.setattr(functions, "_ASSOC_TABLE_CAP", 1 << 15)
        f = uw.AssociatedOf(gevrey_like(1.5, tail_model=TailModel.power(1.5),
                                        log_m0=0.5))
        t = 20000.5 ** 1.5
        got = float(f.eval(np.array([t]))[0])
        assert table_size(f) > 20000
        want = 20000 * math.log(t) - 0.5 - 1.5 * math.lgamma(20001)
        assert got == pytest.approx(want, rel=1e-12)
        with pytest.raises(EvaluationRangeError):
            f.eval(np.array([40000.0 ** 1.5]))
