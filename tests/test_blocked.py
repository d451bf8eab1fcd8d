"""Block-wise kernels give the same bits as the whole-array code they replace.

`AssociatedOf.eval` runs `BLOCK` points at a time, `PanelSamples` samples
and sums `BLOCK` nodes at a time, `WeightSequence` sums log M only when it is
read, and `TailModel.count_quotients_below` re-reads only the points its last
settling pass moved.  Each must agree bit for bit with a whole-array or eager
reference kept here, and the associated function must agree with its own
one-point evaluation too.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest

import ultraweight as uw
from ultraweight import sequences
from ultraweight.functions import AssociatedOf, PowerLaw
from ultraweight.quadrature import BLOCK, PanelSamples, _NODES, _gauss
from ultraweight.sequences import TailModel, WeightSequence
from ultraweight.verdict import EvaluationRangeError


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def gevrey_like(s: float) -> WeightSequence:
    """gevrey(s) without a tail model: the table serves every argument."""
    return WeightSequence("gevrey-like", lambda lo, hi: s * np.log(
        np.arange(lo, hi + 1, dtype=float)))


# each factory builds a fresh sequence: the table grows the same way for
# every path compared
SEQUENCES = {
    "gevrey:0.6": lambda: uw.gevrey(0.6),
    "gevrey:1.5": lambda: uw.gevrey(1.5),
    "gevrey:3": lambda: uw.gevrey(3.0),
    "qgevrey:2": lambda: uw.qgevrey(2.0),
    "qgevrey:1.0001": lambda: uw.qgevrey(1.0001),
    "power(gevrey:2,0.7)": lambda: uw.power(uw.gevrey(2.0), 0.7),
    "explicit": lambda: uw.explicit([1, 1, 2, 6, 24, 120]),
    "model-free gevrey:1.2": lambda: gevrey_like(1.2),
}
SIZES = (BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


def unblocked_eval(f: AssociatedOf, t) -> np.ndarray:
    """AssociatedOf.eval on the whole array at once, as it was before blocks."""
    t = np.asarray(t, dtype=float)
    log_t = np.log(np.maximum(t, 1e-300))
    log_mu = f._table(float(log_t.max(initial=-math.inf)))
    p_star = f._maximizers(log_mu, log_t)
    P = int(min(p_star.max(initial=0), f._read_limit()))
    f.seq.ensure(max(P, 1))
    log_M = f.seq.log_values(max(P, 1))
    out = np.empty_like(log_t)
    small = p_star < len(log_M)
    ps = p_star[small].astype(np.int64)
    out[small] = ps * log_t[small] - log_M[ps]
    if np.any(~small):
        pb = p_star[~small]
        out[~small] = pb * log_t[~small] - f.seq.tail_model.log_value(pb)
    return out


def grid(n: int, order: str, name: str = "") -> np.ndarray:
    # the model-free table of 2**21 quotients ends near t = 4e7
    ts = np.geomspace(1e-2, 1e6 if name.startswith("model-free") else 1e12, n)
    if order == "shuffled":
        np.random.default_rng(n).shuffle(ts)
    elif order == "descending":
        ts = ts[::-1].copy()
    return ts


def evaluate(seq: WeightSequence, ts, blocked: bool = True):
    """The values, and the table sizes the quotient table grew through."""
    f = AssociatedOf(seq)
    out = f.eval(ts) if blocked else unblocked_eval(f, ts)
    return out, seq._data[1]


class TestAssociatedBlocks:
    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("order", ["sorted", "shuffled"])
    def test_blocked_equals_unblocked(self, name, n, order):
        ts = grid(n, order, name)
        got, growth = evaluate(SEQUENCES[name](), ts)
        want, want_growth = evaluate(SEQUENCES[name](), ts, blocked=False)
        assert same_bits(got, want)
        assert growth == want_growth

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_blocked_equals_one_point_values(self, name):
        ts = grid(BLOCK + 1, "shuffled", name)[:: 97]
        f = AssociatedOf(SEQUENCES[name]())
        one = np.array([f.value(t) for t in ts])
        assert same_bits(AssociatedOf(SEQUENCES[name]()).eval(ts), one)

    def test_first_block_alone_would_not_grow_the_table(self):
        # the first block stays below the first table's last quotient, the
        # last block needs the table doubled
        ts = np.concatenate([np.linspace(1.0, 2.0, BLOCK), [3e4, 9e4, 2e5]])
        got, growth = evaluate(gevrey_like(1.0), ts)
        want, want_growth = evaluate(gevrey_like(1.0), ts, blocked=False)
        assert same_bits(got, want)
        assert growth == want_growth
        assert len(growth) > 3  # doubled past the first table

    @pytest.mark.parametrize("name", ["gevrey:1.5", "qgevrey:2",
                                      "model-free gevrey:1.2"])
    def test_nan_arguments_change_nothing_else(self, name):
        # a nan t has a nan value and sizes neither table
        ts = grid(2 * BLOCK + 3, "shuffled", name)
        holes = [5, int(np.argmax(ts)), BLOCK + 9]
        with_nan = ts.copy()
        with_nan[holes] = math.nan
        got = AssociatedOf(SEQUENCES[name]()).eval(with_nan)
        rest = ~np.isnan(with_nan)
        want = AssociatedOf(SEQUENCES[name]()).eval(ts[rest])
        assert np.isnan(got[holes]).all()
        assert same_bits(got[rest], want)

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_zero_d_and_empty_input(self, name):
        for t in (0.0, 0.5, 7.0, 1e5):
            got = AssociatedOf(SEQUENCES[name]()).eval(np.asarray(t))
            want = unblocked_eval(AssociatedOf(SEQUENCES[name]()), np.asarray(t))
            assert got.shape == () and same_bits(got, want)
        assert AssociatedOf(SEQUENCES[name]()).eval(np.empty(0)).shape == (0,)

    def test_range_error_for_the_same_inputs(self):
        def make():
            return AssociatedOf(gevrey_like(1.0), table_cap=4096)
        inside = grid(BLOCK + 1, "sorted")
        inside = inside[inside < 4000.0]
        beyond = np.concatenate([inside, [5000.0]])
        assert same_bits(make().eval(inside), unblocked_eval(make(), inside))
        for ts in (beyond, beyond[::-1].copy(), np.asarray(5000.0)):
            with pytest.raises(EvaluationRangeError):
                make().eval(ts)
            with pytest.raises(EvaluationRangeError):
                unblocked_eval(make(), ts)


class TestAssociatedOverflow:
    @pytest.mark.parametrize("spec, t", [("gevrey:0.6", 1e200), ("gevrey:0.6", 1e300),
                                         ("gevrey:1.5", math.inf),
                                         ("qgevrey:2", math.inf),
                                         ("qgevrey:1.1", math.inf)])
    def test_past_the_float_range_is_inf(self, spec, t):
        assert uw.associated_eval(uw.make_sequence(spec), t) == math.inf

    def test_overflowing_maximizer_keeps_a_finite_value(self):
        # p* = t**(1/s) overflows past log t = 709.78 s, omega = s p* only
        # past log t = 709.78 s - s log s
        s = 0.6
        log_t = np.array([424.0, 425.0, 425.5, 426.0])
        got = uw.associated_eval(uw.gevrey(s), np.exp(log_t))
        for lt, g in zip(log_t, got):
            want = float(s * mpmath.exp(mpmath.mpf(float(lt)) / s))
            assert g == pytest.approx(want, rel=1e-12)

    def test_no_nan_in_a_sampled_range_up_to_1e300(self):
        ts = np.geomspace(1e-2, 1e300, 4 * BLOCK)
        for spec in ("gevrey:0.6", "gevrey:2", "qgevrey:2"):
            vals = uw.associated_eval(uw.make_sequence(spec), ts)
            assert not np.isnan(vals).any()
            finite = vals[np.isfinite(vals)]
            assert np.all(np.diff(finite) >= 0.0)
            assert np.all(vals[len(finite):] == math.inf)


class TestLazyLogValues:
    def eager(self, log_mu: np.ndarray, ends) -> np.ndarray:
        """log M - log M_0 summed at every growth, chunk by chunk, as the
        table once was."""
        log_M = np.cumsum(log_mu[:1])
        for lo, hi in zip(ends[:-1], ends[1:]):
            log_M = np.concatenate([log_M, log_M[-1] + np.cumsum(log_mu[lo:hi])])
        return log_M

    def test_growth_1_20001_100001(self):
        M = gevrey_like(1.3)
        M.ensure(20000)
        assert len(M._log_M) == 1  # growing the table sums nothing
        mid = M.log_values(5000).copy()  # read in the middle of a chunk
        M.ensure(100000)
        later = M.log_values(60000).copy()
        assert same_bits(M.log_values(5000), mid)  # unchanged by the growth
        log_mu = M.log_quotients(100000)
        assert M._data[1] == (1, 20001, 100001)
        want = self.eager(log_mu, M._data[1])
        assert same_bits(mid, want[:5001])
        assert same_bits(later, want[:60001])
        assert same_bits(M.log_values(100000), want)

    def test_read_after_each_growth(self):
        M = gevrey_like(1.3)
        for p in (7, 20000, 33000, 100000):
            M.ensure(p)
            M.log_values(p)
        want = self.eager(M.log_quotients(len(M._data[0]) - 1), M._data[1])
        assert same_bits(M.log_values(len(M._data[0]) - 1), want)

    def test_offset_m0_and_finite_list(self):
        M = uw.explicit([3.0, 1.0, 2.0, 6.0, 24.0])
        assert M.log_values(0)[0] == math.log(3.0)
        want = self.eager(M.log_quotients(4), M._data[1]) + math.log(3.0)
        assert same_bits(M.log_values(4), want)
        assert same_bits(M.log_values(99), want)  # capped at the last index

    def test_unread_log_values_are_never_summed(self):
        N = uw.gevrey(2.0)
        pair = uw.descendant(N, 1.0)
        assert len(N._log_M) == 1
        assert len(pair.S._log_M) == 1 and len(pair.L._log_M) == 1


def linear_settle_count(tm: TailModel, log_t) -> np.ndarray:
    """count_quotients_below with every settling pass over every point."""
    log_t = np.asarray(log_t, dtype=float)
    if tm.kind == "power":
        p = np.floor(np.exp((log_t - math.log(tm.c_hi)) / tm.e_hi))
    else:
        p_f = np.maximum(1.0, (log_t - tm.b) / tm.a)
        for _ in range(40):
            dp = (log_t - tm.log_quotient(p_f)) / (tm.a + tm.g / p_f)
            p_f = np.maximum(1.0, p_f + dp)
            if np.all(np.abs(dp) < 0.25):
                break
        p = np.floor(p_f + 1e-9)
    settle = p < 2.0 ** 52
    while True:
        high = settle & (p >= 1) & (tm.log_quotient(np.maximum(p, 1.0)) > log_t)
        if not high.any():
            break
        p = p - high
    while True:
        low = settle & (tm.log_quotient(p + 1.0) <= log_t)
        if not low.any():
            break
        p = p + low
    return np.maximum(0.0, p)


MODELS = [TailModel.power(0.6), TailModel.power(1.5), TailModel.power(2.0, 3.0),
          TailModel.power(0.7, 0.25),
          TailModel.log_linear(2.0 * math.log(2.0), -math.log(2.0)),
          TailModel.log_linear(0.3, 0.1, 0.7)]


class TestSettleMovedPointsOnly:
    @pytest.mark.parametrize("k", range(len(MODELS)))
    def test_matches_linear_settle(self, k):
        tm = MODELS[k]
        rng = np.random.default_rng(k)
        p = np.concatenate([rng.uniform(1.0, 2.0 ** 20, 3000),
                            2.0 ** 52 * rng.uniform(0.5, 1.0, 3000),
                            2.0 ** 52 * rng.uniform(1.0, 1.001, 50)])
        log_t = tm.log_quotient(p) + rng.normal(0.0, 1e-9, len(p))
        got = tm.count_quotients_below(log_t)
        assert same_bits(got, linear_settle_count(tm, log_t))
        for lt in log_t[::400]:
            one = tm.count_quotients_below(float(lt))
            assert np.ndim(one) == 0
            assert same_bits(one, linear_settle_count(tm, float(lt)))

    def test_near_2_52_takes_many_steps(self):
        # the inversion is tens of steps off there: the case the passes
        # over moved points alone are for
        tm = TailModel.power(0.6)
        log_t = tm.log_quotient(np.linspace(2.0 ** 51, 2.0 ** 52 - 64, 2000))
        got = tm.count_quotients_below(log_t)
        rough = np.floor(np.exp(log_t / 0.6))
        assert np.max(np.abs(got - rough)) > 8
        assert same_bits(got, linear_settle_count(tm, log_t))

    @pytest.mark.parametrize("k", range(len(MODELS)))
    def test_infinite_argument(self, k):
        got = MODELS[k].count_quotients_below(np.array([math.inf, 5.0]))
        assert got[0] == math.inf
        assert same_bits(got[1:], linear_settle_count(MODELS[k], np.array([5.0])))


class TestPanelBlocks:
    def panels(self, n_panels: int) -> np.ndarray:
        return np.linspace(0.0, 12.0, n_panels + 1)

    @pytest.mark.parametrize("n_panels", [1, 7, BLOCK // _NODES - 1, BLOCK // _NODES,
                                          BLOCK // _NODES + 1,
                                          3 * (BLOCK // _NODES) + 5])
    def test_sums_and_samples_equal_the_unblocked(self, n_panels):
        edges = self.panels(n_panels)
        x, w = _gauss()
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * np.diff(edges)
        v = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        omega = PowerLaw(0.7, 2.0)
        for f in (omega.eval, np.sqrt):  # by blocks, and in one call
            samples = PanelSamples(f, edges)
            fv = np.asarray(f(np.exp(v)), dtype=float)
            assert same_bits(samples.v, v) and same_bits(samples.fv, fv)
            for s in (1.25, 2.0, 3.5):
                g = fv * np.exp((1.0 - s) * v)
                want = np.sum(g.reshape(n_panels, _NODES) * w[None, :], axis=1)
                assert same_bits(samples.panel_sums(s), want)

    def test_pointwise_gauges_are_sampled_by_blocks(self):
        edges = self.panels(3 * (BLOCK // _NODES) + 5)
        omega = PowerLaw(0.7, 2.0)
        sizes = []
        real = PowerLaw.eval

        def recording(self, t):
            sizes.append(np.size(t))
            return real(self, t)
        with mock.patch.object(PowerLaw, "eval", recording):
            PanelSamples(omega.eval, edges)
        assert max(sizes) == BLOCK and sum(sizes) == (len(edges) - 1) * _NODES

    def test_associated_gauges_are_sampled_in_one_call(self):
        # AssociatedOf runs blocks itself; split calls would repeat its table work
        edges = self.panels(3 * (BLOCK // _NODES) + 5)
        omega = uw.make_function("assoc(gevrey:1.5)")
        with mock.patch.object(AssociatedOf, "eval", autospec=True,
                               side_effect=AssociatedOf.eval) as ev:
            PanelSamples(omega.eval, edges)
        assert ev.call_count == 1
        wrapped = uw.normalize(uw.power_substitute(omega, 0.5))
        with mock.patch.object(AssociatedOf, "eval", autospec=True,
                               side_effect=AssociatedOf.eval) as ev:
            PanelSamples(wrapped.eval, edges)
        assert ev.call_count == 1


def test_sequences_module_sums_through_log_sum_exp():
    # check_nq_r reads its three partial sums through the public kernel, so
    # the reference swap in test_sum_verdicts still reaches it
    with mock.patch.object(sequences, "log_sum_exp",
                           side_effect=sequences.log_sum_exp) as lse:
        sequences.check_nq_r(gevrey_like(2.0), 1.0, 4000)
    assert lse.call_count == 3
