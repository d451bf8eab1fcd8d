"""Block-wise kernels give the same bits as the whole-array code they replace.

`AssociatedOf.eval` runs `BLOCK` points at a time and finds the maximizers of
an ascending block by one merge, `PanelSamples` samples and sums `BLOCK`
nodes at a time, `WeightSequence` sums log M only when it is read, and
`TailModel.count_quotients_below` re-reads only the points its last settling
pass moved.  `descendant` sums its base's order-r suffix sums once for itself
and its mixed comparison, log p comes from one shared table, and
`_monotone_threshold` steps its ladder many points per call.  Each must agree
bit for bit with a whole-array, one-point or eager reference kept here, and
the associated function must agree with its own one-point evaluation too.
"""

import math
from unittest import mock

import mpmath
import numpy as np
import pytest

import ultraweight as uw
from ultraweight import constructions, functions, sequences
from ultraweight.constructions import _monotone_threshold
from ultraweight.functions import AssociatedOf, PowerLaw
from ultraweight.indices import MixedSeqProbe
from ultraweight.quadrature import BLOCK, PanelSamples, _NODES, _gauss
from ultraweight.sequences import TailModel, WeightSequence
from ultraweight.verdict import (EvaluationRangeError, PreconditionInconclusive,
                                 read_only)


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


def searched_maximizers(f: AssociatedOf, log_mu, log_t) -> np.ndarray:
    """AssociatedOf._maximizers with one binary search per point."""
    p_star = np.asarray(np.searchsorted(log_mu[1:], log_t, side="right"), dtype=float)
    if f._closed:
        beyond = log_t >= log_mu[-1]
        if np.any(beyond):
            p_star[beyond] = f.seq.tail_model.count_quotients_below(log_t[beyond])
    return p_star


def unblocked_eval(f: AssociatedOf, t) -> np.ndarray:
    """AssociatedOf.eval on the whole array at once, one binary search per
    point, as it was before blocks and merges."""
    t = np.asarray(t, dtype=float)
    log_t = np.log(np.maximum(t, 1e-300))
    log_mu = f._table(float(log_t.max(initial=-math.inf)))
    p_star = searched_maximizers(f, log_mu, log_t)
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

    def test_range_error_for_the_same_inputs(self, monkeypatch):
        monkeypatch.setattr(functions, "_ASSOC_TABLE_CAP", 4096)

        def make():
            return AssociatedOf(gevrey_like(1.0))
        inside = grid(BLOCK + 1, "sorted")
        inside = inside[inside < 4000.0]
        beyond = np.concatenate([inside, [5000.0]])
        assert same_bits(make().eval(inside), unblocked_eval(make(), inside))
        for ts in (beyond, beyond[::-1].copy(), np.asarray(5000.0)):
            with pytest.raises(EvaluationRangeError):
                make().eval(ts)
            with pytest.raises(EvaluationRangeError):
                unblocked_eval(make(), ts)


MERGE_SIZES = (BLOCK // 8 - 1, BLOCK // 8, BLOCK - 1, BLOCK, BLOCK + 1,
               3 * BLOCK + 7)


def gated_blocks(n: int) -> int:
    """Blocks of n points large enough to try a merge on."""
    return sum(min(BLOCK, n - i) >= BLOCK // 8 for i in range(0, n, BLOCK))


def merges(f: AssociatedOf, ts) -> list:
    """f.eval(ts), and per block whether the merge gave its maximizers."""
    taken = []
    real = AssociatedOf._merged

    def recording(self, log_mu, log_t):
        got = real(self, log_mu, log_t)
        taken.append(got is not None)
        return got
    with mock.patch.object(AssociatedOf, "_merged", recording):
        out = f.eval(ts)
    return out, taken


def searched_eval(f: AssociatedOf, ts) -> np.ndarray:
    """f.eval with one binary search per point in every block, as before merges.

    Per block, not over the whole array: on a table that decreases somewhere
    numpy's search can land elsewhere when the keys before differ.
    """
    def search(self, log_mu, log_t, counts=None):
        return searched_maximizers(self, log_mu, log_t)
    with mock.patch.object(AssociatedOf, "_maximizers", search):
        return f.eval(ts)


def assert_merge_equals_search(make, ts) -> list:
    """Bits and table growth equal to the binary search; the merge record."""
    seq, want_seq = make(), make()
    got, taken = merges(AssociatedOf(seq), ts)
    with mock.patch.object(AssociatedOf, "_merged", lambda *args: None):
        want = searched_eval(AssociatedOf(want_seq), ts)
    assert same_bits(got, want)
    assert seq._data[1] == want_seq._data[1]
    return taken


class TestMergeSearch:
    """Ascending blocks take their maximizers from one merge of two sorted
    lists; every other block, and every table that decreases somewhere, from
    one binary search per point."""

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    @pytest.mark.parametrize("n", MERGE_SIZES)
    def test_ascending_blocks(self, name, n):
        # up to t = 50 a block spans fewer quotients than it has points for
        # every sequence but qgevrey:1.0001 (19,560 of them below t = 50)
        taken = assert_merge_equals_search(SEQUENCES[name], np.linspace(0.0, 50.0, n))
        if name == "qgevrey:1.0001":
            assert taken[:1] == [False] * min(1, gated_blocks(n))
        else:
            assert taken == [True] * gated_blocks(n)
        assert_merge_equals_search(SEQUENCES[name], grid(n, "sorted", name))

    @pytest.mark.parametrize("n", MERGE_SIZES)
    def test_ties_at_the_quotients(self, n):
        # gevrey:1 at integer t: log t is a quotient itself, which counts
        ts = np.arange(0.0, float(n))
        taken = assert_merge_equals_search(lambda: uw.gevrey(1.0), ts)
        assert taken == [True] * gated_blocks(n)

    @pytest.mark.parametrize("name, lo, hi", [("gevrey:1.5", 1e6, 5e6),
                                              ("gevrey:0.6", 100.0, 1000.0),
                                              ("gevrey:3", 1e11, 1e13)])
    def test_blocks_straddle_the_end_of_a_closed_table(self, name, lo, hi):
        ts = np.geomspace(lo, hi, 3 * BLOCK + 7)
        f = AssociatedOf(SEQUENCES[name]())
        top = f._table(math.log(hi))[-1]
        assert math.log(lo) < top < math.log(hi)  # the table ends inside
        taken = assert_merge_equals_search(SEQUENCES[name], ts)
        assert any(taken)

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    @pytest.mark.parametrize("order", ["descending", "shuffled"])
    def test_unsorted_blocks_search(self, name, order):
        ts = np.linspace(0.0, 50.0, 2 * BLOCK + 3)
        ts = ts[::-1].copy() if order == "descending" else np.random.default_rng(5).permutation(ts)
        taken = assert_merge_equals_search(SEQUENCES[name], ts)
        assert not any(taken)

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_nan_in_the_middle(self, name):
        ts = np.linspace(0.0, 50.0, 2 * BLOCK + 3)
        holes = [BLOCK // 2, BLOCK + 9]
        ts[holes] = math.nan
        got, taken = merges(AssociatedOf(SEQUENCES[name]()), ts)
        rest = ~np.isnan(ts)
        assert np.isnan(got[holes]).all()
        assert same_bits(got[rest], searched_eval(AssociatedOf(SEQUENCES[name]()), ts[rest]))
        assert taken[:2] == [False, False]  # a nan fails the ascending test

    @pytest.mark.parametrize("name", ["gevrey:0.6", "gevrey:1.5", "qgevrey:2",
                                      "power(gevrey:2,0.7)", "explicit"])
    def test_infinite_ends(self, name):
        ts = np.concatenate([[-math.inf], np.linspace(0.0, 50.0, BLOCK), [math.inf]])
        taken = assert_merge_equals_search(SEQUENCES[name], ts)
        assert taken == [True]  # the last block holds two points

    def test_a_table_that_decreases_is_searched(self):
        def make():
            return uw.from_quotients(lambda p: p ** 1.5 * (1.0 + 0.5 * math.sin(p)))
        ts = np.linspace(0.0, 200.0, 3 * BLOCK + 7)
        taken = assert_merge_equals_search(make, ts)
        assert taken == [False] * 3  # the last block holds seven points
        f = AssociatedOf(make())
        assert not f._table_ascends(f._table(math.log(200.0)))

    @pytest.mark.parametrize("seed", range(20))
    def test_merge_counts_equal_searchsorted(self, seed):
        rng = np.random.default_rng(seed)
        q = np.sort(rng.integers(0, 60, 400).astype(float))  # with ties
        log_mu = np.concatenate([[0.0], q])
        log_t = np.sort(np.concatenate([rng.uniform(-5.0, 65.0, 1500),
                                        rng.choice(q, 200)]))
        got = AssociatedOf(gevrey_like(1.0))._merged(log_mu, log_t)
        assert got is not None
        assert np.array_equal(got, np.searchsorted(q, log_t, side="right"))


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


class TestSharedSums:
    """descendant sums N's order-r suffix sums once, for its own sweep and its
    (L, N) mixed comparison; log p comes from one table."""

    @pytest.mark.parametrize("base, r", [("gevrey:2", 1.0), ("gevrey:1.7625", 0.618),
                                         ("gevrey:3", 0.5), ("qgevrey:1.5", 1.0),
                                         ("power(gevrey:2,0.8)", 0.5)])
    def test_descendant_equals_the_fresh_route(self, base, r):
        def fresh(L, N, config, sums=None):
            return MixedSeqProbe(L, N, config)  # sums N's suffix sums again
        spy = mock.patch.object(sequences, "log_suffix_sums",
                                side_effect=sequences.log_suffix_sums)
        with mock.patch.object(constructions, "MixedSeqProbe", fresh), spy as summed:
            want = uw.descendant(uw.make_sequence(base), r)
        assert summed.call_count == 2
        with spy as summed:
            got = uw.descendant(uw.make_sequence(base), r)
        assert summed.call_count == 1
        assert got.to_dict() == want.to_dict()
        for a, b in ((got.S, want.S), (got.L, want.L)):
            assert same_bits(a.log_values(4096), b.log_values(4096))
            assert same_bits(a.log_quotients(4096), b.log_quotients(4096))
        route = uw.mixed_condition_seq(got.L, uw.make_sequence(base), r)
        assert got.checks["mixed_L_N"].to_dict() == route.to_dict()

    def test_sums_of_another_sequence_or_range_are_refused(self):
        N = uw.gevrey(2.0)
        for sums in (sequences.SuffixSums(uw.gevrey(2.0), 4096),
                     sequences.SuffixSums(N, 2048)):
            with pytest.raises(uw.InternalInconsistency):
                sequences.RatioSweep(N, N, 4096, sums)

    def test_log_p_equals_np_log_across_growth(self, monkeypatch):
        monkeypatch.setattr(sequences, "_log_p_table", read_only(np.log(np.arange(1.0, 6.0))))
        monkeypatch.setattr(sequences, "_LOG_P_CAP", 50000)
        sizes = []
        for lo, hi in [(1, 3), (2, 5), (4, 6), (1, 11), (9, 21), (22, 22), (1, 4096),
                       (3000, 9000), (4097, 40001), (1, 50000), (49990, 50010),
                       (60000, 60100)]:
            got = sequences.log_p(lo, hi)
            assert same_bits(got, np.log(np.arange(lo, hi + 1, dtype=float)))
            with pytest.raises(ValueError):
                got[...] = 0.0
            sizes.append(len(sequences._log_p_table))
        # doubling, never past the cap; ranges past it are computed afresh
        assert sizes == [5, 5, 10, 20, 40, 40, 4096, 9000, 40001, 50000, 50000, 50000]
        assert same_bits(uw.gevrey(1.3).log_quotients(60000)[1:],
                         1.3 * np.log(np.arange(1, 60001, dtype=float)))


def scalar_threshold(g, target: float, start: float) -> float:
    """_monotone_threshold with one value() per ladder step, as it was."""
    x = max(1.0, start)
    if target <= 0.0 or g.value(x) >= target:
        return x
    while x < 1e12:
        nxt = x * 1.05
        if g.value(nxt) >= target:
            lo, hi = x, nxt
            for _ in range(80):
                mid = math.sqrt(lo * hi)
                if g.value(mid) >= target:
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-9 * hi:
                    break
            return hi
        x = nxt
    raise PreconditionInconclusive(f"{g.label} never reaches {target:g} below 1e12")


def glue():
    mk = uw.make_function
    return uw.reduction_build(mk("power:0.6"), mk("power:0.45"), mk("power:0.9"), 6).omega_tilde


class TestThresholdLadder:
    @pytest.mark.parametrize("make", [lambda: uw.make_function("power:0.5"),
                                      lambda: uw.make_function("logpower:2"),
                                      glue,
                                      lambda: uw.make_function("kappa(power:0.5)")],
                             ids=["power", "logpower", "glue", "kappa"])
    def test_equals_the_scalar_ladder(self, make):
        g = make()
        cases = [(0.0, 5.0), (3.0, 1.0), (50.0, 2.0), (1e3, 1e11)]
        # targets first reached at the ladder's k-th step from 1, around the
        # ends of the arrays of steps
        for k in (1, 63, 64, 65, 128, 129):
            cases.append((g.value(1.05 ** k), 1.0))
        # start near 1e12: reached at the last step taken from below 1e12,
        # and first reached one step past it
        near = last = 1e12 / 1.05 ** 2
        while last < 1e12:
            last *= 1.05
        cases += [(g.value(last), near), (g.value(last * 1.05), near)]
        for target, start in cases:
            try:
                want = scalar_threshold(g, target, start)
            except PreconditionInconclusive:
                with pytest.raises(PreconditionInconclusive):
                    _monotone_threshold(g, target, start)
            else:
                assert same_bits(_monotone_threshold(g, target, start), want)

    def test_a_target_never_reached(self):
        g = uw.make_function("power:0.5")
        for start in (1.0, 5e11):
            with pytest.raises(PreconditionInconclusive):
                scalar_threshold(g, 1e7, start)
            with pytest.raises(PreconditionInconclusive):
                _monotone_threshold(g, 1e7, start)

    def test_pointwise_gauges_take_many_steps_per_call(self):
        g = uw.make_function("power:0.5")
        sizes = []
        real = PowerLaw.eval

        def recording(self, t):
            sizes.append(np.size(t))
            return real(self, t)
        with mock.patch.object(PowerLaw, "eval", recording):
            _monotone_threshold(g, g.value(1.05 ** 100), 1.0)
        assert max(sizes) == constructions._LADDER


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
