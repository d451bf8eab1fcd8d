"""Probe contexts: one index call computes its order-independent work once.

Each probe of a bisection must give the verdict a standalone condition check
gives on freshly built objects (the bisection runs on the probe an index call
builds, also where the index call itself reads the input's law), the batched witness search must match a
per-j reference loop (result, search trace and the arguments it evaluates),
and no array a context shares between probes may be written.  A sequence
probe reads three values of its running sup where the reference builds it in
full, and sums nothing at an order N's tail model refutes.  On a pair of
exact power laws from index 1 it reads no quotient at all, and its closed
sup matches the sweep's.
"""

import math
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ultraweight as uw
from ultraweight import functions, indices, sequences
from ultraweight.functions import OmegaNodes
from ultraweight.indices import INDEX_FLOOR, MixedFunProbe, MixedSeqProbe
from ultraweight.quadrature import PanelSamples, SuffixSamples, TailSamples
from ultraweight.sequences import RatioSweep, SuffixSums, finish_sup_verdict
from ultraweight.verdict import (STABILIZE_REL, ConditionVerdict, Verdict,
                                stabilized)

FAST = uw.RunConfig(p_max=20000)

SEQUENCES = ["gevrey:1.3", "gevrey:2.4", "qgevrey:1.5", "power(gevrey:2, 0.6)"]
# no growth model: the trend windows decide
LAWLESS = "assoc(descendant(qgevrey:2,1))"
FUNCTIONS = ["assoc(gevrey:1.5)", "assoc(qgevrey:1.5)", "subst(assoc(gevrey:2), 1.5)",
             "kappa(power:0.4)", "power:0.5", "logpower:2",
             # exactly 5 log t - log 120 from t = 5 on
             '{"kind":"assoc","sequence":{"family":"explicit","values":[1,1,2,6,24,120]}}',
             LAWLESS]


def dicts(samples):
    return [(r, v.to_dict()) for r, v in samples]


def bisected(name, probe, tol=FAST.index_tol):
    est = indices._bisect_index(name, probe, tol=tol, diagnostics={})
    assert est.r_samples
    return est


@pytest.mark.parametrize("desc", SEQUENCES)
def test_gamma_seq_probes_match_standalone_checks(desc):
    M = uw.make_sequence(desc)
    est = bisected("gamma_mixed", MixedSeqProbe(M, M, FAST))
    assert dicts(est.r_samples) == [
        (r, uw.mixed_condition_seq(uw.make_sequence(desc), r=r, config=FAST).to_dict())
        for r, _ in est.r_samples]


def test_gamma_seq_pair_probes_match_standalone_checks():
    M, N = "gevrey:1.2", "gevrey:1.9"
    est = bisected("gamma_mixed", MixedSeqProbe(uw.make_sequence(M),
                                                uw.make_sequence(N), FAST))
    assert dicts(est.r_samples) == [
        (r, uw.mixed_condition_seq(uw.make_sequence(M), uw.make_sequence(N), r,
                                   config=FAST).to_dict())
        for r, _ in est.r_samples]


@pytest.mark.parametrize("desc", SEQUENCES)
def test_mu_seq_probes_match_standalone_checks(desc):
    N = uw.make_sequence(desc)
    est = bisected("mu", lambda r: sequences.check_nq_r(N, r, FAST.p_max))
    assert dicts(est.r_samples) == [
        (r, uw.check_sequence_condition(uw.make_sequence(desc), "nq_r", r=r,
                                        P=FAST.p_max).to_dict())
        for r, _ in est.r_samples]


@pytest.mark.parametrize("desc", FUNCTIONS)
def test_gamma_fun_probes_match_standalone_checks(desc):
    est = uw.gamma_index_fun(uw.make_function(desc))
    assert dicts(est.r_samples) == [
        (r, uw.mixed_condition_fun(uw.make_function(desc), r=r).to_dict())
        for r, _ in est.r_samples]


@pytest.mark.parametrize("desc", FUNCTIONS)
def test_mu_fun_probes_match_standalone_checks(desc):
    est = bisected("mu", OmegaNodes(uw.make_function(desc)).nq_r,
                   uw.RunConfig().index_tol)
    assert dicts(est.r_samples) == [
        (r, uw.check_omega_condition(uw.make_function(desc), "omega_nq_r",
                                     r=r).to_dict())
        for r, _ in est.r_samples]


# ---------------------------------------------------------------------------
# the witness search

def per_j_c_needed(sigma, omega, K, H, t0):
    """The search's constant, one evaluation of omega per j."""
    ts = np.geomspace(t0, indices._WITNESS_T_MAX, indices._WITNESS_T_POINTS)
    sig = sigma.eval(ts)
    needed = 0.0
    for j in range(indices._WITNESS_J_MAX + 1):
        lhs = omega.eval(K ** j * ts)
        rhs_unit = H ** j * sig
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(lhs <= 0.0, 0.0,
                             np.where(rhs_unit > 0.0, lhs / np.where(rhs_unit > 0.0,
                                                                     rhs_unit, 1.0),
                                      math.inf))
        needed = max(needed, float(np.max(ratio)))
        if not math.isfinite(needed):
            break
    return needed


class Recording(uw.WeightFunction):
    """Delegates to `base` and records every argument it is asked for."""

    def __init__(self, base):
        super().__init__(base.label, base.model, base.kinks)
        self.base = base
        self.pointwise = base.pointwise
        self.args = []

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        self.args.append(t.copy())
        return self.base.eval(t)

    def seen(self):
        return np.unique(np.concatenate(self.args)) if self.args else np.empty(0)


def search(sigma_desc, omega_desc, reference, monkeypatch, make=uw.make_function):
    sigma, omega = make(sigma_desc), Recording(make(omega_desc))
    with monkeypatch.context() as m:
        if reference:
            m.setattr(indices, "_witness_c_needed", per_j_c_needed)
        w = uw.find_gamma1_witness(sigma, omega)
    return (None if w is None else (w.to_dict(), w.diagnostics["tried"])), omega.seen()


WITNESS_PAIRS = [("assoc(gevrey:1.5)",) * 2, ("assoc(gevrey:2.7)",) * 2,
                 ("assoc(qgevrey:1.5)",) * 2, ("subst(assoc(gevrey:2), 1.5)",) * 2,
                 ("kappa(power:0.5)", "power:0.4"), ("power:0.5", "kappa(power:0.4)"),
                 ("power:0.5", "power:0.34"), ("logpower:2",) * 2,
                 ("norm(power:0.6)",) * 2, ("assoc(gevrey:0.7)",) * 2]


@pytest.mark.parametrize("sigma,omega", WITNESS_PAIRS)
def test_witness_matches_per_j_loop(sigma, omega, monkeypatch):
    got, seen = search(sigma, omega, False, monkeypatch)
    want, seen_ref = search(sigma, omega, True, monkeypatch)
    assert got == want
    # the batch reads no argument the loop skips after its early break
    assert np.array_equal(seen, seen_ref)


def test_witness_on_a_table_capped_function_matches_per_j_loop(monkeypatch):
    # log mu_p = p / 100 without a tail model, tabulated to p = 8192: omega
    # reads up to t = 8^30 * 1e8 but not 16^30 * 1e8, so at K = 16 the batch
    # fails, the loop fails at the same table end, and K = 8 is tried next
    monkeypatch.setattr(functions, "_ASSOC_TABLE_CAP", 8192)

    def make(desc):
        if desc == "capped":
            return uw.AssociatedOf(uw.from_quotients(lambda p: p / 100.0, log_scale=True))
        return uw.make_function(desc)
    got, _ = search("power:0.5", "capped", False, monkeypatch, make)
    want, _ = search("power:0.5", "capped", True, monkeypatch, make)
    assert got == want
    assert got[1][0] == {"K": 16.0, "doubling": got[1][0]["doubling"],
                         "skip": "evaluation failed"}


# the rows of the witness constant: one array against the row loop

def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class Gauge(uw.WeightFunction):
    """A pointwise gauge given by `f`, with no growth model."""

    def __init__(self, f):
        super().__init__("gauge")
        self.f = f

    def eval(self, t):
        with np.errstate(over="ignore", invalid="ignore"):
            return self.f(np.asarray(t, dtype=float))


def c_needed_both_ways(sigma, omega, K, H, t0):
    """The constant from the row array and from the row loop (the same
    omega, marked not pointwise), with the calls each made."""
    batched, looped = Recording(omega), Recording(omega)
    looped.pointwise = False
    got = indices._witness_c_needed(sigma, batched, K, H, t0)
    want = indices._witness_c_needed(sigma, looped, K, H, t0)
    return got, want, len(batched.args), len(looped.args)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(["power:{}", "assoc(gevrey:{})", "logpower:{}"]),
       st.floats(0.2, 3.0), st.floats(0.1, 2.5), st.floats(0.1, 10.0),
       st.sampled_from(indices._WITNESS_K), st.floats(0.01, 0.99),
       st.sampled_from(indices._WITNESS_T0))
def test_witness_row_array_is_the_row_loop_bit_for_bit(kind, a, b, c, K, h, t0):
    sigma = uw.make_function(kind.format(a))
    omega = uw.make_function(f'{{"kind":"power","a":{b},"c":{c}}}')
    H = 1.0 + h * (K - 1.0)
    got, want, calls, rows = c_needed_both_ways(sigma, omega, K, H, t0)
    assert same_bits(got, want) and same_bits(got, per_j_c_needed(sigma, omega, K, H, t0))
    ts = uw.Grid(t0, indices._WITNESS_T_MAX, indices._WITNESS_T_POINTS).geometric()
    if np.all(sigma.eval(ts) > 0.0):
        assert calls == 1 and rows == indices._WITNESS_J_MAX + 1
    else:  # assoc(M) is 0 up to t = 1: both take the loop, which stops at once
        assert calls == rows == 1 and got == math.inf


def test_witness_rows_stop_at_an_infinite_ratio():
    # omega overflows past 1e20: at K = 16 row j = 10 first reaches it
    omega = Gauge(lambda t: np.where(t > 1e20, math.inf, np.sqrt(t)))
    got, want, calls, rows = c_needed_both_ways(uw.make_function("power:0.5"), omega,
                                                16.0, 2.0, 1.0)
    assert got == want == math.inf
    assert (calls, rows) == (1, 11)


def test_witness_rows_skip_a_nan_row_alike():
    # NaN on [1e12, 1e13]: a row's max is NaN there, and max(needed, NaN)
    # keeps needed on both paths
    omega = Gauge(lambda t: np.where((t >= 1e12) & (t <= 1e13), math.nan, t ** 0.4))
    sigma = uw.make_function("power:0.5")
    got, want, _, rows = c_needed_both_ways(sigma, omega, 16.0, 4.0, 10.0)
    assert math.isfinite(got) and same_bits(got, want)
    assert same_bits(got, per_j_c_needed(sigma, omega, 16.0, 4.0, 10.0))
    assert rows == indices._WITNESS_J_MAX + 1


def test_witness_rows_loop_where_sigma_vanishes():
    # normalized(power:0.5) is 0 at t0 = 1: the array path is not taken, and
    # the loop stops after its first row, whose ratio there is inf
    sigma, omega = uw.make_function("normalized(power:0.5)"), Recording(
        uw.make_function("power:0.5"))
    assert indices._witness_c_needed(sigma, omega, 16.0, 2.0, 1.0) == math.inf
    assert [len(a) for a in omega.args] == [indices._WITNESS_T_POINTS]


# ---------------------------------------------------------------------------
# shared arrays are read-only

def shared_arrays(obj, seen=None):
    """Every ndarray reachable from a context's attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (tuple, list)):
        return [a for x in obj for a in shared_arrays(x, seen)]
    if isinstance(obj, (PanelSamples, TailSamples, SuffixSamples, OmegaNodes,
                        MixedFunProbe, MixedSeqProbe, RatioSweep, SuffixSums)):
        return [a for x in vars(obj).values() for a in shared_arrays(x, seen)]
    return []


def assert_read_only(ctx, expected):
    arrays = shared_arrays(ctx)
    assert len(arrays) == expected
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_sequence_context_arrays_are_read_only():
    # qgevrey has no power law, so the probe sweeps
    probe = MixedSeqProbe(uw.qgevrey(2.0), uw.qgevrey(2.0), FAST)
    probe(1.5)
    assert_read_only(probe, 4)  # log nu, log mu, log p, the last order's log T


def test_function_context_arrays_are_read_only():
    omega = uw.make_function(LAWLESS)  # model-free: every node set is read
    probe = MixedFunProbe(omega, omega, uw.RunConfig())
    probe(0.5)
    probe.nodes.nq_r(0.5)  # decaying windows: the integral from 1 is read too
    # ts, sigma(ts); suffix panels (v, f(v), half), segments, closing window;
    # the window from 1, and six trend windows of three arrays each
    assert_read_only(probe, 2 + 4 + 3 + 3 + 18)


# ---------------------------------------------------------------------------
# the sup verdict reads three values of the running sup

def reference_sup_verdict(cond, log_F, tail_converges):
    """finish_sup_verdict on the full running sup, for a tail that may converge."""
    running = np.maximum.accumulate(log_F)
    if len(running) and math.inf in (running[0], running[-1]):
        return ConditionVerdict.violated(cond, {"p": 1, "inner_sum": math.inf}, "trend",
                                         reason="inner sum not finite on range")
    if not len(running) or not np.all(np.isfinite(running)) \
            or running[-1] >= math.log(sys.float_info.max):
        return ConditionVerdict.inconclusive(cond, {"P": len(log_F)}, "trend",
            note="the sweep is not finite on range, or its sup is past the float range")
    sup, P = math.exp(float(running[-1])), len(log_F)
    if sup < sys.float_info.min:  # rounded up: the sup stays an upper bound
        sup = math.nextafter(sup, math.inf)
    if stabilized(running) and tail_converges is True:
        return ConditionVerdict.satisfied(cond, {"sup": sup, "P": P},
                                          "stabilized-range+tail-model")
    if stabilized(running):
        return ConditionVerdict.inconclusive(cond, {"sup_on_range": sup, "P": P},
            "stabilized-range", note="sup stabilized but the inner-sum tail is uncertified")
    return ConditionVerdict.inconclusive(cond, {
        "sup_on_range": sup, "P": P,
        "running_sup_log": [float(v) for v in running[:: max(1, len(running) // 16)]]},
        "trend", note="running sup still moving at range end")


def on_the_boundary(half: float) -> float:
    """The final f >= half with |f - half| = STABILIZE_REL * |f|, rounded."""
    return half / (1 - STABILIZE_REL) if half > 0 else half / (1 + STABILIZE_REL)


@st.composite
def sweep_logs(draw):
    n = draw(st.one_of(st.integers(0, 5), st.integers(990, 1010)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.cumsum(rng.normal(draw(st.sampled_from([-0.05, 0.0, 0.05])),
                             draw(st.sampled_from([1e-4, 0.1, 2.0])), n))
    if n and draw(st.booleans()):
        x -= np.max(x)  # the running sup ends at 0
    if n >= 4 and draw(st.booleans()):
        half = float(np.max(x[: n // 2 + 1]))
        final, steps = on_the_boundary(half), draw(st.integers(-1, 1))
        x[-1] = np.nextafter(final, steps * math.inf) if steps else final
        x[n // 2 + 1: -1] = np.minimum(x[n // 2 + 1: -1], half)
    for where in draw(st.lists(st.sampled_from(["first", "middle", "last"]),
                               max_size=3, unique=True)):
        if n:
            x[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = draw(
                st.sampled_from([math.nan, math.inf, -math.inf, 800.0]))
    return x


def assert_verdict_matches_reference(log_F, tail_converges):
    got = finish_sup_verdict("mixed_seq", log_F, tail_converges, len(log_F)).to_dict()
    assert got == reference_sup_verdict("mixed_seq", log_F, tail_converges).to_dict()


@settings(max_examples=300, deadline=None)
@given(sweep_logs(), st.sampled_from([True, None]))
def test_sup_verdict_matches_the_full_running_sup(log_F, tail_converges):
    assert_verdict_matches_reference(log_F, tail_converges)


def test_sup_verdict_on_the_stabilize_boundary():
    cases = [(half, on_the_boundary(half)) for half in (-3.0, 0.7, 250.0)]
    cases.append((-STABILIZE_REL, 0.0))  # a running sup that ends at 0
    for half, final in cases:
        for steps in (-1, 0, 1):
            log_F = np.array([half - 1.0, half, half - 2.0, half - 1.5, final])
            if steps:
                log_F[1] = np.nextafter(half, steps * math.inf)
            assert_verdict_matches_reference(log_F, True)


def test_running_sup_samples_of_a_moving_sweep():
    """gevrey:2 over gevrey:1.5 at r = 1: F_p ~ 2 sqrt(p) keeps rising."""
    verdict = RatioSweep(uw.gevrey(2.0), uw.gevrey(1.5), 4096).verdict("mixed_seq", 1.0)
    assert verdict.is_inconclusive
    assert verdict.diagnostics["note"] == "running sup still moving at range end"
    assert verdict.trend["P"] == 4096
    assert verdict.trend["sup_on_range"] == pytest.approx(128.00781297683707, rel=1e-12)
    assert verdict.trend["running_sup_log"] == pytest.approx([
        0.9602599027307853, 3.4686584581715265, 3.813772551247742, 4.016017815663298,
        4.159615058519744, 4.271040510578298, 4.362103720076416, 4.4391093582022485,
        4.505822772858439, 4.564673624026089, 4.61732134654166, 4.66494981532953,
        4.7084333186600436, 4.7484358997939164, 4.78547379451504, 4.819956284067757],
        rel=1e-12)


def inexact(seq: uw.WeightSequence) -> uw.WeightSequence:
    """seq with its tail model no longer exact, so that a probe on it sweeps
    (the bounds of a power law stay: c p**e <= nu_p <= c p**e)."""
    seq.tail_model = replace(seq.tail_model, exact=False)
    return seq


def test_a_refuted_order_sums_nothing(monkeypatch):
    """gevrey:2's tail model says sum k**(-2/r) diverges for r >= 2."""
    def summed(*args, **kwargs):
        raise RuntimeError("log_suffix_sums called")

    monkeypatch.setattr(sequences, "log_suffix_sums", summed)
    probe = MixedSeqProbe(uw.gevrey(1.0), inexact(uw.gevrey(2.0)), uw.RunConfig())
    assert probe(4.0).to_dict() == {
        "condition": "mixed_seq", "status": "violated", "provenance": "tail-model",
        "counterexample": {"p": 1, "inner_sum": "inf"}, "diagnostics": {"r": 4.0}}
    with pytest.raises(RuntimeError, match="log_suffix_sums called"):
        probe(1.0)


def test_gamma1_at_a_refuted_order_sums_nothing(monkeypatch):
    """gevrey:1's tail model says the inner sum of 1/k diverges."""
    def summed(*args, **kwargs):
        raise RuntimeError("log_suffix_sums called")

    monkeypatch.setattr(sequences, "log_suffix_sums", summed)
    assert sequences.check_gamma1(uw.gevrey(1.0)).to_dict() == {
        "condition": "gamma1", "status": "violated", "provenance": "tail-model",
        "counterexample": {"p": 1, "inner_sum": "inf"}}


@pytest.mark.parametrize("pair", [("gevrey:1.7", "gevrey:1.7"), ("gevrey:1.1", "gevrey:1.7")])
def test_a_refuted_probe_grows_no_table(monkeypatch, pair):
    """At r = 2 N's law refutes the inner sum: neither table grows."""
    def read(*args, **kwargs):
        raise RuntimeError("a quotient table grew")

    M, N = (uw.make_sequence(x) for x in pair)
    for seq in (M, N):
        monkeypatch.setattr(seq, "ensure", read)
    verdict = MixedSeqProbe(M, N, uw.RunConfig())(2.0)
    assert verdict.is_violated and verdict.provenance == "tail-model"
    assert verdict.counterexample == {"p": 1, "inner_sum": math.inf}


@pytest.mark.parametrize("last", [-700.0, -720.0, -745.0, -746.0, -800.0, -1e6])
def test_a_sup_below_the_float_range_stays_an_upper_bound(last):
    log_F = np.array([last - 3.0, last, last - 2.0, last, last - 0.5])  # settled
    sup = finish_sup_verdict("mixed_seq", log_F, True, len(log_F)).witness["sup"]
    assert sup > 0.0 and mpmath.mpf(sup) >= mpmath.exp(last)


# ---------------------------------------------------------------------------
# exact power laws from index 1: the sup is F_1, in closed form

def power_law(e: float, c: float) -> uw.WeightSequence:
    """mu_p = c p**e exactly, with that tail model."""
    return uw.WeightSequence(f"law({e}, {c})",
                             lambda lo, hi: e * sequences.log_p(lo, hi) + math.log(c),
                             tail_model=sequences.TailModel.power(e, c))


@st.composite
def power_law_pairs(draw):
    e_N = draw(st.floats(0.5, 3.0))
    e_M = e_N if draw(st.booleans()) else draw(st.floats(0.5, e_N))
    c_M, c_N = (draw(st.sampled_from([1.0, 0.3, 2.5, 7.0])) for _ in range(2))
    # orders from the bisection's floor up to just below e_N, where the inner
    # sum starts to diverge
    r = draw(st.one_of(st.floats(INDEX_FLOOR, e_N * (1 - 1e-6)),
                       st.just(e_N * (1 - 1e-6)), st.just(INDEX_FLOOR)))
    return e_M, c_M, e_N, c_N, r


@settings(max_examples=40, deadline=None)
@given(power_law_pairs())
def test_closed_sup_matches_the_sweep(pair):
    e_M, c_M, e_N, c_N, r = pair
    M, N = power_law(e_M, c_M), power_law(e_N, c_N)
    closed = MixedSeqProbe(M, N, FAST)(r)
    swept = RatioSweep(M, N, FAST.p_max).verdict("mixed_seq", 1.0 / r)
    assert closed.provenance == "tail-model"
    assert closed.status == swept.status == Verdict.SATISFIED
    assert closed.witness["P"] == swept.witness["P"]
    assert closed.witness["sup"] == pytest.approx(swept.witness["sup"], rel=1e-12)


@pytest.mark.parametrize("M, N", [("gevrey:1", "gevrey:2"), ("gevrey:2", "gevrey:2"),
                                  ("power(gevrey:2, 0.6)", "shift(gevrey:1, 0.5)"),
                                  ("hat(gevrey:1)", "hat(gevrey:1)"),
                                  ("power(gevrey:2, 1e155)", "power(gevrey:2, 1e155)")])
def test_closed_sup_reads_no_quotient(monkeypatch, M, N):
    def read(*args, **kwargs):
        raise RuntimeError("quotients or sums read")

    monkeypatch.setattr(sequences, "log_suffix_sums", read)
    M, N = uw.make_sequence(M), uw.make_sequence(N)
    for seq in (M, N):
        monkeypatch.setattr(seq, "log_quotients", read)
    verdict = MixedSeqProbe(M, N, uw.RunConfig())(1.25)
    assert verdict.is_satisfied
    assert verdict.provenance == "tail-model"
    assert verdict.diagnostics == {"r": 1.25}
    assert verdict.witness["P"] == uw.RunConfig().p_max
    assert math.isfinite(verdict.witness["sup"])


def test_closed_sup_leaves_a_refuted_order_to_the_sweep():
    """At r >= e_N the closed form is inf: the sweep's tail model refutes."""
    probe = MixedSeqProbe(uw.gevrey(1.0), uw.gevrey(2.0), FAST)
    assert probe(2.0).is_violated
    assert probe(2.0).provenance == "tail-model"
