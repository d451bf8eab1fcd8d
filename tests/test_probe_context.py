"""Probe contexts: one index call computes its order-independent work once.

Each probe of a bisection must give the verdict a standalone condition check
gives on freshly built objects, the batched witness search must match a
per-j reference loop (result, search trace and the arguments it evaluates),
and no array a context shares between probes may be written.
"""

import math

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import indices
from ultraweight.functions import OmegaNodes
from ultraweight.indices import MixedFunProbe, MixedSeqProbe
from ultraweight.quadrature import PanelSamples, SuffixSamples, TailSamples
from ultraweight.sequences import RatioSweep, SuffixSums

FAST = uw.RunConfig(p_max=20000)

SEQUENCES = ["gevrey:1.3", "gevrey:2.4", "qgevrey:1.5", "power(gevrey:2, 0.6)"]
FUNCTIONS = ["assoc(gevrey:1.5)", "assoc(qgevrey:1.5)", "subst(assoc(gevrey:2), 1.5)",
             "kappa(power:0.4)", "power:0.5", "logpower:2",
             # no growth model: the trend windows decide
             '{"kind":"assoc","sequence":{"family":"explicit","values":[1,1,2,6,24,120]}}']


def dicts(samples):
    return [(r, v.to_dict()) for r, v in samples]


@pytest.mark.parametrize("desc", SEQUENCES)
def test_gamma_seq_probes_match_standalone_checks(desc):
    est = uw.gamma_index_seq(uw.make_sequence(desc), config=FAST)
    assert dicts(est.r_samples) == [
        (r, uw.mixed_condition_seq(uw.make_sequence(desc), r=r, config=FAST).to_dict())
        for r, _ in est.r_samples]


def test_gamma_seq_pair_probes_match_standalone_checks():
    M, N = "gevrey:1.2", "gevrey:1.9"
    est = uw.gamma_index_seq(uw.make_sequence(M), uw.make_sequence(N), config=FAST)
    assert dicts(est.r_samples) == [
        (r, uw.mixed_condition_seq(uw.make_sequence(M), uw.make_sequence(N), r,
                                   config=FAST).to_dict())
        for r, _ in est.r_samples]


@pytest.mark.parametrize("desc", SEQUENCES)
def test_mu_seq_probes_match_standalone_checks(desc):
    est = uw.mu_seq(uw.make_sequence(desc), config=FAST)
    assert dicts(est.r_samples) == [
        (r, uw.check_nq_r(uw.make_sequence(desc), r, FAST.p_max).to_dict())
        for r, _ in est.r_samples]


@pytest.mark.parametrize("desc", FUNCTIONS)
def test_gamma_fun_probes_match_standalone_checks(desc):
    est = uw.gamma_index_fun(uw.make_function(desc))
    assert dicts(est.r_samples) == [
        (r, uw.mixed_condition_fun(uw.make_function(desc), r=r).to_dict())
        for r, _ in est.r_samples]


@pytest.mark.parametrize("desc", FUNCTIONS)
def test_mu_fun_probes_match_standalone_checks(desc):
    est = uw.mu_fun(uw.make_function(desc))
    assert dicts(est.r_samples) == [
        (r, uw.check_omega_condition(uw.make_function(desc), "omega_nq_r",
                                     r=r).to_dict())
        for r, _ in est.r_samples]


# ---------------------------------------------------------------------------
# the witness search

def per_j_c_needed(sigma, omega, K, H, t0, j_max):
    """The search's constant, one evaluation of omega per j."""
    ts = np.geomspace(t0, indices._WITNESS_T_MAX, indices._WITNESS_T_POINTS)
    sig = sigma.eval(ts)
    needed = 0.0
    for j in range(j_max + 1):
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
    def make(desc):
        if desc == "capped":
            seq = uw.from_quotients(lambda p: p / 100.0, log_scale=True)
            return uw.AssociatedOf(seq, table_cap=8192)
        return uw.make_function(desc)
    got, _ = search("power:0.5", "capped", False, monkeypatch, make)
    want, _ = search("power:0.5", "capped", True, monkeypatch, make)
    assert got == want
    assert got[1][0] == {"K": 16.0, "doubling": got[1][0]["doubling"],
                         "skip": "evaluation failed"}


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
    probe = MixedSeqProbe(uw.gevrey(2.0), uw.gevrey(2.0), FAST)
    probe(1.5)
    assert_read_only(probe, 3)  # log nu, log mu, log p


def test_function_context_arrays_are_read_only():
    omega = uw.make_function(FUNCTIONS[-1])  # model-free: every node set is read
    probe = MixedFunProbe(omega, omega, uw.RunConfig())
    probe(0.5)
    probe.nodes.nq_r(0.5)  # decaying windows: the integral from 1 is read too
    # ts, sigma(ts); suffix panels (v, f(v), half), segments, closing window;
    # the window from 1, and six trend windows of three arrays each
    assert_read_only(probe, 2 + 4 + 3 + 3 + 18)
