"""Weight-sequence families, algebra, and condition predicates."""

import math

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import (compare, explicit, factorial_shift, gevrey, hat,
                         power, qgevrey)
from ultraweight import sequences
from ultraweight.sequences import (SEQUENCE_CHECKS, TailModel, check_beta1,
                                   check_beta3, check_gamma1, check_lc,
                                   check_mg, check_nq, check_nq_r, check_slc)

from conftest import assert_status


class TestFamilies:
    def test_gevrey_values(self):
        assert gevrey(2.0).value(3) == pytest.approx(36.0, rel=1e-12)

    def test_qgevrey_values(self):
        assert qgevrey(2.0).value(4) == pytest.approx(65536.0, rel=1e-12)

    def test_explicit_quotients(self):
        M = explicit([1, 1, 2, 6])
        quots = np.exp(M.log_quotients(3))
        assert np.allclose(quots, [1, 1, 2, 3], rtol=1e-12)

    def test_gevrey_quotient_exact(self):
        M = gevrey(2.0)
        for p in (1, 2, 7, 40):
            assert M.quotient(p) == pytest.approx(p ** 2.0, rel=1e-13)

    def test_value_and_quotient_at_the_float_range_edge(self):
        # log 1.5e308 = 709.6 lies inside the float range: no inf there
        assert explicit([1, 1.5e308]).value(1) == pytest.approx(1.5e308, rel=1e-12)
        # log mu_1000 = 1999 log 2 lies past it: inf from both, no OverflowError
        assert qgevrey(2.0).quotient(1000) == math.inf == qgevrey(2.0).value(1000)

    def test_invalid_specs(self):
        with pytest.raises(uw.InvalidSpec):
            explicit([1.0, -2.0, 4.0])
        with pytest.raises(uw.UltraweightError):
            gevrey(-1.0)
        with pytest.raises(uw.UltraweightError):
            qgevrey(0.5)

    def test_unnormalized_explicit_flagged_not_rejected(self):
        M = explicit([2.0, 4.0, 16.0])
        assert M.m0_warning
        assert not M.normalized

    def test_mu_reconstruction(self):
        for M in (gevrey(1.5), qgevrey(2.0), explicit([1, 2, 8, 48])):
            logs = M.log_values(min(1000, (M.max_index or 1000)))
            rebuilt = np.cumsum(M.log_quotients(len(logs) - 1)) + M.log_values(0)[0]
            assert np.max(np.abs(logs - rebuilt)) <= 1e-12 * max(1.0, np.max(np.abs(logs)))


class TestAlgebra:
    def test_power_gevrey_half(self):
        assert power(gevrey(2.0), 0.5).value(3) == pytest.approx(6.0, rel=1e-12)

    def test_power_composes(self):
        M = gevrey(1.5)
        a = power(power(M, 0.6), 2.5)
        b = power(M, 1.5)
        assert np.allclose(a.log_values(50), b.log_values(50), rtol=0, atol=1e-12)

    def test_power_explicit(self):
        M = power(explicit([1, 2, 8]), 2.0)
        assert np.allclose(np.exp(M.log_values(2)), [1, 4, 64], rtol=1e-12)

    def test_power_quotient_law(self):
        M, r = qgevrey(2.0), 0.7
        assert np.allclose(power(M, r).log_quotients(200),
                           r * M.log_quotients(200), rtol=0, atol=1e-12)

    def test_factorial_shift_full_unit(self):
        a = factorial_shift(gevrey(1.0), 1.0)
        assert np.allclose(a.log_values(50), gevrey(2.0).log_values(50),
                           rtol=0, atol=1e-10)

    def test_factorial_shift_of_ones(self):
        flat = explicit([1.0] * 51)
        a = factorial_shift(flat, 1.0)
        assert np.allclose(a.log_values(50), gevrey(1.0).log_values(50),
                           rtol=0, atol=1e-10)

    def test_factorial_shift_quotient(self):
        a = factorial_shift(gevrey(1.0), 0.5)
        assert a.quotient(5) == pytest.approx(5.0 ** 1.5, rel=1e-12)

    def test_hat_is_factorial_lift(self):
        assert np.allclose(hat(gevrey(1.0)).log_values(50),
                           gevrey(2.0).log_values(50), rtol=0, atol=1e-10)

    def test_hat_reduced_recovers_base(self):
        M = qgevrey(2.0)
        reduced = hat(M).log_values(40) - [math.lgamma(p + 1) for p in range(41)]
        assert np.allclose(reduced, M.log_values(40), rtol=0, atol=1e-9)

    def test_hat_quotient_law(self):
        assert hat(gevrey(1.0)).quotient(4) == pytest.approx(16.0, rel=1e-12)

    def test_power_rejects_nonpositive(self):
        with pytest.raises(uw.InvalidArgument):
            power(gevrey(2.0), 0.0)


class TestLogConvexity:
    def test_gevrey_lc(self):
        for s in (0.5, 1.0, 3.0):
            assert_status(check_lc(gevrey(s)), "satisfied")

    def test_explicit_violation_location(self):
        v = check_lc(explicit([1, 4, 8, 32]))
        assert_status(v, "violated")
        assert v.counterexample["p"] == 2

    def test_lc_agrees_with_direct_monotonicity(self):
        for M in (gevrey(2.0), qgevrey(2.0), explicit([1, 4, 8, 32]),
                  explicit([1, 1, 2, 6, 24])):
            quots = M.log_quotients(M.max_index or 500)[1:]
            direct = bool(np.all(np.diff(quots) >= -1e-12))
            assert check_lc(M).is_satisfied == direct

    def test_descendant_is_strongly_log_convex(self, gevrey2):
        S = uw.descendant(gevrey2, 1.0).S
        assert_status(check_slc(S), "satisfied")

    def test_slc_violated_for_slow_quotients(self):
        # mu_p = sqrt(p): mu_p/p decreasing, so m is not log-convex
        M = uw.from_quotients(lambda p: 0.5 * math.log(p), label="sqrt-quots",
                              log_scale=True)
        assert_status(check_slc(M), "violated")

    def test_a_decrease_the_law_locates_is_reported_as_one_seen_on_range(self):
        # mu_p = sqrt(p) below 3000 and 4000/sqrt(p) from there: mu_3000 is
        # above mu_2999 and mu_3001 the first quotient below its predecessor
        law = TailModel.power(-0.5, 4000.0, start=3000)
        M = uw.from_quotients(lambda p: math.sqrt(p) if p < 3000 else 4000.0 / math.sqrt(p),
                              tail_model=law)
        by_law, seen = check_lc(M), check_lc(M, 4000)
        assert (by_law.provenance, seen.provenance) == ("tail-model", "trend")
        assert by_law.counterexample == seen.counterexample
        assert set(seen.counterexample) == {"p", "mu_prev", "mu_p"}
        assert seen.counterexample["p"] == 3001


class TestModerateGrowth:
    def test_gevrey_witness_bound(self):
        for s in (1.0, 2.0):
            v = check_mg(gevrey(s))
            assert_status(v, "satisfied")
            assert v.witness["C"] <= 2.0 ** s * (1 + 1e-9)

    def test_gevrey_witness_holds_past_the_probed_range(self):
        # log M_p = 2 lgamma(p + 1); binom(2n, n)**(1/n) rises toward 4, so
        # the largest defect on p, q <= 512 (3.971) fails at n = 1000
        C = check_mg(gevrey(2.0)).witness["C"]
        n = 5000
        log_ratio = 2.0 * (math.lgamma(2 * n + 1) - 2.0 * math.lgamma(n + 1))
        assert log_ratio <= 2 * n * math.log(C)

    def test_range_is_capped(self, monkeypatch):
        # the defect table is quadratic in the range, so p and q stop at
        # half the cap whatever P asks for
        monkeypatch.setattr(sequences, "_MG_P_CAP", 64)
        assert check_mg(gevrey(2.0), 10 ** 5).witness["checked_up_to"] == 32

    def test_qgevrey_does_not_stabilize(self):
        v = check_mg(qgevrey(2.0))
        assert v.status.value == "inconclusive"
        assert "grew" in str(v.trend) or v.trend

    def test_mg_invariant_under_power(self):
        for M in (gevrey(1.0), gevrey(2.5), qgevrey(2.0)):
            assert check_mg(M).status == check_mg(power(M, 0.5)).status
            assert check_mg(M).status == check_mg(power(M, 2.0)).status


class TestNonQuasianalyticity:
    def test_gevrey2_sum_value(self):
        v = check_nq(gevrey(2.0))
        assert_status(v, "satisfied")
        assert v.witness["sum"] == pytest.approx(math.pi ** 2 / 6, rel=1e-6)

    def test_gevrey1_harmonic_divergence(self):
        assert_status(check_nq(gevrey(1.0)), "violated")

    def test_fractional_orders(self):
        assert_status(check_nq_r(gevrey(3.0), 2.0), "satisfied")
        assert_status(check_nq_r(gevrey(3.0), 3.0), "violated")

    def test_nq_r_matches_nq_of_root(self):
        for M, r in ((gevrey(3.0), 2.0), (gevrey(3.0), 3.0),
                     (gevrey(2.0), 1.5), (qgevrey(2.0), 4.0)):
            assert check_nq_r(M, r).status == check_nq(power(M, 1.0 / r)).status

    def test_explicit_list_never_satisfied(self):
        # finite data cannot certify a convergent infinite sum
        v = check_nq(explicit([1, 10, 1000, 1000000]))
        assert v.status.value in ("inconclusive", "violated")


class TestBetaGammaConditions:
    def test_gamma1_gevrey2_window(self):
        v = check_gamma1(gevrey(2.0))
        assert_status(v, "satisfied")
        assert 1.0 - 1e-9 <= v.witness["sup"] <= 2.0

    def test_beta1_gevrey2(self):
        v = check_beta1(gevrey(2.0))
        assert_status(v, "satisfied")
        assert v.witness["Q"] == 2
        assert v.witness["liminf"] == pytest.approx(4.0, rel=1e-6)

    def test_gamma1_gevrey1_diverges(self):
        assert_status(check_gamma1(gevrey(1.0)), "violated")

    def test_beta1_implies_beta3(self):
        for M in (gevrey(1.5), gevrey(2.0), gevrey(3.0), qgevrey(2.0)):
            if check_beta1(M).is_satisfied:
                assert check_beta3(M).is_satisfied

    def test_beta1_equivalent_to_gamma1_on_families(self):
        for M in (gevrey(1.0), gevrey(1.5), gevrey(2.0), gevrey(3.0),
                  qgevrey(2.0)):
            b, g = check_beta1(M), check_gamma1(M)
            if "inconclusive" in (b.status.value, g.status.value):
                continue
            assert b.status == g.status, M.label


class TestCompare:
    def test_strict_smallness(self):
        v = compare(gevrey(1.0), gevrey(2.0), "vartriangleleft")
        assert_status(v, "satisfied")

    def test_reflexive_equivalence(self):
        M = gevrey(2.0)
        v = compare(M, M, "equivalent")
        assert_status(v, "satisfied")
        assert v.witness["sup_both_ways"] == pytest.approx(1.0, abs=1e-12)

    def test_diverging_ratio_not_bounded(self):
        v = compare(gevrey(2.0), gevrey(1.0), "precsim")
        assert v.status.value in ("violated", "inconclusive")

    def test_bounded_direction(self):
        assert_status(compare(gevrey(1.0), gevrey(2.0), "precsim"), "satisfied")

    def test_equivalence_of_scaled_sequence(self):
        # scaling by a constant keeps (M_p/N_p)^(1/p) pinched around 1; the
        # list must be long enough for the trailing trend window to flatten
        M = gevrey(0.25)
        scaled = explicit(list(np.exp(M.log_values(150)) * 3.0))
        assert_status(compare(M, scaled, "equivalent"), "satisfied")

    def test_unknown_relation_rejected(self):
        with pytest.raises(uw.InvalidArgument):
            compare(gevrey(1.0), gevrey(2.0), "interleaved")

    @pytest.mark.parametrize("relation,rule,key", [
        ("precsim", "window slope", "sup"),
        ("vartriangleleft", "window root", "limit_bound")])
    def test_grid_decided_comparisons_say_so(self, relation, rule, key):
        # no tail models: both directions are read off the trailing window,
        # and each verdict says so in its provenance, whatever its status
        M = uw.from_quotients(lambda p: p ** 1.0)
        N = uw.from_quotients(lambda p: p ** 2.0)
        fwd, bwd = compare(M, N, relation, 4000), compare(N, M, relation, 4000)
        assert_status(fwd, "satisfied")
        assert set(fwd.witness) == {key}
        assert_status(bwd, "inconclusive")
        assert bwd.trend["P"] == 4000
        for v in (fwd, bwd):
            assert v.provenance == "trend" and v.diagnostics == {"rule": rule}


def law(e: float, c: float) -> uw.WeightSequence:
    """mu_p = c p**e exactly, with that tail model."""
    return uw.WeightSequence(f"law({e}, {c})",
                             lambda lo, hi: e * sequences.log_p(lo, hi) + math.log(c),
                             tail_model=TailModel.power(e, c))


LAWS = {"law:2,3": (2.0, 3.0), "law:2,1": (2.0, 1.0)}


# (M, N, precsim, vartriangleleft, mixed_seq Violated by its precondition),
# the statuses that lim log(mu_p/nu_p) of the two tail laws gives
@pytest.mark.parametrize("M, N, precsim, vartriangleleft, unbounded", [
    ("gevrey:1", "gevrey:2", "satisfied", "satisfied", False),  # exponent below: -inf
    ("gevrey:2", "gevrey:1", "violated", "violated", True),  # exponent above: +inf
    ("law:2,3", "law:2,1", "satisfied", "violated", False),  # equal exponents: log 3
    ("qgevrey:2", "qgevrey:2", "satisfied", "violated", False),  # equal log-linear laws: 0
    ("gevrey:2", "qgevrey:2", "satisfied", "satisfied", False),  # power under log-linear: -inf
    ("qgevrey:2", "gevrey:2", "violated", "violated", True),  # log-linear over power: +inf
    ("qgevrey:2", "qgevrey:3", "satisfied", "satisfied", False),  # slope gap: -inf
    ("shift(qgevrey:2,0.5)", "qgevrey:2", "violated", "violated", True),  # log-term gap: +inf
    ("qgevrey:2", "shift(qgevrey:2,0.5)", "satisfied", "satisfied", False),  # log-term gap: -inf
    # S's power bracket overlaps N's exponent: the laws leave it to the data
    ("descendant(gevrey:2,1)", "gevrey:2", "satisfied", "inconclusive", False),
])
def test_two_tail_laws_compare_once(M, N, precsim, vartriangleleft, unbounded):
    M, N = (law(*LAWS[x]) if x in LAWS else uw.make_sequence(x) for x in (M, N))
    decided = M.tail_model.exact and N.tail_model.exact
    for relation, status in (("precsim", precsim), ("vartriangleleft", vartriangleleft)):
        v = compare(M, N, relation)
        assert_status(v, status)
        assert v.provenance == ("tail-model" if decided else "trend")
    v = uw.mixed_condition_seq(M, N)
    assert (v.diagnostics.get("reason") ==
            "quotient ratio mu/nu unbounded on range (precondition)") is unbounded


@pytest.mark.parametrize("name", sorted(SEQUENCE_CHECKS))
@pytest.mark.parametrize("make", [lambda: gevrey(2.0),
                                  lambda: explicit(np.arange(1.0, 200.0))],
                         ids=["gevrey", "explicit"])
def test_checker_probes_no_index_past_P(name, make, monkeypatch):
    M = make()
    asked = []
    for attr in ("log_quotients", "log_values"):
        method = getattr(M, attr)
        monkeypatch.setattr(M, attr,
                            lambda p, _m=method: asked.append(p) or _m(p))
    order = (1.5,) if name.endswith("_r") else ()
    SEQUENCE_CHECKS[name](M, *order, P=64)
    assert asked and max(asked) <= 64


class TestCheckEntry:
    """check_sequence_condition reaches every checker by name, with the call
    shape of check_omega_condition."""

    @pytest.mark.parametrize("name", list(SEQUENCE_CHECKS))
    @pytest.mark.parametrize("desc", ["gevrey:2", "explicit:1,4,8,32"])
    def test_the_entry_equals_the_checker(self, desc, name):
        order = (1.5,) if name.endswith("_r") else ()
        got = uw.check_sequence_condition(uw.make_sequence(desc), name, r=1.5)
        want = SEQUENCE_CHECKS[name](uw.make_sequence(desc), *order)
        assert got.to_dict() == want.to_dict()

    def test_P_reaches_the_checker(self):
        v = uw.check_sequence_condition(gevrey(2.0), "lc", P=50)
        assert v.witness["checked_up_to"] == 50

    def test_an_unknown_name_lists_the_table(self):
        with pytest.raises(uw.InvalidArgument) as err:
            uw.check_sequence_condition(gevrey(2.0), "omega1")
        assert str(err.value).split("(choose from ")[1].rstrip(")").split(", ") \
            == list(SEQUENCE_CHECKS)

    def test_an_order_condition_needs_r(self):
        with pytest.raises(uw.InvalidArgument, match=r"nq_r needs the order r \(--r\)"):
            uw.check_sequence_condition(gevrey(2.0), "nq_r")
