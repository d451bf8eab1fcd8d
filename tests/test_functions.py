"""Weight-function nodes, substitution, normalization, and condition checks."""

import math

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import (LogPower, PowerLaw, check_omega_condition,
                         compare_o, compare_preceq, equivalent_fun, normalize,
                         power_substitute)

from ultraweight.specio import make_function

from conftest import assert_status


# model-free inputs: no GrowthModel, so their checks read the grid trend
MODEL_FREE = {
    "assoc_descendant": lambda: make_function("assoc(descendant(qgevrey:2,1))"),
    "assoc_short_list": lambda: make_function(
        '{"kind":"assoc","sequence":{"family":"explicit",'
        '"values":[1,1,2,6,24,120]}}'),
    "subst_assoc": lambda: power_substitute(
        uw.AssociatedOf(uw.from_quotients(lambda p: p ** 2.0)), 0.5),
}
ORDER_CONDITIONS = ("omega_snq", "omega_nq", "omega5", "omega2", "omega3",
                    "omega4")


class TestEvaluation:
    def test_power_law_point(self):
        assert PowerLaw(0.5).value(4.0) == pytest.approx(2.0, rel=1e-14)

    def test_zero_at_origin(self):
        nodes = [PowerLaw(0.5), LogPower(2.0), normalize(PowerLaw(1.0)),
                 uw.KappaPower(PowerLaw(0.5), 1.0)]
        for fn in nodes:
            assert fn.value(0.0) == 0.0, fn.label

    def test_substitution_point(self):
        fn = power_substitute(PowerLaw(0.5), 2.0)
        assert fn.value(3.0) == pytest.approx(3.0, rel=1e-14)

    def test_nondecreasing_on_grid(self):
        ts = np.geomspace(1e-2, 1e10, 200)
        for fn in (PowerLaw(0.3), LogPower(1.5), normalize(PowerLaw(1.0))):
            vals = fn.eval(ts)
            assert np.all(np.diff(vals) >= -1e-12), fn.label

    def test_negative_argument_rejected(self):
        with pytest.raises(uw.InvalidArgument):
            PowerLaw(0.5).value(-1.0)


class TestPowerSubstitute:
    def test_roundtrip_identity(self):
        ts = np.geomspace(1e-2, 1e8, 100)
        base = LogPower(2.0)
        twice = power_substitute(power_substitute(base, 2.0), 0.5)
        assert np.allclose(twice.eval(ts), base.eval(ts), rtol=0, atol=1e-12)

    def test_power_law_collapses_structurally(self):
        fn = power_substitute(PowerLaw(1.0 / 3.0), 2.0)
        assert isinstance(fn, PowerLaw)
        assert fn.exponent == pytest.approx(2.0 / 3.0)

    def test_preceq_invariant_under_substitution(self):
        pairs = [(PowerLaw(0.5), PowerLaw(1.0 / 3.0)),
                 (PowerLaw(0.5), PowerLaw(0.5)),
                 (PowerLaw(1.0 / 3.0), PowerLaw(0.5))]
        for sigma, tau in pairs:
            for r in (0.5, 2.0):
                a = compare_preceq(sigma, tau)
                b = compare_preceq(power_substitute(sigma, r),
                                   power_substitute(tau, r))
                assert a.status == b.status, (sigma.label, tau.label, r)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(uw.InvalidArgument):
            power_substitute(PowerLaw(0.5), 0.0)


class TestNormalize:
    def test_zero_on_unit_interval(self):
        fn = normalize(PowerLaw(0.5))
        assert fn.value(1.0) == 0.0
        assert fn.value(0.3) == 0.0

    def test_shift_identity_above_one(self):
        fn = normalize(PowerLaw(0.5))
        for t in (1.5, 7.0, 1e5):
            assert fn.value(t) == pytest.approx(t ** 0.5 - 1.0, rel=1e-14)

    def test_equivalent_to_original(self):
        for base in (PowerLaw(0.5), PowerLaw(1.0), LogPower(2.0)):
            assert_status(equivalent_fun(base, normalize(base)), "satisfied")

    def test_idempotent(self):
        fn = normalize(PowerLaw(0.5))
        assert normalize(fn) is fn


class TestOmegaConditions:
    def test_doubling_bound_sqrt(self):
        v = check_omega_condition(PowerLaw(0.5), "omega1")
        assert_status(v, "satisfied")
        assert v.witness["C"] <= math.sqrt(2.0) * 1.05

    def test_strong_integral_condition_sqrt(self):
        assert_status(check_omega_condition(PowerLaw(0.5), "omega_snq"),
                      "satisfied")

    def test_linear_weight_sublinearity_fails(self):
        assert_status(check_omega_condition(PowerLaw(1.0), "omega5"),
                      "violated")
        assert_status(check_omega_condition(PowerLaw(1.0), "omega2"),
                      "satisfied")

    def test_log_weight_conditions(self):
        fn = LogPower(2.0)
        assert_status(check_omega_condition(fn, "omega1"), "satisfied")
        assert_status(check_omega_condition(fn, "omega5"), "satisfied")
        # integral of log^2(t)/t^2 converges, but log fails omega3's
        # log t = O(omega) requirement... omega3 needs omega(t)/log t -> inf
        assert not check_omega_condition(fn, "omega6").is_satisfied

    def test_convexity_in_log_scale(self):
        assert_status(check_omega_condition(PowerLaw(0.5), "omega4"),
                      "satisfied")

    def test_a_concave_log_profile_is_violated_on_the_grid(self):
        # (log t)**0.5 is concave in y = log t: no node shape decides it, and
        # the sampled profile shows a triple that bends the wrong way
        v = check_omega_condition(LogPower(0.5), "omega4")
        assert_status(v, "violated")
        assert v.provenance == "trend"
        phi = v.counterexample["triple_phi"]
        d2 = v.counterexample["second_difference"]
        assert d2 < 0.0 and phi[0] - 2.0 * phi[1] + phi[2] == pytest.approx(d2)

    def test_omega6_power_law(self):
        v = check_omega_condition(PowerLaw(0.5), "omega6")
        assert_status(v, "satisfied")
        assert v.witness["H"] >= 1.0

    def test_kernel_order_conditions(self):
        w = PowerLaw(1.0 / 3.0)
        assert_status(check_omega_condition(w, "omega_nq_r", r=2.0), "satisfied")
        assert_status(check_omega_condition(w, "omega_nq_r", r=4.0), "violated")

    def test_nq_threshold_cases(self):
        assert_status(check_omega_condition(PowerLaw(0.5), "omega_nq"),
                      "satisfied")
        assert_status(check_omega_condition(PowerLaw(1.0), "omega_nq"),
                      "violated")

    def test_implication_chain_consistency(self):
        # omega_snq => omega_nq => omega5 => omega2 must never invert; each
        # check runs on a fresh object, so this tests the predicates alone
        order = ("omega_snq", "omega_nq", "omega5", "omega2")
        builders = [lambda: PowerLaw(0.5), lambda: PowerLaw(1.0),
                    lambda: PowerLaw(0.25), lambda: LogPower(2.0),
                    *MODEL_FREE.values()]
        for build in builders:
            statuses = [check_omega_condition(build(), c).status.value
                        for c in order]
            seen_violated = False
            for s in reversed(statuses):  # weakest to strongest
                if s == "violated":
                    seen_violated = True
                elif s == "satisfied":
                    assert not seen_violated, (build().label, statuses)

    def test_verdict_follows_the_grid(self):
        # omega1 reads its sup off config.grid: the same object on another
        # t-grid gives that grid's answer, as a fresh object would
        fn = make_function("power:0.5")
        verdicts = []
        for cfg in (uw.RunConfig(),
                    uw.RunConfig(grid=uw.Grid(t_max=1e4, points=64))):
            v = check_omega_condition(fn, "omega1", config=cfg)
            fresh = check_omega_condition(make_function("power:0.5"),
                                          "omega1", config=cfg)
            assert v.to_dict() == fresh.to_dict()
            verdicts.append(v)
        assert verdicts[0].witness["grid_sup"] != verdicts[1].witness["grid_sup"]

    def test_order_reaches_only_conditions_that_take_it(self):
        # the CLI passes --r to every condition; omega_nq takes no order
        fn = make_function("logpower:2")
        assert (check_omega_condition(fn, "omega_nq", r=2.0).to_dict()
                == check_omega_condition(fn, "omega_nq").to_dict())
        assert (check_omega_condition(fn, "omega_nq_r", r=2.0).to_dict()
                != check_omega_condition(fn, "omega_nq_r", r=3.0).to_dict())

    @pytest.mark.parametrize("name", [*MODEL_FREE, "associated_function"])
    def test_answer_does_not_depend_on_call_order(self, name):
        # the associated_function node ran omega3 and omega4 when it was built
        build = {**MODEL_FREE, "associated_function":
                 lambda: uw.associated_function(uw.gevrey(1.5))}[name]
        fresh = {c: check_omega_condition(build(), c).to_dict()
                 for c in ORDER_CONDITIONS}
        for first in ORDER_CONDITIONS:
            for then in ORDER_CONDITIONS:
                if then == first:
                    continue
                fn = build()
                check_omega_condition(fn, first)
                assert (check_omega_condition(fn, then).to_dict()
                        == fresh[then]), (name, first, then)

    def test_unknown_condition_rejected(self):
        with pytest.raises(uw.InvalidArgument):
            check_omega_condition(PowerLaw(0.5), "omega9")


class TestKappaPowerNode:
    @pytest.mark.parametrize("base, method", [("power:0.5", "closed-form"),
                                              ("assoc(gevrey:2)", "fitted")])
    def test_eval_leaves_the_node_unchanged(self, base, method):
        node = uw.KappaPower(make_function(base), 1.0)
        before = dict(vars(node))
        node.eval(np.geomspace(1.0, 1e6, 50))
        assert vars(node) == before
        assert node.tail_method == method


class TestSnqIsTheMixedCondition:
    """omega_snq is the order-1 mixed condition of (omega, omega) once
    omega_nq holds."""

    @pytest.mark.parametrize("spec", [
        "assoc(gevrey:0.8)", "assoc(gevrey:1.02)", "assoc(gevrey:1.05)",
        "assoc(gevrey:1.2)", "assoc(gevrey:2)", "power:0.5", "logpower:2",
        "kappa(power:0.9,1)", "assoc(descendant(qgevrey:2,1))"])
    def test_same_status_and_constant(self, spec):
        omega = make_function(spec)
        snq = check_omega_condition(omega, "omega_snq")
        mixed = uw.mixed_condition_fun(omega, omega, 1.0)
        assert snq.condition == "omega_snq"
        assert (snq.status, snq.provenance) == (mixed.status, mixed.provenance)
        assert snq.witness.get("C") == mixed.witness.get("C")

    def test_evidence_is_the_mixed_probe_layout(self):
        v = check_omega_condition(PowerLaw(0.5), "omega_snq")
        assert_status(v, "satisfied")
        assert set(v.witness) == {"C", "sup", "r", "grid_points"}
        assert (v.witness["r"], v.witness["grid_points"]) == (1.0, 600)
        assert v.diagnostics["model_ratio_limit"] == pytest.approx(2.0)

    @pytest.mark.parametrize("s", [1.02, 1.05, 1.2, 2.0])
    def test_inexact_model_takes_the_model_asymptotic_tail(self, s):
        v = check_omega_condition(make_function(f"assoc(gevrey:{s})"), "omega_snq")
        assert (v.status.value, v.provenance) == ("satisfied", "growth-model")
        assert v.witness["tail"] == "model-asymptotic"
        # the kernel average of t**(1/s) is s/(s-1) times it
        assert v.diagnostics["model_ratio_limit"] == pytest.approx(s / (s - 1.0))

    def test_a_gauge_vanishing_on_the_grid_is_refused(self):
        with pytest.raises(uw.InvalidArgument, match="vanishes on the whole"):
            check_omega_condition(make_function("normalized(power:0)"), "omega_snq")


class TestComparisons:
    def test_preceq_direction(self):
        assert_status(compare_preceq(PowerLaw(0.5), PowerLaw(1.0 / 3.0)),
                      "satisfied")

    def test_preceq_reverse_fails(self):
        v = compare_preceq(PowerLaw(1.0 / 3.0), PowerLaw(0.5))
        assert v.status.value in ("violated", "inconclusive")

    def test_small_o_of_itself_fails(self):
        assert_status(compare_o(PowerLaw(0.5), PowerLaw(0.5)), "violated")

    def test_small_o_strict(self):
        assert_status(compare_o(PowerLaw(0.5), PowerLaw(0.25)), "satisfied")

    def test_equivalence_reflexive(self):
        assert_status(equivalent_fun(PowerLaw(0.5), PowerLaw(0.5)),
                      "satisfied")

    def test_equivalence_rejects_different_growth(self):
        v = equivalent_fun(PowerLaw(0.5), PowerLaw(0.25))
        assert v.status.value == "violated"
