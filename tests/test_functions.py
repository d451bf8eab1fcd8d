"""Weight-function nodes, substitution, normalization, and condition checks."""

import math

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import (LogPower, PowerLaw, check_omega_condition,
                         check_omega_nq_r, compare_o, compare_preceq,
                         equivalent_fun, normalize, power_substitute)

from ultraweight import functions
from ultraweight.specio import make_function

from conftest import assert_status


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

    def test_omega6_power_law(self):
        v = check_omega_condition(PowerLaw(0.5), "omega6")
        assert_status(v, "satisfied")
        assert v.witness["H"] >= 1.0

    def test_kernel_order_conditions(self):
        assert_status(check_omega_nq_r(PowerLaw(1.0 / 3.0), 2.0), "satisfied")
        assert_status(check_omega_nq_r(PowerLaw(1.0 / 3.0), 4.0), "violated")

    def test_nq_threshold_cases(self):
        assert_status(check_omega_condition(PowerLaw(0.5), "omega_nq"),
                      "satisfied")
        assert_status(check_omega_condition(PowerLaw(1.0), "omega_nq"),
                      "violated")

    def test_implication_chain_consistency(self):
        # omega_snq => omega_nq => omega5 => omega2 must never invert
        order = ("omega_snq", "omega_nq", "omega5", "omega2")
        for fn in (PowerLaw(0.5), PowerLaw(1.0), PowerLaw(0.25),
                   LogPower(2.0)):
            statuses = [check_omega_condition(fn, c).status.value
                        for c in order]
            seen_violated = False
            for s in reversed(statuses):  # weakest to strongest
                if s == "violated":
                    seen_violated = True
                elif s == "satisfied":
                    assert not seen_violated, (fn.label, statuses)

    def test_cached_verdict_keys_on_the_grid(self):
        # omega1 reads its sup off config.grid, so a second call with another
        # t-grid must not get the first call's verdict back
        wide = uw.RunConfig()
        short = uw.RunConfig(grid=uw.Grid(t_max=1e4, points=64))
        fn = make_function("power:0.5")
        first = check_omega_condition(fn, "omega1", config=wide)
        second = check_omega_condition(fn, "omega1", config=short)
        fresh = check_omega_condition(make_function("power:0.5"), "omega1",
                                      config=short)
        assert second is not first
        assert second.to_dict() == fresh.to_dict()
        assert second.witness["grid_sup"] != first.witness["grid_sup"]
        assert check_omega_condition(fn, "omega1", config=short) is second

    def test_order_keys_only_conditions_that_take_it(self):
        # the CLI passes --r to every condition; omega_nq takes no order, so
        # its verdict must land where omega_snq and the implication chain
        # look it up
        fn = make_function("logpower:2")
        cfg = uw.RunConfig()
        first = check_omega_condition(fn, "omega_nq", r=2.0)
        assert functions._cached(fn, "omega_nq", cfg) is first
        assert check_omega_condition(fn, "omega_nq") is first
        with_r = check_omega_condition(fn, "omega_nq_r", r=2.0)
        assert check_omega_condition(fn, "omega_nq_r", r=2.0) is with_r
        assert check_omega_condition(fn, "omega_nq_r", r=3.0) is not with_r

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
