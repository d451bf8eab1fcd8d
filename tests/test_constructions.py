"""Bridges between sequences and functions, and the derived constructions.

Anchors: the sup transform of the factorial sequence at t = e equals
2 - log 2; the kernel average of sqrt(t) is exactly 2 sqrt(t); descendant
remainder sums of the squared-factorial sequence start at 1 + pi^2/6; the
first glue breakpoint for f(t) = max(0, 2t - 2) over sigma = sqrt(t) solves
2t - 2 = 4 sqrt(t), i.e. t = 3 + 2 sqrt(2).  Brute-force sups and
scipy.integrate.quad serve as independent oracles throughout.
"""

import math

import numpy as np
import pytest

import ultraweight as uw

from conftest import assert_status, brute_associated_log, quad_kernel_integral

FAST = uw.RunConfig(p_max=20000)


@pytest.fixture(scope="module")
def matrix(assoc_g1):
    return uw.associated_matrix(assoc_g1, j_max=20)


@pytest.fixture(scope="module")
def pair_g2(gevrey2):
    return uw.descendant(gevrey2, 1.0)


@pytest.fixture(scope="module")
def built(sqrt_weight, cbrt_weight):
    return uw.reduction_build(sqrt_weight, cbrt_weight, uw.PowerLaw(1.0))


class TestAssociatedEval:
    def test_factorial_value_at_e(self, gevrey1):
        assert uw.associated_eval(gevrey1, math.e) == pytest.approx(
            2.0 - math.log(2.0), rel=1e-12)

    def test_vanishes_below_first_quotient(self, gevrey1):
        assert uw.associated_eval(gevrey1, 0.5) == 0.0
        assert uw.associated_eval(gevrey1, 1.0) == 0.0

    @pytest.mark.parametrize("family", ["gevrey1", "gevrey2", "qgevrey2"])
    def test_matches_brute_force_sup(self, family, request):
        M = request.getfixturevalue(family)
        rng = np.random.default_rng(7)
        for logt in rng.uniform(-2.0, 6.0, size=20):
            t = math.exp(logt)
            got = uw.associated_eval(M, t)
            assert got == pytest.approx(brute_associated_log(M, t),
                                        rel=1e-10, abs=1e-12)

    def test_array_input(self, gevrey2):
        ts = np.array([1.0, math.e, 10.0])
        out = uw.associated_eval(gevrey2, ts)
        assert out.shape == ts.shape
        assert out[1] == pytest.approx(uw.associated_eval(gevrey2, math.e))

    def test_power_substitution_identity(self, gevrey2):
        half = uw.power(gevrey2, 0.5)
        for t in (2.0, 7.0, 40.0, 1e3):
            assert uw.associated_eval(gevrey2, t * t) == pytest.approx(
                2.0 * uw.associated_eval(half, t), rel=1e-12)

    def test_finite_list_past_its_last_quotient(self):
        # the sup runs over finitely many p: far out the last index wins
        M = uw.explicit([1, 1, 2, 6, 24])
        assert uw.associated_eval(M, 1e6) == pytest.approx(
            4.0 * math.log(1e6) - math.log(24.0), rel=1e-12)
        assert uw.associated_eval(M, 1e6) == pytest.approx(
            brute_associated_log(M, 1e6), rel=1e-12)

    def test_rejects_non_log_convex(self):
        with pytest.raises(uw.NotLogConvex):
            uw.associated_eval(uw.explicit([1, 4, 8, 32]), 2.0)

    def test_rejects_bounded_quotients(self):
        geo = uw.from_quotients(lambda p: 2.0, label="geometric")
        with pytest.raises(uw.DivergentAssociated):
            uw.associated_eval(geo, 2.0)


class TestAssociatedFunction:
    def test_carries_postcondition_verdicts(self, assoc_g2):
        checks = assoc_g2.construction_checks
        assert checks["omega3"].is_satisfied
        assert checks["omega4"].is_satisfied

    def test_agrees_with_pointwise_eval(self, gevrey2, assoc_g2):
        ts = np.geomspace(0.5, 1e5, 50)
        np.testing.assert_allclose(assoc_g2.eval(ts),
                                   uw.associated_eval(gevrey2, ts), rtol=1e-12)

    def test_strong_integrability_for_summable_base(self, assoc_g2):
        assert_status(uw.check_omega_condition(assoc_g2, "omega_snq"),
                      "satisfied")

    def test_borderline_base_is_not_integrable(self, assoc_g1):
        assert_status(uw.check_omega_condition(assoc_g1, "omega_nq"),
                      "violated")

    def test_concavity_like_dichotomy(self, assoc_g2, qgevrey2):
        # power-type growth keeps the log-scaling bound; super-power growth
        # (quotients q^(2p-1)) breaks it
        assert_status(uw.check_omega_condition(assoc_g2, "omega6"),
                      "satisfied")
        assoc_q = uw.associated_function(qgevrey2)
        assert_status(uw.check_omega_condition(assoc_q, "omega6"), "violated")


class TestAssociatedMatrix:

    def test_level_one_recovers_factorials(self, matrix):
        got = matrix.log_values(1.0)
        want = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, 21))]))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_rows_start_at_one(self, matrix):
        for l in matrix.levels:
            assert matrix.log_values(l)[0] == 0.0

    def test_rows_nondecreasing_in_level(self, matrix):
        for lo, hi in zip(matrix.levels, matrix.levels[1:]):
            assert np.all(matrix.log_values(hi) - matrix.log_values(lo)
                          >= -1e-9)

    def test_rows_log_convex(self, matrix):
        for l in matrix.levels:
            assert np.all(np.diff(matrix.log_values(l), 2) >= -1e-9)

    def test_doubling_absorption_sampled(self, matrix):
        absorb = matrix.diagnostics["doubling_absorption"]
        assert set(absorb) == {"2", "e"}
        for rec in absorb.values():
            assert rec["A"] in (2.0, 4.0, 8.0)
            assert 1.0 <= rec["D"] < math.inf
        assert absorb["2"]["D"] == pytest.approx(math.sqrt(2.0), rel=1e-3)

    def test_row_access_and_csv_order(self, matrix):
        with pytest.raises(uw.InvalidArgument):
            matrix.level(3.0)
        first = next(iter(matrix.rows()))
        assert first == (0, matrix.levels[0], 1.0)

    def test_rejects_bad_parameters(self, assoc_g1):
        with pytest.raises(uw.InvalidArgument):
            uw.associated_matrix(assoc_g1, levels=())
        with pytest.raises(uw.InvalidArgument):
            uw.associated_matrix(assoc_g1, levels=(0.0, 1.0))
        with pytest.raises(uw.InvalidArgument):
            uw.associated_matrix(assoc_g1, levels=(1.0, 1.0))
        with pytest.raises(uw.InvalidArgument):
            uw.associated_matrix(assoc_g1, j_max=0)


class TestOmegaHat:
    def test_sequence_route_matches_shifted_brute_force(self, gevrey1):
        lifted = uw.omega_hat(gevrey1)
        t = math.e ** 2
        assert lifted.value(t) == pytest.approx(
            brute_associated_log(uw.hat(gevrey1), t), rel=1e-12)

    def test_sequence_route_lands_one_order_up(self, gevrey1, assoc_g2):
        lifted = uw.omega_hat(gevrey1)
        v = uw.equivalent_fun(lifted, assoc_g2)
        assert v.is_satisfied, dict(v.trend)

    def test_function_route_matches_sequence_route(self, assoc_g1, assoc_g2):
        lifted = uw.omega_hat(assoc_g1)
        v = uw.equivalent_fun(lifted, assoc_g2)
        assert v.is_satisfied, dict(v.trend)

    def test_normalized_at_one(self, gevrey1):
        assert uw.omega_hat(gevrey1).value(1.0) == 0.0

    def test_rejects_other_types(self):
        with pytest.raises(uw.InvalidArgument):
            uw.omega_hat([1, 2, 6])


class TestKappa:
    def test_sqrt_average_is_twice_sqrt(self, sqrt_weight):
        k = uw.kappa(sqrt_weight)
        for t in (1.0, 4.0, 100.0, 1e6):
            assert k.value(t) == pytest.approx(2.0 * math.sqrt(t), rel=1e-10)

    @pytest.mark.parametrize("omega", [uw.PowerLaw(1.0 / 3.0),
                                       uw.LogPower(2.0)],
                             ids=["cuberoot", "logsquared"])
    def test_matches_adaptive_quadrature(self, omega):
        k = uw.kappa(omega)
        for t in (2.0, 10.0, 100.0):
            assert k.value(t) == pytest.approx(
                quad_kernel_integral(omega, t, 2.0), rel=1e-6)

    def test_vanishes_at_origin(self, sqrt_weight):
        assert uw.kappa(sqrt_weight).value(0.0) == 0.0

    def test_attaches_integrability_verdict(self, sqrt_weight):
        assert uw.kappa(sqrt_weight).precondition.is_satisfied

    def test_rejects_divergent_kernel(self):
        with pytest.raises(uw.NotNonQuasianalytic):
            uw.kappa(uw.PowerLaw(1.0))


class TestKappaPowerNormalized:
    def test_construction_check_attached(self, cbrt_weight):
        out = uw.kappa_power_normalized(cbrt_weight, 2.0)
        assert out.construction_check.is_satisfied

    def test_clamped_on_unit_interval(self, cbrt_weight):
        out = uw.kappa_power_normalized(cbrt_weight, 2.0)
        assert out.value(0.5) == 0.0
        assert out.value(1.0) == 0.0
        assert out.value(50.0) > 0.0

    def test_rejects_bad_order_and_divergence(self, cbrt_weight):
        with pytest.raises(uw.InvalidArgument):
            uw.kappa_power_normalized(cbrt_weight, 0.0)
        with pytest.raises(uw.NotNonQuasianalytic):
            uw.kappa_power_normalized(uw.PowerLaw(1.0), 1.0)


class TestDescendant:

    def test_remainder_sum_seed(self, pair_g2):
        assert pair_g2.tau_1 == pytest.approx(1.0 + math.pi ** 2 / 6.0,
                                              rel=1e-9)

    def test_first_entries(self, pair_g2):
        assert pair_g2.S.value(1) == pytest.approx(1.0, rel=1e-12)
        assert pair_g2.S.value(2) == pytest.approx(4.6202382188333315,
                                                   rel=1e-9)

    def test_unpacks_as_pair(self, pair_g2):
        S, L = pair_g2
        assert S is pair_g2.S and L is pair_g2.L
        # at order 1 the power copy coincides with the core
        np.testing.assert_allclose(L.log_values(50), S.log_values(50),
                                   rtol=1e-12)

    def test_core_strongly_log_convex(self, pair_g2):
        assert pair_g2.checks["slc_S"].is_satisfied

    def test_mixed_comparison_holds_at_and_below_order(self, pair_g2, gevrey2):
        assert pair_g2.checks["mixed_L_N"].is_satisfied
        assert_status(uw.mixed_condition_seq(pair_g2.L, gevrey2, 0.95,
                                             config=FAST), "satisfied")

    def test_quotient_domination_constant(self, pair_g2):
        assert 1.0 <= pair_g2.lambda_bound < 2.0
        assert pair_g2.diagnostics["lambda_over_nu"]["stabilized"]

    @pytest.mark.parametrize("base,r", [("gevrey2", 1.0), ("gevrey3", 1.0),
                                        ("gevrey3", 2.0), ("qgevrey2", 1.0)])
    def test_core_starts_at_one(self, base, r, request):
        pair = uw.descendant(request.getfixturevalue(base), r)
        assert pair.S.value(1) == pytest.approx(1.0, rel=1e-12)

    def test_geometric_quotient_seed(self, qgevrey2):
        assert uw.descendant(qgevrey2, 1.0).tau_1 == pytest.approx(7.0 / 6.0,
                                                                   rel=1e-12)

    def test_order_two_index_recovery(self, gevrey3):
        pair = uw.descendant(gevrey3, 2.0)
        est = uw.gamma_index_seq(pair.L, gevrey3, config=FAST)
        assert est.upper >= 3.0 - 0.05
        assert est.lower <= 3.0 + 0.05

    def test_exponent_round_trip_above_the_base(self):
        # (1.7625 / 0.618) * 0.618 rounds above 1.7625; L must keep the base's
        # exponent and pass its own mixed comparison
        pair = uw.descendant(uw.gevrey(1.7625), 0.618)
        assert pair.L.tail_model.e_hi == 1.7625
        assert_status(pair.checks["mixed_L_N"], "satisfied")

    def test_seeded_sweep_of_orders(self):
        rng = np.random.default_rng(20)
        failures = []
        for s, r in zip(rng.uniform(1.2, 3.0, 50), rng.uniform(0.5, 1.0, 50)):
            try:
                uw.descendant(uw.gevrey(float(s)), float(r), config=FAST)
            except uw.UltraweightError as exc:
                failures.append((float(s), float(r), repr(exc)))
        assert failures == []

    def test_precondition_errors(self, gevrey1, gevrey2):
        with pytest.raises(uw.NotLogConvex):
            uw.descendant(uw.explicit([1, 4, 8, 32]), 1.0)
        with pytest.raises(uw.NotNonQuasianalytic):
            uw.descendant(gevrey1, 1.0)
        with pytest.raises(uw.InvalidArgument):
            uw.descendant(gevrey2, 0.0)
        with pytest.raises(uw.PreconditionInconclusive):
            uw.descendant(uw.explicit([1, 1, 2, 6, 24]), 1.0)


class TestReduction:

    def test_witness_constants(self, built):
        w = built.witness
        assert (w.C, w.K, w.H, w.t0) == (1.0, 8.0, 3.0, 1.0)
        assert built.H1 == pytest.approx((3.0 + 8.0) / 2.0)
        assert built.C1 == built.witness.C * built.D
        assert built.D >= 1 and isinstance(built.D, int)

    def test_breakpoints_start_at_zero_and_spread(self, built):
        xs = built.breakpoints
        assert xs[0] == 0.0
        # n = 2 constraint: f >= 4 sigma means t >= 16 for f = t over sqrt(t)
        assert xs[1] == pytest.approx(16.0, abs=1e-3)
        for prev, nxt, n in zip(xs[1:], xs[2:], range(3, len(xs) + 1)):
            assert nxt > max(2.0, built.witness.K) * prev + n - 1e-6

    def test_glue_is_identity_on_first_segment(self, built, cbrt_weight,
                                               sqrt_weight):
        ts = np.linspace(0.1, built.breakpoints[1] * 0.999, 40)
        np.testing.assert_allclose(built.omega_tilde.eval(ts),
                                   cbrt_weight.eval(ts), rtol=1e-12)
        np.testing.assert_allclose(built.sigma_tilde.eval(ts),
                                   sqrt_weight.eval(ts), rtol=1e-12)

    def test_glue_continuity(self, built):
        cont = built.diagnostics["continuity"]
        assert cont["omega_tilde"] <= 1e-9
        assert cont["sigma_tilde"] <= 1e-9

    def test_sandwich_between_n_minus_two_and_n(self, built):
        for name in ("omega", "sigma"):
            rep = built.diagnostics["sandwich"][name]
            assert rep["violations"] == 0, rep

    def test_output_inherits_domination(self, built):
        rep = built.diagnostics["output_domination"]
        assert rep["passed"] is True
        assert rep["worst_ratio"] <= 1.0 + 1e-9

    def test_doubling_bound_preserved(self, built):
        rep = built.diagnostics["doubling_bound_preserved"]
        assert rep.get("sigma_tilde") == "satisfied"
        assert rep.get("omega_tilde") == "satisfied"

    def test_linear_cutoff_moves_first_breakpoint(self, sqrt_weight,
                                                  cbrt_weight):
        f = uw.normalize(uw.PowerLaw(1.0, 2.0))
        built = uw.reduction_build(sqrt_weight, cbrt_weight, f, n_break=4)
        # 2t - 2 >= 4 sqrt(t) first holds at t = (1 + sqrt 2)^2
        assert built.breakpoints[1] == pytest.approx(3.0 + 2.0 * math.sqrt(2.0),
                                                     abs=1e-3)
        table = built.diagnostics["breakpoint_table"]
        assert table[0]["binding"] == "domination"

    def test_precondition_errors(self, sqrt_weight, cbrt_weight):
        lin = uw.PowerLaw(1.0)
        with pytest.raises(uw.GammaNotAboveOne):
            uw.reduction_build(lin, lin, uw.PowerLaw(1.0, 5.0))
        with pytest.raises(uw.InvalidArgument):
            uw.reduction_build(sqrt_weight, cbrt_weight, sqrt_weight)
        with pytest.raises(uw.InvalidArgument):
            uw.reduction_build(sqrt_weight, cbrt_weight, lin, n_break=1)
