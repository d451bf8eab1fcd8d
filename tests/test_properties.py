"""Randomized invariants: algebra laws, conjugation fixpoints, thresholds.

Each property is a law the operators promise for *every* admissible input;
hypothesis searches for counterexamples over generated sequences, convex
profiles, and exponents.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ultraweight as uw
from ultraweight import ConvexPL, young_conjugate
from ultraweight.functions import conjugate_pl

from conftest import brute_associated_log

SETTINGS = dict(max_examples=25, deadline=None)

# log-quotient profiles: first quotient plus nonnegative increments gives a
# nondecreasing quotient sequence, i.e. a log-convex finite sequence
quotient_profiles = st.tuples(
    st.floats(min_value=-1.0, max_value=2.0),
    st.lists(st.floats(min_value=0.0, max_value=1.5), min_size=2,
             max_size=24),
)


def explicit_from_profile(profile) -> uw.WeightSequence:
    first, steps = profile
    log_mu = first + np.concatenate([[0.0], np.cumsum(steps)])
    log_vals = np.concatenate([[0.0], np.cumsum(log_mu)])
    return uw.explicit(np.exp(log_vals))


convex_profiles = st.tuples(
    st.lists(st.floats(min_value=0.05, max_value=2.0), min_size=2,
             max_size=10),
    st.lists(st.floats(min_value=0.05, max_value=1.5), min_size=2,
             max_size=10),
    st.floats(min_value=-3.0, max_value=3.0),
)


def convex_pl_from_profile(profile) -> ConvexPL:
    widths, slope_steps, base_slope = profile
    n = min(len(widths), len(slope_steps))
    xs = np.concatenate([[0.0], np.cumsum(widths[:n])])
    slopes = base_slope + np.concatenate([[0.0], np.cumsum(slope_steps[:n])])
    vals = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(xs))])
    return ConvexPL(tuple(xs), tuple(vals), extrapolation_slope=slopes[-1])


class TestSequenceAlgebraLaws:
    @given(profile=quotient_profiles,
           r=st.floats(min_value=0.3, max_value=3.0))
    @settings(**SETTINGS)
    def test_entrywise_power_scales_log_quotients(self, profile, r):
        M = explicit_from_profile(profile)
        P = M.max_index
        np.testing.assert_allclose(uw.power(M, r).log_quotients(P)[1:],
                                   r * M.log_quotients(P)[1:],
                                   rtol=0, atol=1e-12)

    @given(profile=quotient_profiles)
    @settings(**SETTINGS)
    def test_hat_lift_multiplies_quotients_by_index(self, profile):
        M = explicit_from_profile(profile)
        P = M.max_index
        p = np.arange(1, P + 1)
        np.testing.assert_allclose(uw.hat(M).log_quotients(P)[1:],
                                   M.log_quotients(P)[1:] + np.log(p),
                                   rtol=0, atol=1e-12)

    @given(profile=quotient_profiles,
           eps=st.floats(min_value=0.1, max_value=2.0))
    @settings(**SETTINGS)
    def test_factorial_shift_adds_power_of_index(self, profile, eps):
        M = explicit_from_profile(profile)
        P = M.max_index
        p = np.arange(1, P + 1)
        np.testing.assert_allclose(
            uw.factorial_shift(M, eps).log_quotients(P)[1:],
            M.log_quotients(P)[1:] + eps * np.log(p), rtol=0, atol=1e-12)

    @given(profile=quotient_profiles)
    @settings(**SETTINGS)
    def test_values_reconstruct_from_quotients(self, profile):
        M = explicit_from_profile(profile)
        P = M.max_index
        np.testing.assert_allclose(M.log_values(P),
                                   np.concatenate(
                                       [[0.0],
                                        np.cumsum(M.log_quotients(P)[1:])]),
                                   rtol=0, atol=1e-12)

    @given(profile=quotient_profiles)
    @settings(**SETTINGS)
    def test_generated_profiles_are_log_convex(self, profile):
        M = explicit_from_profile(profile)
        assert uw.check_sequence_condition(M, "lc").is_satisfied

    @given(profile=quotient_profiles,
           where=st.floats(min_value=0.3, max_value=0.9),
           excess=st.floats(min_value=0.1, max_value=2.0))
    @settings(**SETTINGS)
    def test_injected_dip_is_always_caught(self, profile, where, excess):
        M = explicit_from_profile(profile)
        P = M.max_index
        log_vals = M.log_values(P).copy()
        log_mu = M.log_quotients(P)
        p = max(2, min(P - 1, int(round(where * P))))
        # bump one value by more than half the local quotient gap, which
        # forces quotient p above quotient p+1
        log_vals[p] += 0.5 * (log_mu[p + 1] - log_mu[p]) + excess
        v = uw.check_sequence_condition(uw.explicit(np.exp(log_vals)), "lc")
        assert v.is_violated
        assert v.counterexample["p"] in (p, p + 1)


class TestConjugationLaws:
    @given(profile=convex_profiles)
    @settings(**SETTINGS)
    def test_biconjugation_fixes_convex_profiles(self, profile):
        pl = convex_pl_from_profile(profile)
        back = conjugate_pl(conjugate_pl(pl))
        xs = np.asarray(pl.xs)
        scale = max(1.0, float(np.max(np.abs(pl.vals))))
        np.testing.assert_allclose(back(xs), pl(xs), rtol=0,
                                   atol=1e-9 * scale)

    @given(profile=convex_profiles)
    @settings(**SETTINGS)
    def test_conjugate_slopes_are_breakpoints(self, profile):
        pl = convex_pl_from_profile(profile)
        conj = conjugate_pl(pl)
        assert np.all(np.diff(conj.slopes) >= -1e-12)
        # the conjugate's extrapolation slope is the last breakpoint of phi
        assert conj.extrapolation_slope == pytest.approx(pl.xs[-1])

    @given(a=st.floats(min_value=0.3, max_value=1.5),
           c=st.floats(min_value=0.5, max_value=3.0))
    @settings(**SETTINGS)
    def test_conjugate_of_normalized_weight_vanishes_at_zero(self, a, c):
        conj = young_conjugate(uw.normalize(uw.PowerLaw(a, c)))
        assert abs(float(conj(np.array([0.0]))[0])) <= 1e-9

    @given(a=st.floats(min_value=0.3, max_value=1.5))
    @settings(**SETTINGS)
    def test_conjugate_is_nondecreasing_on_positives(self, a):
        conj = young_conjugate(uw.normalize(uw.PowerLaw(a)))
        xs = np.linspace(0.0, conj.xs[-1], 50)
        assert np.all(np.diff(conj(xs)) >= -1e-9)


class TestThresholdLaws:
    @given(s=st.floats(min_value=1.3, max_value=2.5),
           below=st.floats(min_value=0.2, max_value=0.8),
           above=st.floats(min_value=0.15, max_value=1.5))
    @settings(max_examples=10, deadline=None)
    def test_mixed_seq_threshold_sits_at_the_exponent(self, s, below, above):
        M = uw.gevrey(s)
        config = uw.RunConfig(p_max=20000)
        assert uw.mixed_condition_seq(M, M, s - below,
                                      config=config).is_satisfied
        assert uw.mixed_condition_seq(M, M, s + above,
                                      config=config).is_violated

    @given(a=st.floats(min_value=0.25, max_value=0.9))
    @settings(max_examples=10, deadline=None)
    def test_power_law_weights_satisfy_core_conditions(self, a):
        fn = uw.PowerLaw(a)
        for cond in ("omega1", "omega3", "omega4", "omega_nq"):
            assert uw.check_omega_condition(fn, cond).is_satisfied, cond


class TestAssociatedLaws:
    @given(s=st.floats(min_value=1.0, max_value=3.0),
           logt=st.floats(min_value=0.0, max_value=6.0))
    @settings(max_examples=15, deadline=None)
    def test_square_substitution_halves_the_base(self, s, logt):
        M = uw.gevrey(s)
        t = math.exp(logt)
        lhs = uw.associated_eval(M, t * t)
        rhs = 2.0 * uw.associated_eval(uw.power(M, 0.5), t)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @given(s=st.floats(min_value=1.0, max_value=2.5),
           logt=st.floats(min_value=-1.0, max_value=5.0))
    @settings(max_examples=15, deadline=None)
    def test_matches_brute_force_sup(self, s, logt):
        M = uw.gevrey(s)
        t = math.exp(logt)
        assert uw.associated_eval(M, t) == pytest.approx(
            brute_associated_log(M, t), rel=1e-10, abs=1e-12)
