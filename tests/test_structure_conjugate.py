"""The conjugate of a sup transform read off its sequence.

For M log-convex with M_0 = 1, the conjugate of y -> omega_M(e^y) is log M_p
at each integer p and linear in between (Komatsu: M_p = sup_t t^p /
exp(omega_M(t))), and +inf past the last index of a finite list.  So
omega_hat and associated_matrix on assoc(M) sample nothing.  The oracles:
the sequence route of omega_hat, log-gamma interpolated by hand, the sampled
conjugate, and dense sups over a finite list.
"""

import json
import math
import warnings

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import cli
from ultraweight.constructions import _refined_conjugate

GEVREY_S = (1.2, 1.5, 1.605, 2.0, 3.0)
LEVELS = (0.25, 0.5, 1.0, 2.0, 8.0)
J_MAX = 24
TS = np.geomspace(1e-2, 1e12, 400)
SHORT_LIST = [1, 1, 2, 6, 24, 120]
SAMPLED_LISTS = [
    [1, 0.5, 0.5, 1, 4, 32],   # shifted by normalize: sampled route
    [2, 2, 4, 12, 48, 240],    # M_0 = 2: sampled route
]


def assoc_of(values):
    return uw.make_function(json.dumps(
        {"kind": "assoc", "sequence": {"family": "explicit", "values": values}}))


def gevrey_log_values(s: float, top: int) -> np.ndarray:
    return np.array([s * math.lgamma(p + 1.0) for p in range(top + 1)])


@pytest.mark.parametrize("s", GEVREY_S)
def test_omega_hat_of_assoc_is_the_sequence_lift(s):
    lifted = uw.omega_hat(uw.make_function(f"assoc(gevrey:{s})"))
    direct = uw.omega_hat(uw.gevrey(s))
    np.testing.assert_allclose(lifted.eval(TS), direct.eval(TS),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("s", GEVREY_S)
def test_matrix_rows_interpolate_log_m(s):
    W = uw.associated_matrix(uw.make_function(f"assoc(gevrey:{s})"),
                             levels=LEVELS, j_max=J_MAX)
    top = math.ceil(LEVELS[-1] * J_MAX)
    assert W.diagnostics["conjugate_method"] == "structure"
    assert W.diagnostics["conjugate_breakpoints"] == top + 1
    log_m = gevrey_log_values(s, top)
    js = np.arange(J_MAX + 1, dtype=float)
    for l in LEVELS:
        want = np.interp(l * js, np.arange(top + 1.0), log_m) / l
        np.testing.assert_allclose(W.log_values(l), want, rtol=1e-12,
                                   atol=1e-12)


@pytest.mark.parametrize("s", GEVREY_S)
def test_structure_rows_against_sampled_conjugate(s):
    """The sampled conjugate is exact at integer arguments up to its tol of
    1e-3.  Between integers its maximizer, a kink of omega_M(e^y), falls
    between grid points, so the sampled hull lies above phi and its conjugate
    below the exact one there."""
    fn = uw.make_function(f"assoc(gevrey:{s})")
    W = uw.associated_matrix(fn, levels=LEVELS, j_max=J_MAX)
    sampled = _refined_conjugate(fn, LEVELS[-1] * J_MAX, tol=1e-3)
    js = np.arange(J_MAX + 1, dtype=float)
    for l in LEVELS:
        x = l * js
        exact, approx = l * W.log_values(l), sampled(x)
        integer = x == np.round(x)
        np.testing.assert_allclose(approx[integer], exact[integer], rtol=0,
                                   atol=1e-3)
        assert np.all(approx <= exact + 1e-9)


class TestSampledRouteKept:
    def test_power_gauge(self):
        W = uw.associated_matrix(uw.PowerLaw(0.5), levels=(1.0, 2.0), j_max=8)
        assert W.diagnostics["conjugate_method"] == "sampled"

    def test_input_that_normalize_shifts(self):
        # mu_1 = 1/2 < 1, so omega(1) = log 2 and the input is shifted
        fn = assoc_of([1, 0.5, 0.5, 1, 4, 32, 512, 16384, 1048576])
        W = uw.associated_matrix(fn, levels=(1.0, 2.0), j_max=3)
        assert W.diagnostics["normalized_input"] is True
        assert W.diagnostics["conjugate_method"] == "sampled"

    def test_sequence_with_m0_not_one(self):
        fn = assoc_of([2.0 * math.factorial(p) for p in range(31)])
        assert fn.seq.log_m0 != 0.0
        W = uw.associated_matrix(fn, levels=(1.0, 2.0), j_max=8)
        assert W.diagnostics["conjugate_method"] == "sampled"


class TestFiniteList:
    def test_rows_read_exactly_up_to_the_last_index(self):
        W = uw.associated_matrix(assoc_of(SHORT_LIST), levels=(0.5, 1.0),
                                 j_max=5)
        assert W.diagnostics["conjugate_method"] == "structure"
        np.testing.assert_allclose(np.exp(W.log_values(1.0)), SHORT_LIST,
                                   rtol=1e-14)

    @pytest.mark.parametrize("values", [SHORT_LIST] + SAMPLED_LISTS)
    def test_matrix_past_the_last_index_is_refused(self, values):
        with pytest.raises(uw.PreconditionError, match="N = 5"):
            uw.associated_matrix(assoc_of(values), levels=(1.0,), j_max=8)

    @pytest.mark.parametrize("values", SAMPLED_LISTS)
    def test_omega_hat_on_the_sampled_route_is_refused(self, values):
        """The lift reads the level-1 row at every index; past N it is +inf,
        so the refusal comes before any grid is sampled."""
        fn = assoc_of(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(uw.DivergentAssociated, match="N = 5"):
                uw.omega_hat(fn)

    def test_omega_hat_is_the_sup_over_the_list(self):
        lifted = uw.omega_hat(assoc_of(SHORT_LIST))
        p = np.arange(len(SHORT_LIST))
        log_hat = np.log([math.factorial(i) * v for i, v in enumerate(SHORT_LIST)])
        for t in (0.5, 1.0, 3.0, 40.0, 1e6):
            want = float(np.max(p * math.log(t) - log_hat))
            assert lifted.value(t) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_omega3_is_recorded_not_enforced(self):
        fn = assoc_of([1, 0.001, 0.00001])
        assert fn.construction_checks["omega3"].is_violated
        assert fn.construction_checks["omega4"].is_satisfied


class TestCommands:
    @pytest.mark.parametrize("values", [SHORT_LIST] + SAMPLED_LISTS)
    def test_matrix_past_the_last_index_exits_65(self, values, capsys):
        spec = json.dumps({"kind": "assoc", "sequence": {
            "family": "explicit", "values": values}})
        code = cli.main(["matrix", "--omega", spec, "--levels", "1",
                         "--jmax", "8"])
        assert code == cli.EXIT_PRECONDITION
        assert "N = 5" in capsys.readouterr().err

    def test_check_on_a_finite_list_decides(self, capsys):
        spec = json.dumps({"kind": "assoc", "sequence": {
            "family": "explicit", "values": [1, 0.001, 0.00001]}})
        code = cli.main(["check", "--omega", spec, "--conditions", "omega1"])
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED, cli.EXIT_INCONCLUSIVE)
