"""Indices read off a law, against the bisection that the law replaced.

`mu_seq`, `mu_fun`, `gamma_index_seq` and `gamma_index_fun` answer a point,
with no probe, when the input's law decides the condition at every order.
The differential part runs the bisection on the very probe each entry builds
(the route every input took before the law was read first) and requires its
bracket to hold the law point, within the index tolerance.  The coverage part maps every descriptor
family to the law its object carries, or to the reason it has none, and to the
index entries that answer that family from the law.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

import ultraweight as uw
from ultraweight import cli, specio
from ultraweight.functions import MixedFunProbe, OmegaNodes, _shape_cmp
from ultraweight.indices import MixedSeqProbe, _bisect_index
from ultraweight.sequences import check_nq_r

CONFIG = uw.RunConfig()
TOL = CONFIG.index_tol
LAW_METHODS = ("tail-model", "growth-model")
SHORT_LIST_ASSOC = ('{"kind":"assoc","sequence":{"family":"explicit",'
                    '"values":[1,1,2,6,24,120]}}')


def bisect_mu_seq(N: uw.WeightSequence) -> uw.IndexEstimate:
    return _bisect_index("mu", lambda r: check_nq_r(N, r, CONFIG.p_max),
                         tol=TOL, diagnostics={})


def bisect_mu_fun(omega: uw.WeightFunction) -> uw.IndexEstimate:
    return _bisect_index("mu", OmegaNodes(omega).nq_r, tol=TOL, diagnostics={})


def bisect_gamma_seq(M: uw.WeightSequence, N: uw.WeightSequence) -> uw.IndexEstimate:
    return _bisect_index("gamma_mixed", MixedSeqProbe(M, N, CONFIG), tol=TOL,
                         diagnostics={})


def bisect_gamma_fun(sigma: uw.WeightFunction, omega: uw.WeightFunction) -> uw.IndexEstimate:
    return _bisect_index("gamma_mixed", MixedFunProbe(sigma, omega, CONFIG), tol=TOL,
                         diagnostics={})


def assert_law_inside(law: uw.IndexEstimate, bisected: uw.IndexEstimate) -> None:
    assert law.method in LAW_METHODS
    assert law.lower == law.upper and law.tolerance == 0.0
    assert law.r_samples == () and law.diagnostics["probes"] == 0
    assert bisected.method == "bisection", bisected.method
    assert bisected.lower - TOL <= law.lower <= bisected.upper + TOL, (
        law.lower, bisected.lower, bisected.upper)


# ---------------------------------------------------------------------------
# law against bisection, family by family

MU_SEQ = ["gevrey:0.7", "gevrey:2", "qgevrey:1.5", "power(gevrey:2, 0.6)",
          "shift(gevrey:1, 0.5)", "hat(gevrey:1.5)", "descendant(gevrey:1.5, 0.5)",
          "descendant(gevrey:0.7, 0.3)"]
MU_FUN = ["assoc(gevrey:1.5)", "assoc(gevrey:0.8)", "assoc(qgevrey:2)",
          "subst(assoc(gevrey:2), 0.7)", "power:0.5", "power:1.7", "logpower:2",
          "kappa(power:0.3)", "normalized(power:0.4)",
          # the short list's gauge: the cap on both routes
          SHORT_LIST_ASSOC]
GAMMA_SEQ = [("gevrey:1.5", "gevrey:1.5"), ("gevrey:1", "gevrey:2"),
             ("power(gevrey:2, 0.6)", "gevrey:1.4"), ("hat(gevrey:1)", "gevrey:2")]
# (sigma, omega) with omega growing no faster than sigma: omega's model decides
GAMMA_FUN_SAME = [(d, d) for d in ("assoc(gevrey:2)", "assoc(qgevrey:2)", "power:0.5",
                                   "logpower:2", "subst(assoc(gevrey:2), 0.7)",
                                   "kappa(power:0.3)", "normalized(power:0.4)")]
GAMMA_FUN_SLOWER = [("power:0.5", "power:0.33333333"), ("assoc(gevrey:1.5)", "assoc(gevrey:2)"),
                    ("power:0.5", "logpower:2"), ("logpower:2", "logpower:1")]
# the same shape, other coefficients
GAMMA_FUN_ALIKE = [("assoc(gevrey:2)", "subst(assoc(gevrey:1), 0.5)"),
                   ("power:0.5", '{"kind":"power","a":0.5,"c":3}'),
                   ("power:0.5", "assoc(gevrey:2)"), ("assoc(gevrey:2)", "power:0.5")]
# omega grows faster than sigma: no law, the bisection answers
GAMMA_FUN_FASTER = [("power:0.3", "power:0.5"), ("logpower:1", "logpower:2"),
                    ("logpower:2", "power:0.1")]


@pytest.mark.parametrize("desc", MU_SEQ)
def test_mu_seq_law_lies_in_the_bisection(desc):
    assert_law_inside(uw.mu_seq(uw.make_sequence(desc)),
                      bisect_mu_seq(uw.make_sequence(desc)))


@pytest.mark.parametrize("desc", MU_FUN)
def test_mu_fun_law_lies_in_the_bisection(desc):
    assert_law_inside(uw.mu_fun(uw.make_function(desc)),
                      bisect_mu_fun(uw.make_function(desc)))


@pytest.mark.parametrize("M, N", GAMMA_SEQ)
def test_gamma_seq_law_lies_in_the_bisection(M, N):
    law = uw.gamma_index_seq(uw.make_sequence(M), uw.make_sequence(N))
    assert_law_inside(law, bisect_gamma_seq(uw.make_sequence(M), uw.make_sequence(N)))


@pytest.mark.parametrize("sigma, omega",
                         GAMMA_FUN_SAME + GAMMA_FUN_SLOWER + GAMMA_FUN_ALIKE)
def test_gamma_fun_law_lies_in_the_bisection(sigma, omega):
    S, O = uw.make_function(sigma), uw.make_function(omega)
    assert _shape_cmp(O.model, S.model) <= 0
    assert_law_inside(uw.gamma_index_fun(S, O), bisect_gamma_fun(S, O))


@pytest.mark.parametrize("sigma, omega", GAMMA_FUN_FASTER)
def test_gamma_fun_bisects_when_omega_grows_faster(sigma, omega):
    S, O = uw.make_function(sigma), uw.make_function(omega)
    assert _shape_cmp(O.model, S.model) > 0
    est = uw.gamma_index_fun(S, O)
    assert est.method == "bisection" and est.diagnostics["probes"] > 0
    bisected = bisect_gamma_fun(S, O)
    assert (est.lower, est.upper, est.r_samples) == (
        bisected.lower, bisected.upper, bisected.r_samples)


def test_gamma_fun_refuses_a_vanishing_sigma_before_any_law(capsys):
    # normalized(power:0) is 0 everywhere, yet it carries a growth model
    assert uw.make_function("normalized(power:0)").model is not None
    assert cli.main(["index", "gamma", "--sigma", "normalized(power:0)"]) == 64
    assert "sigma vanishes" in capsys.readouterr().err


EXPONENTS = st.floats(min_value=0.3, max_value=5.0, allow_nan=False).map(
    lambda x: round(x, 4))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(EXPONENTS)
def test_mu_seq_of_any_gevrey_exponent(s):
    desc = f"gevrey:{s}"
    assert_law_inside(uw.mu_seq(uw.make_sequence(desc)),
                      bisect_mu_seq(uw.make_sequence(desc)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(EXPONENTS, st.floats(min_value=0.3, max_value=3.0).map(lambda x: round(x, 4)))
def test_mu_fun_of_any_substituted_gauge(s, r):
    desc = f"subst(assoc(gevrey:{s}), {r})"
    assert_law_inside(uw.mu_fun(uw.make_function(desc)),
                      bisect_mu_fun(uw.make_function(desc)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(EXPONENTS, st.floats(min_value=0.0, max_value=2.0).map(lambda x: round(x, 4)))
def test_gamma_seq_of_any_gevrey_pair(s, gap):
    M, N = f"gevrey:{s}", f"gevrey:{round(s + gap, 4)}"
    law = uw.gamma_index_seq(uw.make_sequence(M), uw.make_sequence(N))
    assert_law_inside(law, bisect_gamma_seq(uw.make_sequence(M), uw.make_sequence(N)))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(EXPONENTS, st.floats(min_value=0.0, max_value=2.0).map(lambda x: round(x, 4)))
def test_gamma_fun_of_any_assoc_gevrey_pair(s, gap):
    # omega = assoc(gevrey:s + gap) grows like t**(1/(s + gap)), no faster than sigma
    S = uw.make_function(f"assoc(gevrey:{s})")
    O = uw.make_function(f"assoc(gevrey:{round(s + gap, 4)})")
    assert_law_inside(uw.gamma_index_fun(S, O), bisect_gamma_fun(S, O))


# ---------------------------------------------------------------------------
# law coverage: every descriptor family

# family -> (descriptor, the law its object carries or None, why it has none,
#            the index entries that answer it from the law)
SEQUENCE_LAWS = {
    "gevrey": ("gevrey:2", "power", None, {"mu_seq", "gamma_index_seq"}),
    "qgevrey": ("qgevrey:2", "loglinear", None, {"mu_seq"}),
    "explicit": ("explicit:1,1,2,6,24,120", None,
                 "a finite list has no tail", set()),
    "power": ("power(gevrey:2, 0.6)", "power", None, {"mu_seq", "gamma_index_seq"}),
    "shift": ("shift(gevrey:2, 0.5)", "power", None, {"mu_seq", "gamma_index_seq"}),
    "hat": ("hat(gevrey:1)", "power", None, {"mu_seq", "gamma_index_seq"}),
    # a power bracket with e_lo == e_hi from index 1000: mu, but no closed sup
    "descendant": ("descendant(gevrey:2, 1)", "power", None, {"mu_seq"}),
}
# the descendant of a log-linear base carries no law either
LAWLESS_SEQUENCES = {"descendant(qgevrey:2, 1)": "no law for a log-linear base's descendant"}
# gamma_index_fun on (omega, omega): the same shape, so omega's model decides
_FROM_MODEL = {"mu_fun", "gamma_index_fun"}
FUNCTION_LAWS = {
    "power": ("power:0.5", "growth", None, _FROM_MODEL),
    "logpower": ("logpower:2", "growth", None, _FROM_MODEL),
    "assoc": ("assoc(gevrey:2)", "growth", None, _FROM_MODEL),
    "subst": ("subst(power:0.5, 0.5)", "growth", None, _FROM_MODEL),
    "kappa": ("kappa(power:0.5, 1)", "growth", None, _FROM_MODEL),
    "normalized": ("normalized(power:0.5)", "growth", None, _FROM_MODEL),
    "norm": ("norm(logpower:2)", "growth", None, _FROM_MODEL),
    "glue": ('{"kind":"glue","base":{"kind":"power","a":0.5},"breakpoints":[4],'
             '"multipliers":[1,2],"offsets":[0,2]}', "growth", None, _FROM_MODEL),
}
LAWLESS_FUNCTIONS = {"assoc(descendant(qgevrey:2, 1))": "its sequence has no law"}
SEQUENCE_ENTRIES = {"mu_seq": uw.mu_seq, "gamma_index_seq": uw.gamma_index_seq}
FUNCTION_ENTRIES = {"mu_fun": uw.mu_fun, "gamma_index_fun": uw.gamma_index_fun}


def law_kind(obj):
    if isinstance(obj, uw.WeightSequence):
        return None if obj.tail_model is None else obj.tail_model.kind
    return None if obj.model is None else "growth"


def test_every_family_is_covered():
    assert set(SEQUENCE_LAWS) == set(specio._SEQUENCES)
    assert set(FUNCTION_LAWS) == set(specio._FUNCTIONS)


def _coverage_cases():
    for domain, table, make, entries in (
            ("seq", SEQUENCE_LAWS, uw.make_sequence, SEQUENCE_ENTRIES),
            ("fun", FUNCTION_LAWS, uw.make_function, FUNCTION_ENTRIES)):
        for family, (desc, kind, why, from_law) in table.items():
            yield pytest.param(make, entries, desc, kind, why, from_law,
                               id=f"{domain}-{family}")
    for desc, why in LAWLESS_SEQUENCES.items():
        yield pytest.param(uw.make_sequence, SEQUENCE_ENTRIES, desc, None, why, set(),
                           id=desc)
    for desc, why in LAWLESS_FUNCTIONS.items():
        yield pytest.param(uw.make_function, FUNCTION_ENTRIES, desc, None, why, set(),
                           id=desc)


@pytest.mark.parametrize("make, entries, desc, kind, why, from_law", _coverage_cases())
def test_each_family_carries_its_law(make, entries, desc, kind, why, from_law):
    assert (kind is None) == (why is not None)
    assert law_kind(make(desc)) == kind
    for name, entry in entries.items():
        est = entry(make(desc))
        if name in from_law:
            assert est.method in LAW_METHODS, (name, est.method)
            assert est.diagnostics["law"]["kind"] == kind
        else:
            assert est.method.startswith("bisection"), (name, est.method)
            assert est.diagnostics["probes"] > 0
