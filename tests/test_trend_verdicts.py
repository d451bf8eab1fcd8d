"""Verdicts that a grid trend decided, on weight functions with no growth model.

Two model-free inputs: the associated function of the finite list
1, 1, 2, 6, 24, 120 (for t >= 5 it is 5 log t - log 120), and t -> omega(t**0.5)
for the associated function of the quotients p**2.  Neither carries a
`GrowthModel`, so every check below except the structural omega4 is decided
on the finite grid alone; the mixed condition is also run against the power
laws t**0.1 and t**0.3, whose model cannot decide it while sigma has none.

Each case pins its status, and a verdict has provenance `trend` exactly when
no model or structure decided it.
"""

from __future__ import annotations

import pytest

import ultraweight as uw
from ultraweight.functions import OMEGA_CHECKS

ASSOC = '{"kind":"assoc","sequence":{"family":"explicit","values":[1,1,2,6,24,120]}}'


def build(name: str) -> uw.WeightFunction:
    """A fresh function for each case."""
    if name == "assoc":
        return uw.make_function(ASSOC)
    if name == "subst":
        return uw.power_substitute(
            uw.AssociatedOf(uw.from_quotients(lambda p: p ** 2.0)), 0.5)
    return uw.make_function(name)


S, V, I = "satisfied", "violated", "inconclusive"

CONDITION_STATUS = {
    "assoc": {"omega1": S, "omega2": S, "omega3": I, "omega4": S, "omega5": S,
              "omega6": S, "omega_nq": S, "omega_snq": S, "omega_nq_r": S},
    "subst": {"omega1": I, "omega2": S, "omega3": S, "omega4": S, "omega5": S,
              "omega6": S, "omega_nq": S, "omega_snq": I, "omega_nq_r": S},
}
STRUCTURAL = {"omega4"}  # decided by the node shape, not by the grid

# (a, b) -> (compare_preceq(a, b), compare_o(a, b))
COMPARE_STATUS = {
    ("assoc", "assoc"): (S, I),
    ("assoc", "subst"): (V, V),
    ("subst", "assoc"): (S, S),
    ("subst", "subst"): (I, I),
}

# (sigma, omega) -> status at r = 0.5, 1, 2
MIXED_R = (0.5, 1.0, 2.0)
MIXED_STATUS = {
    ("assoc", "assoc"): (S, S, S),
    ("assoc", "subst"): (V, V, V),
    ("subst", "assoc"): (S, S, S),
    ("subst", "subst"): (I, I, S),
    ("assoc", "power:0.1"): (S, S, S),
    ("assoc", "power:0.3"): (I, I, I),
}


def _condition_cases():
    for name, table in CONDITION_STATUS.items():
        for cond, status in table.items():
            yield pytest.param(name, cond, status, id=f"{cond}-{name}")


def _compare_cases():
    for (a, b), statuses in COMPARE_STATUS.items():
        for fn, status in zip(("compare_preceq", "compare_o"), statuses):
            yield pytest.param(fn, a, b, status, id=f"{fn}-{a}-{b}")


def _mixed_cases():
    for (sigma, omega), statuses in MIXED_STATUS.items():
        for r, status in zip(MIXED_R, statuses):
            yield pytest.param(sigma, omega, r, status, id=f"{sigma}-{omega}-r{r:g}")


def _condition(name, cond):
    return uw.check_omega_condition(build(name), cond, r=2.0)


def _compare(fn, a, b):
    return getattr(uw, fn)(build(a), build(b))


def _mixed(sigma, omega, r):
    return uw.mixed_condition_fun(build(sigma), build(omega), r)


def _evidence(v: uw.ConditionVerdict):
    return {"satisfied": v.witness, "violated": v.counterexample,
            "inconclusive": v.trend}[v.status.value]


def test_every_condition_is_covered():
    assert set(CONDITION_STATUS["assoc"]) == set(OMEGA_CHECKS)
    assert set(CONDITION_STATUS["subst"]) == set(OMEGA_CHECKS)


@pytest.mark.parametrize("name, cond, status", _condition_cases())
def test_condition_status(name, cond, status):
    assert _condition(name, cond).status.value == status


@pytest.mark.parametrize("fn, a, b, status", _compare_cases())
def test_compare_status(fn, a, b, status):
    assert _compare(fn, a, b).status.value == status


@pytest.mark.parametrize("sigma, omega, r, status", _mixed_cases())
def test_mixed_status(sigma, omega, r, status):
    assert _mixed(sigma, omega, r).status.value == status


def _all_verdicts():
    for name, table in CONDITION_STATUS.items():
        for cond in table:
            yield f"{cond}-{name}", _condition(name, cond), cond not in STRUCTURAL
    for a, b in COMPARE_STATUS:
        for fn in ("compare_preceq", "compare_o"):
            yield f"{fn}-{a}-{b}", _compare(fn, a, b), True
    for sigma, omega in MIXED_STATUS:
        for r in MIXED_R:
            yield f"mixed-{sigma}-{omega}-r{r:g}", _mixed(sigma, omega, r), True


@pytest.fixture(scope="module")
def verdicts():
    return list(_all_verdicts())


def test_satisfied_on_the_grid_says_so(verdicts):
    """A Satisfied verdict has provenance trend exactly when the grid
    decided it, including the mixed condition against a power law whose
    model certifies convergence while sigma has no model."""
    wrong = [case for case, v, on_grid in verdicts
             if v.is_satisfied and (v.provenance == "trend") != on_grid]
    assert not wrong


def test_every_grid_verdict_says_so(verdicts):
    """Violated and Inconclusive verdicts decided on the grid say so as well."""
    wrong = [case for case, v, on_grid in verdicts
             if (v.provenance == "trend") != on_grid]
    assert not wrong


def test_trend_rules_share_one_layout(verdicts):
    """Verdicts of the bounded and the vanishing rule carry the same keys:
    the quantity it read, the grid end and the running sup at the quarter,
    the middle and the end of the grid; a bounded Satisfied adds C, the
    vanishing rule the ratio itself at the middle and the end.  The rule
    itself is in the diagnostics."""
    seen = set()
    for case, v, _ in verdicts:
        ev, rule = _evidence(v), v.diagnostics.get("rule")
        if rule not in ("bounded", "vanishing"):
            continue
        seen.add(rule)
        keys = {"of", "t", "sup"}
        if rule == "vanishing":
            keys.add("ratio")
        elif v.is_satisfied:
            keys.add("C")
        # context a check adds: the order of a mixed-condition probe
        assert keys <= set(ev) <= keys | {"r"}, case
        assert len(ev["sup"]) == 3 and ev["sup"][-1] >= ev["sup"][0], case
    assert seen == {"bounded", "vanishing"}
