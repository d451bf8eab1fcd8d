"""Provenance: every verdict names what decided it, from one vocabulary.

A table pins the status and the provenance of each check family on
representative inputs: a sequence with a power law (gevrey:2), two explicit
lists (one log-convex, one not), a sequence with no law
(descendant(qgevrey:2,1)), three functions with a growth model, and the
associated function of that lawless sequence, which has none.  Comparisons
run against gevrey:2 or power:0.5, mixed conditions on the input with
itself at r = 1; the order-r checks take r = 1.5 (sequences) and r = 2
(functions).

`validate_report` rejects a verdict or index sample whose provenance is
missing or outside the vocabulary, and every JSON report stored in
tests/golden/ passes it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

import ultraweight as uw
from ultraweight import cli
from ultraweight.functions import OMEGA_CHECKS
from ultraweight.report import validate_report
from ultraweight.sequences import SEQUENCE_CHECKS
from ultraweight.verdict import PROVENANCE, Verdict

S, V, I = "satisfied", "violated", "inconclusive"
TM, GM, TR = "tail-model", "growth-model", "trend"

SEQUENCE_TABLE = {
    "gevrey:2": {
        "lc": (S, TM), "slc": (S, TM), "mg": (S, TM), "nq": (S, TM), "nq_r": (S, TM),
        "beta1": (S, TM), "beta3": (S, TM), "gamma1": (S, "stabilized-range+tail-model"),
        "precsim": (S, TM), "vartriangleleft": (V, TM), "equivalent": (S, TM),
        "mixed_seq": (S, TM)},
    "explicit:1,1,2,6,24,120": {
        "lc": (S, "finite-domain"), "slc": (S, "finite-domain"), "mg": (I, TR),
        "nq": (I, TR), "nq_r": (I, TR), "beta1": (I, TR), "beta3": (I, TR),
        "gamma1": (I, "stabilized-range"), "precsim": (S, TR),
        "vartriangleleft": (S, TR), "equivalent": (I, TR),
        "mixed_seq": (I, "stabilized-range")},
    # mu_2 < mu_1: a counterexample found in the data
    "explicit:1,4,8,32": {
        "lc": (V, TR), "slc": (V, TR), "mg": (I, TR), "nq": (I, TR), "nq_r": (I, TR),
        "beta1": (I, TR), "beta3": (I, TR), "gamma1": (I, TR), "precsim": (S, TR),
        "vartriangleleft": (I, TR), "equivalent": (I, TR), "mixed_seq": (I, TR)},
    "descendant(qgevrey:2,1)": {
        "lc": (S, "structure"), "slc": (S, "structure"), "mg": (I, TR), "nq": (I, TR),
        "nq_r": (I, TR), "beta1": (I, TR), "beta3": (I, TR),
        "gamma1": (I, "stabilized-range"), "precsim": (I, TR),
        "vartriangleleft": (I, TR), "equivalent": (I, TR),
        "mixed_seq": (I, "stabilized-range")},
}

_MODELLED = {"omega1": (S, GM), "omega2": (S, GM), "omega3": (S, GM),
             "omega4": (S, "structure"), "omega5": (S, GM), "omega6": (S, GM),
             "omega_nq": (S, GM), "omega_snq": (S, GM), "omega_nq_r": (V, GM),
             "compare_preceq": (S, GM), "compare_o": (V, GM),
             "equivalent_fun": (S, GM), "mixed_fun": (S, GM)}
FUNCTION_TABLE = {
    "power:0.5": _MODELLED,
    "logpower:2": {**_MODELLED, "omega6": (V, GM), "omega_nq_r": (S, GM),
                   "compare_o": (S, GM), "equivalent_fun": (V, GM)},
    # H = 4 = 2**(1/a) is a boundary an inexact model cannot decide
    "assoc(gevrey:2)": {**_MODELLED, "omega6": (S, TR)},
    # no growth model: everything but the node's convexity is read off the grid
    "assoc(descendant(qgevrey:2,1))": {
        **{c: (S, TR) for c in _MODELLED}, "omega4": (S, "structure"),
        "equivalent_fun": (V, TR)},
}


def sequence_verdict(name: str, family: str) -> uw.ConditionVerdict:
    M = uw.make_sequence(name)
    if family in SEQUENCE_CHECKS:
        check = SEQUENCE_CHECKS[family]
        return check(M, 1.5) if family.endswith("_r") else check(M)
    if family == "mixed_seq":
        return uw.mixed_condition_seq(M, r=1.0)
    return uw.compare(M, uw.gevrey(2.0), family)


def function_verdict(name: str, family: str) -> uw.ConditionVerdict:
    omega = uw.make_function(name)
    if family in OMEGA_CHECKS:
        return uw.check_omega_condition(omega, family, r=2.0)
    if family == "mixed_fun":
        return uw.mixed_condition_fun(omega, r=1.0)
    return getattr(uw, family)(uw.make_function("power:0.5"), omega)


def _cases(table):
    for name, row in table.items():
        for family, (status, provenance) in row.items():
            yield pytest.param(name, family, status, provenance, id=f"{family}-{name}")


def test_every_family_is_covered():
    for row in SEQUENCE_TABLE.values():
        assert set(row) == set(SEQUENCE_CHECKS) | {"precsim", "vartriangleleft",
                                                   "equivalent", "mixed_seq"}
    for row in FUNCTION_TABLE.values():
        assert set(row) == set(OMEGA_CHECKS) | {"compare_preceq", "compare_o",
                                                "equivalent_fun", "mixed_fun"}


@pytest.mark.parametrize("name, family, status, provenance", _cases(SEQUENCE_TABLE))
def test_sequence_provenance(name, family, status, provenance):
    v = sequence_verdict(name, family)
    assert (v.status.value, v.provenance) == (status, provenance)


@pytest.mark.parametrize("name, family, status, provenance", _cases(FUNCTION_TABLE))
def test_function_provenance(name, family, status, provenance):
    v = function_verdict(name, family)
    assert (v.status.value, v.provenance) == (status, provenance)


def test_the_vocabulary_is_closed():
    with pytest.raises(uw.InternalInconsistency):
        uw.ConditionVerdict("lc", Verdict.SATISFIED, "grid_only", witness={"p": 1})
    assert uw.ConditionVerdict("lc", Verdict.SATISFIED, "trend",
                               witness={"p": 1}).to_dict()["provenance"] == "trend"


# ---------------------------------------------------------------------------
# validate_report

def report(*argv: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(list(argv))
    return json.loads(out.getvalue())


def test_a_missing_or_unknown_provenance_is_rejected():
    rep = report("check", "--sequence", "gevrey:2", "--conditions", "lc")
    assert validate_report(rep) == []
    for value in (None, "grid_only", "certified"):
        bad = copy.deepcopy(rep)
        if value is None:
            del bad["results"]["lc"]["provenance"]
        else:
            bad["results"]["lc"]["provenance"] = value
        assert validate_report(bad) == [f"results.lc: provenance {value!r}"]


def test_an_index_sample_without_provenance_is_rejected():
    rep = report("index", "mu", "--sequence", "gevrey:2")
    assert validate_report(rep) == []
    del rep["results"]["estimate"]["samples"][0]["provenance"]
    assert validate_report(rep) == ["results.estimate.samples[0]: provenance None"]


def golden_reports():
    """Every JSON report (a document with a schema_version) in tests/golden/."""
    for path in sorted((Path(__file__).parent / "golden").glob("*.txt")):
        lines = path.read_text().splitlines()
        start = None
        for i, line in enumerate(lines):
            if line == "{":
                start = i
            elif line == "}" and start is not None:
                doc = json.loads("\n".join(lines[start: i + 1]))
                start = None
                if "schema_version" in doc:
                    yield path.stem, doc


def test_every_golden_report_validates():
    reports = list(golden_reports())
    assert len(reports) >= 30
    for name, doc in reports:
        # a golden drops wall_time, the one field that differs between runs
        assert validate_report({**doc, "wall_time": 0.0}) == [], name


def test_every_golden_verdict_names_its_provenance():
    seen = set()

    def walk(obj):
        if isinstance(obj, dict):
            if obj.get("status", obj.get("verdict")) in (S, V, I):
                assert obj["provenance"] in PROVENANCE
                seen.add(obj["provenance"])
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    for _, doc in golden_reports():
        walk(doc["results"])
    assert {"structure", "tail-model", "growth-model", "trend"} <= seen
