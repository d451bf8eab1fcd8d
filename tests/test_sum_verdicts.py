"""Verdicts and index brackets under the blocked power sums.

`check_nq_r`, `mixed_condition_seq` and `check_gamma1` read their order-r
power sums through `sequences.log_sum_exp` and `sequences.log_suffix_sums`.
Swapping both for the sequential running logaddexp kept in conftest must leave
every status unchanged, at every power-of-two order the index bisection
visits (1/64 ... 64), and must leave the `mu_seq` and `gamma_index_seq`
brackets of the benchmark's families identical, probe for probe.  The
model-free family takes the partial-sum trend path of `check_nq_r`.
"""

from unittest import mock

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import sequences
from ultraweight.constructions import descendant
from ultraweight.indices import INDEX_FLOOR
from ultraweight.verdict import INDEX_CAP

from conftest import reference_log_sum_exp, reference_log_suffix_sums

ORDERS = []
r = INDEX_FLOOR
while r <= INDEX_CAP:
    ORDERS.append(r)
    r *= 2.0

FAMILIES = {
    **{f"gevrey:{s}": lambda s=s: uw.gevrey(s) for s in (0.5, 1.0, 1.5, 2.0, 3.0)},
    **{f"qgevrey:{s}": lambda s=s: uw.qgevrey(s) for s in (1.1, 2.0, 3.0)},
    "power(gevrey:1,0.5)": lambda: uw.power(uw.gevrey(1.0), 0.5),
    "power(gevrey:3,1.5)": lambda: uw.power(uw.gevrey(3.0), 1.5),
    "shift(gevrey:2,0.5)": lambda: uw.factorial_shift(uw.gevrey(2.0), 0.5),
    "hat(gevrey:1)": lambda: uw.hat(uw.gevrey(1.0)),
    "descendant(gevrey:2,1).S": lambda: descendant(uw.gevrey(2.0), 1.0).S,
    "explicit:1,1,2,6,24,120": lambda: uw.make_sequence("explicit:1,1,2,6,24,120"),
    **{f"no-model gevrey:{s}": lambda s=s: uw.WeightSequence(
        "gevrey-like", lambda lo, hi: s * np.log(np.arange(lo, hi + 1, dtype=float)))
       for s in (0.5, 1.0, 2.0)},
}


def reference_sums():
    """Route the power sums through the sequential reference."""
    return mock.patch.multiple(sequences, log_sum_exp=reference_log_sum_exp,
                               log_suffix_sums=reference_log_suffix_sums)


def statuses(M):
    out = {"gamma1": sequences.check_gamma1(M).status}
    for r in ORDERS:
        out[f"nq_r {r:g}"] = sequences.check_nq_r(M, r).status
        out[f"mixed {r:g}"] = uw.mixed_condition_seq(M, M, r).status
    return out


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_statuses_match_reference_sums(name):
    M = FAMILIES[name]()
    got = statuses(M)
    with reference_sums():
        want = statuses(M)
    assert got == want


def bracket(est):
    return est.lower, est.upper, [(r, v.status) for r, v in est.r_samples]


@pytest.mark.parametrize("index, spec", [
    ("mu", "gevrey:0.5"), ("mu", "gevrey:1.7"), ("mu", "gevrey:2.9"),
    ("mu", "qgevrey:1.1"), ("mu", "qgevrey:2.5"),
    ("mu", "power(gevrey:1.4, 0.6)"), ("mu", "power(gevrey:2.8, 1.3)"),
    ("mu", "explicit:1,1,2,6,24,120"),
    ("gamma", "gevrey:0.5"), ("gamma", "gevrey:1.7"), ("gamma", "gevrey:2.9"),
    ("gamma", "gevrey:0.9|gevrey:1.6"),
])
def test_brackets_match_reference_sums(index, spec):
    seqs = [uw.make_sequence(s) for s in spec.split("|")]
    run = uw.mu_seq if index == "mu" else uw.gamma_index_seq
    got = bracket(run(*seqs))
    with reference_sums():
        want = bracket(run(*seqs))
    assert got == want
