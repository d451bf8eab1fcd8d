"""Descriptor parsing, serialization round trips, and CSV emission."""

import json
import math

import numpy as np
import pytest

import ultraweight as uw
from ultraweight.specio import (
    dump_spec,
    function_csv,
    make_function,
    make_sequence,
    matrix_csv,
    sequence_csv,
    spec_of,
)

SEQ_INLINE = [
    "gevrey:2",
    "qgevrey:2",
    "explicit:1,1,2,6,24",
    "power(gevrey:2, 0.5)",
    "shift(gevrey:1, 1)",
    "hat(gevrey:1)",
    "descendant(gevrey:2, 1)",
]

FUN_INLINE = [
    "power:0.5",
    "power(0.5, 2)",
    "logpower:2",
    "assoc(gevrey:2)",
    "subst(power:0.5, 2)",
    "kappa(power:0.5)",
    "kappa(power(0.33333333), 2)",
    "norm(power:1)",
]


def seq_close(A: uw.WeightSequence, B: uw.WeightSequence, P: int = 100) -> float:
    P = min(P, *(s.max_index for s in (A, B) if s.max_index is not None)) \
        if any(s.max_index is not None for s in (A, B)) else P
    a, b = A.log_values(P), B.log_values(P)
    return float(np.max(np.abs(a - b)))


def fun_close(f: uw.WeightFunction, g: uw.WeightFunction) -> float:
    ts = np.geomspace(1e-2, 1e8, 100)
    a, b = f.eval(ts), g.eval(ts)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(a))))


class TestInlineSequences:
    @pytest.mark.parametrize("text", SEQ_INLINE)
    def test_parses_and_round_trips(self, text):
        M = make_sequence(text)
        again = make_sequence(spec_of(M))
        assert seq_close(M, again) <= 1e-12

    def test_inline_matches_library_constructors(self):
        assert seq_close(make_sequence("gevrey:2"), uw.gevrey(2)) == 0.0
        assert seq_close(make_sequence("power(gevrey:2, 0.5)"),
                         uw.power(uw.gevrey(2), 0.5)) == 0.0
        assert seq_close(make_sequence("shift(gevrey:1, 1)"),
                         uw.factorial_shift(uw.gevrey(1), 1.0)) == 0.0
        assert seq_close(make_sequence("hat(gevrey:1)"),
                         uw.hat(uw.gevrey(1))) == 0.0

    def test_explicit_values(self):
        M = make_sequence("explicit:1,1,2,6,24")
        assert M.max_index == 4
        assert M.value(3) == pytest.approx(6.0)

    def test_whitespace_and_case_tolerated(self):
        assert seq_close(make_sequence("  Gevrey : 2 "), uw.gevrey(2)) == 0.0


class TestInlineFunctions:
    @pytest.mark.parametrize("text", FUN_INLINE)
    def test_parses_and_round_trips(self, text):
        f = make_function(text)
        again = make_function(spec_of(f))
        assert fun_close(f, again) <= 1e-12

    def test_inline_matches_library_constructors(self):
        assert fun_close(make_function("power:0.5"), uw.PowerLaw(0.5)) == 0.0
        assert fun_close(make_function("subst(power:0.5, 2)"),
                         uw.power_substitute(uw.PowerLaw(0.5), 2.0)) == 0.0
        assert fun_close(make_function("norm(power:1)"),
                         uw.normalize(uw.PowerLaw(1.0))) == 0.0

    def test_object_passthrough(self, sqrt_weight):
        assert make_function(sqrt_weight) is sqrt_weight
        g2 = uw.gevrey(2)
        assert make_sequence(g2) is g2


class TestMappingAndJsonForms:
    def test_sequence_mapping(self):
        M = make_sequence({"family": "gevrey", "s": 2})
        assert seq_close(M, uw.gevrey(2)) == 0.0

    def test_function_mapping_nested(self):
        f = make_function({"kind": "subst",
                           "base": {"kind": "power", "a": 0.5}, "r": 2})
        assert fun_close(f, uw.power_substitute(uw.PowerLaw(0.5), 2.0)) == 0.0

    def test_json_kappa_order_defaults_to_one(self):
        f = make_function({"kind": "kappa", "base": {"kind": "power", "a": 0.5}})
        assert f.spec()["r"] == 1.0
        assert fun_close(f, make_function("kappa(power:0.5)")) == 0.0

    def test_json_text(self):
        f = make_function(json.dumps({"kind": "power", "a": 0.5}))
        assert fun_close(f, uw.PowerLaw(0.5)) == 0.0

    def test_at_file(self, tmp_path):
        path = tmp_path / "seq.json"
        dump_spec(uw.gevrey(3), str(path))
        assert seq_close(make_sequence(f"@{path}"), uw.gevrey(3)) == 0.0

    def test_glue_round_trips_through_json(self, tmp_path, sqrt_weight,
                                           cbrt_weight):
        built = uw.reduction_build(sqrt_weight, cbrt_weight, uw.PowerLaw(1.0),
                                   n_break=4)
        path = tmp_path / "glue.json"
        dump_spec(built.omega_tilde, str(path))
        again = make_function(f"@{path}")
        assert fun_close(built.omega_tilde, again) <= 1e-12


class TestErrors:
    @pytest.mark.parametrize("text", [
        "bogus:2",                      # unknown family
        "gevrey",                       # missing parameter
        "gevrey:x",                     # non-number after colon
        "gevrey:2)",                    # trailing garbage
        "power(gevrey:2",               # unclosed paren
        "hat(gevrey:1, 3)",             # extra argument
        "descendant(gevrey:2)",         # missing order
    ])
    def test_bad_sequence_descriptors(self, text):
        with pytest.raises(uw.InvalidSpec):
            make_sequence(text)

    @pytest.mark.parametrize("text", [
        "mystery:1",
        "power:0.5,1,2",
        "subst(power:0.5)",
        "glue(power:0.5, 1)",           # glue carries arrays, JSON only
        "assoc(2)",
    ])
    def test_bad_function_descriptors(self, text):
        with pytest.raises(uw.InvalidSpec):
            make_function(text)

    def test_bad_json_and_missing_file(self, tmp_path):
        with pytest.raises(uw.InvalidSpec):
            make_sequence("{not json")
        with pytest.raises(uw.InvalidSpec):
            make_sequence(f"@{tmp_path}/absent.json")
        with pytest.raises(uw.InvalidSpec):
            make_sequence('{"nofamily": 1}')
        with pytest.raises(uw.InvalidSpec):
            make_function('{"kind": "power"}')  # lacks the exponent
        with pytest.raises(uw.InvalidSpec):
            make_sequence(42)

    def test_spec_of_rejects_ruleless_sequence(self):
        M = uw.from_quotients(lambda p: math.log(p + 1.0), label="ad-hoc",
                              log_scale=True)
        with pytest.raises(uw.InvalidSpec):
            spec_of(M)


class TestCsvEmission:
    def test_function_csv_shape(self, sqrt_weight):
        text = function_csv(sqrt_weight, [1.0, 4.0])
        lines = text.strip().split("\n")
        assert lines[0] == "t,value"
        assert lines[1].startswith("1,") and lines[2].startswith("4,")
        assert float(lines[2].split(",")[1]) == pytest.approx(2.0)

    def test_sequence_csv_uses_log_values(self):
        text = sequence_csv(uw.gevrey(1), 4)
        lines = text.strip().split("\n")
        assert lines[0] == "p,log_value"
        assert len(lines) == 6
        assert float(lines[-1].split(",")[1]) == pytest.approx(math.log(24.0))

    def test_sequence_csv_clamps_to_finite_domain(self):
        text = sequence_csv(uw.explicit([1, 1, 2]), 50)
        assert len(text.strip().split("\n")) == 4  # header + p = 0, 1, 2

    def test_matrix_csv_column_major(self, assoc_g1):
        W = uw.associated_matrix(assoc_g1, levels=(1.0, 2.0), j_max=3)
        lines = matrix_csv(W).strip().split("\n")
        assert lines[0] == "j,l,W"
        assert len(lines) == 1 + 2 * 4
        first = lines[1].split(",")
        assert (int(first[0]), float(first[1]), float(first[2])) == (0, 1.0, 1.0)
