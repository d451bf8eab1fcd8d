"""Command-line interface: exit codes, report schema, and artifact files.

All invocations run in-process through cli.main(argv) so that coverage and
monkeypatching work; stdout is parsed as the JSON report contract (sorted
keys, schema_version "2") or as CSV for the sample/matrix emitters.
"""

import json
import math
import re
import warnings

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import cli
from ultraweight.functions import OMEGA_CHECKS
from ultraweight.report import validate_report
from ultraweight.sequences import SEQUENCE_CHECKS
from ultraweight.specio import make_function, make_sequence
from ultraweight.verdict import INDEX_CAP


def has_nan(text: str) -> bool:
    """A "nan" token anywhere in the text (not a substring of a key such as
    "provenance")."""
    return re.search(r"\bnan\b", text) is not None


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert out, f"no stdout (stderr: {err!r})"
    return code, json.loads(out)


class TestExitCodes:
    def test_satisfied_checks_exit_zero(self, capsys):
        code, rep = run_json(capsys, "check", "--sequence", "gevrey:2",
                             "--conditions", "lc,mg,nq")
        assert code == cli.EXIT_OK
        statuses = {c: v["status"] for c, v in rep["results"].items()}
        assert statuses == {"lc": "satisfied", "mg": "satisfied",
                            "nq": "satisfied"}

    def test_violated_check_exits_one(self, capsys):
        code, rep = run_json(capsys, "check", "--sequence", "gevrey:1",
                             "--conditions", "nq")
        assert code == cli.EXIT_VIOLATED
        assert rep["results"]["nq"]["status"] == "violated"
        assert "counterexample" in rep["results"]["nq"]

    def test_inconclusive_check_exits_two(self, capsys):
        code, rep = run_json(capsys, "check", "--sequence", "qgevrey:2",
                             "--conditions", "mg")
        assert code == cli.EXIT_INCONCLUSIVE
        assert rep["results"]["mg"]["status"] == "inconclusive"

    def test_bad_descriptor_exits_usage(self, capsys):
        code, out, err = run(capsys, "check", "--sequence", "bogus:2",
                             "--conditions", "lc")
        assert code == cli.EXIT_USAGE
        assert "bogus" in err

    def test_unknown_flag_exits_usage(self, capsys):
        assert run(capsys, "check", "--no-such-flag")[0] == cli.EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == cli.EXIT_OK
        assert "check" in out and "reduce" in out

    def test_failed_precondition_exits_65(self, capsys):
        code, out, err = run(capsys, "kappa", "--omega", "power:1")
        assert code == cli.EXIT_PRECONDITION
        assert "diverges" in err

    def test_descend_rejects_divergent_base(self, capsys):
        code, _, err = run(capsys, "descend", "--sequence", "gevrey:1")
        assert code == cli.EXIT_PRECONDITION

    @pytest.mark.parametrize("flag,text", [
        ("--sequence", '{"family": "gevrey", "s": "2"}'),
        ("--sequence", '{"family": "gevrey", "s": [2]}'),
        ("--sequence", '{"family": "gevrey", "s": null}'),
        ("--sequence", '{"family": "gevrey", "s": NaN}'),
        ("--sequence", '{"family": "gevrey", "s": Infinity}'),
        ("--sequence", '{"family": "explicit", "values": 5}'),
        ("--sequence", "gevrey:1e400"),
        ("--sequence", "gevrey(gevrey:1)"),
        ("--sequence", '{"family": "hat"}'),
        ("--omega", "glue(power:0.5, 1, 2, 3)"),
        ("--omega", '{"kind": "power", "a": "x"}'),
    ])
    def test_malformed_descriptor_is_a_usage_error(self, capsys, flag, text):
        code, out, err = run(capsys, "check", flag, text)
        assert code == cli.EXIT_USAGE, err
        assert out == "" and err.startswith("error:")


class TestReportContract:
    def test_schema_and_determinism(self, capsys, tmp_path):
        argv = ("check", "--sequence", "gevrey:2", "--conditions", "lc,nq")
        _, rep1 = run_json(capsys, *argv)
        assert rep1["schema_version"] == "2"
        assert rep1["tool"]["name"] == "ultraweight"
        assert validate_report(rep1) == []
        _, rep2 = run_json(capsys, *argv)
        rep1.pop("wall_time"), rep2.pop("wall_time")
        assert rep1 == rep2

    def test_out_file_replaces_stdout(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        code, out, _ = run(capsys, "check", "--sequence", "gevrey:2",
                           "--conditions", "lc", "--out", str(path))
        assert code == cli.EXIT_OK
        assert out == ""
        stored = json.loads(path.read_text())
        assert stored["results"]["lc"]["status"] == "satisfied"

    def test_report_subcommand_revalidates(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        run(capsys, "check", "--sequence", "gevrey:1", "--conditions", "nq",
            "--out", str(path))
        code, rep = run_json(capsys, "report", str(path))
        assert code == cli.EXIT_VIOLATED  # stored verdicts keep their exit code
        assert rep["results"]["nq"]["status"] == "violated"

    def test_report_subcommand_flags_corruption(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        run(capsys, "check", "--sequence", "gevrey:2", "--conditions", "lc",
            "--out", str(path))
        doc = json.loads(path.read_text())
        doc["results"]["lc"].pop("witness", None)
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "report", str(path))
        assert code == cli.EXIT_SOFTWARE
        assert "witness" in err


class TestCheckDefaults:
    def test_sequence_default_conditions(self, capsys):
        _, rep = run_json(capsys, "check", "--sequence", "gevrey:2")
        assert set(rep["results"]) == {"lc", "mg", "nq"}

    def test_function_default_conditions(self, capsys):
        _, rep = run_json(capsys, "check", "--omega", "power:0.5")
        assert set(rep["results"]) == {"omega1", "omega3", "omega4",
                                       "omega_nq"}

    def test_order_parameter_condition(self, capsys):
        code, rep = run_json(capsys, "check", "--omega", "power(0.33333333)",
                             "--conditions", "omega_nq_r", "--r", "2")
        assert code == cli.EXIT_OK
        assert rep["results"]["omega_nq_r"]["status"] == "satisfied"

    def test_pmax_bounds_every_sequence_condition(self, capsys):
        _, rep = run_json(capsys, "check", "--sequence", "gevrey:2",
                          "--conditions", "lc,slc,mg,nq", "--pmax", "50")
        witness = {c: v["witness"] for c, v in rep["results"].items()}
        assert witness["lc"]["checked_up_to"] == 50
        assert witness["slc"]["checked_up_to"] == 50
        assert witness["mg"]["checked_up_to"] == 25  # pairs p, q <= 50 // 2
        assert witness["nq"]["partial_terms"] == 50

    def test_pmax_below_four_is_a_usage_error(self, capsys):
        for pmax in ("0", "3"):
            code, out, err = run(capsys, "check", "--sequence", "gevrey:2",
                                 "--conditions", "slc,nq", "--pmax", pmax)
            assert code == cli.EXIT_USAGE, err
            assert out == "" and "p_max" in err

    def test_order_condition_requires_r(self, capsys):
        code, _, err = run(capsys, "check", "--omega", "power:0.5",
                           "--conditions", "omega_nq_r")
        assert code == cli.EXIT_USAGE

    def test_mg_constant_past_the_float_range(self, capsys):
        # log C is about 1.4e300: the constant is no float, so no Satisfied
        code, out, err = run(capsys, "check", "--sequence",
                             "power(gevrey:2,1e300)")
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED,
                        cli.EXIT_INCONCLUSIVE), err
        assert json.loads(out)["results"]["mg"]["status"] != "satisfied"
        assert not has_nan(out)

    @pytest.mark.parametrize("r, first", [("1e305", 207), ("1e307", 8)])
    def test_mg_evidence_once_log_m_leaves_the_float_range(self, capsys, r, first):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would fail the run
            code, out, err = run(capsys, "check", "--sequence", f"power(gevrey:2,{r})")
        assert code == cli.EXIT_INCONCLUSIVE, err
        assert err == "" and not has_nan(out)
        mg = json.loads(out)["results"]["mg"]
        assert mg["status"] == "inconclusive"
        assert mg["trend"]["log_M_infinite_from_p"] == first
        assert all(math.isfinite(v) for v in mg["trend"]["running_max_log"])
        # the ranges 8, 16, 32 and 64 read log M_p up to p = 128 < 207
        assert len(mg["trend"]["running_max_log"]) == (4 if r == "1e305" else 0)

    def test_sums_and_gaps_past_the_float_range(self, capsys):
        # mu_p = p**(2e307) leaves the float range from p = 7,940: the gamma1
        # sweep takes inf - inf there, and so do the beta gaps mu_{Qp}/mu_p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "check", "--sequence", "power(gevrey:2,1e307)",
                                 "--conditions", "beta1,beta3,gamma1")
        assert code in (cli.EXIT_OK, cli.EXIT_INCONCLUSIVE), err
        assert err == "" and not has_nan(out)
        results = json.loads(out)["results"]
        assert results["gamma1"]["status"] == "inconclusive"
        for beta in ("beta1", "beta3"):
            assert results[beta]["status"] == "satisfied"
            assert math.isfinite(results[beta]["witness"]["window_liminf"])

    @pytest.mark.parametrize("r", ["1e155", "1e300"])
    def test_gamma_index_of_a_huge_power(self, capsys, r):
        # zeta(2e155 / r) is 1 at every probed r: the closed sup is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "index", "gamma", "--M", f"power(gevrey:2,{r})")
        assert code == cli.EXIT_OK, err
        assert err == "" and not has_nan(out)
        est = json.loads(out)["results"]["estimate"]
        assert (est["lower"], est["upper"]) == (INDEX_CAP, INDEX_CAP)

    def test_descend_at_a_tiny_order(self, capsys):
        # sigma_2 = tau_1 * 2 / tau_2 leaves the float range: reported as inf;
        # on qgevrey tau_1 underflows to 0, and sigma is built from log tau_1
        for base in ("gevrey:2", "qgevrey:2"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, "descend", "--sequence", base,
                                     "--r", "1e-300")
            assert code == cli.EXIT_OK, err
            assert err == "" and not has_nan(out)
            assert json.loads(out)["results"]["diagnostics"]["sigma_2"] == "inf"

    def test_a_sup_witness_below_the_float_range_stays_positive(self, capsys):
        # on qgevrey:2 at r = 1e-300 the log sup of (L, N) is far below -745,
        # where exp gives 0: the witness rounds up to the smallest float
        code, out, err = run(capsys, "descend", "--sequence", "qgevrey:2", "--r", "1e-300")
        assert code == cli.EXIT_OK, err
        mixed = json.loads(out)["results"]["checks"]["mixed_L_N"]
        assert mixed["status"] == "satisfied"
        assert mixed["witness"]["sup"] == 5e-324

    def test_a_tail_bracket_past_the_float_range_is_no_sum(self, capsys):
        # a = 4.4e-316: the law says the sum converges, but no float bounds
        # its tail, so the law leaves it undecided; the undiminished-increment
        # rule on the partial sums would have called it Violated
        code, out, err = run(capsys, "check", "--sequence",
                             "power(qgevrey:1.0000000000000002,1e-300)",
                             "--conditions", "nq_r", "--r", "1e10")
        assert code == cli.EXIT_INCONCLUSIVE, err
        v = json.loads(out)["results"]["nq_r"]
        assert (v["status"], v["provenance"]) == ("inconclusive", "tail-model")
        assert "inf" not in json.dumps(v["trend"])

    @pytest.mark.parametrize("s", ["1.02", "1.05"])
    def test_snq_near_the_kernel_order(self, capsys, s):
        # the kernel integral of omega ~ t**(1/s) converges slowly here: the
        # model's asymptotic tail closes it, where a fitted one is refused
        code, out, err = run(capsys, "check", "--omega", f"assoc(gevrey:{s})",
                             "--conditions", "omega_snq")
        assert code == cli.EXIT_OK, err
        v = json.loads(out)["results"]["omega_snq"]
        assert (v["status"], v["provenance"]) == ("satisfied", "growth-model")

    def test_snq_and_gamma_refuse_a_gauge_vanishing_on_the_grid(self, capsys):
        for argv in (("check", "--omega", "normalized(power:0)", "--conditions",
                      "omega_snq"), ("index", "gamma", "--sigma", "normalized(power:0)")):
            code, out, err = run(capsys, *argv)
            assert code == cli.EXIT_USAGE and out == "", err
            assert "sigma vanishes on the whole evaluation grid" in err

    @pytest.mark.parametrize("omega", [
        "assoc(descendant(qgevrey:2,1))",
        '{"kind":"assoc","sequence":{"family":"explicit",'
        '"values":[1,1,2,6,24,120]}}'])
    def test_condition_order_does_not_change_the_results(self, capsys, omega):
        chain = ["omega_snq", "omega_nq", "omega5", "omega2"]
        results = []
        for conditions in (chain, chain[::-1]):
            _, rep = run_json(capsys, "check", "--omega", omega,
                              "--conditions", ",".join(conditions))
            results.append(rep["results"])
        assert results[0] == results[1]


_TABLES = [("--sequence", "gevrey:2", SEQUENCE_CHECKS),
           ("--omega", "power:0.5", OMEGA_CHECKS)]
_REGISTRY = [(flag, subject, name) for flag, subject, table in _TABLES
             for name in table]


class TestConditionRegistry:
    """Every name in a condition table reaches the CLI, and only those."""

    @pytest.mark.parametrize("flag,subject,name", _REGISTRY)
    def test_every_condition_runs_through_check(self, capsys, flag, subject,
                                                name):
        order = ["--r", "2"] if name.endswith("_r") else []
        code, rep = run_json(capsys, "check", flag, subject,
                             "--conditions", name, *order)
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED, cli.EXIT_INCONCLUSIVE)
        assert rep["results"][name]["status"] in ("satisfied", "violated",
                                                  "inconclusive")

    @pytest.mark.parametrize("flag,subject,name",
                             [c for c in _REGISTRY if c[2].endswith("_r")])
    def test_order_conditions_need_r(self, capsys, flag, subject, name):
        code, out, err = run(capsys, "check", flag, subject,
                             "--conditions", name)
        assert code == cli.EXIT_USAGE
        assert out == "" and "--r" in err

    @pytest.mark.parametrize("flag,subject,table", _TABLES)
    def test_unknown_condition_lists_the_table(self, capsys, flag, subject,
                                               table):
        code, out, err = run(capsys, "check", flag, subject,
                             "--conditions", "no_such_condition")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.split("(choose from ")[1].rstrip(")\n").split(", ") \
            == list(table)


class TestIndexCommand:
    def test_mu_of_cubed_factorials(self, capsys):
        code, rep = run_json(capsys, "index", "mu", "--sequence", "gevrey:3")
        assert code == cli.EXIT_OK
        est = rep["results"]["estimate"]
        assert est["index"] == "mu"
        assert est["lower"] <= 3.02 and est["upper"] >= 2.98

    def test_gamma_for_function_pair(self, capsys):
        code, rep = run_json(capsys, "index", "gamma", "--sigma", "power:0.5",
                             "--omega", "power(0.33333333)")
        assert code == cli.EXIT_OK
        est = rep["results"]["estimate"]
        assert est["lower"] <= 3.1 and est["upper"] >= 2.9

    def test_gamma_for_sequence_pair(self, capsys):
        code, rep = run_json(capsys, "index", "gamma", "--M", "gevrey:1",
                             "--N", "gevrey:2")
        est = rep["results"]["estimate"]
        assert est["lower"] <= 2.02 and est["upper"] >= 1.98

    def test_mu_of_a_short_list(self, capsys):
        # every probe is Inconclusive on six values: the bracket stays
        # [0, cap], with no lower end raised above them
        code, rep = run_json(capsys, "index", "mu", "--sequence",
                             "explicit:1,1,2,6,24,120")
        assert code == cli.EXIT_OK
        assert validate_report(rep) == []
        est = rep["results"]["estimate"]
        assert (est["lower"], est["upper"]) == (0.0, INDEX_CAP)
        for sample in est["samples"]:
            if sample["verdict"] != "satisfied":
                assert sample["r"] >= est["lower"]

    def test_a_bracket_fixed_by_a_trend_says_so(self, capsys):
        # no growth model: the window integrals decide every probe, so the
        # bracket around mu = 6.07 rests on a trend (the quotients of S grow
        # like those of qgevrey:2, so the truth is the cap)
        code, rep = run_json(capsys, "index", "mu", "--omega",
                             "assoc(descendant(qgevrey:2,1))")
        est = rep["results"]["estimate"]
        assert est["method"] == "bisection+trend"
        assert (est["lower"], est["upper"]) == (6.0703125, 6.078125)
        ends = [s for s in est["samples"] if s["r"] in (est["lower"], est["upper"])]
        assert [s["provenance"] for s in ends] == ["trend", "trend"]

    def test_a_short_list_gauge_reads_its_order_off_its_model(self, capsys):
        # for t >= 5 the gauge is exactly 5 log t - log 120, so the order-r
        # kernel integral converges at every r: the cap, with no probe
        code, rep = run_json(capsys, "index", "mu", "--omega",
                             '{"kind":"assoc","sequence":{"family":"explicit",'
                             '"values":[1,1,2,6,24,120]}}')
        est = rep["results"]["estimate"]
        assert code == cli.EXIT_OK and validate_report(rep) == []
        assert (est["lower"], est["upper"], est["method"]) == (
            INDEX_CAP, INDEX_CAP, "growth-model")
        assert est["samples"] == [] and est["diagnostics"]["probes"] == 0
        assert est["diagnostics"]["law"] == {"kind": "growth", "exponent": 0.0,
                                             "start": pytest.approx(5.0)}

    def test_index_needs_an_input(self, capsys):
        assert run(capsys, "index", "gamma")[0] == cli.EXIT_USAGE


class TestArtifactFiles:
    def test_descend_writes_reparsable_specs(self, capsys, tmp_path):
        out = tmp_path / "desc.json"
        code, _, _ = run(capsys, "descend", "--sequence", "gevrey:2",
                         "--r", "1", "--out", str(out))
        assert code == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["results"]["tau_1"] == pytest.approx(1 + math.pi ** 2 / 6)
        S = make_sequence(f"@{tmp_path}/desc.S.json")
        L = make_sequence(f"@{tmp_path}/desc.L.json")
        direct = uw.descendant(uw.gevrey(2), 1.0)
        np.testing.assert_allclose(S.log_values(40), direct.S.log_values(40),
                                   rtol=1e-12)
        np.testing.assert_allclose(L.log_values(40), direct.L.log_values(40),
                                   rtol=1e-12)

    def test_descend_at_an_order_off_one_half(self, capsys, tmp_path):
        # the descendant's tail exponent s/r used to round back above s
        code, _, err = run(capsys, "descend", "--sequence", "gevrey:1.7625",
                           "--r", "0.618", "--out", str(tmp_path / "d.json"))
        assert code == cli.EXIT_OK, err

    def test_reduce_writes_reparsable_glue(self, capsys, tmp_path):
        out = tmp_path / "red.json"
        code, _, _ = run(
            capsys, "reduce", "--sigma", "power:0.5", "--omega",
            "power(0.33333333)", "--f", "power:1", "--n", "6",
            "--out", str(out))
        assert code == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["results"]["witness"]["K"] == 8.0
        assert rep["results"]["breakpoints"][1] == pytest.approx(16.0,
                                                                 abs=1e-3)
        glue = make_function(f"@{tmp_path}/red.omega_tilde.json")
        t = rep["results"]["breakpoints"][2] * 1.5
        base = make_function("power(0.33333333)")
        assert glue.value(t) > base.value(t)  # multiplier active out there

    def test_matrix_csv_levels(self, capsys, tmp_path):
        csv_path = tmp_path / "m.csv"
        code, rep = run_json(capsys, "matrix", "--omega", "assoc(gevrey:1)",
                             "--levels", "1,2", "--jmax", "12",
                             "--csv", str(csv_path))
        assert code == cli.EXIT_OK
        rows = [ln.split(",") for ln in
                csv_path.read_text().strip().split("\n")[1:]]
        level_one = {int(j): float(w) for j, l, w in rows if float(l) == 1.0}
        for j in range(13):
            assert level_one[j] == pytest.approx(math.factorial(j), rel=1e-2)

    def test_kappa_closed_form_samples(self, capsys):
        code, rep = run_json(capsys, "kappa", "--omega", "power:0.5")
        assert code == cli.EXIT_OK
        for row in rep["results"]["samples"]:
            assert row["value"] == pytest.approx(2.0 * math.sqrt(row["t"]),
                                                 rel=1e-6)

    # the mixed_fun witness still overflows at this order (t ** (1/r) in
    # MixedFunProbe), a fault of its own; the samples are read from the law
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kappa_samples_at_a_tiny_order_are_finite(self, capsys):
        code, rep = run_json(capsys, "kappa", "--omega", "power:0.5", "--r", "1e-300")
        assert code == cli.EXIT_OK
        values = [row["value"] for row in rep["results"]["samples"]]
        assert len(values) == 16 and all(math.isfinite(v) for v in values)

    def test_sample_function_csv(self, capsys):
        code, out, _ = run(capsys, "sample", "--omega", "power:0.5",
                           "--points", "20")
        assert code == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t,value"
        assert len(lines) == 21

    def test_sample_past_the_float_range_has_no_nan(self, capsys):
        # the maximizer t**(1/0.6) overflows from t near 1e185 on
        code, out, _ = run(capsys, "sample", "--omega", "assoc(gevrey:0.6)",
                           "--points", "16", "--tmax", "1e300")
        assert code == cli.EXIT_OK
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 16
        assert not any(math.isnan(float(v)) for row in rows for v in row)
        assert float(rows[-1][1]) == math.inf

    def test_sample_sequence_csv(self, capsys):
        code, out, _ = run(capsys, "sample", "--sequence", "gevrey:1",
                           "--pmax", "6")
        assert code == cli.EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "p,log_value"
        assert float(lines[-1].split(",")[1]) == pytest.approx(
            math.log(720.0))

    @pytest.mark.parametrize("pmax", [0, 2])
    def test_sample_takes_a_pmax_below_four(self, capsys, pmax):
        # sampling bounds nothing a RunConfig checks: p = 0..pmax is a valid CSV
        code, out, err = run(capsys, "sample", "--sequence", "gevrey:2",
                             "--pmax", str(pmax))
        assert code == cli.EXIT_OK, err
        assert [l.split(",")[0] for l in out.strip().split("\n")] == \
            ["p"] + [str(p) for p in range(pmax + 1)]

    def test_sample_refuses_a_negative_pmax(self, capsys):
        code, out, err = run(capsys, "sample", "--sequence", "gevrey:2",
                             "--pmax", "-3")
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("error:")


class TestGridEnvironment:
    def test_grid_points_env_is_ignored(self, monkeypatch):
        # --points is the one way to size the grid
        monkeypatch.setenv("ULTRAWEIGHT_GRID_POINTS", "123")
        assert uw.Grid().points == 600

    def test_grid_validation(self):
        with pytest.raises(uw.InvalidArgument):
            uw.Grid(t_min=-1.0)
        with pytest.raises(uw.InvalidArgument):
            uw.Grid(points=4)
        with pytest.raises(uw.InvalidArgument):
            uw.RunConfig(index_tol=0.0)

    def test_a_non_integer_p_max_is_refused(self):
        # a float p_max would reach an index slice deep in a sweep
        with pytest.raises(uw.InvalidArgument, match="integer"):
            uw.RunConfig(p_max=1e5)
        assert uw.RunConfig(p_max=np.int64(5000)).p_max == 5000

    @pytest.mark.parametrize("end", [math.inf, math.nan])
    def test_non_finite_grid_end_is_refused(self, capsys, end):
        with pytest.raises(uw.InvalidArgument):
            uw.Grid(t_max=end)
        code, out, err = run(capsys, "check", "--omega", "power:0.5",
                             "--tmax", str(end))
        assert code == cli.EXIT_USAGE and out == "" and "grid" in err

    @pytest.mark.parametrize("omega", ["power:0.5", "assoc(descendant(qgevrey:2,1))"])
    def test_omega3_refuses_a_grid_ending_below_ten(self, capsys, omega):
        # with a model and without, omega3 reads omega against log t on t >= 10
        code, out, err = run(capsys, "check", "--omega", omega,
                             "--conditions", "omega3", "--tmax", "5")
        assert code == cli.EXIT_USAGE and out == ""
        assert err.splitlines() == ["error: omega3 reads the grid on t >= 10, "
                                    "and this grid ends at t_max = 5"]

    @pytest.mark.parametrize("argv", [
        *(["matrix", "--omega", "power:0.5", "--levels", v]
          for v in ("nan", "inf", "1,nan", "abc", "1,,2")),
        *(["check", "--omega", "power:0.5", "--conditions", "omega_nq_r", "--r", v]
          for v in ("nan", "inf")),
        ["check", "--sequence", "gevrey:2", "--conditions", "nq_r", "--r", "nan"],
        ["kappa", "--omega", "power:0.5", "--r", "nan"],
        ["descend", "--sequence", "gevrey:2", "--r", "nan"],
    ])
    def test_non_finite_order_or_level_is_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE and out == "", err
        # the library's refusal, or argparse's "ultraweight matrix: error: ..."
        assert any(line.startswith("error:") or ": error: " in line
                   for line in err.splitlines()), err

    @pytest.mark.parametrize("argv", [
        ("matrix", "--omega", "logpower:2", "--jmax", "1000", "--levels", "8"),
        ("matrix", "--omega", "power:0.5", "--levels", "1e300")])
    def test_a_conjugate_slope_past_the_float_range_is_refused(self, capsys, argv):
        # the slopes of omega(e^y) reach x = level * jmax only where e^y overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE and out == "", err
        assert len(err.splitlines()) == 1 and err.startswith("error: conjugate slope")

    def test_a_conjugate_slope_inside_the_float_range_is_built(self, capsys):
        code, _, err = run(capsys, "matrix", "--omega", "logpower:2", "--jmax", "100",
                           "--levels", "8")
        assert code == cli.EXIT_OK, err

    @pytest.mark.parametrize("r, expected, status", [
        (1.93e-40, cli.EXIT_INCONCLUSIVE, "inconclusive"),
        (1e-300, cli.EXIT_OK, "satisfied"), (1e-5, cli.EXIT_OK, "satisfied")])
    def test_a_descendant_sup_past_the_float_range_is_inconclusive(self, capsys, r,
                                                                  expected, status):
        # at r = 1.93e-40 the (L, N) sweep's log sup is finite but past
        # log(float max); at the smaller and larger orders its sup is 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, rep = run_json(capsys, "descend", "--sequence", "gevrey:2",
                                 "--r", str(r))
        assert code == expected
        mixed = rep["results"]["checks"]["mixed_L_N"]
        assert mixed["status"] == status
        evidence = mixed.get("witness") or mixed["trend"]
        assert all(isinstance(v, (int, float)) and math.isfinite(v)
                   for v in evidence.values()), evidence
        if status == "satisfied":
            assert evidence["sup"] == 1.0

    def test_a_quotient_ratio_past_the_float_range_stays_violated(self, capsys):
        # at r = 1e300 the log quotients of L = S**r climb to about 1e301 over
        # the precondition range: the ratio is inf, its log stays finite, and
        # the trend call is recorded without ending the command
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(capsys, "descend", "--sequence", "qgevrey:2",
                               "--r", "1e300")
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED, cli.EXIT_INCONCLUSIVE)
        assert '"nan"' not in out
        mixed = json.loads(out)["results"]["checks"]["mixed_L_N"]
        assert (mixed["status"], mixed["provenance"]) == ("violated", "trend")
        assert mixed["counterexample"]["mu_over_nu"] == "inf"
        assert math.isfinite(mixed["diagnostics"]["max_log_ratio"])

    def test_a_descendant_descriptor_past_the_float_range_is_refused(self, capsys):
        code, out, err = run(capsys, "index", "mu", "--sequence",
                             "descendant(qgevrey:2, 1e300)")
        assert code == cli.EXIT_PRECONDITION and out == ""
        assert "mixed_L_N Violated" in err

    @pytest.mark.parametrize("argv", [
        # exact from its last breakpoint 1e9 on, past the cutoff 1e8 of nq_r
        ("check", "--omega", '{"kind":"glue","base":{"kind":"power","a":0.5},'
         '"breakpoints":[1e9],"multipliers":[1,2],"offsets":[0,31622.776601683792]}',
         "--conditions", "omega_nq"),
        # exactly log t - log 1e10 from t = 1e10 on
        ("check", "--omega", "assoc(explicit(1,1e10))"),
        ("kappa", "--omega", "assoc(explicit(1,1e10))"),
    ])
    def test_a_model_starting_past_the_cutoff_reads_a_fitted_tail(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATED, cli.EXIT_INCONCLUSIVE), err
        assert not has_nan(out)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_order_guards_refuse_non_finite(self, bad):
        g2, pw = make_sequence("gevrey:2"), uw.PowerLaw(0.5)
        for call in (lambda: uw.power(g2, bad),
                     lambda: uw.check_sequence_condition(g2, "nq_r", r=bad),
                     lambda: uw.PowerSubst(pw, bad),
                     lambda: uw.power_substitute(pw, bad),
                     lambda: uw.KappaPower(pw, bad),
                     lambda: uw.check_omega_condition(pw, "omega_nq_r", r=bad),
                     lambda: uw.mixed_condition_seq(g2, g2, bad),
                     lambda: uw.mixed_condition_fun(pw, pw, bad),
                     lambda: uw.kappa_power_normalized(pw, bad),
                     lambda: uw.descendant(g2, bad),
                     lambda: uw.associated_matrix(pw, levels=(1.0, bad))):
            with pytest.raises(uw.InvalidArgument):
                call()

    def test_nan_tolerance_is_refused(self, capsys):
        with pytest.raises(uw.InvalidArgument):
            uw.RunConfig(index_tol=math.nan)
        code, out, err = run(capsys, "index", "mu", "--sequence", "gevrey:2",
                             "--tol", "nan")
        assert code == cli.EXIT_USAGE and out == "" and "tolerance" in err
