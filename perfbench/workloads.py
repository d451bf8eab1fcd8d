"""The three workloads: one list of operation kinds each.

A kind draws its parameters from uniforms in [0, 1), runs one operation on
freshly built objects (the timed part), extracts an answer from the output
(untimed), and checks that answer against ``oracle``.  The program is
imported lazily, so the ``cli-cold`` worker never imports it.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import oracle as O

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Kind:
    name: str
    draw: Callable[[tuple], tuple]          # uniforms -> parameters
    call: Callable[[tuple], Any]            # timed operation
    answer: Callable[[tuple, Any], Any]     # output -> answer (untimed)
    check: Callable[[tuple, Any], None]     # raises oracle.Mismatch
    perturb: Callable[[Any], Any]
    known_fault: bool = False               # fails today; see CHANGES.md
    params_of: Optional[str] = None         # reuse another kind's parameters


def lin(u: float, lo: float, hi: float) -> float:
    """Parameter in [lo, hi), rounded so descriptors stay short."""
    return round(lo + (hi - lo) * u, 4)


def away_from_one(u: float) -> float:
    """s in [0.5, 0.85) for a quarter of the draws, else in [1.2, 3)."""
    return lin(u / 0.25, 0.5, 0.85) if u < 0.25 else lin((u - 0.25) / 0.75, 1.2, 3.0)


SHORT_LIST = "explicit:1,1,2,6,24,120"   # mu_seq raises InternalInconsistency today
TS_DENSE = np.geomspace(1e-2, 1e12, 200_000)
TS_KAPPA = np.geomspace(1.0, 1e12, 4000)
KAPPA_PICK = slice(None, None, 500)
CONJ_P = np.arange(0.0, 31.0)
DESC_P = 4096
N_BREAK = 12


def uw():
    import ultraweight
    return ultraweight


# ---------------------------------------------------------------------------
# answers from library objects

def bracket(_p, est):
    return {"lower": est.lower, "upper": est.upper}


def witness(_p, w):
    return None if w is None else w.to_dict()


def values_at(ts):
    return lambda _p, v: {"t": ts, "v": np.asarray(v, dtype=float)}


def check_one(cond):
    def run(p):
        return uw().check_omega_condition(uw().make_function(f"assoc(gevrey:{p[0]})"), cond)
    return Kind(f"check_{cond}", lambda u: (away_from_one(u[0]),), run,
                lambda _p, v: {cond: v.status.value},
                lambda p, a: O.check_statuses(a, {cond: O.expected_omega_status(cond, p[0])}),
                O.perturb_statuses)


def mu_fun_of(desc):
    return lambda p: uw().mu_fun(uw().make_function(desc(p)))


INDEX_BRACKETS = [
    Kind("gamma_seq", lambda u: (lin(u[0], 0.5, 3.0),),
         lambda p: uw().gamma_index_seq(uw().make_sequence(f"gevrey:{p[0]}")),
         bracket, lambda p, a: O.check_bracket(a, p[0]), O.perturb_bracket),
    Kind("gamma_seq_pair", lambda u: (lin(u[0], 0.6, 1.6), lin(u[1], 0.3, 1.2)),
         lambda p: uw().gamma_index_seq(uw().make_sequence(f"gevrey:{p[0]}"),
                                        uw().make_sequence(f"gevrey:{round(p[0] + p[1], 4)}")),
         bracket, lambda p, a: O.check_bracket(a, round(p[0] + p[1], 4)), O.perturb_bracket),
    Kind("mu_seq_gevrey", lambda u: (lin(u[0], 0.5, 3.0),),
         lambda p: uw().mu_seq(uw().make_sequence(f"gevrey:{p[0]}")),
         bracket, lambda p, a: O.check_bracket(a, p[0]), O.perturb_bracket),
    Kind("mu_seq_qgevrey", lambda u: (lin(u[0], 1.1, 3.0),),
         lambda p: uw().mu_seq(uw().make_sequence(f"qgevrey:{p[0]}")),
         bracket, lambda p, a: O.check_bracket(a, "unbounded"), O.perturb_bracket),
    Kind("mu_seq_power", lambda u: (lin(u[0], 1.0, 3.0), lin(u[1], 0.5, 1.5)),
         lambda p: uw().mu_seq(uw().make_sequence(f"power(gevrey:{p[0]}, {p[1]})")),
         bracket, lambda p, a: O.check_bracket(a, p[0] * p[1]), O.perturb_bracket),
    Kind("mu_seq_short_list", lambda u: (),
         lambda p: uw().mu_seq(uw().make_sequence(SHORT_LIST)),
         bracket, lambda p, a: O.check_valid_bracket(a),
         lambda a: {"lower": 2.0, "upper": 1.0}, known_fault=True),
    Kind("gamma_fun", lambda u: (lin(u[0], 1.2, 3.0),),
         lambda p: uw().gamma_index_fun(uw().make_function(f"assoc(gevrey:{p[0]})")),
         bracket, lambda p, a: O.check_bracket(a, p[0]), O.perturb_bracket),
    Kind("mu_fun_assoc", lambda u: (lin(u[0], 0.6, 3.0),),
         mu_fun_of(lambda p: f"assoc(gevrey:{p[0]})"),
         bracket, lambda p, a: O.check_bracket(a, p[0]), O.perturb_bracket),
    Kind("mu_fun_subst", lambda u: (lin(u[0], 1.0, 3.0), lin(u[1], 0.5, 2.0)),
         mu_fun_of(lambda p: f"subst(assoc(gevrey:{p[0]}), {p[1]})"),
         bracket, lambda p, a: O.check_bracket(a, p[0] / p[1]), O.perturb_bracket),
    Kind("mu_fun_kappa", lambda u: (lin(u[0], 0.2, 0.8),),
         mu_fun_of(lambda p: f"kappa(power:{p[0]})"),
         bracket, lambda p, a: O.check_bracket(a, 1.0 / p[0]), O.perturb_bracket),
    Kind("mu_fun_power", lambda u: (lin(u[0], 0.2, 2.0),),
         mu_fun_of(lambda p: f"power:{p[0]}"),
         bracket, lambda p, a: O.check_bracket(a, 1.0 / p[0]), O.perturb_bracket),
    Kind("mu_fun_logpower", lambda u: (lin(u[0], 1.0, 3.0),),
         mu_fun_of(lambda p: f"logpower:{p[0]}"),
         bracket, lambda p, a: O.check_bracket(a, "unbounded"), O.perturb_bracket),
    Kind("witness", lambda u: (lin(u[0], 1.3, 3.0),),
         lambda p: uw().find_gamma1_witness(uw().make_function(f"assoc(gevrey:{p[0]})"),
                                            uw().make_function(f"assoc(gevrey:{p[0]})")),
         witness, lambda p, a: O.check_witness(a, p[0]), O.perturb_witness),
    Kind("witness_none", lambda u: (lin(u[0], 0.4, 0.9),),
         lambda p: uw().find_gamma1_witness(uw().make_function(f"assoc(gevrey:{p[0]})"),
                                            uw().make_function(f"assoc(gevrey:{p[0]})")),
         witness, lambda p, a: O.check_witness(a, p[0]), O.perturb_witness),
] + [check_one(c) for c in O.OMEGA_CONDITIONS]


# ---------------------------------------------------------------------------
# constructions

# The hat bridge doubles its conjugate grid until the value at x = 2^20
# settles, and the number of grids it evaluates jumps between 4 and 9 across
# neighbouring s (each grid twice the last).  Drawing s per operation made
# the constructions figures swing with the seed by more than any bound
# allows, so s stays at HAT_S (7 grids, the most common count) and each
# operation draws the lower end of its evaluation grid instead.
HAT_S = 1.5


def hat_grid(p):
    return np.geomspace(p[0], 1e12, 2000)


def omega_hat_op(p):
    gauge = uw().omega_hat(uw().make_function(f"assoc(gevrey:{HAT_S})"))
    return gauge.eval(hat_grid(p))


def hat_kind(name, lo):
    """omega_hat on geomspace(t0, 1e12, 2000), t0 in [lo, 10 lo)."""
    return Kind(name, lambda u: (lin(u[0], lo, 10.0 * lo),), omega_hat_op,
                lambda p, v: {"t": hat_grid(p), "v": np.asarray(v)},
                # the bridge refines its conjugate to 1e-2 on the log scale; over
                # s in [1.2, 3) the lift matched assoc(gevrey:s+1) to within 5e-7
                lambda p, a: O.check_assoc_values(a, ("gevrey", HAT_S + 1.0), rtol=1e-5),
                O.perturb_values)


def matrix_answer(_p, m):
    return {"rows": {f"{l:g}": m.log_values(l) for l in m.levels}}


def descendant_params(u):
    """gevrey:s at order r = 1/2 or 1.  Other orders are left out: for about
    one (s, r) in six, (s/r)*r rounds above s and descendant raises
    InternalInconsistency (see CHANGES.md)."""
    return lin(u[0], 1.2, 3.0), 0.5 if u[1] < 0.5 else 1.0


def descendant_op(p):
    pair = uw().descendant(uw().make_sequence(f"gevrey:{p[0]}"), p[1])
    return pair, pair.S.log_values(DESC_P), pair.L.log_values(DESC_P)


def descendant_answer(_p, out):
    pair, S, L = out
    return {"tau_1": pair.tau_1, "S": S, "L": L,
            "checks": {k: v.status.value for k, v in pair.checks.items()}}


def reduce_params(u):
    """sigma = t^a, omega = t^b, f = t^c with b < a < c; b > 1/3 keeps the
    witness step K <= 4, so twelve breakpoints stay below 1e12."""
    b = lin(u[0], 0.34, 0.6)
    a = round(b + lin(u[1], 0.1, 0.3), 4)
    return a, b, round(a + lin(u[2], 0.25, 0.6), 4), N_BREAK


def reduction_op(p):
    mk = uw().make_function
    return uw().reduction_build(mk(f"power:{p[0]}"), mk(f"power:{p[1]}"),
                                mk(f"power:{p[2]}"), p[3])


def reduction_answer(_p, res):
    return {"xs": list(res.breakpoints), **res.witness.to_dict(), "H1": res.H1,
            "C1": res.C1, "omega_tilde": res.omega_tilde.eval(O.REDUCE_TS),
            "sigma_tilde": res.sigma_tilde.eval(O.REDUCE_TS)}


def kappa_op(p):
    gauge = uw().kappa_power_normalized(uw().make_function(f"power:{p[0]}"), p[1])
    return gauge.eval(TS_KAPPA)


CONSTRUCTIONS = [
    Kind("young_conjugate", lambda u: (lin(u[0], 0.6, 3.0),),
         lambda p: uw().young_conjugate(uw().make_function(f"assoc(gevrey:{p[0]})")),
         lambda _p, c: {"t": CONJ_P, "v": c(CONJ_P)},
         lambda p, a: O.check_conjugate_values(a, p[0]), O.perturb_values),
    Kind("associated_matrix", lambda u: (lin(u[0], 0.8, 3.0),),
         lambda p: uw().associated_matrix(uw().make_function(f"assoc(gevrey:{p[0]})")),
         matrix_answer, lambda p, a: O.check_matrix_rows(a, p[0]), O.perturb_matrix),
    # twice per pass, so that omega_hat is over a fifth of the samples and the
    # p90 tail falls near the middle of its cluster rather than its low edge
    hat_kind("omega_hat", 1.0),
    hat_kind("omega_hat_far", 10.0),
    Kind("descendant", descendant_params,
         descendant_op, descendant_answer,
         lambda p, a: O.check_descendant(a, p), O.perturb_descendant),
    Kind("reduction_build", reduce_params, reduction_op, reduction_answer,
         lambda p, a: O.check_reduction(a, p), O.perturb_reduction),
    Kind("kappa_power_normalized", lambda u: (lin(u[0], 0.2, 1.6), 0.5), kappa_op,
         lambda _p, v: {"t": TS_KAPPA[KAPPA_PICK], "v": np.asarray(v)[KAPPA_PICK]},
         lambda p, a: O.check_kappa_values(a, p), O.perturb_values),
    Kind("associated_eval_gevrey", lambda u: (lin(u[0], 0.6, 3.0),),
         lambda p: uw().associated_eval(uw().make_sequence(f"gevrey:{p[0]}"), TS_DENSE),
         values_at(TS_DENSE), lambda p, a: O.check_assoc_values(a, ("gevrey", p[0])),
         O.perturb_values),
    Kind("associated_eval_qgevrey", lambda u: (lin(u[0], 1.1, 3.0),),
         lambda p: uw().associated_eval(uw().make_sequence(f"qgevrey:{p[0]}"), TS_DENSE),
         values_at(TS_DENSE), lambda p, a: O.check_assoc_values(a, ("qgevrey", p[0])),
         O.perturb_values),
]


# ---------------------------------------------------------------------------
# cli-cold: the same questions through the command line

class Cli:
    """Runs `python -m ultraweight.cli argv`: as a fresh process, or in-process
    through `cli.main` for the traced run."""

    def __init__(self, env: dict, work_dir: Path, in_process: bool):
        self.env = env
        self.work_dir = work_dir
        self.in_process = in_process
        self.peak_rss_kb: list[int] = []   # one entry per process run

    def __call__(self, argv: list) -> tuple:
        argv = [str(a) for a in argv]
        if not self.in_process:
            proc = subprocess.Popen([sys.executable, "-m", "ultraweight.cli", *argv],
                                    cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True)
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 reaps the child and returns its own resource usage
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb.append(usage.ru_maxrss)
            return proc.returncode, out
        from contextlib import redirect_stderr, redirect_stdout
        from ultraweight import cli
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()


CLI: Optional[Cli] = None   # set by the worker before the first operation


class OperationFailed(Exception):
    """The command ended in an internal error (exit 70)."""


def cli_kind(name, draw, argv, payload, check, perturb, exits=(0,), **kw):
    """A command that must exit with a code in `exits` (a tuple, or a function
    of the parameters giving one) and whose output must pass `check`."""
    def accepted(p):
        return exits(p) if callable(exits) else exits

    def answer(p, out):
        code, text = out
        if code == 70:
            raise OperationFailed(f"{name}: exit 70")
        return {"exit": code, "payload": payload(p, text) if code in accepted(p) else None}

    def full_check(p, a):
        O.require(a["exit"] in accepted(p), f"exit code {a['exit']} not in {accepted(p)}")
        check(p, a["payload"])

    def full_perturb(a):
        if a is None:  # a known fault leaves no answer to perturb
            return {"exit": 0, "payload": perturb(None)}
        return {"exit": a["exit"], "payload": perturb(a["payload"])}

    return Kind(name, draw, lambda p: CLI(argv(p)), answer, full_check, full_perturb, **kw)


def report_of(text):
    return json.loads(text)["results"]


def estimate_payload(_p, text):
    est = report_of(text)["estimate"]
    return {"lower": est["lower"], "upper": est["upper"]}


def statuses_payload(_p, text):
    return {k: v["status"] for k, v in report_of(text).items()}


def descend_file():
    return CLI.work_dir / "descend.json"


def descend_payload(_p, text):
    res = json.loads(descend_file().read_text())["results"] if not text else report_of(text)
    return {"tau_1": res["tau_1"], "checks": {k: v["status"] for k, v in res["checks"].items()}}


def glue_from_spec(spec, ts):
    idx = np.searchsorted(np.asarray(spec["breakpoints"]), ts, side="right")
    base = ts ** float(spec["base"]["a"])
    return np.asarray(spec["multipliers"])[idx] * base - np.asarray(spec["offsets"])[idx]


def reduce_payload(_p, text):
    res = report_of(text)
    return {"xs": res["breakpoints"], **res["witness"], "H1": res["H1"], "C1": res["C1"],
            "omega_tilde": glue_from_spec(res["omega_tilde"], O.REDUCE_TS),
            "sigma_tilde": glue_from_spec(res["sigma_tilde"], O.REDUCE_TS)}


def matrix_payload(_p, text):
    return {"rows": {l: np.asarray(v) for l, v in report_of(text)["log_values"].items()}}


def kappa_payload(_p, text):
    samples = report_of(text)["samples"]
    return {"t": [s["t"] for s in samples], "v": [s["value"] for s in samples]}


def csv_payload(_p, text):
    rows = list(csv.reader(io.StringIO(text)))
    data = np.asarray(rows[1:], dtype=float)
    return {"t": data[:, 0], "v": data[:, 1]}


def omega_check_exit(p):
    statuses = [O.expected_omega_status(c, p[0]) for c in O.OMEGA_CONDITIONS]
    return (1,) if "violated" in statuses else (0,)


CLI_COLD = [
    cli_kind("check_omega", lambda u: (away_from_one(u[0]),),
             lambda p: ["check", "--omega", f"assoc(gevrey:{p[0]})",
                        "--conditions", ",".join(O.OMEGA_CONDITIONS)],
             statuses_payload,
             lambda p, a: O.check_statuses(
                 a, {c: O.expected_omega_status(c, p[0]) for c in O.OMEGA_CONDITIONS}),
             O.perturb_statuses, exits=omega_check_exit),
    cli_kind("index_mu_seq", lambda u: (lin(u[0], 0.5, 3.0),),
             lambda p: ["index", "mu", "--sequence", f"gevrey:{p[0]}"],
             estimate_payload, lambda p, a: O.check_bracket(a, p[0]), O.perturb_bracket),
    cli_kind("index_gamma_seq", lambda u: (lin(u[0], 0.6, 1.6), lin(u[1], 0.3, 1.2)),
             lambda p: ["index", "gamma", "--M", f"gevrey:{p[0]}",
                        "--N", f"gevrey:{round(p[0] + p[1], 4)}"],
             estimate_payload, lambda p, a: O.check_bracket(a, round(p[0] + p[1], 4)),
             O.perturb_bracket),
    cli_kind("index_mu_short_list", lambda u: (),
             lambda p: ["index", "mu", "--sequence", SHORT_LIST],
             estimate_payload, lambda p, a: O.check_valid_bracket(a),
             lambda a: {"lower": 2.0, "upper": 1.0}, exits=(0, 2), known_fault=True),
    cli_kind("descend", descendant_params,
             lambda p: ["descend", "--sequence", f"gevrey:{p[0]}", "--r", p[1],
                        "--out", descend_file()],
             lambda p, text: descend_payload(p, ""),
             lambda p, a: O.check_descendant(a, p), O.perturb_descendant),
    cli_kind("report", None, lambda p: ["report", descend_file()],
             descend_payload, lambda p, a: O.check_descendant(a, p),
             O.perturb_descendant, params_of="descend"),
    cli_kind("reduce", reduce_params,
             lambda p: ["reduce", "--sigma", f"power:{p[0]}", "--omega", f"power:{p[1]}",
                        "--f", f"power:{p[2]}", "--n", p[3]],
             reduce_payload, lambda p, a: O.check_reduction(a, p), O.perturb_reduction),
    cli_kind("matrix", lambda u: (lin(u[0], 0.8, 3.0),),
             lambda p: ["matrix", "--omega", f"assoc(gevrey:{p[0]})", "--jmax", "32"],
             matrix_payload, lambda p, a: O.check_matrix_rows(a, p[0]), O.perturb_matrix),
    cli_kind("kappa", lambda u: (lin(u[0], 0.2, 1.6), 0.5),
             lambda p: ["kappa", "--omega", f"power:{p[0]}", "--r", p[1]],
             kappa_payload, lambda p, a: O.check_kappa_values(a, p), O.perturb_values),
    cli_kind("kappa_refused", lambda u: (),
             lambda p: ["kappa", "--omega", "power:1"],
             lambda p, text: text, lambda p, a: O.require(a == "", "refusal printed a report"),
             lambda a: "{}", exits=(65,)),
    cli_kind("sample", lambda u: (lin(u[0], 0.6, 3.0),),
             lambda p: ["sample", "--omega", f"assoc(gevrey:{p[0]})", "--points", "200"],
             csv_payload, lambda p, a: O.check_assoc_values(a, ("gevrey", p[0])),
             O.perturb_values),
]

WORKLOADS = {"cli-cold": CLI_COLD, "index-brackets": INDEX_BRACKETS,
             "constructions": CONSTRUCTIONS}

# highest latency percentile reported; each run times enough operations
# that at least ten samples lie beyond it
TAIL_PERCENTILE = {"cli-cold": 75, "index-brackets": 95, "constructions": 90}
# untraced seconds per pass, rounded; sets the pass count of a traced run
NOMINAL_PASS_S = {"cli-cold": 7.0, "index-brackets": 1.0, "constructions": 1.9}
