"""Golden CLI reports: the fixed command matrix and its rendering.

    PYTHONPATH=src python3 tools/golden.py   # rewrite tests/golden/
    PYTHONPATH=src python3 tools/golden.py --against REV

Each case is a list of `ultraweight` command lines, run in-process through
`cli.main` in a fresh empty working directory with ULTRAWEIGHT_GRID_POINTS
unset, so that every path a report names is relative.  The rendering holds,
per command, its exit code and its stdout, then every file the case left in
the directory.  A JSON report loses its `wall_time`, the one field that
differs between runs.  tests/test_golden.py compares the rendering of every
case with tests/golden/NAME.txt byte for byte.

`--against REV` writes nothing: it renders every case and compares it with
tests/golden/ as committed at REV, for a change that moves last-digit
numerics.  It passes only if the case files, line counts and all text (keys,
verdict statuses) are identical, every integer (exit codes, counts) and every
bracket endpoint or probed order (`lower`, `upper`, `r`) is identical, and
every other number is within `REL_TOL` relative.  It prints each changed
number with its file, line and key, and exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from ultraweight import cli
from ultraweight.verdict import GRID_POINTS_ENV

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"

_SEQ_ALL = "lc,slc,mg,nq,nq_r,beta1,beta3,gamma1"
_FUN_ALL = ("omega1,omega2,omega3,omega4,omega5,omega6,omega_nq,omega_snq,"
            "omega_nq_r")
_REDUCE = ("reduce --sigma power:0.5 --omega power(0.33333333) --f power:1 "
           "--n 6 --spec-out red")

# name -> command lines (without the program name), run in order
CASES = {
    # every sequence family, default conditions
    "check_seq_gevrey": ["check --sequence gevrey:2"],
    "check_seq_qgevrey": ["check --sequence qgevrey:2"],
    "check_seq_explicit": ["check --sequence explicit:1,4,8,32"],
    "check_seq_power": ["check --sequence power(gevrey(2),0.5)"],
    "check_seq_shift": ["check --sequence shift(gevrey(2),0.5)"],
    "check_seq_hat": ["check --sequence hat(gevrey(1))"],
    "check_seq_descendant": ["check --sequence descendant(gevrey(2),1)"],
    # every sequence condition, and the largest probed index
    "check_seq_all": [f"check --sequence gevrey:2 --conditions {_SEQ_ALL} --r 1.5"],
    "check_seq_all_gevrey1": [f"check --sequence gevrey:1 --conditions {_SEQ_ALL} --r 0.5"],
    "check_seq_pmax": ["check --sequence gevrey:2 --conditions lc,slc,mg,nq --pmax 50"],
    # every function kind, default conditions
    "check_fun_power": ["check --omega power:0.5"],
    "check_fun_logpower": ["check --omega logpower:2"],
    "check_fun_assoc": ["check --omega assoc(gevrey:2)"],
    "check_fun_subst": ["check --omega subst(power:0.5,0.5)"],
    "check_fun_kappa": ["check --omega kappa(power:0.5,1)"],
    "check_fun_normalized": ["check --omega normalized(power:0.5)"],
    "check_fun_glue": [_REDUCE, "check --omega @red.omega_tilde.json"],
    # every function condition
    "check_fun_all": [f"check --omega power:0.5 --conditions {_FUN_ALL} --r 2"],
    "check_fun_all_logpower": [f"check --omega logpower:2 --conditions {_FUN_ALL} --r 1"],
    # refusals: usage (64) and failed preconditions (65)
    "refuse_unknown_seq_condition": ["check --sequence gevrey:2 --conditions foo"],
    "refuse_unknown_fun_condition": ["check --omega power:0.5 --conditions foo"],
    "refuse_nq_r_without_r": ["check --sequence gevrey:2 --conditions nq_r"],
    "refuse_omega_nq_r_without_r": ["check --omega power:0.5 --conditions omega_nq_r"],
    "refuse_bad_descriptor": ["check --sequence bogus:2"],
    "refuse_check_without_input": ["check"],
    "refuse_kappa_divergent": ["kappa --omega power:1"],
    "refuse_descend_divergent": ["descend --sequence gevrey:1"],
    # indices
    "index_mu_seq": ["index mu --sequence gevrey:2"],
    "index_mu_short_list": ["index mu --sequence explicit:1,1,2,6,24,120"],
    "index_mu_fun": ["index mu --omega power:0.5"],
    "index_gamma_seq": ["index gamma --M gevrey:1 --N gevrey:2"],
    "index_gamma_fun": ["index gamma --sigma power:0.5 --omega power(0.33333333)"],
    # constructions, with the files they write
    "descend": ["descend --sequence gevrey:2 --r 1 --spec-out desc"],
    "reduce": [_REDUCE],
    "matrix": ["matrix --omega assoc(gevrey:1) --levels 1,2 --jmax 12 --csv m.csv"],
    "kappa": ["kappa --omega power:0.5"],
    "kappa_power": ["kappa --omega power:0.3 --r 0.5 --spec-out k"],
    # CSV samples
    "sample_seq": ["sample --sequence gevrey:1 --pmax 20"],
    "sample_fun": ["sample --omega power:0.5 --points 20"],
    # a stored report re-validated
    "report": ["check --sequence gevrey:1 --conditions nq --out rep.json",
               "report rep.json"],
}


def _strip_wall_time(text: str) -> str:
    """A JSON report without its `wall_time`; any other text unchanged."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return text
    if not isinstance(data, dict) or "wall_time" not in data:
        return text
    del data["wall_time"]
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def render(commands: list[str]) -> str:
    """Run the commands in the current directory and render their outcome."""
    parts = []
    for line in commands:
        argv = shlex.split(line)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        parts.append(f"$ ultraweight {shlex.join(argv)}\nexit {code}\n")
        if out.getvalue():
            parts.append(_strip_wall_time(out.getvalue()))
    for path in sorted(Path.cwd().iterdir()):
        parts.append(f"--- file {path.name}\n")
        parts.append(_strip_wall_time(path.read_text()))
    return "".join(parts)


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.txt"


REL_TOL = 1e-12
# numbers that must not move at all: bracket endpoints and probed orders
EXACT_KEYS = frozenset({"lower", "upper", "r"})
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")
_KEY = re.compile(r'^\s*"([^"]+)":')


def render_case(name: str) -> str:
    """The rendering of one case, run in a fresh empty directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            return render(CASES[name])
        finally:
            os.chdir(home)


def compare_line(where: str, old: str, new: str) -> tuple[list[str], list[str], float]:
    """Changed numbers, failures and the worst accepted relative change."""
    if old == new:
        return [], [], 0.0
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return [], [f"{where}: text differs\n  - {old}\n  + {new}"], 0.0
    key = _KEY.match(new)
    key = key.group(1) if key else "-"
    changed, failed, worst = [], [], 0.0
    for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        if a == b:
            continue
        line = f"{where} {key}: {a} -> {b}"
        exact = key in EXACT_KEYS or not any(c in a + b for c in ".eE")
        x, y = float(a), float(b)
        rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
        if exact or rel > REL_TOL:
            failed.append(f"{line} (relative {rel:.2g}, "
                          f"{'must be identical' if exact else 'over tolerance'})")
        else:
            changed.append(f"{line} (relative {rel:.2g})")
            worst = max(worst, rel)
    return changed, failed, worst


def compare_against(rev: str) -> int:
    """Render every case and compare it with tests/golden/ at `rev`."""
    listing = subprocess.run(
        ["git", "ls-tree", "--name-only", rev, "tests/golden/"], cwd=ROOT,
        check=True, capture_output=True, text=True).stdout.split()
    stored = {Path(f).stem for f in listing if f.endswith(".txt")}
    failed = [f"case {n}: in tests/golden at {rev} only" for n in sorted(stored - set(CASES))]
    failed += [f"case {n}: not in tests/golden at {rev}" for n in sorted(set(CASES) - stored)]
    changed_files, worst = [], 0.0
    for name in sorted(stored & set(CASES)):
        old = subprocess.run(["git", "show", f"{rev}:tests/golden/{name}.txt"], cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
        new = render_case(name)
        if old == new:
            continue
        changed_files.append(name)
        old_lines, new_lines = old.splitlines(), new.splitlines()
        if len(old_lines) != len(new_lines):
            failed.append(f"{name}: {len(old_lines)} lines -> {len(new_lines)}")
            continue
        for i, (a, b) in enumerate(zip(old_lines, new_lines), start=1):
            changed, bad, rel = compare_line(f"{name}.txt:{i}", a, b)
            for line in changed:
                print(line)
            failed += bad
            worst = max(worst, rel)
    for line in failed:
        print(f"FAIL {line}")
    print(f"{len(changed_files)} of {len(stored | set(CASES))} cases changed"
          f"{': ' + ', '.join(changed_files) if changed_files else ''}; "
          f"worst relative change {worst:.2g} (tolerance {REL_TOL:g}); "
          f"{'FAILED' if failed else 'accepted'}")
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--against", metavar="REV",
                    help="compare with tests/golden/ at REV instead of rewriting")
    args = ap.parse_args()
    os.environ.pop(GRID_POINTS_ENV, None)
    if args.against:
        return compare_against(args.against)
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        golden_path(name).write_text(render_case(name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
