"""Record one perf point: the benchmark on a base commit and on a change.

    python3 tools/bench_record.py --base REV --out BENCH_N.json

REV and HEAD are exported with `git archive` (committed files only) and
measured with `perfbench/run.py` for BENCHMARK.json's `run_seconds`: untraced
on every workload for each of SEEDS, base and head alternating (base first on
odd seeds), then one traced run per workload at seed 1.  The output holds
per-metric medians and quartiles, the failed shares summed over the runs, the
seeds on which the head beat the base, every per-layer metric BENCHMARK.json
names from the traced run (import times, work counters, layer timings) and
the environment, which includes PYTHONDONTWRITEBYTECODE and whether each
measured tree held a `__pycache__` directory after its runs: both decide
whether cold-start figures include compiling the sources.  The deterministic
work counters of EXACT_COUNTERS are written per workload as base, head and
`equal`; every traced counter that differs between base and head is printed
on stderr.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-cold", "index-brackets", "constructions")
SEEDS = tuple(range(21, 31))
TRACE_SECONDS = 20
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# every per-layer metric of the traced run: import times, work counters, spans
TRACED = tuple(m["name"] for m in BENCHMARK["per_layer"])
COUNTERS = tuple(m["name"] for m in BENCHMARK["per_layer"] if m["unit"] == "count")
# counters that a change may move only with a stated reason
EXACT_COUNTERS = ("indices.probes", "functions.assoc_eval_points",
                  "quadrature.integrand_points", "functions.convexify_points")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print(f"{tree.name}: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(runs: list[dict]) -> dict:
    names = sorted(set().union(*(r["metrics"] for r in runs)))
    metrics = {}
    for name in names:
        vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        metrics[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "unit": runs[0]["metrics"][name]["unit"]}
    return {"runs": len(runs), "correct": all(r["correct"] for r in runs),
            "failed_share": f"{sum(r['failed'] for r in runs)}/"
                            f"{sum(r['attempted'] for r in runs)}",
            "metrics": metrics}


def pairs_better(base: list[dict], head: list[dict]) -> dict:
    """Per end-to-end metric, the seeds on which the head beat the base."""
    out = {}
    for m in BENCHMARK["end_to_end"]:
        pairs = [(b["metrics"][m["name"]]["value"], h["metrics"][m["name"]]["value"])
                 for b, h in zip(base, head) if m["name"] in h["metrics"]]
        wins = sum((h < b) if m["better"] == "lower" else (h > b) for b, h in pairs)
        out[m["name"]] = f"{wins}/{len(pairs)}"
    return out


def compare_counters(wl: str, traced: dict) -> dict:
    """EXACT_COUNTERS as base, head and `equal`; report every counter that moved."""
    value = {side: {c: m[c]["value"] for c in COUNTERS if c in m}
             for side, m in traced.items()}
    for c in COUNTERS:
        b, h = value["base"].get(c), value["head"].get(c)
        if b != h:
            tag = "exact counter" if c in EXACT_COUNTERS else "counter"
            print(f"{wl}: {tag} {c} differs: base {b}, head {h}", file=sys.stderr)
    return {c: {"base": value["base"].get(c), "head": value["head"].get(c),
                "equal": value["base"].get(c) == value["head"].get(c)}
            for c in EXACT_COUNTERS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    seconds = BENCHMARK["run_seconds"]
    commits = {"base": git("rev-parse", args.base), "head": git("rev-parse", "HEAD")}
    work = ROOT / ".bench_build" / "record"
    trees = {side: work / side for side in commits}
    for side, tree in trees.items():
        shutil.rmtree(tree, ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", commits[side]], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    result = {"commits": commits, "seeds": list(SEEDS), "seconds": seconds,
              "environment": {"nproc": len(os.sched_getaffinity(0)),
                              "python": platform.python_version(),
                              "numpy": numpy.__version__, "scipy": scipy.__version__,
                              "PYTHONDONTWRITEBYTECODE":
                                  os.environ.get("PYTHONDONTWRITEBYTECODE")},
              "workloads": {}}
    for wl in WORKLOADS:
        runs = {side: [] for side in commits}
        for seed in SEEDS:
            order = ("base", "head") if seed % 2 else ("head", "base")
            for side in order:
                runs[side].append(bench(trees[side], wl, seed, seconds, 0))
        traced = {side: bench(trees[side], wl, 1, TRACE_SECONDS, 1)["metrics"]
                  for side in commits}
        result["workloads"][wl] = {
            side: {**summary(runs[side]),
                   "traced_seed_1": {c: traced[side][c]["value"] for c in TRACED
                                     if c in traced[side]}}
            for side in commits}
        result["workloads"][wl]["head_better"] = pairs_better(runs["base"], runs["head"])
        result["workloads"][wl]["exact_counters"] = compare_counters(wl, traced)
    result["environment"]["tree_has_pycache"] = {
        side: any(tree.rglob("__pycache__")) for side, tree in trees.items()}
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
