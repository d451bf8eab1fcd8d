"""Per-kind A/B timing of one workload: a base commit against the working tree.

    python3 tools/ab.py REV --workload index-brackets --passes 20 [--seed 21]
                        [--kinds mu_seq_gevrey,gamma_fun]

REV is exported with `git archive` (committed files only) into a temporary
directory.  Two measuring processes start, one importing the package from
REV's `src/` and one from the working tree's, both running the kinds of
`perfbench/workloads.py` from the working tree, which this script reads and
does not change.  Each process first runs every kind once untimed.  Then every
pass visits the kinds in a shuffled order, a kind that takes another's
parameters right after that kind, and runs each on both sides, base
first on even passes and head first on odd ones, with the same parameters
(`perfbench/worker.py`'s plan for the seed) and the benchmark's reference
loop before each operation.  Every answer is checked against the oracle.

The table gives, per kind, the median latency on each side, their ratio,
the pairs the head won (it was faster in that pass), and the median ratio of
each latency to the reference loop timed just before it.  Exits 1 when an
answer was wrong, or an operation failed that is not a known fault, on
either side.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def serve(src: str, workload: str, seed: int) -> int:
    """One side: answer "kind pass" lines with the JSON timing of that operation."""
    sys.path[:0] = [src, str(BENCH)]
    import worker
    import workloads as W

    kinds = W.WORKLOADS[workload]
    with tempfile.TemporaryDirectory() as work:
        if workload == "cli-cold":
            env = dict(os.environ)
            env["PYTHONPATH"] = src
            W.CLI = W.Cli(env, Path(work), in_process=False)
        else:
            import ultraweight  # noqa: F401
        plan = worker.Plan(kinds, seed)
        by_name = {k.name: k for k in kinds}
        for kind in kinds:
            kind.call(plan(kind, -1))
        print("READY", flush=True)
        for line in sys.stdin:
            name, i = line.split()
            kind = by_name[name]
            params = plan(kind, int(i))
            t0 = perf_counter()
            worker.reference_loop()
            ref = perf_counter() - t0
            out, err, dt = worker.run_op(kind, params)
            problem = worker.judge(kind, params, out, err)[2]
            print(json.dumps({"dt": dt, "ref": ref, "problem": problem}), flush=True)
    return 0


def export(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)


def start(src: Path, workload: str, seed: int) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("ULTRAWEIGHT_GRID_POINTS", None)
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"})
    proc = subprocess.Popen([sys.executable, __file__, "--serve", str(src),
                             "--workload", workload, "--seed", str(seed)],
                            cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline().strip() != "READY":
        proc.kill()
        raise RuntimeError(f"the side importing {src} failed to start")
    return proc


def ask(proc: subprocess.Popen, name: str, i: int) -> dict:
    proc.stdin.write(f"{name} {i}\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?", help="base commit")
    ap.add_argument("--workload", required=True,
                    choices=("cli-cold", "index-brackets", "constructions"))
    ap.add_argument("--passes", type=int, default=10)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--kinds", help="comma-separated kind names (default: all)")
    ap.add_argument("--serve", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.serve:
        return serve(args.serve, args.workload, args.seed)
    if not args.rev:
        ap.error("the base commit REV is required")

    sys.path.insert(0, str(BENCH))
    import workloads as W
    kinds = W.WORKLOADS[args.workload]
    names = [k.name for k in kinds]
    if args.kinds:
        unknown = set(args.kinds.split(",")) - set(names)
        if unknown:
            ap.error(f"unknown kinds {sorted(unknown)} (choose from {names})")
        names = [n for n in names if n in args.kinds.split(",")]
    # a kind that takes another's parameters reads what that kind's operation
    # of the same pass left (cli-cold's report reads descend's file)
    follows = {k.name: k.params_of for k in kinds if k.params_of}
    missing = {n: follows[n] for n in names if follows.get(n, n) not in names}
    if missing:
        ap.error(f"--kinds: {', '.join(f'{n} needs {m}' for n, m in missing.items())}")

    sides = ("base", "head")
    times = {s: {n: [] for n in names} for s in sides}
    ratios = {s: {n: [] for n in names} for s in sides}
    won = dict.fromkeys(names, 0)
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, Path(tmp))
        procs = {"base": start(Path(tmp) / "src", args.workload, args.seed),
                 "head": start(ROOT / "src", args.workload, args.seed)}
        try:
            order = random.Random(args.seed)
            for i in range(args.passes):
                visit = [n for n in names if n not in follows]
                order.shuffle(visit)
                visit = [m for n in visit
                         for m in (n, *(d for d in names if follows.get(d) == n))]
                for name in visit:
                    got = {}
                    for side in (sides if i % 2 == 0 else sides[::-1]):
                        got[side] = res = ask(procs[side], name, i)
                        if res["problem"]:
                            problems.append(f"{side} {name} pass {i}: {res['problem']}")
                        times[side][name].append(res["dt"])
                        ratios[side][name].append(res["dt"] / res["ref"])
                    won[name] += got["head"]["dt"] < got["base"]["dt"]
        finally:
            for proc in procs.values():
                proc.stdin.close()
                proc.wait()

    print(f"{args.workload}: {args.rev} (base) against the working tree (head), "
          f"{args.passes} passes, seed {args.seed}")
    print(f"{'kind':<28}{'base ms':>10}{'head ms':>10}{'head/base':>11}"
          f"{'head won':>10}{'base/ref':>10}{'head/ref':>10}")
    for name in names:
        b, h = (1e3 * statistics.median(times[s][name]) for s in sides)
        rb, rh = (statistics.median(ratios[s][name]) for s in sides)
        print(f"{name:<28}{b:>10.3f}{h:>10.3f}{h / b:>11.3f}"
              f"{won[name]:>6}/{args.passes:<3}{rb:>10.3f}{rh:>10.3f}")
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
