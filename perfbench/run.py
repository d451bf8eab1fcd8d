"""Benchmark entry point; run it from the root of a checkout:

    python3 perfbench/run.py --workload {cli-cold,index-brackets,constructions} \
        --seed N --seconds S --trace {0,1}

With --trace 0 the last stdout line holds every end-to-end metric: set-up
time is the median over SETUP_SAMPLES fresh worker processes, the other
metrics come from the last of them, which goes on to the timed passes.  With
--trace 1 one traced worker reports the per-layer metrics instead.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 175.0   # the whole run, set-ups included, ends within this
WORKLOADS = ("cli-cold", "index-brackets", "constructions")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client, no hidden threads; a fixed hash seed for repeatable dict order
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("ULTRAWEIGHT_GRID_POINTS", None)
    return env


def start_worker(args, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Spawn a worker and return it with its set-up time (spawn to READY)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker set-up failed (printed {line!r})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "ultraweight" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    t_start = perf_counter()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = start_worker(args, setup_only=True)
                finish(proc, timeout=60)
                setups.append(setup)
        proc, setup = start_worker(args, setup_only=False)
        setups.append(setup)
        out = finish(proc, timeout=max(10.0, TIME_LIMIT_S - (perf_counter() - t_start)))
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        print("set-up samples (s): " + " ".join(f"{s:.3f}" for s in setups), file=sys.stderr)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
