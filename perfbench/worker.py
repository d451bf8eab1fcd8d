"""One measuring process: one client running one workload in a closed loop.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

Set-up is import, input generation and one untimed warm-up operation; the
worker then prints READY (run.py times set-up up to that line).  Timed passes
follow until `--seconds` have passed and enough operations were timed for the
tail percentile; a traced run does a fixed number of passes instead.  A pass
runs every kind of the workload once, each with a fresh parameter, with the
reference loop timed before every operation and after the last; its outputs
are checked after that.  Finally the checks are re-run on perturbed answers,
which must fail.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import oracle
import workloads as W

# Weyl steps per parameter dimension: with a seeded offset, the parameters of
# successive passes spread evenly over their ranges for any number of passes
STEPS = (0.6180339887498949, 0.4142135623730951, 0.7320508075688772)
MAX_MEASURE_S = 120.0   # keeps a run far below the 180 s limit on a slow host
REF_RUNS_PER_PASS = 36  # fewest reference-loop timings per pass, spread over its operations

REF_ARRAY = np.linspace(1.0, 2.0, 50_000)


def reference_loop() -> float:
    """Fixed pure-Python and NumPy work, a few ms; never calls the program."""
    acc = 0.0
    table = {}
    for i in range(15_000):
        acc += math.sqrt(i + acc % 7.0)
        table[i & 1023] = acc
    a = REF_ARRAY
    for _ in range(8):
        a = np.sqrt(a * a + 1e-3)
    return acc + float(a[-1]) + len(table)


def time_reference(reps: int) -> list:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        reference_loop()
        times.append(perf_counter() - t0)
    return times


class Plan:
    """Parameters of kind k in pass i; pass -1, the warm-up, takes the middle
    of every range so that set-up does the same work for every seed."""

    def __init__(self, kinds, seed: int):
        rng = np.random.default_rng(seed)
        self.by_name = {k.name: k for k in kinds}
        self.offsets = {k.name: rng.random(len(STEPS)) for k in kinds}

    def __call__(self, kind, i: int) -> tuple:
        src = self.by_name[kind.params_of] if kind.params_of else kind
        if i < 0:
            return src.draw((0.5,) * len(STEPS))
        u = tuple((self.offsets[src.name][d] + (i + 1) * STEPS[d]) % 1.0
                  for d in range(len(STEPS)))
        return src.draw(u)


def tail_samples_needed(pct: int) -> int:
    """Fewest samples with at least ten beyond the pct-th percentile (nearest rank)."""
    n = 1
    while n - math.ceil(pct / 100.0 * n) < 10:
        n += 1
    return n


def run_op(kind, params):
    """(output, error, seconds) of one timed operation."""
    t0 = perf_counter()
    try:
        out, err = kind.call(params), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, err = None, exc
    return out, err, perf_counter() - t0


def judge(kind, params, out, err):
    """(answer or None, failed, problem or None) for one operation's output."""
    if err is None:
        try:
            answer = kind.answer(params, out)
        except W.OperationFailed as exc:
            err = exc
        except Exception:
            return None, False, f"{kind.name} {params}: answer unreadable\n{traceback.format_exc()}"
    if err is not None:
        if kind.known_fault:
            return None, True, None
        return None, True, f"{kind.name} {params}: unexpected failure {err!r}"
    try:
        kind.check(params, answer)
    except Exception as exc:
        return answer, False, f"{kind.name} {params}: {type(exc).__name__}: {exc}"
    return answer, False, None


def self_test(kinds, plan, answers) -> list:
    """Every check must reject a perturbed answer."""
    problems = []
    for kind in kinds:
        if kind.name not in answers and not kind.known_fault:
            continue
        params, answer = answers.get(kind.name, (plan(kind, 0), None))
        try:
            kind.check(params, kind.perturb(answer))
        except oracle.Mismatch:
            continue
        problems.append(f"self-test: check of {kind.name} accepted a perturbed answer")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    kinds = W.WORKLOADS[args.workload]
    out_dir = W.ROOT / ".bench_build" / "perfbench"
    work_dir = out_dir / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        if args.workload == "cli-cold":
            W.CLI = W.Cli(dict(os.environ), work_dir, in_process=bool(args.trace))
        if args.workload != "cli-cold" or args.trace:
            import ultraweight  # noqa: F401  (set-up pays the import)
        plan = Plan(kinds, args.seed)
        warm, params = kinds[0], plan(kinds[0], -1)
        _, failed, problem = judge(warm, params, *run_op(warm, params)[:2])
        if failed or problem:
            print(f"warm-up failed: {problem}", file=sys.stderr)
            return 1
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if W.CLI is not None:
            W.CLI.peak_rss_kb.clear()  # the warm-up process is not measured

        if args.trace:
            from tracing import Tracer, install
            tracer = Tracer()
            install(tracer)
        result = measure(kinds, plan, args, tracer)
        if tracer is not None:
            from tracing import import_times
            metrics = {**import_times(dict(os.environ), W.ROOT), **tracer.metrics()}
            dump = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(dump, {"workload": args.workload, "seed": args.seed,
                               "traced_throughput_ops_s": result["throughput"],
                               "metrics": metrics})
            print(f"spans: {len(tracer.spans)} written to {dump}; traced throughput "
                  f"{result['throughput']:.4g} ops/s", file=sys.stderr)
            units = {m: "count" if not m.endswith("_ms") else "ms" for m in metrics}
        else:
            metrics = result["metrics"]
            units = result["units"]
        print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": {k: {"value": v, "unit": units[k]}
                                      for k, v in metrics.items()}}), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def traced_passes(kinds, workload: str, seconds: float, need: int) -> int:
    """A traced run does a number of passes fixed by its arguments, so that
    its counts repeat exactly for a given seed and --seconds."""
    per_pass = sum(not k.known_fault for k in kinds)
    return max(math.ceil(need / per_pass), round(seconds / W.NOMINAL_PASS_S[workload]))


def measure(kinds, plan, args, tracer) -> dict:
    pct = W.TAIL_PERCENTILE[args.workload]
    need = tail_samples_needed(pct)
    lat = {k.name: [] for k in kinds}
    pass_times, work_ref, problems, answers, all_refs = [], [], [], {}, []
    attempted = failed = ok = 0
    fixed = traced_passes(kinds, args.workload, args.seconds, need) if tracer else None
    reps = math.ceil(REF_RUNS_PER_PASS / (len(kinds) + 1))
    start = perf_counter()

    def more(i: int) -> bool:
        if fixed is not None:
            return i < fixed
        elapsed = perf_counter() - start
        return i == 0 or ((elapsed < args.seconds or ok < need) and elapsed < MAX_MEASURE_S)

    i = 0
    while more(i):
        # the reference loop runs before every operation and after the last,
        # so that drift within a long pass reaches the denominator too
        refs, ops = [], []
        for kind in kinds:
            params = plan(kind, i)
            refs += time_reference(reps)
            if tracer is not None:
                tracer.op += 1
            ops.append((kind, params, *run_op(kind, params)))
        refs += time_reference(reps)
        for kind, params, out, err, dt in ops:
            answer, bad, problem = judge(kind, params, out, err)
            attempted += 1
            failed += bad
            if problem:
                problems.append(problem)
            if not bad:
                ok += 1
                lat[kind.name].append(dt)
                answers[kind.name] = (params, answer)
        t_pass = sum(op[4] for op in ops)
        pass_times.append(t_pass)
        work_ref.append(t_pass / statistics.median(refs))
        all_refs += refs
        i += 1
    problems += self_test(kinds, plan, answers)
    for p in problems:
        print(p, file=sys.stderr)

    samples = np.sort(np.concatenate([np.asarray(v) for v in lat.values()]))
    rank = math.ceil(pct / 100.0 * len(samples))
    if W.CLI is not None and W.CLI.peak_rss_kb:  # each CLI process's peak, averaged
        peak_mb = statistics.fmean(W.CLI.peak_rss_kb) / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "throughput_ops_s": ok / sum(pass_times),
        "work_ref": statistics.median(work_ref),
        "latency_p50_ms": 1e3 * float(np.median(samples)),
        "latency_tail_ms": 1e3 * float(samples[rank - 1]),
        "latency_geomean_ms": 1e3 * math.exp(statistics.fmean(
            math.log(statistics.median(v)) for v in lat.values() if v)),
        "peak_rss_mb": peak_mb,
    }
    print(f"{args.workload}: {i} passes, {ok} timed ok, tail = p{pct} "
          f"({len(samples) - rank} samples beyond)", file=sys.stderr)
    drift = 1e3 * np.percentile(all_refs, [5, 50, 95])
    print(f"reference loop over the run: median {drift[1]:.2f} ms, 5th-95th percentile "
          f"{drift[0]:.2f}-{drift[2]:.2f} ms", file=sys.stderr)
    units = {"throughput_ops_s": "ops/s", "work_ref": "ref", "latency_p50_ms": "ms",
             "latency_tail_ms": "ms", "latency_geomean_ms": "ms", "peak_rss_mb": "MB"}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "throughput": metrics["throughput_ops_s"], "metrics": metrics, "units": units}


if __name__ == "__main__":
    sys.exit(main())
