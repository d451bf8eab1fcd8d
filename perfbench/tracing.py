"""Per-layer tracing of the program, installed from outside it.

``install`` wraps every public function and method of each module of the
package, plus the private seams in ``SEAMS``, and re-points every
module-level reference to them: re-imports such as
``indices.check_omega_condition`` and dispatch tables such as
``functions._CHECKS`` included.  Each call records a span (id, parent,
operation, name, start, end) in memory.  A span's self time is its duration
minus the time of its child spans; ``metrics`` turns spans and the counters
taken at the same boundaries into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import re
import statistics
import subprocess
import sys
import types
from time import perf_counter

import numpy as np

MODULES = ("verdict", "sequences", "functions", "quadrature", "indices",
           "constructions", "specio", "report", "cli")
SEAMS = {"indices": ("_bisect_index",), "constructions": ("_refined_conjugate",)}

QUADRATURE = r"quadrature\.(kernel_window|integral_to_infinity|suffix_integral_grid)$"
# scalar functions called once per evaluation point (millions of calls in a
# run): timed and counted into their parent span, not stored as spans
POINTWISE = ("sequences.TailModel.count_quotients_below", "sequences.TailModel.log_value")

# name -> (how, span-name pattern or counter)
#   incl:  time inside the outermost span matching the pattern
#   self:  span time minus child-span time, summed over matching spans
#   calls: matching spans; outer: only those not nested in another match
#   layer: self time of every span of one module
#   count: a counter taken at a span boundary
METRICS = {
    "specio.parse_ms": ("layer", "specio"),
    "specio.parse_calls": ("calls", r"specio\.make_(function|sequence)$"),
    "report.emit_ms": ("layer", "report"),
    "cli.main_self_ms": ("layer", "cli"),
    "sequences.ensure_ms": ("incl", r"sequences\.WeightSequence\.ensure$"),
    "sequences.ensure_calls": ("calls", r"sequences\.WeightSequence\.ensure$"),
    "sequences.quotients_generated": ("count", "quotients"),
    "sequences.tail_count_ms": ("incl", r"sequences\.TailModel\.count_quotients_below$"),
    "sequences.tail_count_calls": ("calls", r"sequences\.TailModel\.count_quotients_below$"),
    "sequences.predicate_ms": ("incl", r"sequences\.(check_\w+|compare|sup_ratio_sweep|"
                                       r"suffix_power_sums|finish_sup_verdict)$"),
    "functions.assoc_eval_ms": ("incl", r"functions\.AssociatedOf\.eval$"),
    "functions.assoc_eval_calls": ("calls", r"functions\.AssociatedOf\.eval$"),
    "functions.assoc_eval_points": ("count", "assoc_points"),
    "functions.kappa_eval_ms": ("incl", r"functions\.KappaPower\.eval$"),
    "functions.kappa_eval_points": ("count", "kappa_points"),
    "functions.check_ms": ("incl", r"functions\.(check_omega\w*|compare_\w+|equivalent_fun)$"),
    "functions.check_calls": ("calls", r"functions\.check_omega_condition$"),
    "functions.convexify_ms": ("incl", r"functions\.convexify$"),
    "functions.convexify_points": ("count", "convexify_points"),
    "functions.conjugate_ms": ("incl", r"functions\.conjugate_pl$"),
    "quadrature.window_ms": ("incl", QUADRATURE),
    "quadrature.window_calls": ("outer", QUADRATURE),
    "quadrature.integrand_points": ("count", "integrand_points"),
    "indices.probes": ("calls", r"indices\.probe$"),
    "indices.probe_ms": ("incl", r"indices\.probe$"),
    "indices.bisect_self_ms": ("self", r"indices\._bisect_index$"),
    "indices.witness_ms": ("incl", r"indices\.find_gamma1_witness$"),
    "constructions.omega_hat_ms": ("incl", r"constructions\.omega_hat$"),
    "constructions.matrix_ms": ("incl", r"constructions\.associated_matrix$"),
    "constructions.descendant_ms": ("incl", r"constructions\.descendant$"),
    "constructions.reduction_ms": ("incl", r"constructions\.reduction_build$"),
    "constructions.kappa_ms": ("incl", r"constructions\.(kappa|kappa_power_normalized)$"),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.sets: list[tuple[str, ...]] = []   # name id -> metrics it belongs to
        self.spans: list[tuple] = []            # (id, parent, op, name id, start, end)
        self.stack: list[list] = []             # open [id, name id, start, child time]
        self.op = -1
        self.next_id = 0
        self.self_time = collections.Counter()  # name id -> seconds
        self.calls = collections.Counter()      # name id -> calls
        self.depth = collections.Counter()      # metric -> open matching spans
        self.total = collections.Counter()      # metric -> seconds or calls
        self.counts = collections.Counter()

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.sets.append(tuple(m for m, (how, pat) in METRICS.items()
                                   if how not in ("layer", "count") and re.match(pat, name)))
        return self.name_ids[name]

    def wrap(self, name: str, fn, pre=None):
        """fn wrapped in a span; pre(args, kwargs) -> (args, kwargs, post)."""
        nid = self.name_id(name)
        stack, sets = self.stack, self.sets[nid]
        if name in POINTWISE:
            return self.wrap_pointwise(nid, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            post = None
            if pre is not None:
                args, kwargs, post = pre(args, kwargs)
            for m in sets:
                self.depth[m] += 1
            frame = [self.next_id, nid, perf_counter(), 0.0]
            self.next_id += 1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.close(frame, end, sets)
                if post is not None:
                    post()
        return traced

    def wrap_pointwise(self, nid: int, fn):
        stack, sets = self.stack, self.sets[nid]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                if stack:
                    stack[-1][3] += dur
                self.self_time[nid] += dur
                self.calls[nid] += 1
                for m in sets:  # never nested in itself: incl and calls add up
                    self.total[m] += 1 if METRICS[m][0] == "calls" else dur
        return traced

    def close(self, frame, end, sets) -> None:
        sid, nid, start, child = frame
        dur = end - start
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        self.self_time[nid] += dur - child
        self.calls[nid] += 1
        self.spans.append((sid, parent[0] if parent else -1, self.op, nid, start, end))
        for m in sets:
            self.depth[m] -= 1
            how = METRICS[m][0]
            if how == "calls":
                self.total[m] += 1
            elif how == "self":
                self.total[m] += dur - child
            elif self.depth[m] == 0:
                self.total[m] += 1 if how == "outer" else dur

    # -- counters at span boundaries -------------------------------------

    def count_points(self, key: str, pos: int):
        def pre(args, kwargs):
            self.counts[key] += int(np.size(args[pos]))
            return args, kwargs, None
        return pre

    def ensure_pre(self, args, kwargs):
        seq = args[0]
        before = len(seq._data[0])

        def post():
            self.counts["quotients"] += len(seq._data[0]) - before
        return args, kwargs, post

    def bisect_pre(self, args, kwargs):
        args = list(args)
        args[1] = self.wrap("indices.probe", args[1])
        return tuple(args), kwargs, None

    def quadrature_pre(self, args, kwargs):
        if self.depth["quadrature.window_ms"] == 0:  # outermost window only
            f = args[0]

            def integrand(u):
                self.counts["integrand_points"] += int(np.size(u))
                return f(u)
            args = (integrand,) + tuple(args[1:])
        return args, kwargs, None

    def pre_for(self, name: str):
        if name in ("functions.AssociatedOf.eval", "functions.KappaPower.eval"):
            return self.count_points("assoc_points" if "Assoc" in name else "kappa_points", 1)
        if name == "functions.convexify":
            return self.count_points("convexify_points", 0)
        if name == "sequences.WeightSequence.ensure":
            return self.ensure_pre
        if name == "indices._bisect_index":
            return self.bisect_pre
        if re.match(QUADRATURE, name):
            return self.quadrature_pre
        return None

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        out = {}
        for m, (how, pat) in METRICS.items():
            if how == "layer":
                value = 1e3 * sum(t for nid, t in self.self_time.items()
                                  if self.names[nid].startswith(pat + "."))
            elif how == "count":
                value = self.counts[pat]
            elif how in ("calls", "outer"):
                value = self.total[m]
            else:
                value = 1e3 * self.total[m]
            out[m] = value
        return out

    def dump(self, path, extra: dict) -> None:
        per_name = {self.names[nid]: {"calls": self.calls[nid], "self_ms": 1e3 * t}
                    for nid, t in self.self_time.items()}
        with open(path, "w") as fh:
            json.dump({**extra, "names": self.names, "self_by_name": per_name,
                       "span_columns": ["id", "parent", "op", "name", "start", "end"],
                       "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    import ultraweight
    mods = [importlib.import_module(f"ultraweight.{m}") for m in MODULES]
    swapped = {}
    for mod in mods:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                if attr.startswith("_") and attr not in SEAMS.get(layer, ()):
                    continue
                if not inspect.isgeneratorfunction(obj):
                    name = f"{layer}.{attr}"
                    swapped[obj] = tracer.wrap(name, obj, tracer.pre_for(name))
            elif isinstance(obj, type):
                for mname, member in list(vars(obj).items()):
                    fn = member.__func__ if isinstance(member, staticmethod) else member
                    if (mname.startswith("_") or not isinstance(fn, types.FunctionType)
                            or inspect.isgeneratorfunction(fn)):
                        continue
                    name = f"{layer}.{obj.__name__}.{mname}"
                    w = tracer.wrap(name, fn, tracer.pre_for(name))
                    setattr(obj, mname, staticmethod(w) if isinstance(member, staticmethod) else w)
    for mod in (ultraweight, *mods):
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, types.FunctionType) and obj in swapped:
                setattr(mod, attr, swapped[obj])
            elif isinstance(obj, dict):
                for key, val in list(obj.items()):
                    if isinstance(val, types.FunctionType) and val in swapped:
                        obj[key] = swapped[val]


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def import_times(env: dict, cwd, runs: int = 3) -> dict:
    """import.* metrics from `-X importtime` in fresh interpreters (median)."""
    samples = collections.defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ultraweight.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        entries = [(len(m.group(3)), m.group(4), int(m.group(2)))
                   for m in map(_IMPORT_LINE.match, proc.stderr.splitlines()) if m]
        # a module is printed after its imports; its parent is the next line
        # with a smaller indent
        sums = collections.Counter()
        stack: list[tuple[int, str]] = []
        for depth, name, cum in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            parent = stack[-1][1] if stack else ""
            for top in ("ultraweight", "scipy", "numpy"):
                if name.split(".")[0] == top and parent.split(".")[0] != top:
                    sums[top] += cum
            stack.append((depth, name))
        for top, key in (("ultraweight", "import.total_ms"), ("scipy", "import.scipy_ms"),
                         ("numpy", "import.numpy_ms")):
            samples[key].append(sums[top] / 1e3)
    return {k: statistics.median(v) for k, v in samples.items()}
