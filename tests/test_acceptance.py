"""End-to-end acceptance suite: eleven numbered criteria, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
``[PASS]``/``[FAIL]`` lines; each test also enforces its wall-clock budget.

Criterion 11 appears twice.  A geometric-step witness
omega(K^j t) <= C H^j sigma(t) with H < K exists exactly when the mixed index
gamma(sigma, omega) is strictly above 1, so the bare biconditional "witness
found exactly when the index upper bound exceeds 0.98" cannot hold on the
boundary pair sigma = omega = t: its index is exactly 1, a correct bracket
must reach 1.0 > 0.98, and a witness there would be a false certificate.  The
0.98 test therefore classifies each pair by its index bracket -- below
(upper <= 0.98: no witness), boundary (bracket meets (0.98, 1], upper <= 1:
no witness) and above (lower > 1: witness) -- and requires every class to be
non-empty.  The guard-band variant ("witness found exactly when the upper
bound exceeds 1 + tol") checks the same table with a single threshold.
"""

import math
import time

import numpy as np
import pytest

import ultraweight as uw
from ultraweight import conjugate_pl, constructions, young_conjugate

from conftest import brute_associated_log, brute_mixed_sup_seq


def emit(num, ok: bool, detail: str, elapsed: float, limit: float) -> None:
    in_time = elapsed <= limit
    status = "PASS" if (ok and in_time) else "FAIL"
    line = (f"[{status}] criterion {num}: {detail} "
            f"[{elapsed:.1f}s / limit {limit:.0f}s]")
    print(line)
    assert ok and in_time, line


def test_criterion_01_diagonal_indices_match_the_exponent():
    problems = []
    worst = 0.0
    for s in (1.5, 2.0, 3.0):
        start = time.perf_counter()
        M = uw.gevrey(s)
        gamma = uw.gamma_index_seq(M, M)
        mu = uw.mu_seq(M)
        for name, est in (("gamma", gamma), ("mu", mu)):
            if not (s - 0.02 <= est.lower <= est.upper <= s + 0.02):
                problems.append(f"{name}(s={s}) bracket "
                                f"[{est.lower}, {est.upper}]")
        # independent oracle: brute running sup of the defining quantity over
        # p <= 1e5 converges below the exponent and blows up above it
        lo = brute_mixed_sup_seq(M, M, s - 0.1, P=10 ** 5)
        hi = brute_mixed_sup_seq(M, M, s + 0.1, P=10 ** 5)
        if not lo[-1] <= 1.05 * lo[len(lo) // 2]:
            problems.append(f"brute sup at order {s - 0.1} not settled")
        if not (math.isinf(hi[-1]) or hi[-1] >= 1.2 * hi[len(hi) // 2]):
            problems.append(f"brute sup at order {s + 0.1} not growing")
        worst = max(worst, time.perf_counter() - start)
    emit(1, not problems,
         "; ".join(problems) or
         "sequence index and order brackets sit inside s +/- 0.02 for "
         "s in {1.5, 2, 3}, against brute suffix-sum oracles",
         worst, 10.0)


def test_criterion_02_cross_family_index_brackets():
    start = time.perf_counter()
    problems = []
    seq = uw.gamma_index_seq(uw.gevrey(1), uw.gevrey(2))
    if not (1.95 <= seq.lower <= seq.upper <= 2.05):
        problems.append(f"sequence pair bracket [{seq.lower}, {seq.upper}]")
    fun = uw.gamma_index_fun(uw.PowerLaw(0.5), uw.PowerLaw(1.0 / 3.0))
    if not (2.9 <= fun.lower <= fun.upper <= 3.1):
        problems.append(f"function pair bracket [{fun.lower}, {fun.upper}]")
    emit(2, not problems,
         "; ".join(problems) or
         f"mixed index brackets: sequences [{seq.lower:.4g}, {seq.upper:.4g}]"
         f" in [1.95, 2.05], functions [{fun.lower:.4g}, {fun.upper:.4g}] "
         "in [2.9, 3.1]",
         time.perf_counter() - start, 30.0)


def test_criterion_03_substitution_scaling_law():
    start = time.perf_counter()
    sigma, omega = uw.PowerLaw(0.5), uw.PowerLaw(1.0 / 3.0)
    base = uw.gamma_index_fun(sigma, omega).midpoint
    problems = []
    for r in (0.5, 2.0):
        sub = uw.gamma_index_fun(uw.power_substitute(sigma, r),
                                 uw.power_substitute(omega, r)).midpoint
        if abs(base - r * sub) > 0.05:
            problems.append(f"r={r}: |{base:.4g} - {r}*{sub:.4g}| "
                            f"= {abs(base - r * sub):.3g} > 0.05")
    emit(3, not problems,
         "; ".join(problems) or
         "index of substituted pair rescales by the exponent within 0.05 "
         "for r in {0.5, 2}",
         time.perf_counter() - start, 60.0)


def test_criterion_04_index_sandwich_on_ten_pairs():
    start = time.perf_counter()
    g1 = uw.associated_function(uw.gevrey(1))
    g2 = uw.associated_function(uw.gevrey(2))
    pairs = [
        (uw.PowerLaw(0.5), uw.PowerLaw(1.0 / 3.0)),
        (uw.PowerLaw(0.5), uw.PowerLaw(0.5)),
        (uw.PowerLaw(1.0), uw.PowerLaw(0.5)),
        (uw.PowerLaw(1.0 / 3.0), uw.PowerLaw(0.25)),
        (uw.PowerLaw(0.5), uw.LogPower(2.0)),
        (uw.PowerLaw(1.0), uw.PowerLaw(1.0 / 3.0)),
        (uw.PowerLaw(0.25), uw.PowerLaw(0.2)),
        (g1, g2),
        (uw.PowerLaw(2.0 / 3.0), uw.PowerLaw(1.0 / 3.0)),
        (uw.PowerLaw(1.0), uw.LogPower(1.0)),
    ]
    tol = 0.05
    problems = []
    diag_cache: dict = {}
    for i, (sigma, omega) in enumerate(pairs, start=1):
        if not uw.compare_preceq(sigma, omega).is_satisfied:
            problems.append(f"pair {i}: growth ordering not satisfied")
            continue
        key = id(omega)
        if key not in diag_cache:
            diag_cache[key] = (uw.gamma_index_fun(omega), uw.mu_fun(omega))
        diag, order = diag_cache[key]
        mixed = uw.gamma_index_fun(sigma, omega)
        if not diag.lower - tol <= mixed.upper:
            problems.append(f"pair {i}: diagonal {diag.lower:.4g} above "
                            f"mixed upper {mixed.upper:.4g}")
        if not mixed.lower <= order.upper + tol:
            problems.append(f"pair {i}: mixed lower {mixed.lower:.4g} above "
                            f"order {order.upper:.4g}")
    emit(4, not problems,
         "; ".join(problems) or
         "diagonal index <= mixed index <= quasianalyticity order (within "
         "0.05) on all 10 ordered pairs",
         time.perf_counter() - start, 120.0)


def test_criterion_05_sup_transform_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    families = {"factorial": uw.gevrey(1), "factorial^2": uw.gevrey(2),
                "q-geometric": uw.qgevrey(2)}
    problems = []
    for name, M in families.items():
        # substitution identity at 100 points per exponent
        for r in (0.5, 2.0):
            ts = np.exp(rng.uniform(0.5, 6.0, size=100))
            lhs = uw.associated_eval(M, ts ** r)
            rhs = r * uw.associated_eval(uw.power(M, 1.0 / r), ts)
            rel = np.max(np.abs(lhs - rhs) / np.maximum(np.abs(lhs), 1e-300))
            if rel > 1e-10:
                problems.append(f"{name}, r={r}: substitution defect {rel:.2e}")
        # brute-force sup over p <= 1000 at 50 fresh points
        for logt in rng.uniform(-2.0, 6.0, size=50):
            t = math.exp(logt)
            got = uw.associated_eval(M, t)
            want = brute_associated_log(M, t)
            if abs(got - want) > 1e-10 * max(1.0, abs(want)):
                problems.append(f"{name}, t={t:.3g}: sup defect "
                                f"{abs(got - want):.2e}")
                break
    emit(5, not problems,
         "; ".join(problems[:4]) or
         "substitution identity and brute-force sup agree to 1e-10 relative "
         "over three families",
         time.perf_counter() - start, 5.0)


def test_criterion_06_matrix_recovers_factorials():
    start = time.perf_counter()
    W = uw.associated_matrix(uw.associated_function(uw.gevrey(1)), j_max=20)
    problems = []
    level_one = np.exp(W.log_values(1.0))
    for j in range(21):
        expected = math.factorial(j)
        if abs(level_one[j] - expected) > 0.01 * expected:
            problems.append(f"W[1]_{j} = {level_one[j]:.6g} vs {j}!")
    for lo, hi in zip(W.levels, W.levels[1:]):
        if not np.all(W.log_values(hi) >= W.log_values(lo) - 1e-9):
            problems.append(f"levels {lo:g} -> {hi:g} not monotone")
    emit(6, not problems,
         "; ".join(problems[:4]) or
         "level-1 row matches j! within 1% for j <= 20; rows nondecreasing "
         "across all levels",
         time.perf_counter() - start, 10.0)


def test_criterion_07_conjugation_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(23)
    problems = []
    # (a) biconjugation fixes random convex piecewise-linear profiles
    for i in range(20):
        n = int(rng.integers(3, 9))
        xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, n))])
        slopes = np.cumsum(rng.uniform(0.05, 1.5, n + 1)) - 1.0
        vals = np.concatenate([[0.0], np.cumsum(slopes[:-1] * np.diff(xs))])
        pl = uw.ConvexPL(xs, vals, extrapolation_slope=float(slopes[-1]))
        back = conjugate_pl(conjugate_pl(pl))
        scale = max(1.0, float(np.max(np.abs(vals))))
        defect = float(np.max(np.abs(back(xs) - pl(xs))))
        if defect > 1e-9 * scale:
            problems.append(f"profile {i}: biconjugation defect {defect:.2e}")
    # (b) the conjugate of every normalized weight vanishes at 0
    inputs = [uw.normalize(uw.PowerLaw(a, c))
              for a, c in zip(rng.uniform(0.3, 1.5, 12),
                              rng.uniform(0.5, 2.0, 12))]
    inputs += [uw.normalize(uw.LogPower(k)) for k in (1.0, 2.0, 3.0)]
    inputs += [uw.normalize(uw.kappa(uw.PowerLaw(0.5))),
               uw.kappa_power_normalized(uw.PowerLaw(1.0 / 3.0), 2.0),
               uw.normalize(uw.power_substitute(uw.PowerLaw(0.5), 2.0)),
               uw.normalize(uw.associated_function(uw.gevrey(2))),
               uw.normalize(uw.associated_function(uw.gevrey(1)))]
    assert len(inputs) == 20
    for fn in inputs:
        at_zero = abs(young_conjugate(fn).value(0.0))
        if at_zero > 1e-9:
            problems.append(f"{fn.label}: conjugate at 0 is {at_zero:.2e}")
    # (c) closed form for the clamped linear weight max(0, t - 1):
    # conj(x) = x log x - x + 1 above slope 1, zero below
    conj = young_conjugate(uw.normalize(uw.PowerLaw(1.0)))
    for x in np.linspace(0.0, 8.0, 33):
        expected = x * math.log(x) - x + 1.0 if x >= 1.0 else 0.0
        got = conj.value(float(x))
        if abs(got - expected) > 1e-3:
            problems.append(f"closed form at x={x:.3g}: {got:.6g} vs "
                            f"{expected:.6g}")
    emit(7, not problems,
         "; ".join(problems[:4]) or
         "biconjugation fixpoint (1e-9), normalized conjugates vanish at 0 "
         "(20 inputs), clamped-linear closed form (1e-3)",
         time.perf_counter() - start, 5.0)


def test_criterion_08_descendant_of_squared_factorials():
    start = time.perf_counter()
    N = uw.gevrey(2)
    pair = uw.descendant(N, 1.0)
    problems = []
    if abs(pair.tau_1 - (1.0 + math.pi ** 2 / 6.0)) > 1e-9:
        problems.append(f"tau_1 = {pair.tau_1!r}")
    if abs(pair.S.value(1) - 1.0) > 1e-12:
        problems.append(f"sigma_1 = {pair.S.value(1)!r}")
    if abs(pair.S.value(2) - 4.62029) > 1e-4:
        problems.append(f"sigma_2 = {pair.S.value(2)!r}")
    if not pair.checks["slc_S"].is_satisfied:
        problems.append("core not strongly log-convex")
    if not (math.isfinite(pair.lambda_bound) and pair.lambda_bound > 0):
        problems.append(f"lambda bound {pair.lambda_bound!r}")
    if not uw.mixed_condition_seq(pair.L, N, 0.95).is_satisfied:
        problems.append("mixed comparison at order 0.95 not satisfied")
    emit(8, not problems,
         "; ".join(problems) or
         f"tau_1 = 1 + pi^2/6, sigma_1 = 1, sigma_2 = {pair.S.value(2):.6f}, "
         "strong log-convexity and the order-0.95 comparison all hold",
         time.perf_counter() - start, 10.0)


def test_criterion_09_reduction_glue_certificates(monkeypatch):
    start = time.perf_counter()
    monkeypatch.setattr(constructions, "_SANDWICH_SAMPLES", 1000)
    built = uw.reduction_build(uw.PowerLaw(0.5), uw.PowerLaw(1.0 / 3.0),
                               uw.PowerLaw(1.0), n_break=12)
    problems = []
    w = built.witness
    if (w.C, w.K, w.H, w.t0) != (1.0, 8.0, 3.0, 1.0):
        problems.append(f"witness ({w.C}, {w.K}, {w.H}, {w.t0})")
    if abs(built.breakpoints[1] - 16.0) > 0.01:
        problems.append(f"x_2 = {built.breakpoints[1]!r}")
    for name in ("omega", "sigma"):
        rep = built.diagnostics["sandwich"][name]
        if rep["violations"] != 0:
            problems.append(f"{name} sandwich violations: {rep['violations']}")
        if rep["samples"] < 1000 * (len(built.breakpoints) - 2):
            problems.append(f"{name} sandwich undersampled: {rep['samples']}")
    cont = built.diagnostics["continuity"]
    if max(cont.values()) > 1e-9:
        problems.append(f"continuity defect {max(cont.values()):.2e}")
    dom = built.diagnostics["output_domination"]
    if not (dom["passed"] and len(dom["rows"]) == 21):
        problems.append(f"output domination: {dom['passed']}, "
                        f"{len(dom['rows'])} rows")
    emit(9, not problems,
         "; ".join(problems) or
         "witness (1, 8, 3, 1); x_2 = 16; sandwich clean at 1000 points per "
         "segment; glue continuous; domination holds for j <= 20",
         time.perf_counter() - start, 60.0)


def test_criterion_10_kernel_average_closed_form():
    start = time.perf_counter()
    problems = []
    k = uw.kappa(uw.PowerLaw(0.5))
    ts = np.geomspace(1.0, 1e6, 200)
    rel = np.max(np.abs(k.eval(ts) - 2.0 * np.sqrt(ts)) / (2.0 * np.sqrt(ts)))
    if rel > 1e-6:
        problems.append(f"kernel average of sqrt off by {rel:.2e}")
    out = uw.kappa_power_normalized(uw.PowerLaw(1.0 / 3.0), 2.0)
    if not out.construction_check.is_satisfied:
        problems.append("attached construction check not satisfied")
    direct = uw.mixed_condition_fun(out, uw.PowerLaw(1.0 / 3.0), 1.9)
    if not direct.is_satisfied:
        problems.append(f"direct order-1.9 comparison: {direct.status.value}")
    emit(10, not problems,
         "; ".join(problems) or
         "kappa(sqrt) = 2 sqrt within 1e-6 on [1, 1e6]; normalized order-2 "
         "average passes its comparison at order 1.9",
         time.perf_counter() - start, 30.0)


WITNESS_PAIRS = [
    ("sqrt/cbrt", uw.PowerLaw(0.5), uw.PowerLaw(1.0 / 3.0)),
    ("sqrt/sqrt", uw.PowerLaw(0.5), uw.PowerLaw(0.5)),
    ("linear/sqrt", uw.PowerLaw(1.0), uw.PowerLaw(0.5)),
    ("cbrt/fourth", uw.PowerLaw(1.0 / 3.0), uw.PowerLaw(0.25)),
    ("linear/cbrt", uw.PowerLaw(1.0), uw.PowerLaw(1.0 / 3.0)),
    ("t^(2/3)/cbrt", uw.PowerLaw(2.0 / 3.0), uw.PowerLaw(1.0 / 3.0)),
    ("fourth/fifth", uw.PowerLaw(0.25), uw.PowerLaw(0.2)),
    ("linear/linear", uw.PowerLaw(1.0), uw.PowerLaw(1.0)),
    ("sqrt/log^2", uw.PowerLaw(0.5), uw.LogPower(2.0)),
    ("log/log", uw.LogPower(1.0), uw.LogPower(1.0)),
    ("linear/log", uw.PowerLaw(1.0), uw.LogPower(1.0)),
    ("assoc pair", None, None),  # filled in lazily below
    ("square/square", uw.PowerLaw(2.0), uw.PowerLaw(2.0)),
    ("t^1.25/t^1.25", uw.PowerLaw(1.25), uw.PowerLaw(1.25)),
]


def _witness_rows():
    rows = []
    for name, sigma, omega in WITNESS_PAIRS:
        if sigma is None:
            sigma = uw.associated_function(uw.gevrey(1))
            omega = uw.associated_function(uw.gevrey(2))
        found = uw.find_gamma1_witness(sigma, omega) is not None
        est = uw.gamma_index_fun(sigma, omega)
        rows.append((name, found, est.lower, est.upper))
    return rows


def test_criterion_11_witness_iff_index_above_098():
    start = time.perf_counter()
    cutoff = 0.98
    classes = {"below": [], "boundary": [], "above": []}
    mismatches = []
    for name, found, lower, upper in _witness_rows():
        if upper <= cutoff:
            classes["below"].append(name)
            if found:
                mismatches.append(f"{name}: witness with upper={upper:.4g}")
        elif lower > 1.0:
            classes["above"].append(name)
            if not found:
                mismatches.append(f"{name}: no witness with lower={lower:.4g}")
        else:
            classes["boundary"].append(name)
            if upper <= 1.0 and found:
                mismatches.append(f"{name}: witness with bracket "
                                  f"[{lower:.4g}, {upper:.4g}] inside "
                                  f"({cutoff}, 1]")
    mismatches += [f"no pair in the {label} class"
                   for label, names in classes.items() if not names]
    counts = ", ".join(f"{len(names)} {label}"
                       for label, names in classes.items())
    emit("11 (cutoff 0.98)", not mismatches,
         "; ".join(mismatches) or
         f"no witness at upper <= {cutoff} or at index bracket within "
         f"({cutoff}, 1], a witness whenever lower > 1 ({counts} of "
         f"{len(WITNESS_PAIRS)} pairs)",
         time.perf_counter() - start, 120.0)


def test_criterion_11_witness_iff_index_above_one_guard_band():
    start = time.perf_counter()
    tol = 0.02
    mismatches = [f"{name}: witness={found}, upper={upper:.4g}"
                  for name, found, _, upper in _witness_rows()
                  if found != (upper > 1.0 + tol)]
    emit("11 (guard band)", not mismatches,
         "; ".join(mismatches) or
         f"witness existence equals (upper bound > 1 + 0.02) on all "
         f"{len(WITNESS_PAIRS)} pairs including the boundary linear/linear "
         "pair",
         time.perf_counter() - start, 120.0)
