"""Answers computed apart from the program, and the checks that use them.

Nothing here imports ``ultraweight``.  Every check takes the parameters an
operation was generated from and the answer extracted from the program's
output, and raises ``Mismatch`` when they disagree.  Each answer shape has a
``perturb_*`` function; the harness self-test applies it to a real answer
and requires the check to fail.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, zeta

INDEX_CAP = 64.0          # documented cap of an unbounded index bracket
BRACKET_TOL = 0.01        # default index tolerance; brackets are <= 3 * tol wide


class Mismatch(AssertionError):
    """The program's answer disagrees with the independent computation."""


def require(ok, message: str) -> None:
    if not ok:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# independent associated functions

def assoc_gevrey(s: float, t) -> np.ndarray:
    """sup_p (p log t - s log p!) by its maximizer p = floor(t^(1/s)) (+-1)."""
    t = np.asarray(t, dtype=float)
    lt = np.log(np.maximum(t, 1e-300))
    p0 = np.floor(np.exp(lt / s))
    best = np.zeros_like(lt)
    for d in (-1.0, 0.0, 1.0):
        p = np.maximum(p0 + d, 0.0)
        best = np.maximum(best, p * lt - s * gammaln(p + 1.0))
    return best


def assoc_qgevrey(q: float, t) -> np.ndarray:
    """sup_p (p log t - p^2 log q); quotients q^(2p-1) locate the maximizer."""
    t = np.asarray(t, dtype=float)
    lt = np.log(np.maximum(t, 1e-300))
    lq = math.log(q)
    p0 = np.floor((lt / lq + 1.0) / 2.0)
    best = np.zeros_like(lt)
    for d in (-1.0, 0.0, 1.0):
        p = np.maximum(p0 + d, 0.0)
        best = np.maximum(best, p * lt - p * p * lq)
    return best


def kappa_power_normalized_quad(a: float, r: float, t: float) -> float:
    """(1/r) t^(1/r) int_t^inf u^a u^(-1-1/r) du minus its value at 1, by quad."""
    def raw(x: float) -> float:
        # u = e^v turns the integrand into e^((a - 1/r) v)
        tail = quad(lambda v: math.exp((a - 1.0 / r) * v), math.log(x), math.inf)[0]
        return x ** (1.0 / r) * tail / r
    return 0.0 if t <= 1.0 else raw(t) - raw(1.0)


def close(got, want, rtol: float, what: str) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    worst = int(np.argmax(err)) if err.size else 0
    require(err.size and float(err.flat[worst]) <= rtol,
            f"{what}: relative error {float(err.flat[worst]) if err.size else 'n/a'}"
            f" > {rtol} at index {worst}")


# ---------------------------------------------------------------------------
# answer shape: index bracket {lower, upper}

def check_bracket(answer, expected) -> None:
    """expected: a number the bracket must contain, or "unbounded"."""
    lo, hi = float(answer["lower"]), float(answer["upper"])
    require(0.0 <= lo <= hi <= INDEX_CAP, f"bracket [{lo}, {hi}] out of order")
    unbounded = hi >= INDEX_CAP - 1e-9
    if expected == "unbounded":
        require(unbounded, f"bracket [{lo}, {hi}] should be unbounded")
        return
    require(not unbounded, f"bracket [{lo}, {hi}] flagged unbounded, expected {expected}")
    require(hi - lo <= 3 * BRACKET_TOL + 1e-12, f"bracket [{lo}, {hi}] wider than 3*tol")
    require(lo - 1e-9 <= expected <= hi + 1e-9,
            f"bracket [{lo}, {hi}] misses {expected}")


def check_valid_bracket(answer, _expected=None) -> None:
    """Only the bracket structure: the after-fix check of the short-list case."""
    lo, hi = float(answer["lower"]), float(answer["upper"])
    require(0.0 <= lo <= hi <= INDEX_CAP, f"bracket [{lo}, {hi}] out of order")


def perturb_bracket(answer):
    if float(answer["upper"]) >= INDEX_CAP - 1e-9:
        return {"lower": 1.0, "upper": 1.02}
    return {"lower": float(answer["upper"]) + 0.5, "upper": float(answer["upper"]) + 0.52}


# ---------------------------------------------------------------------------
# answer shape: condition statuses {condition: status}

OMEGA_CONDITIONS = ("omega1", "omega2", "omega3", "omega4", "omega5", "omega6",
                    "omega_nq", "omega_snq")


def expected_omega_status(cond: str, s: float) -> str:
    """Statuses of assoc(gevrey:s), whose gauge grows like s t^(1/s)."""
    if cond in ("omega5", "omega_nq", "omega_snq"):
        return "satisfied" if s > 1.0 else "violated"
    if cond == "omega2":
        return "satisfied" if s >= 1.0 else "violated"
    return "satisfied"  # omega1, omega3, omega4, omega6 hold for every s


def check_statuses(answer, expected) -> None:
    require(dict(answer) == dict(expected), f"statuses {answer} != {expected}")


def perturb_statuses(answer):
    flip = {"satisfied": "violated", "violated": "satisfied",
            "inconclusive": "satisfied"}
    return {k: flip[v] for k, v in answer.items()}


# ---------------------------------------------------------------------------
# answer shape: geometric-step witness {C, K, H, t0, j_max} or None

WITNESS_T_MAX = 1e8      # the tested grid named in find_gamma1_witness
WITNESS_T_POINTS = 160


def check_witness(answer, s) -> None:
    """sigma = omega = assoc(gevrey:s): a witness exists iff the index s > 1."""
    if s < 1.0:
        require(answer is None, f"witness {answer} returned at index {s} < 1")
        return
    require(answer is not None, f"no witness at index {s} > 1")
    C, K, H, t0, j_max = (float(answer[k]) for k in ("C", "K", "H", "t0", "j_max"))
    require(K > H > 1.0 and t0 >= 0.0, f"witness constants {answer} malformed")
    ts = np.geomspace(max(t0, 1e-2), WITNESS_T_MAX, WITNESS_T_POINTS)
    sig = assoc_gevrey(s, ts)
    for j in range(int(j_max) + 1):
        lhs = assoc_gevrey(s, K ** j * ts)
        require(np.all(lhs <= C * H ** j * sig * (1.0 + 1e-9) + 1e-12),
                f"witness {answer} fails at j={j}")


def perturb_witness(answer):
    if answer is None:
        return {"C": 1.0, "K": 2.0, "H": 1.5, "t0": 1.0, "j_max": 30}
    return {**answer, "C": answer["C"] / 1024.0}


# ---------------------------------------------------------------------------
# answer shape: sampled values {"t": [...], "v": [...]} against a reference

def perturb_values(answer):
    return {**answer, "v": np.asarray(answer["v"], dtype=float) * 1.05 + 0.5}


def check_assoc_values(answer, ref, rtol: float = 1e-9) -> None:
    """ref = ("gevrey", s) or ("qgevrey", q)."""
    family, x = ref
    fn = assoc_gevrey if family == "gevrey" else assoc_qgevrey
    close(answer["v"], fn(x, answer["t"]), rtol, f"assoc({family}:{x:g})")


def check_conjugate_values(answer, s) -> None:
    """Young conjugate of assoc(gevrey:s) at integer p is s log p!."""
    p = np.asarray(answer["t"], dtype=float)
    close(answer["v"], s * gammaln(p + 1.0), 1e-9, f"conjugate at s={s:g}")


def check_matrix_rows(answer, s) -> None:
    """Row l: conj(l j)/l, where conj interpolates s log p! between integers.

    The program refines its conjugate until the top entry moves by <= 1e-3
    on the log scale, so rows are compared to 1e-2 on the log scale.
    """
    for l, row in answer["rows"].items():
        x = float(l) * np.arange(len(row), dtype=float)
        lo = np.floor(x)
        frac = x - lo
        ref = ((1.0 - frac) * gammaln(lo + 1.0) + frac * gammaln(lo + 2.0)) * s / float(l)
        close(row, ref, 1e-2, f"matrix row l={l}")


def perturb_matrix(answer):
    return {"rows": {l: np.asarray(r) * 1.05 + 0.5 for l, r in answer["rows"].items()}}


def check_kappa_values(answer, params) -> None:
    a, r = params
    want = [kappa_power_normalized_quad(a, r, float(t)) for t in answer["t"]]
    close(answer["v"], want, 1e-4, f"kappa of power:{a:g} at r={r:g}")


# ---------------------------------------------------------------------------
# answer shape: descendant {tau_1, statuses, S, L}

def check_descendant(answer, params) -> None:
    """tau_1 = 1 + zeta(s/r) for gevrey:s; S strongly log-convex; L = S^r."""
    s, r = params
    tau = 1.0 + float(zeta(s / r))
    close(answer["tau_1"], tau, 1e-9, "tau_1")
    check_statuses(answer["checks"], {k: "satisfied" for k in answer["checks"]})
    require(set(answer["checks"]) == {"slc_S", "mixed_L_N"},
            f"descendant checks {sorted(answer['checks'])}")
    if "S" in answer:
        S, L = np.asarray(answer["S"]), np.asarray(answer["L"])
        p = np.arange(len(S), dtype=float)
        reduced = S - gammaln(p + 1.0)  # log(S_p / p!) convex <=> strongly log-convex
        require(np.all(np.diff(reduced, 2) >= -1e-9), "S not strongly log-convex")
        close(L, r * S, 1e-12, "L = S^r")


def perturb_descendant(answer):
    return {**answer, "tau_1": answer["tau_1"] * 1.05 + 0.5}


# ---------------------------------------------------------------------------
# answer shape: reduction glue

def glue_values(base_exp: float, xs, t) -> np.ndarray:
    """n * base(t) - sum_{x_i <= t} base(x_i) on [x_n, x_{n+1}), base = t^a."""
    t = np.asarray(t, dtype=float)
    bp = np.asarray(xs[1:], dtype=float)
    n = 1 + np.searchsorted(bp, t, side="right")
    offsets = np.concatenate([[0.0], np.cumsum(bp ** base_exp)])
    return n * t ** base_exp - offsets[n - 1]


REDUCE_TS = np.geomspace(1.0, 1e12, 97)


def check_reduction(answer, params) -> None:
    """sigma = t^a, omega = t^b, f = t^c glued at the reported breakpoints."""
    a, b, c, n_break = params
    xs = np.asarray(answer["xs"], dtype=float)
    require(len(xs) == n_break and xs[0] == 0.0 and np.all(np.diff(xs) > 0),
            f"breakpoints {xs.tolist()} malformed")
    close(answer["omega_tilde"], glue_values(b, xs, REDUCE_TS), 1e-9, "omega_tilde")
    close(answer["sigma_tilde"], glue_values(a, xs, REDUCE_TS), 1e-9, "sigma_tilde")
    for n in range(2, n_break + 1):
        lo = xs[n - 1]
        hi = xs[n] if n < n_break else 10.0 * xs[-1]
        ts = np.geomspace(lo, hi, 40, endpoint=False)
        for e in (a, b):
            g, base = glue_values(e, xs, ts), ts ** e
            scale = np.maximum(1.0, n * base)
            require(np.all(g <= n * base + 1e-9 * scale)
                    and np.all(g >= (n - 2) * base - 1e-9 * scale),
                    f"glue of t^{e:g} leaves its sandwich on segment {n}")
        require(np.all(ts ** c >= n * n * ts ** a * (1.0 - 1e-9)),
                f"f < {n * n} sigma on segment {n}")
    C, K, H, t0 = (float(answer[k]) for k in ("C", "K", "H", "t0"))
    require(K > H > 1.0, "witness needs K > H > 1")
    ts = np.geomspace(max(t0, 1e-2), WITNESS_T_MAX, WITNESS_T_POINTS)
    for j in range(31):
        require(np.all((K ** j * ts) ** b <= C * H ** j * ts ** a * (1.0 + 1e-9)),
                f"input witness fails at j={j}")
    C1, H1 = float(answer["C1"]), float(answer["H1"])
    ts = np.geomspace(1.0, 1e6, 160)
    sg = glue_values(a, xs, ts)
    for j in range(21):
        require(np.all(glue_values(b, xs, K ** j * ts) <= C1 * H1 ** j * sg * (1.0 + 1e-9)),
                f"glued witness fails at j={j}")


def perturb_reduction(answer):
    return {**answer, "omega_tilde": np.asarray(answer["omega_tilde"]) * 1.05 + 0.5}

