"""Growth indices and quasianalyticity orders via condition bisection.

Every index here has the form sup{r > 0 : condition at order r holds}, where
the condition is monotone in r: holding at some order implies holding at every
smaller one.  The engine brackets the supremum by probing the condition at
sampled orders, expanding geometrically from r = 1 and then bisecting.  Probes
at distinct r are independent pure evaluations; they are cached by r and the
estimate is assembled single-threaded from the sorted trace, so a concurrent
probe runner would produce the identical result.

Bookkeeping is deliberately asymmetric: an Inconclusive probe pulls the upper
end of the bracket down but never raises the lower end.  Uncertainty therefore
widens the estimate instead of overstating the index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any, Callable, Mapping, Optional

import numpy as np

from .functions import MixedFunProbe, OmegaNodes, WeightFunction, _shape_cmp
from .sequences import (PRECONDITION_P, RatioSweep, SuffixSums,
                        WeightSequence, check_nq_r, log_ratio_limit,
                        require_log_convex)
from .special import hurwitz_zeta
from .verdict import (INDEX_CAP, QUOTIENT_RATIO_STEP, ConditionVerdict,
                      InternalInconsistency, InvalidArgument, RunConfig,
                      UltraweightError, _jsonify)

INDEX_FLOOR = 1.0 / 64.0  # smallest order probed while expanding downward
_PROBE_BUDGET = 40


# ---------------------------------------------------------------------------
# estimate container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexEstimate:
    """Bracket [lower, upper] for an index, with the full probe trace.

    upper == INDEX_CAP encodes "unbounded beyond the tested range".  The
    constructor enforces the trace structure: probes at or below `lower` must
    be Satisfied, probes at or above `upper` must not be (except at the cap
    sentinel), and no Satisfied probe may sit above a Violated one.
    """

    name: str
    lower: float
    upper: float
    method: str
    tolerance: float
    r_samples: tuple[tuple[float, ConditionVerdict], ...]
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= INDEX_CAP):
            raise InternalInconsistency(
                f"{self.name}: bracket [{self.lower}, {self.upper}] out of order")
        eps = 1e-12 * max(1.0, self.upper)
        sat = [r for r, v in self.r_samples if v.is_satisfied]
        vio = [r for r, v in self.r_samples if v.is_violated]
        if sat and vio and min(vio) < max(sat) - eps:
            raise InternalInconsistency(
                f"{self.name}: Violated at r={min(vio)} below Satisfied at "
                f"r={max(sat)}; the condition is not monotone in r")
        for r, v in self.r_samples:
            if not v.is_satisfied and r < self.lower - eps:
                raise InternalInconsistency(
                    f"{self.name}: non-Satisfied probe at r={r} below lower={self.lower}")
            if v.is_satisfied and r > self.upper + eps and not self.unbounded:
                raise InternalInconsistency(
                    f"{self.name}: Satisfied probe at r={r} above upper={self.upper}")

    @property
    def unbounded(self) -> bool:
        return self.upper >= INDEX_CAP - 1e-9

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def to_dict(self) -> dict:
        samples = []
        for r, v in self.r_samples:
            d = v.to_dict()  # its condition and diagnostics stay out
            del d["condition"]
            d.pop("diagnostics", None)
            samples.append({"r": r, "verdict": d.pop("status"), **d})
        return {"index": self.name, "lower": self.lower, "upper": self.upper,
                "method": self.method, "tolerance": self.tolerance,
                "samples": samples, "diagnostics": _jsonify(dict(self.diagnostics))}


# ---------------------------------------------------------------------------
# bisection engine
# ---------------------------------------------------------------------------

def _bisect_index(name: str, probe: Callable[[float], ConditionVerdict], *,
                  tol: float, diagnostics: Mapping[str, Any]) -> IndexEstimate:
    samples: dict[float, ConditionVerdict] = {}
    spent = 0

    def look(r: float) -> ConditionVerdict:
        nonlocal spent
        r = float(r)
        if r not in samples:
            samples[r] = probe(r)
            spent += 1
        return samples[r]

    lo, hi = 0.0, INDEX_CAP
    r = 1.0
    if look(r).is_satisfied:
        lo = r
        while r < INDEX_CAP and spent < _PROBE_BUDGET:
            r = min(INDEX_CAP, 2.0 * r)
            if look(r).is_satisfied:
                lo = r
            else:
                hi = r
                break
    else:
        hi = r
        while r > INDEX_FLOOR and spent < _PROBE_BUDGET:
            r = max(INDEX_FLOOR, 0.5 * r)
            if look(r).is_satisfied:
                lo = r
                break
            hi = r

    while hi - lo > tol and spent < _PROBE_BUDGET:
        mid = 0.5 * (lo + hi)
        if mid <= 0.0 or mid in samples:
            break
        if look(mid).is_satisfied:
            lo = mid
        else:
            hi = mid

    all_inconclusive = bool(samples) and all(v.is_inconclusive for v in samples.values())
    diag = dict(diagnostics)
    diag["probes"] = spent
    diag["tol_target"] = tol
    # an end that a trend-decided probe fixed is no certified end
    ends = (samples[r].provenance for r in (lo, hi) if r in samples)
    method = "bisection+trend" if "trend" in ends else "bisection"
    if all_inconclusive:
        lo, hi = 0.0, INDEX_CAP
        method = "bisection+undecided"
        diag["note"] = "every probe returned Inconclusive"
    trace = tuple(sorted(samples.items()))
    return IndexEstimate(name, lo, hi, method, hi - lo, trace, diag)


# ---------------------------------------------------------------------------
# sequence-level mixed condition and indices
# ---------------------------------------------------------------------------

def _quotient_ratio_bounded(M: WeightSequence, N: WeightSequence,
                            P: int) -> tuple[Optional[bool], dict]:
    """Is mu_p / nu_p bounded over the working range?  (True/False/None)."""
    tm, tn = M.tail_model, N.tail_model
    limit = None if tm is None or tn is None else log_ratio_limit(tm, tn)
    if limit is not None:
        return limit < math.inf, {"log_ratio_limit": limit}
    P = min(M._capped(P), N._capped(P))
    d = M.log_quotients(P)[1:] - N.log_quotients(P)[1:]
    running = np.maximum.accumulate(d)
    last, half = float(running[-1]), float(running[len(running) // 2])
    info = {"max_log_ratio": last, "P": P}
    step = QUOTIENT_RATIO_STEP
    if last > half + max(step, step * abs(half)):
        p_at = int(np.argmax(d)) + 1
        info.update({"p": p_at, "ratio": math.exp(float(d[p_at - 1]))})
        return False, info
    return None, info


class MixedSeqProbe:
    """mixed_condition_seq for one pair (M, N) at any order r.

    When the quotient ratio is bounded and both M and N are exact power laws
    mu_p = c_M p**e_M, nu_p = c_N p**e_N from index 1, the sup has a closed
    form and the probe reads no quotient.  With i = 1/r,
    F_p = (c_M/c_N)**i p**((e_M - e_N) i) * p**(e_N i - 1) zeta(e_N i, p).
    The first power does not increase in p since e_M <= e_N; the second
    factor is h sum_k f(k h) with h = 1/p and f(u) = (1 + u)**(-e_N i)
    completely monotone, a mixture of h / (1 - exp(-h t)), which increases in
    h.  So F_p does not increase either, and sup_p F_p = F_1 =
    (c_M/c_N)**i zeta(e_N i) for every p, not only on the range.

    Otherwise the probe sweeps p = 1..p_max.  The quotient-ratio
    precondition and the sweep set-up (log quotients of M and N, log p) do
    not depend on r: one index call computes them once for all its probes.
    The sweep is set up on the first order that needs it, on `sums`, N's
    SuffixSums up to p_max, when the caller holds them, and reads the
    quotients on the first order that sums: an order N's law refutes reads
    none.
    """

    def __init__(self, M: WeightSequence, N: WeightSequence, config: RunConfig,
                 sums: Optional[SuffixSums] = None):
        self.M, self.N, self.P, self.sums = M, N, config.p_max, sums
        self.pre, self.pre_info = _quotient_ratio_bounded(M, N, min(config.p_max, PRECONDITION_P))
        laws = (M.tail_model, N.tail_model)
        self.laws = laws if self.pre is True and all(
            tm is not None and tm.power_law for tm in laws) else None

    @cached_property
    def sweep(self) -> RatioSweep:
        return RatioSweep(self.M, self.N, self.P, self.sums)

    def closed(self, r: float) -> Optional[ConditionVerdict]:
        """The verdict from the closed form F_1, None when there is none or
        it is not finite (a divergent inner sum among them)."""
        if self.laws is None:
            return None
        tm, tn = self.laws
        inv_r = 1.0 / r
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_sup = (inv_r * (np.log(tm.c_hi) - np.log(tn.c_hi))
                       + np.log(hurwitz_zeta(tn.e_hi * inv_r, 1.0)))
            sup = float(np.exp(log_sup))
        if not 0.0 < sup < math.inf:
            return None
        P = min(self.M._capped(self.P), self.N._capped(self.P))
        return ConditionVerdict.satisfied("mixed_seq", {"sup": sup, "P": P}, "tail-model")

    def __call__(self, r: float) -> ConditionVerdict:
        pre, pre_info = self.pre, self.pre_info
        if pre is False:
            counter = {"p": pre_info.get("p", 0), "r": r,
                       "mu_over_nu": pre_info.get("ratio", math.inf)}
            how = "tail-model" if "log_ratio_limit" in pre_info else "trend"
            return ConditionVerdict.violated("mixed_seq", counter, how,
                reason="quotient ratio mu/nu unbounded on range (precondition)",
                **{k: v for k, v in pre_info.items() if k not in counter})
        verdict = self.closed(r) or self.sweep.verdict("mixed_seq", 1.0 / r)
        diag = dict(verdict.diagnostics)
        diag["r"] = r
        if pre is None:
            diag["precondition"] = "quotient ratio boundedness uncertified"
        return replace(verdict, diagnostics=diag)


def mixed_condition_seq(M: WeightSequence, N: Optional[WeightSequence] = None,
                        r: float = 1.0, *,
                        config: Optional[RunConfig] = None) -> ConditionVerdict:
    """Is sup_p (mu_p^{1/r} / p) * sum_{k>=p} nu_k^{-1/r} finite?

    The quotient ratio mu/nu must stay bounded over the range; a certified
    unbounded ratio short-circuits to a Violated verdict, since the sup is
    bounded below by (mu_p/nu_p)^{1/r} / p times a non-vanishing factor.
    """
    if not 0 < r < math.inf:
        raise InvalidArgument("order r must be finite and positive")
    return MixedSeqProbe(M, M if N is None else N, config or RunConfig())(r)


def gamma_index_seq(M: WeightSequence, N: Optional[WeightSequence] = None, *,
                    config: Optional[RunConfig] = None) -> IndexEstimate:
    """Mixed growth index of a sequence pair (of a single sequence if N omitted)."""
    config = config or RunConfig()
    N_eff = M if N is None else N
    probe = MixedSeqProbe(M, N_eff, config)
    return _bisect_index("gamma_mixed", probe, tol=config.index_tol,
                         diagnostics={"domain": "sequence", "M": M.label,
                                      "N": N_eff.label})


def mu_seq(N: WeightSequence, *, config: Optional[RunConfig] = None) -> IndexEstimate:
    """Order of quasianalyticity sup{r > 0 : sum nu_k^{-1/r} < inf}.

    The quotients must increase (log-convexity), then one bisection on the
    summability check nq_r brackets the order.  An Inconclusive probe pulls
    the upper end down and never raises the lower one, so uncertainty widens
    the bracket; when every probe is Inconclusive the bracket is [0, cap].
    """
    config = config or RunConfig()
    lcv = require_log_convex(N, config.p_max)

    def probe(r: float) -> ConditionVerdict:
        return check_nq_r(N, r, config.p_max)

    diag: dict[str, Any] = {"domain": "sequence", "N": N.label}
    if lcv.is_inconclusive:
        diag["log_convexity"] = "monotone on range, uncertified beyond"
    return _bisect_index("mu", probe, tol=config.index_tol, diagnostics=diag)


# ---------------------------------------------------------------------------
# function-level mixed condition and indices
# ---------------------------------------------------------------------------

def mixed_condition_fun(sigma: WeightFunction, omega: Optional[WeightFunction] = None,
                        r: float = 1.0, *,
                        config: Optional[RunConfig] = None) -> ConditionVerdict:
    """Is integral_1^inf omega(t y) y^{-1-1/r} dy <= C sigma(t) + C for some C?

    The integral equals t^{1/r} integral_t^inf omega(u) u^{-1-1/r} du and is
    bounded below by r * omega(t), so the bound forces omega to be dominated
    by sigma; incompatible growth shapes are rejected before any quadrature.
    A model-certified divergent integral is Violated outright.
    """
    if not 0 < r < math.inf:
        raise InvalidArgument("order r must be finite and positive")
    return MixedFunProbe(sigma, sigma if omega is None else omega,
                         config or RunConfig())(r)


def gamma_index_fun(sigma: WeightFunction, omega: Optional[WeightFunction] = None,
                    *, config: Optional[RunConfig] = None) -> IndexEstimate:
    """Mixed growth index of a weight-function pair (single function if omega omitted)."""
    config = config or RunConfig()
    omega_eff = sigma if omega is None else omega
    probe = MixedFunProbe(sigma, omega_eff, config)
    return _bisect_index("gamma_mixed", probe, tol=config.index_tol,
                         diagnostics={"domain": "function", "sigma": sigma.label,
                                      "omega": omega_eff.label})


def mu_fun(omega: WeightFunction, *,
           config: Optional[RunConfig] = None) -> IndexEstimate:
    """Order of quasianalyticity sup{r > 0 : kernel integral of order r converges}."""
    config = config or RunConfig()
    return _bisect_index("mu", OmegaNodes(omega).nq_r, tol=config.index_tol,
                         diagnostics={"domain": "function", "omega": omega.label})


# ---------------------------------------------------------------------------
# the index-above-one witness search
# ---------------------------------------------------------------------------

_WITNESS_K = (16.0, 8.0, 4.0, 2.0)
_WITNESS_C = tuple(float(2 ** i) for i in range(11))  # 1, 2, ..., 1024
_WITNESS_T0 = (1.0, 10.0, 100.0, 1000.0)
_WITNESS_T_MAX = 1e8
_WITNESS_T_POINTS = 160
_WITNESS_J_MAX = 30  # the bound is tested for j = 0.._WITNESS_J_MAX


@dataclass(frozen=True)
class Gamma1Witness:
    """Constants certifying omega(K^j t) <= C * H^j * sigma(t) on the tested grid."""

    C: float
    K: float
    H: float
    t0: float
    j_max: int
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (self.K > self.H > 1.0):
            raise InternalInconsistency("witness needs K > H > 1")
        if self.t0 < 0.0:
            raise InternalInconsistency("witness needs t0 >= 0")

    def to_dict(self) -> dict:
        return {"C": self.C, "K": self.K, "H": self.H, "t0": self.t0,
                "j_max": self.j_max}


def _doubling_sup(omega: WeightFunction, K: float, config: RunConfig) -> float:
    """Asymptotic bound on omega(K t) / omega(t)."""
    if omega.model is not None:
        return float(omega.model.ratio_limit(K))
    ts = config.grid.geometric()
    ts = ts[-max(2, len(ts) // 4):]
    vals = omega.eval(ts)
    mask = vals > 0
    if not np.any(mask):
        return 1.0
    return float(np.max(omega.eval(K * ts[mask]) / vals[mask]))


def _witness_c_needed(sigma: WeightFunction, omega: WeightFunction, K: float,
                      H: float, t0: float) -> float:
    """Smallest C making omega(K^j t) <= C H^j sigma(t) hold on the test grid."""
    ts = np.geomspace(t0, _WITNESS_T_MAX, _WITNESS_T_POINTS)
    sig = sigma.eval(ts)
    scales = [K ** j for j in range(_WITNESS_J_MAX + 1)]
    lhs_rows = None
    if omega.pointwise and np.all(sig > 0.0):
        # with sigma > 0 on the grid no ratio below is infinite unless it
        # overflows, so the loop reads every row: evaluate them in one call.
        # A failure falls back to the loop, which stops where it always did.
        try:
            lhs_rows = omega.eval(np.concatenate([k * ts for k in scales]))
        except UltraweightError:
            pass
    needed = 0.0
    for j, k in enumerate(scales):
        if lhs_rows is None:
            lhs = omega.eval(k * ts)
        else:
            lhs = lhs_rows[j * len(ts): (j + 1) * len(ts)]
        rhs_unit = H ** j * sig
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(lhs <= 0.0, 0.0,
                             np.where(rhs_unit > 0.0, lhs / np.where(rhs_unit > 0.0,
                                                                     rhs_unit, 1.0),
                                      math.inf))
        needed = max(needed, float(np.max(ratio)))
        if not math.isfinite(needed):
            break
    return needed


def find_gamma1_witness(sigma: WeightFunction, omega: WeightFunction, *,
                        config: Optional[RunConfig] = None) -> Optional[Gamma1Witness]:
    """Search for constants C, K, H, t0 with omega(K^j t) <= C H^j sigma(t).

    Larger K values are tried first: the iterated bound needs H strictly
    between the doubling factor sup omega(Kt)/omega(t) and K, and that window
    only opens once K is large against omega's growth.  The doubling factor
    must not exceed 2 (otherwise iterating j times loses more than the H^j
    budget regains on the tested families).  For each admissible (K, H) the
    constant C walks up powers of two, with the start point t0 walking the
    decade grid inside each C; the first verified combination wins.  Returns
    None when no combination passes, which is a value, not an error.

    Contract: a returned witness certifies gamma(sigma, omega) > 1, since
    such constants with H < K exist exactly when the index is strictly above
    one.  The result is None whenever the index is at most 1, including the
    boundary index exactly 1 (sigma = omega = t).
    """
    config = config or RunConfig()
    if (sigma.model is not None and omega.model is not None
            and _shape_cmp(omega.model, sigma.model) > 0):
        return None
    tried: list[dict[str, Any]] = []
    for K in _WITNESS_K:
        try:
            D = _doubling_sup(omega, K, config)
        except Exception:  # evaluation beyond a table-backed domain
            continue
        if not D <= 2.0 * (1.0 + 1e-9):
            tried.append({"K": K, "doubling": D, "skip": "doubling factor above 2"})
            continue
        H = float(math.floor(D) + 1)
        if not H < K:
            H = math.sqrt(max(D, 1.0) * K)
            if H <= max(D, 1.0) * (1.0 + 1e-12) or H >= K:
                tried.append({"K": K, "doubling": D, "skip": "no H in (D, K)"})
                continue
        needed: dict[float, float] = {}
        failed = False
        for t0 in _WITNESS_T0:
            try:
                needed[t0] = _witness_c_needed(sigma, omega, K, H, t0)
            except Exception:
                failed = True
                break
        if failed:
            tried.append({"K": K, "doubling": D, "skip": "evaluation failed"})
            continue
        for C in _WITNESS_C:
            for t0 in _WITNESS_T0:
                if C * (1.0 + 1e-12) >= needed[t0]:
                    return Gamma1Witness(C=C, K=K, H=H, t0=t0, j_max=_WITNESS_J_MAX,
                                         diagnostics={"doubling": D,
                                                      "C_needed": needed[t0],
                                                      "tried": tried})
        tried.append({"K": K, "doubling": D, "H": H,
                      "C_needed_by_t0": {f"{t0:g}": needed[t0] for t0 in needed}})
    return None
