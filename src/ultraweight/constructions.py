"""Constructions that cross between weight sequences and weight functions.

The bridge in both directions is the Legendre-type conjugate of the
log-reparametrized weight: a sequence turns into a function through the sup
transform sup_p (p log t - log M_p), and a function turns into a family of
sequences by evaluating its conjugate along arithmetic progressions (the
weight matrix).  On top of the bridge sit four derived objects:

  * the "hat" lift: factorial shift then sup transform, taking a sequence
    world object one differentiability order up;
  * kernel averages t * integral_t^inf omega(u)/u^2 du and their fractional
    variants, which upgrade integrability into a pointwise comparison;
  * the descendant pair (S, L) of a summable sequence: the slowest strongly
    log-convex minorant construction, with its tail sums completed exactly;
  * the two-weight reduction glue: piecewise integer multiples of a weight,
    with breakpoints chosen so that the glued pair inherits a doubling
    witness with explicit constants.

Every construction validates its preconditions with the predicate layer and
reruns the postconditions it promises, attaching the verdicts to the returned
object or raising InternalInconsistency when a promised property fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .functions import (AssociatedOf, ConvexPL, KappaPower, PiecewiseGlue,
                        WeightFunction, check_omega_condition, compare_o,
                        conjugate_pl, convexify, normalize)
from .indices import (Gamma1Witness, MixedSeqProbe, find_gamma1_witness,
                      mixed_condition_fun)
from .sequences import (_LOG_FLOAT_MAX, PRECONDITION_P, SuffixSums,
                        TailModel, WeightSequence, check_nq_r, check_slc,
                        hat, log_p, power, require_log_convex)
from .verdict import (REL_MARGIN, ConditionVerdict, DivergentAssociated,
                      GammaNotAboveOne, GridTooCoarse, InternalInconsistency,
                      InvalidArgument, NotLogConvex, NotNonQuasianalytic,
                      PreconditionInconclusive, RunConfig, Y_GRID,
                      _jsonify, stabilized)

DEFAULT_LEVELS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
_LADDER = 64  # 1.05 steps per eval call in _monotone_threshold
DEFAULT_J_MAX = 64
_SANDWICH_SAMPLES = 200  # reduction_build: sandwich samples per glue segment

_HAT_X_TOP = float(1 << 20)  # conjugate slope coverage for the function route


# ---------------------------------------------------------------------------
# sup transform: sequence -> function
# ---------------------------------------------------------------------------

def _require_sup_transform(M: WeightSequence, config: RunConfig) -> None:
    """The domain of the sup transform: M log-convex (NotLogConvex), and the
    transform finite everywhere, which needs (M_p)^(1/p) -> inf
    (DivergentAssociated).

    For log-convex M the latter is equivalent to unbounded quotients.  Finite
    lists are always fine (the sup runs over finitely many slopes).
    """
    require_log_convex(M, config.p_max)
    if M.finite_size is not None:
        return
    tm = M.tail_model
    if tm is not None:
        if tm.kind == "loglinear":
            return
        if tm.e_lo > 0:
            return
        if tm.e_hi <= 0:
            raise DivergentAssociated(
                f"{M.label}: quotients are bounded, the sup transform is "
                "infinite beyond their supremum")
        # straddling bracket: fall through to the computed range
    log_mu = M.log_quotients(4096)
    half = len(log_mu) // 2
    if log_mu[-1] <= log_mu[half] + 1e-9:
        raise DivergentAssociated(
            f"{M.label}: quotients do not grow over the computed range; "
            "the sup transform cannot be evaluated reliably")


def associated_function(M: WeightSequence, *,
                        config: Optional[RunConfig] = None) -> WeightFunction:
    """Sup transform of a log-convex sequence as a weight-function node.

    Raises NotLogConvex / DivergentAssociated when the input is outside the
    domain.  The returned node carries the growth and convexity verdicts the
    transform guarantees; a Violated one raises InternalInconsistency.  A
    finite list's transform is N log t - log M_N past its last quotient, so
    it fails omega3 by rights: that verdict is recorded, not enforced.
    """
    config = config or RunConfig()
    _require_sup_transform(M, config)
    fn = AssociatedOf(M)
    checks: dict[str, ConditionVerdict] = {}
    for cond in ("omega3", "omega4"):
        verdict = check_omega_condition(fn, cond, config=config)
        checks[cond] = verdict
        if verdict.is_violated and not (cond == "omega3"
                                         and M.finite_size is not None):
            raise InternalInconsistency(
                f"sup transform of {M.label} violates {cond}: "
                f"{dict(verdict.counterexample)}")
    fn.construction_checks = checks
    return fn


def associated_eval(M: WeightSequence, t, *,
                    config: Optional[RunConfig] = None):
    """Evaluate the sup transform of M at t (scalar or array).

    Same domain checks as associated_function, without the grid postconditions
    (handy for single-point queries).
    """
    _require_sup_transform(M, config or RunConfig())
    fn = AssociatedOf(M)
    arr = np.asarray(t, dtype=float)
    out = fn.eval(arr)
    if arr.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# conjugate shared by the matrix and the hat bridge: read off a sequence, or
# sampled and refined
# ---------------------------------------------------------------------------

def _conjugate_sequence(omega: WeightFunction, base: WeightFunction,
                        config: RunConfig) -> Optional[WeightSequence]:
    """M when the conjugate of y -> omega(e^y) is log M, linear in between.

    That holds for omega = assoc(M) with M log-convex and M_0 = 1, the
    conjugate's value at p being log M_p (Komatsu, Ultradistributions I:
    M_p = sup_t t^p / exp(omega_M(t))), and +inf past the last index of a
    finite list.  `base` is normalize(omega); a shifted input has another
    conjugate.  None sends the caller to the sampled conjugate.
    """
    if base is not omega or not isinstance(omega, AssociatedOf):
        return None
    M = omega.seq
    if M.log_m0 != 0.0:
        return None
    try:
        return M if require_log_convex(M, config.p_max).is_satisfied else None
    except NotLogConvex:
        return None


def _refuse_past_last_index(omega: WeightFunction, x_top: float, what: str) -> None:
    """DivergentAssociated when omega = assoc(M) of a finite M ends before x_top.

    The conjugate of its sup transform is +inf past M's last index N.
    """
    last = omega.seq.max_index if isinstance(omega, AssociatedOf) else None
    if last is not None and x_top > last:
        raise DivergentAssociated(
            f"{omega.seq.label} ends at index N = {last}: the conjugate of "
            f"its sup transform is +inf past N, and {what} = {x_top:g} "
            "exceeds N")


def _refined_conjugate(omega: WeightFunction, x_top: float, *,
                       tol: float = 1e-3) -> ConvexPL:
    """Conjugate of y -> omega(e^y) with the grid adapted to the request.

    Starting from `Y_GRID`, the y-range doubles until the sampled slopes
    cover x_top (otherwise the conjugate would silently extrapolate; a slope
    that e^y needs to pass the float range for is refused), then the
    point count doubles until the conjugate value at x_top moves by at most
    `tol` (absolute on the log scale, i.e. relative on the exponentiated
    entries).
    """
    y_max, points = float(Y_GRID[-1]), len(Y_GRID)
    prev = None
    metric = math.nan
    for _ in range(14):
        y = np.linspace(0.0, y_max, points)
        pl, _defect = convexify(y, omega.eval(np.exp(y)))
        conj = conjugate_pl(pl)
        if conj.xs[-1] < x_top:
            if 2.0 * y_max > _LOG_FLOAT_MAX:
                raise InvalidArgument(
                    f"conjugate slope {x_top:g} lies past the float range: "
                    f"omega(e^y) for y up to {y_max:g} reaches slope {conj.xs[-1]:g}")
            y_max *= 2.0
            prev = None
            continue
        metric = conj.value(float(x_top))
        if prev is not None and abs(metric - prev) <= tol:
            return conj
        prev = metric
        points *= 2
    raise GridTooCoarse(
        f"conjugate refinement did not stabilize at x = {x_top:g} "
        f"(last value {metric:.6g})")


# ---------------------------------------------------------------------------
# weight matrix: function -> family of sequences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightMatrix:
    """Level sequences W[l]_j = exp(conj(l * j) / l) of one weight function.

    Rows are normalized, log-convex, and nondecreasing in the level, all
    verified at build time.  `sequences` maps each level to a finite
    WeightSequence of length j_max + 1.
    """

    source: WeightFunction
    levels: tuple[float, ...]
    sequences: Mapping[float, WeightSequence]
    j_max: int
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def level(self, l: float) -> WeightSequence:
        try:
            return self.sequences[float(l)]
        except KeyError:
            raise InvalidArgument(
                f"level {l:g} not among {list(self.levels)}") from None

    def log_values(self, l: float) -> np.ndarray:
        return self.level(l).log_values(self.j_max)

    def rows(self) -> Iterator[tuple[int, float, float]]:
        """(j, level, W) triples in column-major CSV order."""
        with np.errstate(over="ignore"):
            for l in self.levels:
                vals = np.exp(self.log_values(l))
                for j in range(self.j_max + 1):
                    yield j, l, float(vals[j])

    def to_dict(self) -> dict:
        return {
            "source": self.source.spec(),
            "levels": list(self.levels),
            "j_max": self.j_max,
            "log_values": {f"{l:g}": [float(v) for v in self.log_values(l)]
                           for l in self.levels},
            "diagnostics": _jsonify(self.diagnostics),
        }


def _absorption_report(levels: tuple[float, ...],
                       logs: Mapping[float, np.ndarray]) -> dict:
    """Spot-check h^j W[l]_j <= D W[A*l]_j for h in {2, e} over level pairs.

    For each h the smallest level ratio A available in the level set with a
    finite sampled constant D is reported; this samples the absorption
    quantifiers rather than certifying them.
    """
    js = np.arange(len(next(iter(logs.values()))), dtype=float)
    out = {}
    for h_name, log_h in (("2", math.log(2.0)), ("e", 1.0)):
        per_a: dict[str, float] = {}
        best: Optional[tuple[float, float]] = None
        for a_ratio in (2.0, 4.0, 8.0):
            pairs = [(l, l * a_ratio) for l in levels if l * a_ratio in levels]
            if not pairs:
                continue
            log_d = max(float(np.max(js * log_h + logs[l] - logs[l2]))
                        for l, l2 in pairs)
            per_a[f"{a_ratio:g}"] = log_d
            if best is None or log_d < best[1]:
                best = (a_ratio, log_d)
        if best is not None:
            with np.errstate(over="ignore"):
                out[h_name] = {"A": best[0], "D": float(np.exp(best[1])),
                               "log_D": best[1], "log_D_by_A": per_a}
    return out


def associated_matrix(omega: WeightFunction,
                      levels: Sequence[float] = DEFAULT_LEVELS,
                      j_max: int = DEFAULT_J_MAX, *,
                      config: Optional[RunConfig] = None) -> WeightMatrix:
    """Matrix of conjugate-derived level sequences of a weight function.

    The input is normalized first (the conjugate must vanish at 0 for the
    rows to be normalized sequences).  DivergentAssociated refuses assoc(M)
    of a finite M that ends before levels[-1] * j_max.  On assoc(M) with M
    log-convex and M_0 = 1 the rows are read off log M.  Otherwise the
    conjugate grid auto-refines until the top entry of every row is stable
    to 0.1%; GridTooCoarse signals that refinement stalled.
    """
    config = config or RunConfig()
    levels = tuple(sorted(float(l) for l in levels))
    if not levels or not all(0 < l < math.inf for l in levels):
        raise InvalidArgument("levels must be finite and positive")
    if len(set(levels)) != len(levels):
        raise InvalidArgument("levels must be distinct")
    if j_max < 1:
        raise InvalidArgument("j_max must be >= 1")

    x_top = levels[-1] * j_max
    _refuse_past_last_index(omega, x_top, "levels[-1] * j_max")
    base = normalize(omega)
    M = _conjugate_sequence(omega, base, config)
    if M is None:
        pl = _refined_conjugate(base, x_top, tol=1e-3)
        conj, breakpoints, method = pl, len(pl.xs), "sampled"
    else:
        top = math.ceil(x_top)
        log_m = M.log_values(top)
        p = np.arange(top + 1, dtype=float)

        def conj(x: np.ndarray) -> np.ndarray:
            return np.interp(x, p, log_m)

        breakpoints, method = top + 1, "structure"
    entry = {cond: check_omega_condition(base, cond, config=config)
             for cond in ("omega1", "omega3", "omega4")}

    js = np.arange(j_max + 1, dtype=float)
    logs: dict[float, np.ndarray] = {}
    max_clamp = 0.0
    for l in levels:
        v = conj(l * js) / l
        if abs(v[0]) > 1e-9:
            raise InternalInconsistency(
                f"conjugate of the normalized input is {v[0]:.3e} at 0")
        v[0] = 0.0
        dips = np.diff(v, 2)
        if dips.size and float(np.min(dips)) < -1e-9:
            raise InternalInconsistency(
                f"level {l:g} row is not log-convex within grid error")
        if float(np.min(np.diff(v))) < -1e-9:
            raise InternalInconsistency(
                f"level {l:g} row is not nondecreasing within grid error")
        logs[l] = v

    for lo, hi in zip(levels, levels[1:]):
        gap = float(np.min(logs[hi] - logs[lo]))
        if gap < -1e-9:
            raise InternalInconsistency(
                f"levels {lo:g} <= {hi:g} violate entrywise monotonicity "
                f"by {-gap:.3e}")

    sequences: dict[float, WeightSequence] = {}
    for l in levels:
        quot = np.diff(logs[l])
        clamped = np.maximum.accumulate(quot)
        max_clamp = max(max_clamp, float(np.max(clamped - quot)))

        def fn(lo_i: int, hi_i: int, arr: np.ndarray = clamped) -> np.ndarray:
            return arr[lo_i - 1: hi_i]

        sequences[l] = WeightSequence(
            f"W[l={l:g}]({base.label})", fn, finite_size=j_max + 1,
            structural=frozenset({"lc"}))

    diagnostics = {
        "entry_conditions": {c: v.status.value for c, v in entry.items()},
        "normalized_input": base is not omega,
        "conjugate_method": method,
        "conjugate_breakpoints": breakpoints,
        "max_convexity_clamp": max_clamp,
        "doubling_absorption": _absorption_report(levels, logs),
    }
    return WeightMatrix(base, levels, sequences, j_max, diagnostics)


# ---------------------------------------------------------------------------
# the hat lift
# ---------------------------------------------------------------------------

def omega_hat(arg, *, config: Optional[RunConfig] = None) -> WeightFunction:
    """One-order lift: factorial-shift then sup transform.

    A sequence is lifted directly: sup transform of p! * M_p.  A weight
    function first drops to its level-1 conjugate sequence (the matrix row,
    extended to all indices through the conjugate itself), then lifts that.
    On assoc(M) with M log-convex and M_0 = 1 that row is M itself; on any
    other assoc(M) of a finite M, DivergentAssociated: the row ends at M's
    last index.
    """
    config = config or RunConfig()
    if isinstance(arg, WeightSequence):
        return associated_function(hat(arg), config=config)
    if not isinstance(arg, WeightFunction):
        raise InvalidArgument("omega_hat takes a weight sequence or function")

    base = normalize(arg)
    M = _conjugate_sequence(arg, base, config)
    if M is not None:
        return associated_function(hat(M), config=config)
    _refuse_past_last_index(arg, _HAT_X_TOP, "the lift's top slope")
    conj = _refined_conjugate(base, _HAT_X_TOP, tol=1e-2)

    def rule(lo: int, hi: int) -> np.ndarray:
        j = np.arange(lo, hi + 1, dtype=float)
        return conj(j) - conj(j - 1.0)

    level_one = WeightSequence(f"W[l=1]({base.label})", rule,
                               structural=frozenset({"lc"}))
    return associated_function(hat(level_one), config=config)


# ---------------------------------------------------------------------------
# kernel averages
# ---------------------------------------------------------------------------

def _require_kernel_integrable(omega: WeightFunction, cond: str, r: float,
                               config: RunConfig) -> ConditionVerdict:
    """omega's order-r kernel integrability verdict `cond`; NotNonQuasianalytic
    when it is Violated (the order-r average is then identically infinite)."""
    verdict = check_omega_condition(omega, cond, r=r, config=config)
    if verdict.is_violated:
        raise NotNonQuasianalytic(
            f"{omega.label}: order-{r:g} kernel integral diverges: "
            f"{dict(verdict.counterexample)}")
    return verdict


def kappa(omega: WeightFunction, *,
          config: Optional[RunConfig] = None) -> WeightFunction:
    """Kernel average t * integral_t^inf omega(u)/u^2 du as a function node.

    Requires the integrability verdict to hold (a Violated one means the
    average is identically infinite).
    """
    verdict = _require_kernel_integrable(omega, "omega_nq", 1.0, config or RunConfig())
    node = KappaPower(omega, 1.0)
    node.precondition = verdict
    return node


def kappa_power_normalized(omega: WeightFunction, r: float, *,
                           config: Optional[RunConfig] = None) -> WeightFunction:
    """Normalized fractional kernel average of order r.

    Computes the order-r average (the kernel average of the r-th power read
    back through t^(1/r)) and clamps it to 0 on [0, 1].  The output is checked
    against its defining comparison with omega at order 0.95 r; the
    construction guarantees it, so a Violated check raises
    InternalInconsistency.
    """
    if not 0 < r < math.inf:
        raise InvalidArgument("order r must be finite and > 0")
    config = config or RunConfig()
    verdict = _require_kernel_integrable(omega, "omega_nq_r", r, config)
    out = normalize(KappaPower(omega, float(r)))
    out.precondition = verdict
    chk = mixed_condition_fun(out, omega, 0.95 * r, config=config)
    if chk.is_violated:
        raise InternalInconsistency(
            "kernel average fails its defining comparison slightly below "
            f"order {r:g}: {dict(chk.counterexample)}")
    out.construction_check = chk
    return out


# ---------------------------------------------------------------------------
# descendants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescendantPair:
    """Descendant (S, L) of a summable sequence, unpackable as a 2-tuple.

    S is the strongly log-convex core built from the remainder sums
    tau_p = p / nu_p^(1/r) + sum_{j >= p} nu_j^(-1/r) via
    sigma_p = tau_1 * p / tau_p; L is its entrywise r-th power.
    """

    S: WeightSequence
    L: WeightSequence
    r: float
    tau_1: float
    lambda_bound: float
    checks: Mapping[str, ConditionVerdict]
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __iter__(self) -> Iterator[WeightSequence]:
        return iter((self.S, self.L))

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "tau_1": self.tau_1,
            "lambda_bound": self.lambda_bound,
            "S": self.S.spec,
            "L": self.L.spec,
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
            "diagnostics": _jsonify(self.diagnostics),
        }


def descendant(N: WeightSequence, r: float = 1.0, *,
               config: Optional[RunConfig] = None) -> DescendantPair:
    """Descendant pair of N at order r.

    Preconditions: N log-convex and the order-r tail sums certified
    convergent (NotLogConvex / NotNonQuasianalytic / PreconditionInconclusive
    otherwise).  Postconditions, re-verified here: S strongly log-convex, the
    quotients of L bounded by a multiple of those of N, and the mixed
    comparison of (L, N) at order r itself Satisfied.
    """
    if not 0 < r < math.inf:
        raise InvalidArgument("order r must be finite and > 0")
    config = config or RunConfig()
    require_log_convex(N, config.p_max)
    pre = check_nq_r(N, r, config.p_max)
    if pre.is_violated:
        raise NotNonQuasianalytic(
            f"{N.label}: order-{r:g} tail sums diverge: "
            f"{dict(pre.counterexample)}")
    if not pre.is_satisfied:
        raise PreconditionInconclusive(
            f"{N.label}: order-{r:g} tail convergence not certified "
            "(no usable tail model)")

    inv_r = 1.0 / r
    P = N._capped(config.p_max)
    # N's order-r sums, read here and again by the (L, N) mixed comparison
    sums = SuffixSums(N, P)
    log_mu = N.log_quotients(P)
    lp = log_p(1, P)
    # log domain throughout: tau_p underflows linearly for fast bases
    log_tau = np.multiply(log_mu[1:], inv_r)
    np.subtract(lp, log_tau, out=log_tau)
    np.logaddexp(log_tau, sums.at(inv_r), out=log_tau)
    log_tau1 = float(log_tau[0])
    tau1 = float(np.exp(log_tau1))
    lsig = np.empty(P + 1)
    lsig[0] = math.nan
    np.add(log_tau1, lp, out=lsig[1:])
    lsig[1:] -= log_tau

    tm = N.tail_model
    closed_extension = tm is not None and tm.exact

    def log_tau_beyond(p: int) -> float:
        lo, hi = tm.tail_power_sum(inv_r, p)
        mid = 0.5 * (lo + hi)
        term = math.log(p) - inv_r * float(
            tm.log_quotient(np.asarray(float(p))))
        return float(np.logaddexp(term,
                                  math.log(mid) if mid > 0 else -math.inf))

    def rule(lo: int, hi: int) -> np.ndarray:
        if hi <= P:
            return lsig[lo: hi + 1]
        out = np.empty(hi - lo + 1)
        for i, p in enumerate(range(lo, hi + 1)):
            if p <= P:
                out[i] = lsig[p]
            else:
                out[i] = log_tau1 + math.log(p) - log_tau_beyond(p)
        return out

    s_tail = None
    if tm is not None and tm.kind == "power" and tm.exact and tm.e_hi * inv_r > 1.0:
        s_exp = tm.e_hi * inv_r
        c_tau = tm.c_hi ** (-inv_r) * s_exp / (s_exp - 1.0)
        central = tau1 / c_tau
        start = 1000
        # remainder-sum bracket: the integral comparison bounds the deviation
        # of tau_p from its power asymptote by (s-1)/(s*p) relatively
        c_lo = central / (1.0 + (s_exp - 1.0) / (s_exp * start))
        s_tail = TailModel.power(s_exp, central, lower=(s_exp, c_lo),
                                 start=start)

    spec = ({"family": "descendant", "r": r, "base": N.spec}
            if N.spec is not None else None)
    S = WeightSequence(f"descendant(r={r:g}, base={N.label})", rule,
                       tail_model=s_tail,
                       finite_size=None if closed_extension else P + 1,
                       spec=spec,
                       structural=frozenset({"lc", "slc"}))
    L = power(S, r)
    if s_tail is not None:
        # (e/r)*r can round above e, which would read as an exponent gap
        # against N; L's quotient exponent is the base's exactly
        L.tail_model = replace(L.tail_model, e_lo=tm.e_hi, e_hi=tm.e_hi)

    checks: dict[str, ConditionVerdict] = {}
    slc = check_slc(S, min(P, PRECONDITION_P))
    checks["slc_S"] = slc
    if slc.is_violated:
        raise InternalInconsistency(
            f"descendant core not strongly log-convex: "
            f"{dict(slc.counterexample)}")
    mixed = MixedSeqProbe(L, N, config, sums)(r)
    checks["mixed_L_N"] = mixed
    if mixed.is_violated:
        raise InternalInconsistency(
            f"descendant fails its mixed comparison at order {r:g}: "
            f"{dict(mixed.counterexample)}")

    p_probe = min(P, PRECONDITION_P)
    ratio = r * lsig[1: p_probe + 1] - log_mu[1: p_probe + 1]
    running = np.maximum.accumulate(ratio)
    model_limit = None
    if s_tail is not None and tm is not None and tm.kind == "power":
        model_limit = float(np.exp(r * math.log(central) - math.log(tm.c_hi)))
    sup = float(np.exp(running[-1]))
    lam = max(sup, model_limit or 0.0) * REL_MARGIN
    with np.errstate(over="ignore"):  # inf at a tiny order, as M.value gives
        sigma_2 = float(np.exp(lsig[2])) if P >= 2 else None

    diagnostics = {
        "P": P,
        "tau_1": tau1,
        "sigma_2": sigma_2,
        "extension": "closed-form" if closed_extension else
                     f"finite (domain ends at p = {P})",
        "lambda_over_nu": {"range_sup": sup, "model_limit": model_limit,
                           "stabilized": stabilized(np.exp(running))},
    }
    return DescendantPair(S=S, L=L, r=r, tau_1=tau1, lambda_bound=lam,
                          checks=checks, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# reduction glue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionResult:
    """Glued pair (sigma_tilde, omega_tilde) with its witness and constants.

    breakpoints[0] is always 0; the glue multiplies the base weight by n on
    [x_n, x_{n+1}) with a telescoped offset keeping it continuous, and the
    multiplier freezes at the last breakpoint.  diagnostics carries the
    per-breakpoint constraint table and every verification sweep.
    """

    breakpoints: tuple[float, ...]
    sigma_tilde: WeightFunction
    omega_tilde: WeightFunction
    witness: Gamma1Witness
    H1: float
    D: int
    C1: float
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "breakpoints": [float(x) for x in self.breakpoints],
            "witness": self.witness.to_dict(),
            "H1": self.H1,
            "D": self.D,
            "C1": self.C1,
            "sigma_tilde": self.sigma_tilde.spec(),
            "omega_tilde": self.omega_tilde.spec(),
            "diagnostics": _jsonify(self.diagnostics),
        }


def _forall_tail_threshold(f: WeightFunction, sigma: WeightFunction,
                           factor: float) -> tuple[Optional[float], str]:
    """Smallest x with f(t) >= factor * sigma(t) for every t >= x.

    Exact pure-power models give the crossing analytically; otherwise the
    grid up to 1e10 locates the last violation and a bisection refines the
    crossing (certified only on the scanned range).
    """
    mf, ms = f.model, sigma.model
    if (mf is not None and ms is not None and mf.exact and ms.exact
            and mf.coeff is not None and ms.coeff is not None
            and mf.log_power == 0 and ms.log_power == 0
            and mf.offset == 0 and ms.offset == 0
            and mf.exponent > ms.exponent):
        t_star = (factor * ms.coeff / mf.coeff) ** (
            1.0 / (mf.exponent - ms.exponent))
        if t_star >= max(mf.start, ms.start):
            return max(t_star, 1.0), "analytic"

    ts = np.geomspace(1.0, 1e10, 480)
    bad = f.eval(ts) < factor * sigma.eval(ts)
    if bad[-1]:
        return None, "uncertified"
    if not bad.any():
        return 1.0, "grid"
    i = int(np.nonzero(bad)[0][-1])
    return _geometric_crossing(lambda x: f.value(x) >= factor * sigma.value(x),
                               float(ts[i]), float(ts[i + 1])), "grid"


def _geometric_crossing(reached: Callable[[float], bool], lo: float,
                        hi: float) -> float:
    """The point in (lo, hi] where `reached` turns true (false at lo, true at
    hi), by geometric bisection to relative 1e-9, in 80 halvings at most."""
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if reached(mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return hi


def _monotone_threshold(g: WeightFunction, target: float,
                        start: float) -> float:
    """Smallest x >= max(1, start) with g(x) >= target (g nondecreasing).

    A ladder of 1.05 steps from x, taken while below 1e12, finds the first
    step that reaches the target; a bisection then refines it.  A pointwise
    g evaluates `_LADDER` steps per call, every other g one.
    """
    x = max(1.0, start)
    if target <= 0.0 or g.value(x) >= target:
        return x
    steps = np.full((_LADDER if g.pointwise else 1) + 1, 1.05)
    while x < 1e12:
        # the products x * 1.05 * 1.05 ..., rounded after each step
        steps[0] = x
        ladder = np.multiply.accumulate(steps)
        n = int(np.count_nonzero(ladder[:-1] < 1e12))  # steps taken below 1e12
        hit = np.flatnonzero(g.eval(ladder[1: n + 1]) >= target)
        if hit.size:
            return _geometric_crossing(lambda x: g.value(x) >= target,
                                       float(ladder[hit[0]]), float(ladder[hit[0] + 1]))
        x = float(ladder[n])
    raise PreconditionInconclusive(
        f"{g.label} never reaches {target:g} below 1e12")


def _absorption_onset(H: float, H1: float) -> int:
    """Smallest positive integer D with j * H^j <= H1^j for all j >= D."""
    ratio = H1 / H
    if ratio <= 1.0:
        raise InvalidArgument("H1 must exceed H")
    # j <= ratio^j; ratio^j / j is increasing once j >= 1/log(ratio), so a
    # direct scan past that onset certifies the tail
    j_big = max(200, int(2.0 / math.log(ratio)) + 10)
    js = np.arange(1, j_big + 1, dtype=float)
    ok = js <= ratio ** js
    if ok.all():
        return 1
    last_bad = int(np.nonzero(~ok)[0][-1]) + 1
    if last_bad >= j_big - 1:
        raise InternalInconsistency("absorption onset scan exhausted")
    return last_bad + 1


def _sandwich_report(base: WeightFunction, glue: WeightFunction,
                     xs: Sequence[float]) -> dict:
    """Verify (n-2) * base <= glue <= n * base at `_SANDWICH_SAMPLES` points
    of each segment [x_n, x_{n+1})."""
    violations = 0
    total = 0
    worst_upper = -math.inf
    worst_lower = math.inf
    n_break = len(xs)
    for n in range(2, n_break + 1):
        lo = xs[n - 1]
        hi = xs[n] if n < n_break else xs[-1] * 10.0
        ts = np.geomspace(lo, hi, _SANDWICH_SAMPLES, endpoint=False)
        g = glue.eval(ts)
        b = base.eval(ts)
        scale = np.maximum(1.0, n * b)
        upper = (g - n * b) / scale
        lower = (g - (n - 2) * b) / scale
        violations += int(np.count_nonzero(upper > 1e-9))
        violations += int(np.count_nonzero(lower < -1e-9))
        worst_upper = max(worst_upper, float(np.max(upper)))
        worst_lower = min(worst_lower, float(np.min(lower)))
        total += len(ts)
    return {"violations": violations, "samples": total,
            "max_upper_excess": worst_upper, "min_lower_margin": worst_lower}


def _growth_ratio_report(small: WeightFunction, big: WeightFunction,
                         lo: float, hi: float) -> dict:
    """In-range ratio big/small: evidence that small stays strictly behind."""
    ts = np.geomspace(max(lo, 1.0), hi, 64)
    den = small.eval(ts)
    num = big.eval(ts)
    mask = den > 0
    if not mask.any():
        return {"note": "denominator vanishes on the whole range"}
    ratio = num[mask] / den[mask]
    return {"t_lo": float(ts[mask][0]), "t_hi": float(ts[mask][-1]),
            "first_ratio": float(ratio[0]), "last_ratio": float(ratio[-1]),
            "growing": bool(ratio[-1] > 1.5 * ratio[0])}


def reduction_build(sigma: WeightFunction, omega: WeightFunction,
                    f: WeightFunction, n_break: int = 12, *,
                    config: Optional[RunConfig] = None) -> ReductionResult:
    """Glued pair dominating (sigma, omega) below a faster weight f.

    Preconditions: a doubling-domination witness for (sigma, omega) must
    exist (GammaNotAboveOne otherwise) and sigma = o(f) must be certified
    (InvalidArgument when refuted, PreconditionInconclusive when undecided).

    Breakpoints x_2 < ... < x_{n_break} are the smallest points satisfying,
    for each n: the spacing constraint x_n > max(2, K) x_{n-1} + n, the
    domination constraint f >= n^2 sigma from x_n on, and the doubling
    constraints omega(x_n) >= 2^(n-i) omega(x_i) (same for sigma).  The glue
    multiplies the base by n on [x_n, x_{n+1}) minus the telescoped offset
    sum_{i<=n} of base(x_i), which keeps it continuous and sandwiched between
    (n-2) and n times the base.  The output inherits the witness with
    H1 = (H + K)/2 and C1 = C * D, where D absorbs the extra linear factor.
    """
    if n_break < 2:
        raise InvalidArgument("need n_break >= 2 for at least one breakpoint")
    config = config or RunConfig()

    witness = find_gamma1_witness(sigma, omega, config=config)
    if witness is None:
        raise GammaNotAboveOne(
            f"no doubling-domination witness for ({sigma.label}, {omega.label})")
    growth = compare_o(f, sigma, config=config)
    if growth.is_violated:
        raise InvalidArgument(
            f"{f.label} does not strictly dominate {sigma.label}: "
            f"{dict(growth.counterexample)}")
    if not growth.is_satisfied:
        raise PreconditionInconclusive(
            f"{sigma.label} = o({f.label}) not certified: "
            f"{dict(growth.trend) if growth.trend else ''}")

    K = float(witness.K)
    xs: list[float] = [0.0]
    rows: list[dict] = []
    for n in range(2, n_break + 1):
        prev = xs[-1]
        spacing = max(2.0, K) * prev + n
        dom_x, dom_mode = _forall_tail_threshold(f, sigma, float(n * n))
        if dom_x is None:
            raise PreconditionInconclusive(
                f"breakpoint {n}: domination f >= {n * n} sigma has no "
                "certifiable threshold up to 1e10")
        cands = {"spacing": spacing, "floor": 1.0, "domination": dom_x}
        for name, g in (("doubling_omega", omega), ("doubling_sigma", sigma)):
            target = max(2.0 ** (n - i) * g.value(x_i)
                         for i, x_i in enumerate(xs, start=1))
            cands[name] = _monotone_threshold(g, target, prev)
        x_n = max(cands.values())
        if x_n <= spacing:
            x_n = spacing * (1.0 + 1e-9)
        binding = max(cands, key=lambda k: cands[k])
        xs.append(x_n)
        rows.append({"n": n, "x": x_n, "binding": binding,
                     "domination_certificate": dom_mode,
                     "thresholds": {k: float(v) for k, v in cands.items()}})

    breakpoints = xs[1:]
    multipliers = list(range(1, n_break + 1))
    om_off = [0.0]
    sg_off = [0.0]
    for x in breakpoints:
        om_off.append(om_off[-1] + omega.value(float(x)))
        sg_off.append(sg_off[-1] + sigma.value(float(x)))
    omega_tilde = PiecewiseGlue(omega, breakpoints, multipliers, om_off)
    sigma_tilde = PiecewiseGlue(sigma, breakpoints, multipliers, sg_off)

    H1 = (witness.H + K) / 2.0
    D = _absorption_onset(witness.H, H1)
    C1 = witness.C * D

    ts = np.geomspace(1.0, 1e6, 160)
    sg_vals = sigma_tilde.eval(ts)
    out_rows = []
    worst = 0.0
    for j in range(21):
        lhs = omega_tilde.eval(K ** j * ts)
        rhs = C1 * H1 ** j * sg_vals
        with np.errstate(divide="ignore", invalid="ignore"):
            r_j = float(np.max(np.where(rhs > 0, lhs / rhs,
                                        np.where(lhs > 0, math.inf, 0.0))))
        out_rows.append({"j": j, "max_ratio": r_j})
        worst = max(worst, r_j)

    w1_report: dict[str, Any] = {}
    w1_in = {name: check_omega_condition(g, "omega1", config=config)
             for name, g in (("sigma", sigma), ("omega", omega))}
    if all(v.is_satisfied for v in w1_in.values()):
        for name, g in (("sigma_tilde", sigma_tilde),
                        ("omega_tilde", omega_tilde)):
            v = check_omega_condition(g, "omega1", config=config)
            if v.is_violated:
                raise InternalInconsistency(
                    f"{name} lost the doubling bound the inputs carried")
            w1_report[name] = v.status.value
    else:
        w1_report["skipped"] = {n: v.status.value for n, v in w1_in.items()}

    diagnostics = {
        "breakpoint_table": rows,
        "continuity": {"omega_tilde": omega_tilde.continuity_defect(),
                       "sigma_tilde": sigma_tilde.continuity_defect()},
        "sandwich": {
            "omega": _sandwich_report(omega, omega_tilde, xs),
            "sigma": _sandwich_report(sigma, sigma_tilde, xs)},
        "output_domination": {"rows": out_rows, "worst_ratio": worst,
                              "passed": bool(worst <= 1.0 + 1e-9)},
        "little_o": {
            "omega_vs_omega_tilde": {
                **_growth_ratio_report(omega, omega_tilde, xs[1], xs[-1]),
                "note": "multiplier frozen beyond the last breakpoint"},
            "sigma_vs_sigma_tilde": {
                **_growth_ratio_report(sigma, sigma_tilde, xs[1], xs[-1]),
                "note": "multiplier frozen beyond the last breakpoint"},
            "sigma_tilde_vs_f": compare_o(f, sigma_tilde,
                                          config=config).status.value},
        "doubling_bound_preserved": w1_report,
    }
    return ReductionResult(breakpoints=tuple(xs), sigma_tilde=sigma_tilde,
                           omega_tilde=omega_tilde, witness=witness, H1=H1,
                           D=D, C1=C1, diagnostics=diagnostics)
