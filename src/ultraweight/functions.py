"""Weight functions on [0, inf) and their growth conditions.

A weight function here is a node tree: closed-form power and log-power laws,
the counting function associated with a weight sequence, argument
substitutions t -> t**r, normalization (clamp to 0 on [0, 1]), the kernel
transform kappa, and piecewise glues used by the reduction builder.  Each node
carries an optional GrowthModel describing its large-t shape; checks combine a
grid sweep with the model so that Satisfied/Violated verdicts never rest on a
finite window alone.

Condition names: omega1 (doubling), omega2 (at most linear), omega3 (beats
log), omega4 (convexity in log coordinates), omega5 (sublinear, little-o),
omega6 (doubling absorption), omega_nq / omega_nq_r (kernel integrability),
omega_snq (kappa dominated by the function itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .quadrature import (integral_to_infinity, kernel_window, power_log_tail,
                         suffix_integral_grid)
from .sequences import WeightSequence
from .verdict import (LOG_RATIO_FLAT, LOG_RATIO_GROW, NOT_VANISH,
                      RATIO_TREND_FLAT, REL_MARGIN, VANISH, WINDOW_DECAY,
                      WINDOW_FLAT, ConditionVerdict, ConvexityViolation,
                      EvaluationRangeError, GridTooCoarse,
                      InternalInconsistency, InvalidArgument, RunConfig, YGrid,
                      _trend_call)

_ASSOC_TABLE_CAP = 1 << 21
# a sequence with an exact closed form is tabulated up to this index at most:
# its tail model serves every index past it
_ASSOC_CLOSED_READ = 1 << 14
_ASSOC_TABLE_START = 4096  # first table size `maximizers` tries
_HULL_ROUNDS = 32


@dataclass(frozen=True)
class GrowthModel:
    """Large-t shape: omega(t) = coeff * t**exponent * (log t)**log_power - offset
    for t >= start.  `exact` promises equality there; otherwise the shape holds
    up to a factor 1 + o(1) (coeff None: only up to bounded factors)."""

    exponent: float
    log_power: float = 0.0
    coeff: Optional[float] = 1.0
    offset: float = 0.0
    exact: bool = False
    start: float = 1.0

    @property
    def shape(self) -> tuple[float, float]:
        return (self.exponent, self.log_power)

    def eval(self, t: np.ndarray) -> np.ndarray:
        if self.coeff is None:
            raise InvalidArgument("model has no known constant")
        t = np.asarray(t, dtype=float)
        out = self.coeff * t ** self.exponent
        if self.log_power != 0.0:
            out = out * np.log(np.maximum(t, 1.0 + 1e-300)) ** self.log_power
        return out - self.offset

    def ratio_limit(self, factor: float) -> float:
        """lim omega(factor * t) / omega(t); log factors wash out."""
        return factor ** self.exponent

    def converges_against(self, s: float) -> Optional[bool]:
        """Does integral^inf omega(u) u**(-s) du converge?"""
        if self.exponent < s - 1.0:
            return True
        if self.exponent > s - 1.0:
            return False
        return self.log_power < -1.0

    def tail_callable(self, s: float) -> Optional[Callable[[float], float]]:
        if not self.exact or self.coeff is None:
            return None
        if self.converges_against(s) is not True:
            return None

        def tail(Y: float) -> float:
            if Y < self.start:
                raise InvalidArgument("closed tail requested below model range")
            return power_log_tail(self.coeff, self.exponent, self.log_power,
                                  self.offset, s, Y)
        return tail

    def substituted(self, r: float) -> "GrowthModel":
        """Model of t -> omega(t**r)."""
        coeff = None if self.coeff is None else self.coeff * r ** self.log_power
        return GrowthModel(self.exponent * r, self.log_power, coeff, self.offset,
                           self.exact, max(self.start, 1e-300) ** (1.0 / r))


def _shape_cmp(a: GrowthModel, b: GrowthModel) -> int:
    """Lexicographic growth comparison: -1 if a grows slower than b."""
    if a.exponent != b.exponent:
        return -1 if a.exponent < b.exponent else 1
    if a.log_power != b.log_power:
        return -1 if a.log_power < b.log_power else 1
    return 0


class WeightFunction:
    """Base node.  Subclasses provide vectorized pointwise evaluation; the
    growth model and kink list (non-smooth points, for quadrature panel
    alignment) are filled in at construction."""

    def __init__(self, label: str, model: Optional[GrowthModel] = None,
                 kinks: Sequence[float] = ()):
        self.label = label
        self.model = model
        self.kinks = tuple(kinks)
        self._verdicts: dict = {}

    def eval(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, t: float) -> float:
        if t < 0:
            raise InvalidArgument(f"weight functions live on [0, inf); got t={t}")
        return float(self.eval(np.asarray([t], dtype=float))[0])

    def spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label}>"


class PowerLaw(WeightFunction):
    def __init__(self, exponent: float, coeff: float = 1.0):
        if exponent < 0 or coeff <= 0:
            raise InvalidArgument("power law needs exponent >= 0 and coeff > 0")
        super().__init__(f"{coeff:g}*t^{exponent:g}",
                         GrowthModel(exponent, 0.0, coeff, 0.0, exact=True))
        self.exponent = exponent
        self.coeff = coeff

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.exponent == 0.0:
            return np.full_like(t, self.coeff)
        return self.coeff * t ** self.exponent

    def spec(self) -> dict:
        return {"kind": "power", "a": self.exponent, "c": self.coeff}


class LogPower(WeightFunction):
    """c * (log t)**k for t >= 1, zero below."""

    def __init__(self, k: float, coeff: float = 1.0):
        if k <= 0 or coeff <= 0:
            raise InvalidArgument("log power needs k > 0 and coeff > 0")
        super().__init__(f"{coeff:g}*log^{k:g}",
                         GrowthModel(0.0, k, coeff, 0.0, exact=True), kinks=(1.0,))
        self.k = k
        self.coeff = coeff

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return self.coeff * np.log(np.maximum(t, 1.0)) ** self.k

    def spec(self) -> dict:
        return {"kind": "logpower", "k": self.k, "c": self.coeff}


class PowerSubst(WeightFunction):
    """base(t**r); prefer the power_substitute factory, which collapses closed forms."""

    def __init__(self, base: WeightFunction, r: float):
        if r <= 0:
            raise InvalidArgument("substitution exponent must be positive")
        model = base.model.substituted(r) if base.model is not None else None
        super().__init__(f"({base.label})@t^{r:g}", model,
                         kinks=tuple(k ** (1.0 / r) for k in base.kinks))
        self.base = base
        self.r = r

    def eval(self, t: np.ndarray) -> np.ndarray:
        return self.base.eval(np.asarray(t, dtype=float) ** self.r)

    def spec(self) -> dict:
        return {"kind": "subst", "r": self.r, "base": self.base.spec()}


def power_substitute(base: WeightFunction, r: float) -> WeightFunction:
    if r <= 0:
        raise InvalidArgument("substitution exponent must be positive")
    if r == 1.0:
        return base
    if isinstance(base, PowerLaw):
        return PowerLaw(base.exponent * r, base.coeff)
    if isinstance(base, LogPower):
        return LogPower(base.k, base.coeff * r ** base.k)
    if isinstance(base, PowerSubst):
        return power_substitute(base.base, base.r * r)
    return PowerSubst(base, r)


class NormalizedShift(WeightFunction):
    """0 on [0, 1], base(t) - base(1) beyond; keeps the shape, fixes value 0 at 1."""

    def __init__(self, base: WeightFunction):
        shift = base.value(1.0)
        model = None
        if base.model is not None:
            model = replace(base.model, offset=base.model.offset + shift,
                            start=max(base.model.start, 1.0))
        super().__init__(f"norm({base.label})", model,
                         kinks=tuple(sorted(set(base.kinks) | {1.0})))
        self.base = base
        self.shift = shift

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.where(t <= 1.0, 0.0, self.base.eval(np.maximum(t, 1.0)) - self.shift)

    def spec(self) -> dict:
        return {"kind": "normalized", "base": self.base.spec()}


def normalize(fn: WeightFunction) -> WeightFunction:
    """Clamp to 0 on [0, 1] without changing growth; no-op if already so."""
    if isinstance(fn, NormalizedShift):
        return fn
    if fn.value(1.0) == 0.0 and fn.value(0.5) == 0.0:
        return fn
    return NormalizedShift(fn)


class AssociatedOf(WeightFunction):
    """sup_p (p log t - log M_p): the counting transform of a weight sequence.

    Inside the tabulated quotient range the maximizer is found by bisection on
    the (nondecreasing) quotients; beyond it an exact tail model continues the
    evaluation in closed form, a finite list keeps its last index, and
    otherwise the argument range is capped.  A sequence with an exact closed
    form is tabulated only up to 2**14 quotients: past them both the
    maximizer and log M_p come from the tail model.  `table_cap` bounds the
    table only of sequences without one.
    """

    def __init__(self, seq: WeightSequence, table_cap: int = _ASSOC_TABLE_CAP):
        tm = seq.tail_model
        model = None
        if tm is not None:
            if tm.kind == "power" and tm.e_lo == tm.e_hi and tm.e_hi > 0:
                alpha, c = tm.e_hi, tm.c_hi
                coeff = None if c is None or not tm.exact else alpha * c ** (-1.0 / alpha)
                model = GrowthModel(1.0 / alpha, 0.0, coeff, 0.0, exact=False)
            elif tm.kind == "loglinear" and tm.a > 0:
                model = GrowthModel(0.0, 2.0, 1.0 / (2.0 * tm.a), 0.0, exact=False)
        super().__init__(f"assoc({seq.label})", model)
        self.seq = seq
        self.table_cap = table_cap
        self._closed = (tm is not None and tm.exact and tm.start == 1
                        and seq.log_m0 == 0.0 and not seq.finite_size)

    def _table_limit(self) -> int:
        if self.seq.finite_size:
            return self.seq.finite_size
        return self.table_cap

    def _read_limit(self) -> int:
        """Last index read from the table; the exact tail model serves the rest."""
        if self._closed:
            return min(_ASSOC_CLOSED_READ, self._table_limit())
        return self._table_limit()

    def maximizers(self, log_t: np.ndarray) -> np.ndarray:
        """Index p* with quotient_{p*} <= t < quotient_{p*+1} (0 when t < quotient_1)."""
        limit = self._read_limit()
        P = min(_ASSOC_TABLE_START, limit)
        self.seq.ensure(P)
        log_mu = self.seq.log_quotients(P)
        top = float(log_t.max(initial=-math.inf))
        while log_mu[-1] <= top and P < limit:
            P = min(2 * P, limit)
            self.seq.ensure(P)
            log_mu = self.seq.log_quotients(P)
        # a finite list simply takes its last index there: the sup runs over
        # finitely many p
        if log_mu[-1] <= top and not (self._closed or self.seq.finite_size):
            raise EvaluationRangeError(
                f"argument beyond tabulated quotients of {self.seq.label} "
                f"and no exact tail model")
        # asarray: searchsorted returns a bare scalar for 0-d input, and the
        # masked assignment below needs a (possibly 0-d) array
        p_star = np.asarray(np.searchsorted(log_mu[1:], log_t, side="right"),
                            dtype=float)
        if self._closed:
            beyond = log_t >= log_mu[-1]
            if np.any(beyond):
                # indices can exceed int64 range here; float64 is exact enough
                # because the objective is flat near its maximizer
                p_star[beyond] = self.seq.tail_model.count_quotients_below(
                    log_t[beyond])
        return p_star

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        log_t = np.log(np.maximum(t, 1e-300))
        p_star = self.maximizers(log_t)
        P = int(min(p_star.max(initial=0), self._read_limit()))
        self.seq.ensure(max(P, 1))
        log_M = self.seq.log_values(max(P, 1))
        out = np.empty_like(log_t)
        small = p_star < len(log_M)
        ps = p_star[small].astype(np.int64)
        out[small] = ps * log_t[small] - log_M[ps]
        if np.any(~small):
            pb = p_star[~small]
            out[~small] = pb * log_t[~small] - self.seq.tail_model.log_value(pb)
        return out

    def spec(self) -> dict:
        return {"kind": "assoc", "sequence": self.seq.spec}


class KappaPower(WeightFunction):
    """(1/r) * t**(1/r) * integral_t^inf base(u) u**(-1-1/r) du.

    For r = 1 this is the classical kernel average t * integral_t^inf
    base(u)/u**2 du; for general r it equals that average applied to the
    substituted function base(u**r), evaluated at t**(1/r).
    """

    def __init__(self, base: WeightFunction, r: float = 1.0):
        if r <= 0:
            raise InvalidArgument("kappa order must be positive")
        s = 1.0 + 1.0 / r
        model = None
        bm = base.model
        if bm is not None and bm.converges_against(s) is True:
            coeff = None if bm.coeff is None else bm.coeff / (1.0 - r * bm.exponent)
            model = GrowthModel(bm.exponent, bm.log_power, coeff, bm.offset,
                                exact=bm.exact and bm.log_power == 0.0,
                                start=max(bm.start, 1.0))
        super().__init__(f"kappa_{r:g}({base.label})", model)
        self.base = base
        self.r = r
        self.s = s
        self.divergent = bm is not None and bm.converges_against(s) is False
        self._tail = bm.tail_callable(s) if bm is not None else None
        self.tail_method = "closed-form" if self._tail is not None else "fitted"

    def eval(self, t: np.ndarray) -> np.ndarray:
        raw = np.asarray(t, dtype=float)
        t = np.maximum(raw, 1e-12)
        if self.divergent:
            return np.full_like(t, math.inf)
        order = np.argsort(t)
        ts, inverse = np.unique(t[order], return_inverse=True)
        if len(ts) == 1:
            G = np.array([integral_to_infinity(self.base.eval, float(ts[0]), self.s,
                                               model_tail=self._tail,
                                               kinks=self.base.kinks).value])
        else:
            G = suffix_integral_grid(self.base.eval, ts, self.s, model_tail=self._tail,
                                     kinks=self.base.kinks)
        vals = ts ** (1.0 / self.r) * G / self.r
        out = np.empty_like(t)
        out[order] = vals[inverse]
        return np.where(raw == 0.0, 0.0, out)

    def spec(self) -> dict:
        return {"kind": "kappa", "r": self.r, "base": self.base.spec()}


class PiecewiseGlue(WeightFunction):
    """multiplier_i * base(t) - offset_i on [breakpoints[i-1], breakpoints[i]).

    multipliers and offsets have one more entry than breakpoints (the leading
    segment starts at 0, the trailing one is unbounded).  The constructor
    verifies continuity at every breakpoint to relative 1e-9.
    """

    def __init__(self, base: WeightFunction, breakpoints: Sequence[float],
                 multipliers: Sequence[float], offsets: Sequence[float]):
        bp = np.asarray(breakpoints, dtype=float)
        mult = np.asarray(multipliers, dtype=float)
        off = np.asarray(offsets, dtype=float)
        if len(mult) != len(bp) + 1 or len(off) != len(bp) + 1:
            raise InvalidArgument("need one more multiplier/offset than breakpoints")
        if len(bp) and (np.any(np.diff(bp) <= 0) or bp[0] <= 0):
            raise InvalidArgument("breakpoints must be positive and increasing")
        model = None
        if base.model is not None:
            bm = base.model
            coeff = None if bm.coeff is None else bm.coeff * mult[-1]
            model = GrowthModel(bm.exponent, bm.log_power, coeff,
                                mult[-1] * bm.offset + off[-1], exact=bm.exact,
                                start=max(bm.start, bp[-1] if len(bp) else 1.0))
        super().__init__(f"glue({base.label},{len(bp)} pts)", model,
                         kinks=tuple(sorted(set(base.kinks) | set(bp.tolist()))))
        self.base = base
        self.breakpoints = bp
        self.multipliers = mult
        self.offsets = off
        defect = self.continuity_defect()
        if defect > 1e-9:
            raise InvalidArgument(f"glue discontinuous: relative defect {defect:.3e}")

    def continuity_defect(self) -> float:
        """Max relative mismatch across breakpoints; telescoped offsets give ~0."""
        worst = 0.0
        for i, x in enumerate(self.breakpoints):
            b = self.base.value(float(x))
            left = self.multipliers[i] * b - self.offsets[i]
            right = self.multipliers[i + 1] * b - self.offsets[i + 1]
            worst = max(worst, abs(left - right) / max(1.0, abs(right)))
        return worst

    def segment(self, t: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.breakpoints, np.asarray(t, dtype=float),
                               side="right")

    def eval(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        idx = self.segment(t)
        return self.multipliers[idx] * self.base.eval(t) - self.offsets[idx]

    def spec(self) -> dict:
        return {"kind": "glue", "base": self.base.spec(),
                "breakpoints": self.breakpoints.tolist(),
                "multipliers": self.multipliers.tolist(),
                "offsets": self.offsets.tolist()}


# ---------------------------------------------------------------------------
# condition checks

_CHAIN = ("omega_snq", "omega_nq", "omega5", "omega2")  # each implies the next


def _sweep(omega: WeightFunction, config: RunConfig):
    ts = config.grid.geometric()
    return ts, omega.eval(ts)


def check_omega1(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    ts, vals = _sweep(omega, config)
    ratio = omega.eval(2.0 * ts) / (vals + 1.0)
    running = np.maximum.accumulate(ratio)
    sup = float(running[-1])
    if omega.model is not None:
        limit = omega.model.ratio_limit(2.0)
        if math.isfinite(limit):
            return ConditionVerdict.satisfied("omega1",
                {"C": max(sup, limit) * REL_MARGIN, "grid_sup": sup,
                 "model_limit": limit})
    call, info = _trend_call(running)
    if call == "stable":
        return ConditionVerdict.satisfied("omega1", {"C": sup * REL_MARGIN,
                                                     "grid_sup": sup,
                                                     "grid_only": True})
    if call == "growing":
        return ConditionVerdict.violated("omega1",
            {"t": float(ts[-1]), "ratio": sup, "trend": "doubling ratio keeps growing",
             **info})
    return ConditionVerdict.inconclusive("omega1", info,
                                         note="no model and no stable sup")


def _linear_bound_check(cond: str, omega: WeightFunction, config: RunConfig,
                        little_o: bool) -> ConditionVerdict:
    ts, vals = _sweep(omega, config)
    ratio = vals / (ts + 1.0)
    m = omega.model
    if m is not None:
        a, k = m.shape
        if a < 1.0 or (a == 1.0 and (k < 0.0 if little_o else k <= 0.0)):
            w = {"ratio_at_tmax": float(ratio[-1]), "model_exponent": a}
            if not little_o:
                w["C"] = float(np.max(ratio)) * REL_MARGIN
            return ConditionVerdict.satisfied(cond, w)
        reason = ("limit of omega(t)/t is positive" if (a == 1.0 and k == 0.0)
                  else "omega(t)/t grows without bound")
        return ConditionVerdict.violated(cond,
            {"t": float(ts[-1]), "ratio": float(ratio[-1]), "trend": reason})
    running = np.maximum.accumulate(ratio)
    call, info = _trend_call(running)
    if call == "growing":
        return ConditionVerdict.violated(cond, {"t": float(ts[-1]),
                                                "ratio": float(ratio[-1]),
                                                "trend": "ratio to t keeps growing",
                                                **info})
    if call == "stable" and not little_o:
        return ConditionVerdict.satisfied(cond, {"C": float(running[-1]) * REL_MARGIN,
                                                 "grid_only": True})
    if little_o:
        n = len(ratio)
        tail, mid = ratio[-1], ratio[n // 2]
        if mid > 0 and tail <= VANISH * mid:
            return ConditionVerdict.satisfied(cond, {"ratio_at_tmax": float(tail),
                                                     "trend": "ratio halves per sweep",
                                                     "grid_only": True})
        if mid > 0 and tail >= NOT_VANISH * mid:
            return ConditionVerdict.violated(cond, {"t": float(ts[-1]),
                                                    "ratio": float(tail),
                                                    "trend": "ratio to t not vanishing"})
    return ConditionVerdict.inconclusive(cond, info,
                                         note="no model; grid trend unclear")


def check_omega2(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    return _linear_bound_check("omega2", omega, config, little_o=False)


def check_omega5(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    return _linear_bound_check("omega5", omega, config, little_o=True)


def check_omega3(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    ts, vals = _sweep(omega, config)
    mask = ts >= 10.0
    ratio = vals[mask] / np.log(ts[mask])
    m = omega.model
    if m is not None:
        a, k = m.shape
        if a > 0 or (a == 0 and k > 1):
            return ConditionVerdict.satisfied("omega3",
                {"ratio_at_tmax": float(ratio[-1]), "model_shape": (a, k)})
        limit = m.coeff if (a == 0 and k == 1 and m.coeff is not None) else None
        return ConditionVerdict.violated("omega3",
            {"t": float(ts[-1]), "ratio": float(ratio[-1]),
             "trend": "omega/log t stays bounded",
             **({"limit": limit} if limit is not None else {})})
    n = len(ratio)
    last, mid = ratio[-1], ratio[n // 2]
    if mid > 0 and last >= LOG_RATIO_GROW * mid:
        return ConditionVerdict.satisfied("omega3", {"ratio_at_tmax": float(last),
                                                     "trend": "ratio keeps growing",
                                                     "grid_only": True})
    if mid > 0 and last <= LOG_RATIO_FLAT * mid:
        return ConditionVerdict.violated("omega3", {"t": float(ts[-1]),
                                                    "ratio": float(last),
                                                    "trend": "ratio flat on grid"})
    return ConditionVerdict.inconclusive("omega3",
        {"ratio_mid": float(mid), "ratio_last": float(last)},
        note="grid trend unclear")


def _convexity_samples(omega: WeightFunction, config: RunConfig):
    y = config.ygrid.values()
    phi = omega.eval(np.exp(y))
    d2 = phi[:-2] - 2.0 * phi[1:-1] + phi[2:]
    scale = max(1.0, float(np.max(np.abs(phi))))
    return y, phi, d2, scale


def check_omega4(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    structural = _structural_convexity(omega)
    if structural is not None:
        return structural
    y, phi, d2, scale = _convexity_samples(omega, config)
    tol = 1e-9 * scale
    bad = int(np.argmin(d2))
    if d2[bad] < -tol:
        i = bad + 1
        return ConditionVerdict.violated("omega4",
            {"triple_y": (float(y[i - 1]), float(y[i]), float(y[i + 1])),
             "triple_phi": (float(phi[i - 1]), float(phi[i]), float(phi[i + 1])),
             "second_difference": float(d2[bad])})
    return ConditionVerdict.satisfied("omega4",
        {"min_second_difference": float(d2[bad]), "method": "sampled",
         "points": len(y)})


def _structural_convexity(omega: WeightFunction) -> Optional[ConditionVerdict]:
    """Exact convexity of phi(y) = omega(e^y) where the node shape decides it."""
    if isinstance(omega, AssociatedOf):
        return ConditionVerdict.satisfied("omega4",
            {"method": "structural", "note": "pointwise sup of affine maps of y"})
    if isinstance(omega, PowerLaw):
        return ConditionVerdict.satisfied("omega4",
            {"method": "structural", "note": "exponential in y"})
    if isinstance(omega, LogPower):
        if omega.k >= 1.0:
            return ConditionVerdict.satisfied("omega4",
                {"method": "structural", "note": "y**k with k >= 1"})
        return None  # concave in y; let sampling produce the witness triple
    if isinstance(omega, PowerSubst):
        inner = _structural_convexity(omega.base)
        if inner is not None and inner.is_satisfied:
            return ConditionVerdict.satisfied("omega4",
                {"method": "structural", "note": "affine reparametrization of y",
                 "base": omega.base.label})
        return None
    if isinstance(omega, NormalizedShift):
        inner = _structural_convexity(omega.base)
        if inner is not None and inner.is_satisfied:
            return ConditionVerdict.satisfied("omega4",
                {"method": "structural",
                 "note": "base shifted by a constant on y >= 0", "base": omega.base.label})
    return None


def check_omega6(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    ts, vals = _sweep(omega, config)
    m = omega.model
    if m is not None and m.exponent == 0 and m.log_power > 0:
        # for any fixed H the deficit 2*omega(t) - omega(Ht) grows like omega
        # itself, so no finite-window search can be trusted
        H = 4.0
        defect = float(np.max(2.0 * vals - omega.eval(H * ts)))
        return ConditionVerdict.violated("omega6",
            {"t": float(ts[-1]), "H_probe": H, "defect": defect,
             "trend": "2*omega(t) - omega(Ht) grows like omega for every fixed H"})
    candidates: list[float] = []
    if m is not None and m.exponent > 0:
        candidates.append(float(2.0 ** (1.0 / m.exponent)))
        candidates.append(float(math.ceil(2.0 ** (1.0 / m.exponent))))
    candidates.extend(float(2 ** j) for j in range(1, 17))
    if m is not None and m.exponent == 0 and m.log_power <= 0:
        candidates.append(2.0 * float(np.max(vals)) + 1.0)
    tried = []
    for H in sorted(set(candidates)):
        defect = float(np.max(2.0 * vals - omega.eval(H * ts)))
        tried.append((H, defect))
        if defect <= H:
            w = {"H": H, "defect": defect}
            if m is None:
                w["grid_only"] = True
            return ConditionVerdict.satisfied("omega6", w)
    return ConditionVerdict.inconclusive("omega6",
        {"tried": [(H, round(d, 6)) for H, d in tried[:6]]},
        note="no H found on the grid and no model to rule one out")


def _integral_trend(omega: WeightFunction, s: float, config: RunConfig):
    """Window integrals of omega * u**(-s) over [1, Y] at doubling cutoffs.

    Returns the integrals and whether their last increment decays and
    whether it stays flat, per WINDOW_DECAY and WINDOW_FLAT.
    """
    cuts = [10.0 ** e for e in (2, 4, 6, 8, 10, 12)]
    windows = []
    total = 0.0
    lo = 1.0
    for hi in cuts:
        total += kernel_window(omega.eval, lo, hi, s, kinks=omega.kinks)
        windows.append(total)
        lo = hi
    inc = np.diff(windows)
    decays = len(inc) >= 2 and inc[-1] <= WINDOW_DECAY * inc[-2]
    flat = len(inc) >= 2 and inc[-1] >= WINDOW_FLAT * inc[-2]
    return np.asarray(windows), decays, flat


def check_omega_nq_r(omega: WeightFunction, r: float,
                     config: Optional[RunConfig] = None,
                     cond: str = "omega_nq_r") -> ConditionVerdict:
    if r <= 0:
        raise InvalidArgument("order r must be positive")
    config = config or RunConfig()
    s = 1.0 + 1.0 / r
    m = omega.model
    conv = m.converges_against(s) if m is not None else None
    if conv is True:
        tail = m.tail_callable(s)
        try:
            res = integral_to_infinity(omega.eval, 1.0, s, model_tail=tail,
                                       kinks=omega.kinks)
            return ConditionVerdict.satisfied(cond,
                {"integral": res.value, "tail": res.tail_method, "r": r})
        except GridTooCoarse:
            return ConditionVerdict.satisfied(cond,
                {"integral": None, "r": r,
                 "note": "model certifies convergence; tail fit unstable"})
    windows, decays, flat = _integral_trend(omega, s, config)
    if conv is False:
        return ConditionVerdict.violated(cond,
            {"partial_integrals": [round(w, 6) for w in windows.tolist()],
             "trend": "model exponent at or above kernel order", "r": r})
    if decays:
        try:
            res = integral_to_infinity(omega.eval, 1.0, s, kinks=omega.kinks)
            return ConditionVerdict.satisfied(cond,
                {"integral": res.value, "tail": res.tail_method, "r": r,
                 "grid_only": True})
        except GridTooCoarse:
            pass
    if flat:
        return ConditionVerdict.violated(cond,
            {"partial_integrals": [round(w, 6) for w in windows.tolist()],
             "trend": "window increments not decaying", "r": r})
    return ConditionVerdict.inconclusive(cond, {"r": r,
        "partial_integrals": [round(w, 6) for w in windows.tolist()]},
        note="integral trend unclear")


def check_omega_nq(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    return check_omega_nq_r(omega, 1.0, config, cond="omega_nq")


def check_omega_snq(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    pre = check_omega_condition(omega, "omega_nq", config=config)
    if pre.is_violated:
        return ConditionVerdict.violated("omega_snq",
            {"precondition": "omega_nq violated, kernel average diverges",
             **(pre.counterexample or {})})
    if pre.is_inconclusive:
        return ConditionVerdict.inconclusive("omega_snq", dict(pre.trend or {}),
                                             note="omega_nq itself inconclusive")
    kap = KappaPower(omega, 1.0)
    ts = config.grid.geometric()
    ratio = kap.eval(ts) / (omega.eval(ts) + 1.0)
    running = np.maximum.accumulate(ratio)
    sup = float(running[-1])
    m = omega.model
    if m is not None and m.exponent < 1.0:
        limit = None
        if m.exponent > 0 or m.log_power >= 0:
            limit = 1.0 / (1.0 - m.exponent)
        return ConditionVerdict.satisfied("omega_snq",
            {"C": max(sup, limit or 0.0) * REL_MARGIN, "grid_sup": sup,
             **({"model_ratio_limit": limit} if limit else {})})
    call, info = _trend_call(running)
    if call == "stable":
        return ConditionVerdict.satisfied("omega_snq",
            {"C": sup * REL_MARGIN, "grid_sup": sup, "grid_only": True})
    if call == "growing":
        return ConditionVerdict.violated("omega_snq",
            {"t": float(ts[-1]), "ratio": sup,
             "trend": "kappa/omega ratio keeps growing", **info})
    return ConditionVerdict.inconclusive("omega_snq", info,
                                         note="ratio trend unclear")


# condition name -> checker(omega, config); one whose name ends in "_r" takes
# the order r before config
OMEGA_CHECKS = {"omega1": check_omega1, "omega2": check_omega2,
                "omega3": check_omega3, "omega4": check_omega4,
                "omega5": check_omega5, "omega6": check_omega6,
                "omega_nq": check_omega_nq, "omega_snq": check_omega_snq,
                "omega_nq_r": check_omega_nq_r}


def check_omega_condition(omega: WeightFunction, cond: str, *,
                          r: Optional[float] = None,
                          config: Optional[RunConfig] = None) -> ConditionVerdict:
    """Dispatch a condition check with caching and implication bookkeeping."""
    config = config or RunConfig()
    key = (cond, r, config)
    if key in omega._verdicts:
        return omega._verdicts[key]
    if cond not in OMEGA_CHECKS:
        raise InvalidArgument(f"unknown condition {cond!r}")
    if not cond.endswith("_r"):
        verdict = OMEGA_CHECKS[cond](omega, config)
    elif r is None:
        raise InvalidArgument(f"{cond} needs the order r")
    else:
        verdict = OMEGA_CHECKS[cond](omega, r, config)
    verdict = _apply_chain(omega, cond, verdict, config)
    omega._verdicts[key] = verdict
    return verdict


def _cached(omega: WeightFunction, cond: str, config: RunConfig):
    return omega._verdicts.get((cond, None, config))


def _apply_chain(omega: WeightFunction, cond: str, verdict: ConditionVerdict,
                 config: RunConfig) -> ConditionVerdict:
    """omega_snq => omega_nq => omega5 => omega2; contradictions are fatal."""
    if cond not in _CHAIN:
        return verdict
    idx = _CHAIN.index(cond)
    for stronger in _CHAIN[:idx]:
        prior = _cached(omega, stronger, config)
        if prior is not None and prior.is_satisfied:
            if verdict.is_violated:
                raise InternalInconsistency(
                    f"{stronger} satisfied but implied {cond} violated for {omega.label}")
            if verdict.is_inconclusive:
                return ConditionVerdict.satisfied(cond, {"implied_by": stronger})
    for weaker in _CHAIN[idx + 1:]:
        prior = _cached(omega, weaker, config)
        if prior is not None and prior.is_violated:
            if verdict.is_satisfied:
                raise InternalInconsistency(
                    f"{cond} satisfied but implied {weaker} violated for {omega.label}")
            if verdict.is_inconclusive:
                return ConditionVerdict.violated(cond,
                    {"implied_by_contrapositive": weaker,
                     **(prior.counterexample or {})})
    return verdict


# ---------------------------------------------------------------------------
# comparisons

def _ratio_verdict(cond: str, num: WeightFunction, den: WeightFunction,
                   config: RunConfig, want_vanishing: bool) -> ConditionVerdict:
    ts = config.grid.geometric()
    ratio = num.eval(ts) / (den.eval(ts) + 1.0)
    running = np.maximum.accumulate(ratio)
    info = {"ratio_at_tmax": float(ratio[-1]), "grid_sup": float(running[-1])}
    if num.model is not None and den.model is not None:
        c = _shape_cmp(num.model, den.model)
        if c < 0:
            if want_vanishing:
                return ConditionVerdict.satisfied(cond, info)
            return ConditionVerdict.satisfied(cond,
                {"C": float(running[-1]) * REL_MARGIN, **info})
        if c > 0:
            return ConditionVerdict.violated(cond,
                {"t": float(ts[-1]), **info, "trend": "ratio grows without bound"})
        # same shape
        if want_vanishing:
            return ConditionVerdict.violated(cond,
                {"t": float(ts[-1]), **info,
                 "trend": "same growth shape, ratio does not vanish"})
        if num.model.coeff is not None and den.model.coeff is not None:
            limit = num.model.coeff / den.model.coeff
            return ConditionVerdict.satisfied(cond,
                {"C": max(float(running[-1]), limit) * REL_MARGIN,
                 "model_ratio_limit": limit, **info})
    call, tr = _trend_call(running, flat=RATIO_TREND_FLAT)
    if call == "growing":
        return ConditionVerdict.violated(cond, {"t": float(ts[-1]), **info, **tr,
                                                "trend": "grid ratio keeps growing"})
    if want_vanishing:
        n = len(ratio)
        if ratio[n // 2] > 0 and ratio[-1] <= VANISH * ratio[n // 2]:
            return ConditionVerdict.satisfied(cond, {**info, "grid_only": True})
        return ConditionVerdict.inconclusive(cond, info,
                                             note="vanishing not certified")
    if call == "stable":
        return ConditionVerdict.satisfied(cond,
            {"C": float(running[-1]) * REL_MARGIN, "grid_only": True, **info})
    return ConditionVerdict.inconclusive(cond, info,
                                         note="no model; grid trend unclear")


def compare_preceq(a: WeightFunction, b: WeightFunction,
                   config: Optional[RunConfig] = None) -> ConditionVerdict:
    """Is b dominated by a, i.e. b(t) <= C (a(t) + 1) for some C?"""
    return _ratio_verdict("preceq", b, a, config or RunConfig(),
                          want_vanishing=False)


def compare_o(a: WeightFunction, b: WeightFunction,
              config: Optional[RunConfig] = None) -> ConditionVerdict:
    """Is b negligible against a, i.e. b(t)/a(t) -> 0?"""
    return _ratio_verdict("little_o", b, a, config or RunConfig(),
                          want_vanishing=True)


def equivalent_fun(a: WeightFunction, b: WeightFunction,
                   config: Optional[RunConfig] = None) -> ConditionVerdict:
    config = config or RunConfig()
    fwd = compare_preceq(a, b, config)
    bwd = compare_preceq(b, a, config)
    if fwd.is_satisfied and bwd.is_satisfied:
        return ConditionVerdict.satisfied("equivalent",
            {"C_forward": fwd.witness.get("C"), "C_backward": bwd.witness.get("C")})
    if fwd.is_violated or bwd.is_violated:
        side = fwd if fwd.is_violated else bwd
        return ConditionVerdict.violated("equivalent", dict(side.counterexample or {}))
    return ConditionVerdict.inconclusive("equivalent",
        {"forward": fwd.status.value, "backward": bwd.status.value})


# ---------------------------------------------------------------------------
# convex piecewise-linear calculus and the Young conjugate

@dataclass(frozen=True)
class ConvexPL:
    """Convex piecewise-linear function given by breakpoints and values;
    linear extension beyond the last breakpoint with `extrapolation_slope`,
    and with the first segment's slope before the first breakpoint."""

    xs: np.ndarray
    vals: np.ndarray
    extrapolation_slope: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))
        object.__setattr__(self, "vals", np.asarray(self.vals, dtype=float))

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.vals) / np.diff(self.xs)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.vals)
        if len(self.xs) > 1:
            s0 = (self.vals[1] - self.vals[0]) / (self.xs[1] - self.xs[0])
            below = x < self.xs[0]
            out = np.where(below, self.vals[0] + s0 * (x - self.xs[0]), out)
        above = x > self.xs[-1]
        out = np.where(above,
                       self.vals[-1] + self.extrapolation_slope * (x - self.xs[-1]),
                       out)
        return out

    def value(self, x: float) -> float:
        return float(self(np.asarray([x]))[0])


def _monotone_chain(xs: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Indices of the lower hull vertices, one point at a time."""
    hull = [0]
    for i in range(1, len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            lhs = (vals[i1] - vals[i0]) * (xs[i] - xs[i1])
            rhs = (vals[i] - vals[i1]) * (xs[i1] - xs[i0])
            if lhs >= rhs:  # middle point lies on or above the chord
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull)


def convexify(xs: np.ndarray, vals: np.ndarray) -> tuple[ConvexPL, float]:
    """Lower convex hull.  Returns the hull and the largest pointwise drop
    from the input to the hull, as a convexity defect measure.

    Points are eliminated in rounds: each round drops, all at once, every
    interior point on or above the chord of its current neighbours.  Such a
    point is no hull vertex of the original set, so the rounds leave the hull
    unchanged; they stop when a round drops nothing.  Inputs that shed only a
    few points per round (one very low end point) finish after
    `_HULL_ROUNDS` rounds with the monotone chain on the survivors.
    """
    xs = np.asarray(xs, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if len(xs) < 2 or np.any(np.diff(xs) <= 0):
        raise GridTooCoarse("need at least two strictly increasing sample points")
    idx = np.arange(len(xs))
    for _ in range(_HULL_ROUNDS):
        x, v = xs[idx], vals[idx]
        # the chain's test, for every interior point against its neighbours
        drop = ((v[1:-1] - v[:-2]) * (x[2:] - x[1:-1])
                >= (v[2:] - v[1:-1]) * (x[1:-1] - x[:-2]))
        if not drop.any():
            break
        idx = np.delete(idx, np.flatnonzero(drop) + 1)
    else:
        idx = idx[_monotone_chain(xs[idx], vals[idx])]
    pl = ConvexPL(xs[idx], vals[idx],
                  float((vals[idx[-1]] - vals[idx[-2]]) / (xs[idx[-1]] - xs[idx[-2]])))
    defect = float(np.max(vals - pl(xs)))
    return pl, defect


def conjugate_pl(pl: ConvexPL, *, tol: float = 1e-9) -> ConvexPL:
    """Exact conjugate sup_y (x y - phi(y)) of a convex piecewise-linear phi
    treated as +inf beyond its last breakpoint.

    The conjugate is again piecewise linear: its breakpoints are the slopes of
    phi, its slopes are the breakpoints of phi.
    """
    xs, vals = pl.xs, pl.vals
    if len(xs) < 2:
        raise GridTooCoarse("conjugate needs at least two breakpoints")
    slopes = np.diff(vals) / np.diff(xs)
    drops = np.diff(slopes)
    # tolerances are relative to the local slope, not the global one: slopes
    # span many orders of magnitude on a log-axis grid
    local = np.maximum(1.0, np.abs(slopes[:-1]))
    worst = int(np.argmin(drops / local)) if len(drops) else 0
    if len(drops) and drops[worst] < -tol * local[worst]:
        raise ConvexityViolation(
            f"slopes decrease at breakpoint {worst + 1}",
            triple=((float(xs[worst]), float(vals[worst])),
                    (float(xs[worst + 1]), float(vals[worst + 1])),
                    (float(xs[worst + 2]), float(vals[worst + 2]))))
    keep = np.concatenate([[True], drops > tol * local])
    s = slopes[keep]
    y = xs[:-1][keep]  # left endpoint of each kept segment
    # value at conjugate breakpoint s_j is s_j * y_j - phi(y_j)
    phi_y = vals[:-1][keep]
    out_x = s
    out_v = s * y - phi_y
    if s[0] > 0:
        # for x in [0, s_0) the maximizer sits at the first breakpoint
        out_x = np.concatenate([[0.0], out_x])
        out_v = np.concatenate([[-vals[0]], out_v])
    return ConvexPL(out_x, out_v, extrapolation_slope=float(xs[-1]))


def biconjugate(pl: ConvexPL) -> ConvexPL:
    return conjugate_pl(conjugate_pl(pl))


def young_conjugate(omega: "WeightFunction | ConvexPL",
                    grid: "YGrid | Sequence[float] | None" = None, *,
                    tol: float = 1e-9) -> ConvexPL:
    """Conjugate sup_y (x y - phi(y)) of phi(y) = omega(e^y).

    Accepts a weight function (phi is sampled on `grid`, convexified to absorb
    sampling noise, then conjugated exactly) or an already convex
    piecewise-linear phi (conjugated directly; `grid` is ignored).
    """
    if isinstance(omega, ConvexPL):
        return conjugate_pl(omega, tol=tol)
    if grid is None:
        y = YGrid().values()
    elif isinstance(grid, YGrid):
        y = grid.values()
    else:
        y = np.asarray(grid, dtype=float)
    phi = omega.eval(np.exp(y))
    pl, defect = convexify(y, phi)
    scale = max(1.0, float(np.max(np.abs(phi))))
    # anything beyond sampling noise means the profile genuinely bends the
    # wrong way and the conjugate would be the hull's, not the function's
    if defect > max(tol, 1e-8) * scale:
        i = int(np.argmax(phi - pl(y)))
        lo, hi = max(i - 1, 0), min(i + 1, len(y) - 1)
        raise ConvexityViolation(
            f"sampled profile not convex: relative defect {defect / scale:.3e}",
            triple=((float(y[lo]), float(phi[lo])),
                    (float(y[i]), float(phi[i])),
                    (float(y[hi]), float(phi[hi]))))
    return conjugate_pl(pl, tol=tol)
