"""Weight functions on [0, inf) and their growth conditions.

A weight function here is a node tree: closed-form power and log-power laws,
the counting function associated with a weight sequence, argument
substitutions t -> t**r, normalization (clamp to 0 on [0, 1]), the kernel
transform kappa, and piecewise glues used by the reduction builder.  Each node
carries an optional GrowthModel describing its large-t shape.  Where neither
the model nor the node's structure decides a check, the check reads the trend
on the finite grid through one shared step, and the verdict, in any status,
has provenance `trend`: it rests on the finite window alone.

Condition names: omega1 (doubling), omega2 (at most linear), omega3 (beats
log), omega4 (convexity in log coordinates), omega5 (sublinear, little-o),
omega6 (doubling absorption), omega_nq / omega_nq_r (kernel integrability),
omega_snq (kappa dominated by the function itself: the mixed condition of
(omega, omega) at order 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Mapping, Optional, Sequence

import numpy as np

from .quadrature import (BLOCK, PanelSamples, SuffixSamples, TailSamples,
                         power_log_tail, sample_window, suffix_integral_grid)
from .sequences import WeightSequence
from .verdict import (GAUGE_NOT_VANISH, LOG_NOT_VANISH, LOG_VANISH,
                      NOT_VANISH, RATIO_TREND_FLAT, REL_MARGIN, TREND_FLAT,
                      TREND_GROW, VANISH, WINDOW_DECAY, WINDOW_FLAT,
                      ConditionVerdict, ConvexityViolation,
                      EvaluationRangeError, GridTooCoarse, InvalidArgument,
                      RunConfig, Verdict, Y_GRID, both_ways, grid_decided,
                      read_only)

_ASSOC_TABLE_CAP = 1 << 21  # the quotient table of a sequence without a closed form
# a sequence with an exact closed form is tabulated up to this index at most:
# its tail model serves every index past it
_ASSOC_CLOSED_READ = 1 << 14
_ASSOC_TABLE_START = 4096  # first table size `AssociatedOf._table` tries
_HULL_ROUNDS = 32
# conjugate_pl: a slope change within this, relative to the local slope, is
# none (the segments merge); a larger decrease is a convexity violation
_CONJ_TOL = 1e-9
_HULL_DEFECT_TOL = 1e-8  # young_conjugate: sampled profile above its hull


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

    # eval of a concatenation equals the concatenation of evals, bit for bit:
    # each value depends on its own argument alone
    pointwise = True
    # eval runs in blocks of its own (or wraps one that does): a caller that
    # split its arguments would only repeat the per-call work
    blocked = False

    def __init__(self, label: str, model: Optional[GrowthModel] = None,
                 kinks: Sequence[float] = ()):
        self.label = label
        self.model = model
        self.kinks = tuple(kinks)

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
        if not 0 < r < math.inf:
            raise InvalidArgument("substitution exponent must be finite and positive")
        model = base.model.substituted(r) if base.model is not None else None
        super().__init__(f"({base.label})@t^{r:g}", model,
                         kinks=tuple(k ** (1.0 / r) for k in base.kinks))
        self.base = base
        self.r = r
        self.pointwise, self.blocked = base.pointwise, base.blocked

    def eval(self, t: np.ndarray) -> np.ndarray:
        return self.base.eval(np.asarray(t, dtype=float) ** self.r)

    def spec(self) -> dict:
        return {"kind": "subst", "r": self.r, "base": self.base.spec()}


def power_substitute(base: WeightFunction, r: float) -> WeightFunction:
    if not 0 < r < math.inf:
        raise InvalidArgument("substitution exponent must be finite and positive")
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
        self.pointwise, self.blocked = base.pointwise, base.blocked

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
    the (nondecreasing) quotients, or for a long ascending block by one merge
    with them (`_merged`); beyond it an exact tail model continues the
    evaluation in closed form, a finite list keeps its last index, and
    otherwise the argument range is capped.  A sequence with an exact closed
    form is tabulated only up to 2**14 quotients: past them both the
    maximizer and log M_p come from the tail model.  `_ASSOC_TABLE_CAP`
    bounds the table only of sequences without one.
    """

    blocked = True

    def __init__(self, seq: WeightSequence):
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
        self._closed = (tm is not None and tm.exact and tm.start == 1
                        and seq.log_m0 == 0.0 and not seq.finite_size)
        # (table length checked, whether its quotients never decrease there)
        self._ascends = (1, True)

    def _table_limit(self) -> int:
        return self.seq.finite_size or _ASSOC_TABLE_CAP

    def _read_limit(self) -> int:
        """Last index read from the table; the exact tail model serves the rest."""
        if self._closed:
            return min(_ASSOC_CLOSED_READ, self._table_limit())
        return self._table_limit()

    def _table(self, top: float) -> np.ndarray:
        """log mu_0..log mu_P, the table doubled from `_ASSOC_TABLE_START`
        until its last quotient exceeds `top`, the largest log t asked for, or
        P reaches the read limit."""
        limit = self._read_limit()
        P = min(_ASSOC_TABLE_START, limit)
        self.seq.ensure(P)
        log_mu = self.seq.log_quotients(P)
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
        return log_mu

    def _table_ascends(self, log_mu: np.ndarray) -> bool:
        """Whether log mu_1..log mu_P never decrease; each growth is checked once."""
        checked, ok = self._ascends
        if ok and checked < len(log_mu):
            q = log_mu[max(checked - 1, 1):]
            ok = bool(np.all(q[1:] >= q[:-1]))
            self._ascends = (len(log_mu), ok)
        return ok

    def _merged(self, log_mu: np.ndarray, log_t: np.ndarray) -> Optional[np.ndarray]:
        """searchsorted(log_mu[1:], log_t, "right") by one merge of two sorted lists.

        Taken for nondecreasing log t (a nan fails) over a nondecreasing
        table, when fewer quotients than points lie between the first and
        the last log t; None otherwise.  The quotient q_j of that slice is
        passed by the points from the first with log t >= q_j on, so a
        cumulative count of those first points gives every p*.
        """
        n = log_t.size
        if not np.all(log_t[1:] >= log_t[:-1]):
            return None
        q = log_mu[1:]
        lo, hi = np.searchsorted(q, (log_t[0], log_t[-1]), side="right")
        if hi - lo >= n or not self._table_ascends(log_mu):
            return None
        first = np.searchsorted(log_t, q[lo:hi], side="left")
        return lo + np.cumsum(np.bincount(first, minlength=n))

    def _maximizers(self, log_mu: np.ndarray, log_t: np.ndarray,
                    counts: Optional[np.ndarray] = None) -> np.ndarray:
        """Index p* with quotient_{p*} <= t < quotient_{p*+1} (0 when t < quotient_1).

        `counts`, when given, is that search in the table already made.
        """
        if counts is None:
            counts = np.searchsorted(log_mu[1:], log_t, side="right")
        # asarray: searchsorted returns a bare scalar for 0-d input, and the
        # masked assignment below needs a (possibly 0-d) array
        p_star = np.asarray(counts, dtype=float)
        if self._closed:
            beyond = log_t >= log_mu[-1]
            if np.any(beyond):
                # indices can exceed int64 range here; float64 is exact enough
                # because the objective is flat near its maximizer
                p_star[beyond] = self.seq.tail_model.count_quotients_below(
                    log_t[beyond])
        return p_star

    def _overflowed(self, log_t: np.ndarray) -> np.ndarray:
        """omega where p* log t - log M_{p*} is not a finite float.

        That happens only past an exact tail model.  For mu_p = c p**e,
        omega(t) = e p* (1 + O(log p* / p*)) with p* = (t/c)**(1/e), so e p*
        is omega to double precision there; log-linear quotients get there
        only at t = inf, where omega is +inf.
        """
        tm = self.seq.tail_model
        if tm.kind == "power":
            with np.errstate(over="ignore"):
                return np.exp((log_t - math.log(tm.c_hi)) / tm.e_hi + math.log(tm.e_hi))
        return np.full_like(log_t, math.inf)

    def eval(self, t: np.ndarray) -> np.ndarray:
        """omega at t, `BLOCK` points at a time into one output array.

        log t goes to the output first; its largest value grows the quotient
        table once, and then each block is overwritten by its values.
        """
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape)
        flat_t, flat = t.reshape(-1), out.reshape(-1)
        starts = range(0, flat.size, BLOCK)
        for i in starts:
            b = flat[i: i + BLOCK]
            np.log(np.maximum(flat_t[i: i + BLOCK], 1e-300, out=b), out=b)
        # fmax skips a nan t, which sizes nothing and gets a nan value
        log_mu = self._table(float(np.fmax.reduce(flat, initial=-math.inf)))
        # every p* past the table is past the read limit: the tail model
        # serves it, and the table's log M serves every other
        log_M = self.seq.log_values(len(log_mu) - 1)
        for i in starts:
            b = flat[i: i + BLOCK]
            # a merge pays off only from BLOCK // 8 points
            counts = self._merged(log_mu, b) if b.size >= BLOCK // 8 else None
            if counts is not None and not (self._closed and b[-1] >= log_mu[-1]):
                # an ascending block inside the table: every p* is a count
                np.multiply(counts, b, out=b)
                b -= log_M[counts]
                continue
            log_t = b.copy()
            p_star = self._maximizers(log_mu, log_t, counts)
            small = p_star < len(log_M)
            ps = p_star[small].astype(np.int64)
            b[small] = ps * log_t[small] - log_M[ps]
            if not small.all():
                far = ~small
                pb, lb = p_star[far], log_t[far]
                with np.errstate(over="ignore", invalid="ignore"):
                    vals = pb * lb - self.seq.tail_model.log_value(pb)
                bad = ~np.isfinite(vals)
                if bad.any():
                    vals[bad] = self._overflowed(lb[bad])
                b[far] = vals
        return out

    def spec(self) -> dict:
        return {"kind": "assoc", "sequence": self.seq.spec}


class KappaPower(WeightFunction):
    """(1/r) * t**(1/r) * integral_t^inf base(u) u**(-1-1/r) du.

    For r = 1 this is the classical kernel average t * integral_t^inf
    base(u)/u**2 du; for general r it equals that average applied to the
    substituted function base(u**r), evaluated at t**(1/r).
    """

    pointwise = False  # one suffix integral over the sorted arguments

    def __init__(self, base: WeightFunction, r: float = 1.0):
        if not 0 < r < math.inf:
            raise InvalidArgument("kappa order must be finite and positive")
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
        self.pointwise, self.blocked = base.pointwise, base.blocked
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
# the grid trend: how a check decides where no model does

def _trend_call(ratio: np.ndarray, ts: np.ndarray, of: str, flat: float,
                extra: Mapping[str, Any]) -> tuple[str, dict]:
    """'stable', 'growing' or 'unclear' for the running sup of `ratio` along
    the grid `ts`, and the evidence both rules report: what `of` names, the
    grid end, `extra`, and the sup at the quarter, the middle and the end."""
    running = np.maximum.accumulate(ratio)
    n = len(running)
    quarter, mid, last = running[n // 4], running[n // 2], running[-1]
    evidence = {"of": of, "t": float(ts[-1]), **extra,
                "sup": [float(quarter), float(mid), float(last)]}
    if n >= 8 and mid > 0 and last <= flat * mid:
        return "stable", evidence
    if n >= 8 and quarter > 0 and mid >= TREND_GROW * quarter and last >= TREND_GROW * mid:
        return "growing", evidence
    return "unclear", evidence


def grid_bounded(cond: str, ratio: np.ndarray, ts: np.ndarray, of: str, *,
                 flat: float = TREND_FLAT, **extra: Any) -> ConditionVerdict:
    """Decide "`ratio` stays bounded" on the grid.  A sup that ends within
    `flat` of its middle value is Satisfied, with C the final sup widened by
    REL_MARGIN; one that rises by TREND_GROW over each of its last two
    quarters is Violated."""
    call, evidence = _trend_call(ratio, ts, of, flat, extra)
    if call == "stable":
        return grid_decided(cond, Verdict.SATISFIED, "bounded",
                            {"C": evidence["sup"][-1] * REL_MARGIN, **evidence})
    status = Verdict.VIOLATED if call == "growing" else Verdict.INCONCLUSIVE
    return grid_decided(cond, status, "bounded", evidence)


def grid_vanishing(cond: str, ratio: np.ndarray, ts: np.ndarray, of: str, *,
                   vanish: float = VANISH, stays: float = NOT_VANISH,
                   **extra: Any) -> ConditionVerdict:
    """Decide "`ratio` tends to 0" on the grid: Violated when its sup grows or
    it ends at least `stays` times its middle value, Satisfied when it ends at
    most `vanish` times that value."""
    call, evidence = _trend_call(ratio, ts, of, TREND_FLAT, extra)
    mid, end = float(ratio[len(ratio) // 2]), float(ratio[-1])
    readable = 0.0 < mid < math.inf
    if call == "growing" or (readable and end >= stays * mid):
        status = Verdict.VIOLATED
    elif readable and end <= vanish * mid:
        status = Verdict.SATISFIED
    else:
        status = Verdict.INCONCLUSIVE
    return grid_decided(cond, status, "vanishing", {**evidence, "ratio": [mid, end]})


# ---------------------------------------------------------------------------
# condition checks

_LINEAR = GrowthModel(1.0)


def _sweep(omega: WeightFunction, config: RunConfig):
    ts = config.grid.geometric()
    return ts, omega.eval(ts)


def check_omega1(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    ts, vals = _sweep(omega, config)
    ratio = omega.eval(2.0 * ts) / (vals + 1.0)
    limit = omega.model.ratio_limit(2.0) if omega.model is not None else math.inf
    if not math.isfinite(limit):
        return grid_bounded("omega1", ratio, ts, "omega(2t)/(omega(t)+1)")
    sup = float(np.max(ratio))
    return ConditionVerdict.satisfied("omega1", {"C": max(sup, limit) * REL_MARGIN,
                                      "grid_sup": sup, "model_limit": limit}, "growth-model")


def check_omega2(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    ts, vals = _sweep(omega, config)
    ratio, m = vals / (ts + 1.0), omega.model
    if m is None:
        return grid_bounded("omega2", ratio, ts, "omega(t)/(t+1)")
    if _shape_cmp(m, _LINEAR) > 0:
        return ConditionVerdict.violated("omega2", {"t": float(ts[-1]),
            "ratio": float(ratio[-1]), "trend": "omega(t)/t grows without bound"}, "growth-model")
    return ConditionVerdict.satisfied("omega2",
        {"ratio_at_tmax": float(ratio[-1]), "model_exponent": m.exponent,
         "C": float(np.max(ratio)) * REL_MARGIN}, "growth-model")


def check_omega5(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    ts, vals = _sweep(omega, config)
    ratio, m = vals / (ts + 1.0), omega.model
    if m is None:
        return grid_vanishing("omega5", ratio, ts, "omega(t)/(t+1)")
    c = _shape_cmp(m, _LINEAR)
    if c >= 0:
        return ConditionVerdict.violated("omega5", {"t": float(ts[-1]),
            "ratio": float(ratio[-1]),
            "trend": ("limit of omega(t)/t is positive" if c == 0
                      else "omega(t)/t grows without bound")}, "growth-model")
    return ConditionVerdict.satisfied("omega5",
        {"ratio_at_tmax": float(ratio[-1]), "model_exponent": m.exponent}, "growth-model")


def check_omega3(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    ts, vals = _sweep(omega, config)
    mask = ts >= 10.0
    ts, vals = ts[mask], vals[mask]
    m = omega.model
    if m is None:
        # log t = o(omega): the reciprocal ratio vanishes
        with np.errstate(divide="ignore"):
            inverse = np.log(ts) / np.maximum(vals, 0.0)
        return grid_vanishing("omega3", inverse, ts, "log t/omega(t)",
                              vanish=LOG_VANISH, stays=LOG_NOT_VANISH)
    ratio = vals / np.log(ts)
    a, k = m.shape
    if a > 0 or (a == 0 and k > 1):
        return ConditionVerdict.satisfied("omega3",
            {"ratio_at_tmax": float(ratio[-1]), "model_shape": (a, k)}, "growth-model")
    limit = m.coeff if (a == 0 and k == 1 and m.coeff is not None) else None
    return ConditionVerdict.violated("omega3",
        {"t": float(ts[-1]), "ratio": float(ratio[-1]),
         "trend": "omega/log t stays bounded",
         **({"limit": limit} if limit is not None else {})}, "growth-model")


def _convexity_samples(omega: WeightFunction):
    y = Y_GRID
    phi = omega.eval(np.exp(y))
    d2 = phi[:-2] - 2.0 * phi[1:-1] + phi[2:]
    scale = max(1.0, float(np.max(np.abs(phi))))
    return y, phi, d2, scale


def check_omega4(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    structural = _structural_convexity(omega)
    if structural is not None:
        return ConditionVerdict.satisfied("omega4", structural, "structure")
    y, phi, d2, scale = _convexity_samples(omega)
    tol = 1e-9 * scale
    bad = int(np.argmin(d2))
    if d2[bad] < -tol:
        i = bad + 1
        return ConditionVerdict.violated("omega4",
            {"triple_y": (float(y[i - 1]), float(y[i]), float(y[i + 1])),
             "triple_phi": (float(phi[i - 1]), float(phi[i]), float(phi[i + 1])),
             "second_difference": float(d2[bad])}, "trend")
    return ConditionVerdict.satisfied("omega4",
        {"min_second_difference": float(d2[bad]), "points": len(y)}, "trend")


def _structural_convexity(omega: WeightFunction) -> Optional[dict]:
    """Why phi(y) = omega(e^y) is exactly convex, where the node shape decides
    it; None where it does not (a concave LogPower among them: sampling then
    finds the witness triple)."""
    if isinstance(omega, AssociatedOf):
        return {"note": "pointwise sup of affine maps of y"}
    if isinstance(omega, PowerLaw):
        return {"note": "exponential in y"}
    if isinstance(omega, LogPower):
        return {"note": "y**k with k >= 1"} if omega.k >= 1.0 else None
    if isinstance(omega, (PowerSubst, NormalizedShift)) and _structural_convexity(omega.base):
        note = ("affine reparametrization of y" if isinstance(omega, PowerSubst)
                else "base shifted by a constant on y >= 0")
        return {"note": note, "base": omega.base.label}
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
             "trend": "2*omega(t) - omega(Ht) grows like omega for every fixed H"},
            "growth-model")
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
        if defect <= H:
            status, evidence = Verdict.SATISFIED, {"H": H, "defect": defect}
            break
        tried.append((H, round(defect, 6)))
    else:
        status, evidence = Verdict.INCONCLUSIVE, {"tried": tried[:6]}
    if (status is Verdict.SATISFIED and m is not None and m.exact and m.log_power >= 0
            and H ** m.exponent >= 2.0 and m.offset >= -H):
        # past the model's start 2*omega(t) - omega(Ht) <= -offset <= H: the
        # model bounds the deficit beyond the grid too
        return ConditionVerdict.satisfied("omega6", evidence, "growth-model")
    return grid_decided("omega6", status, "H search", evidence)


class OmegaNodes:
    """omega at the quadrature nodes the order-r kernel checks read.

    Each node set is sampled on first use and kept as long as the object,
    which one index call or one standalone check builds and drops: the probes
    of a bisection share one sampling of omega, and each applies only the
    kernel u**(-s) and the weights of its own order.
    """

    def __init__(self, omega: WeightFunction):
        self.omega = omega

    @cached_property
    def from_one(self) -> TailSamples:
        """The nodes of integral_1^inf omega(u) u**(-s) du."""
        return TailSamples(self.omega.eval, 1.0, kinks=self.omega.kinks)

    @cached_property
    def trend_windows(self) -> tuple[PanelSamples, ...]:
        """The windows [1, 1e2], [1e2, 1e4], ..., [1e10, 1e12]."""
        cuts = [1.0] + [10.0 ** e for e in (2, 4, 6, 8, 10, 12)]
        return tuple(sample_window(self.omega.eval, lo, hi, kinks=self.omega.kinks)
                     for lo, hi in zip(cuts[:-1], cuts[1:]))

    def integral_trend(self, s: float):
        """Window integrals of omega * u**(-s) over [1, Y] at doubling cutoffs.

        Returns the integrals and whether their last increment decays and
        whether it stays flat, per WINDOW_DECAY and WINDOW_FLAT.
        """
        windows = []
        total = 0.0
        for window in self.trend_windows:
            total += window.integral(s)
            windows.append(total)
        inc = np.diff(windows)
        decays = len(inc) >= 2 and inc[-1] <= WINDOW_DECAY * inc[-2]
        flat = len(inc) >= 2 and inc[-1] >= WINDOW_FLAT * inc[-2]
        return np.asarray(windows), decays, flat

    def nq_r(self, r: float, cond: str = "omega_nq_r") -> ConditionVerdict:
        """Does integral_1^inf omega(u) u**(-1-1/r) du converge?"""
        if not 0 < r < math.inf:
            raise InvalidArgument("order r must be finite and positive")
        s = 1.0 + 1.0 / r
        m = self.omega.model
        conv = m.converges_against(s) if m is not None else None
        if conv is True:
            tail = m.tail_callable(s)
            try:
                return ConditionVerdict.satisfied(cond, {
                    "integral": self.from_one.integral(s, tail),
                    "tail": "fitted" if tail is None else "closed-form", "r": r},
                    "growth-model")
            except GridTooCoarse:
                return ConditionVerdict.satisfied(cond, {"integral": None, "r": r,
                    "note": "model certifies convergence; tail fit unstable"}, "growth-model")
        windows, decays, flat = self.integral_trend(s)
        if conv is False:
            return ConditionVerdict.violated(cond,
                {"partial_integrals": [round(w, 6) for w in windows.tolist()],
                 "trend": "model exponent at or above kernel order", "r": r}, "growth-model")
        if decays:
            try:
                return grid_decided(cond, Verdict.SATISFIED, "window integrals",
                    {"integral": self.from_one.integral(s), "tail": "fitted", "r": r})
            except GridTooCoarse:
                pass
        return windows_verdict(cond, r, windows, flat)


def windows_verdict(cond: str, r: float, windows: np.ndarray,
                    flat: bool) -> ConditionVerdict:
    """An order-r kernel check decided by the window integrals of
    `OmegaNodes.integral_trend` alone: Violated when they stay flat."""
    return grid_decided(cond, Verdict.VIOLATED if flat else Verdict.INCONCLUSIVE,
        "window integrals",
        {"r": r, "partial_integrals": [round(w, 6) for w in windows.tolist()]})


class MixedFunProbe:
    """mixed_condition_fun for one pair (sigma, omega) at any order r.

    sigma and omega on the grid, the trend of omega / (sigma + 1) and omega at
    every quadrature node do not depend on r: one index call computes each of
    them once, on the first order that needs it, and every probe applies only
    its own kernel.  omega_snq is this probe for (omega, omega) at r = 1.
    """

    def __init__(self, sigma: WeightFunction, omega: WeightFunction,
                 config: RunConfig):
        self.sigma, self.omega = sigma, omega
        self.ts = read_only(config.grid.geometric())
        self.sig = read_only(sigma.eval(self.ts))
        if float(np.max(self.sig)) <= 0.0:
            raise InvalidArgument("sigma vanishes on the whole evaluation grid")
        self.nodes = OmegaNodes(omega)

    @cached_property
    def omega_top(self) -> float:
        return self.omega.value(self.ts[-1])

    @cached_property
    def omega_over_sigma(self) -> ConditionVerdict:
        """Does omega / (sigma + 1) stay bounded on the grid?  The integral is
        at least r*omega(t), so where it does not, no order satisfies."""
        return grid_bounded("mixed_fun", self.omega.eval(self.ts) / (self.sig + 1.0),
                            self.ts, "omega(t)/(sigma(t)+1)")

    @cached_property
    def suffix(self) -> SuffixSamples:
        return SuffixSamples(self.omega.eval, self.ts, kinks=self.omega.kinks)

    def __call__(self, r: float) -> ConditionVerdict:
        cond = "mixed_fun"
        s = 1.0 + 1.0 / r
        ts, sig = self.ts, self.sig
        m, ms = self.omega.model, self.sigma.model
        conv = m.converges_against(s) if m is not None else None
        if conv is False:
            return ConditionVerdict.violated(cond, {"t": 1.0, "r": r,
                "integral": math.inf}, "growth-model",
                reason="kernel integral diverges at this order")
        if m is not None and ms is not None and _shape_cmp(m, ms) > 0:
            return ConditionVerdict.violated(cond, {"t": float(ts[-1]), "r": r,
                "omega_over_sigma": float(self.omega_top / (sig[-1] + 1.0))}, "growth-model",
                reason="integral >= r*omega(t) and omega/sigma is unbounded")
        if (m is None or ms is None) and self.omega_over_sigma.is_violated:
            return self.omega_over_sigma

        tail = m.tail_callable(s) if m is not None else None
        tail_info = {}
        if tail is None and conv is True and m is not None and m.coeff is not None:
            # no exact closed form, but the growth model certifies convergence and
            # pins the leading coefficient; an asymptotic tail beats a blind fit
            # near the convergence threshold
            def tail(y_cut: float, _m: GrowthModel = m, _s: float = s) -> float:
                return power_log_tail(_m.coeff, _m.exponent, _m.log_power,
                                      _m.offset, _s, y_cut)
            tail_info = {"tail": "model-asymptotic"}
        try:
            G = self.suffix.integrals(s, tail)
        except GridTooCoarse:
            windows, _, flat = self.nodes.integral_trend(s)
            return windows_verdict(cond, r, windows, flat)

        F = ts ** (1.0 / r) * G / (sig + 1.0)
        if m is None or ms is None:
            return grid_bounded(cond, F, ts, "t^(1/r)*integral_t^inf omega(u) "
                                "u^(-1-1/r) du/(sigma(t)+1)", r=r, **tail_info)

        sup = float(np.max(F))
        info = {"r": r, "sup": sup, "grid_points": len(ts), **tail_info}
        c = _shape_cmp(m, ms)  # c <= 0 at this point
        if c < 0:
            return ConditionVerdict.satisfied(cond, {"C": sup * REL_MARGIN, **info},
                "growth-model", note="ratio to sigma vanishes at infinity")
        limit = None
        if m.coeff is not None and ms.coeff is not None:
            denom = 1.0 / r - m.exponent
            if denom > 0:
                limit = m.coeff / (denom * ms.coeff)
        C = max(sup, limit if limit is not None else 0.0) * REL_MARGIN
        return ConditionVerdict.satisfied(cond, {"C": C, **info}, "growth-model",
            **({"model_ratio_limit": limit} if limit is not None else {}))


def check_omega_nq(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    return OmegaNodes(omega).nq_r(1.0, "omega_nq")


def check_omega_snq(omega: WeightFunction, config: RunConfig) -> ConditionVerdict:
    """The mixed condition of (omega, omega) at order 1, once omega_nq holds."""
    pre = check_omega_nq(omega, config)
    if pre.is_violated:
        return ConditionVerdict.violated("omega_snq",
            {"precondition": "omega_nq violated, kernel average diverges",
             **(pre.counterexample or {})}, pre.provenance)
    if pre.is_inconclusive:
        return ConditionVerdict.inconclusive("omega_snq", dict(pre.trend or {}),
                                             pre.provenance, note="omega_nq itself inconclusive")
    return replace(MixedFunProbe(omega, omega, config)(1.0), condition="omega_snq")


# condition name -> checker(omega, config); one whose name ends in "_r" takes
# the order r before config
OMEGA_CHECKS = {"omega1": check_omega1, "omega2": check_omega2,
                "omega3": check_omega3, "omega4": check_omega4,
                "omega5": check_omega5, "omega6": check_omega6,
                "omega_nq": check_omega_nq, "omega_snq": check_omega_snq,
                "omega_nq_r": lambda omega, r, config: OmegaNodes(omega).nq_r(r)}


def check_omega_condition(omega: WeightFunction, cond: str, *,
                          r: Optional[float] = None,
                          config: Optional[RunConfig] = None) -> ConditionVerdict:
    """Dispatch a condition check by name.  The verdict depends only on omega,
    the condition, the order r (read only by a condition ending in "_r") and
    the config, never on earlier calls."""
    if cond not in OMEGA_CHECKS:
        raise InvalidArgument(f"unknown condition {cond!r}")
    config = config or RunConfig()
    if not cond.endswith("_r"):
        return OMEGA_CHECKS[cond](omega, config)
    if r is None:
        raise InvalidArgument(f"{cond} needs the order r")
    return OMEGA_CHECKS[cond](omega, r, config)


# ---------------------------------------------------------------------------
# comparisons

def _gauge_ratio(num: WeightFunction, den: WeightFunction, config: RunConfig):
    """The grid, num/(den+1) on it, its end and sup, and the models' _shape_cmp."""
    ts = config.grid.geometric()
    ratio = num.eval(ts) / (den.eval(ts) + 1.0)
    info = {"ratio_at_tmax": float(ratio[-1]), "grid_sup": float(np.max(ratio))}
    cmp = (_shape_cmp(num.model, den.model)
           if num.model is not None and den.model is not None else None)
    return ts, ratio, info, cmp


def compare_preceq(a: WeightFunction, b: WeightFunction,
                   config: Optional[RunConfig] = None) -> ConditionVerdict:
    """Is b dominated by a, i.e. b(t) <= C (a(t) + 1) for some C?"""
    cond = "preceq"
    ts, ratio, info, cmp = _gauge_ratio(b, a, config or RunConfig())
    if cmp is None or (cmp == 0 and None in (a.model.coeff, b.model.coeff)):
        return grid_bounded(cond, ratio, ts, "b(t)/(a(t)+1)", flat=RATIO_TREND_FLAT)
    if cmp > 0:
        return ConditionVerdict.violated(cond,
            {"t": float(ts[-1]), **info, "trend": "ratio grows without bound"}, "growth-model")
    if cmp < 0:
        return ConditionVerdict.satisfied(cond,
            {"C": info["grid_sup"] * REL_MARGIN, **info}, "growth-model")
    limit = b.model.coeff / a.model.coeff
    return ConditionVerdict.satisfied(cond,
        {"C": max(info["grid_sup"], limit) * REL_MARGIN,
         "model_ratio_limit": limit, **info}, "growth-model")


def compare_o(a: WeightFunction, b: WeightFunction,
              config: Optional[RunConfig] = None) -> ConditionVerdict:
    """Is b negligible against a, i.e. b(t)/a(t) -> 0?"""
    cond = "little_o"
    ts, ratio, info, cmp = _gauge_ratio(b, a, config or RunConfig())
    if cmp is None:
        return grid_vanishing(cond, ratio, ts, "b(t)/(a(t)+1)",
                              stays=GAUGE_NOT_VANISH)
    if cmp < 0:
        return ConditionVerdict.satisfied(cond, info, "growth-model")
    return ConditionVerdict.violated(cond,
        {"t": float(ts[-1]), **info,
         "trend": ("ratio grows without bound" if cmp > 0
                   else "same growth shape, ratio does not vanish")}, "growth-model")


def equivalent_fun(a: WeightFunction, b: WeightFunction,
                   config: Optional[RunConfig] = None) -> ConditionVerdict:
    config = config or RunConfig()
    return both_ways(compare_preceq(a, b, config), compare_preceq(b, a, config),
                     lambda fw, bw: {"C_forward": fw["C"], "C_backward": bw["C"]})


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


def conjugate_pl(pl: ConvexPL) -> ConvexPL:
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
    if len(drops) and drops[worst] < -_CONJ_TOL * local[worst]:
        raise ConvexityViolation(
            f"slopes decrease at breakpoint {worst + 1}",
            triple=((float(xs[worst]), float(vals[worst])),
                    (float(xs[worst + 1]), float(vals[worst + 1])),
                    (float(xs[worst + 2]), float(vals[worst + 2]))))
    keep = np.concatenate([[True], drops > _CONJ_TOL * local])
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


def young_conjugate(omega: WeightFunction) -> ConvexPL:
    """Conjugate sup_y (x y - phi(y)) of phi(y) = omega(e^y).

    phi is sampled on `Y_GRID`, convexified to absorb sampling noise, then
    conjugated exactly.
    """
    y = Y_GRID
    phi = omega.eval(np.exp(y))
    pl, defect = convexify(y, phi)
    scale = max(1.0, float(np.max(np.abs(phi))))
    # anything beyond sampling noise means the profile genuinely bends the
    # wrong way and the conjugate would be the hull's, not the function's
    if defect > _HULL_DEFECT_TOL * scale:
        i = int(np.argmax(phi - pl(y)))
        lo, hi = max(i - 1, 0), min(i + 1, len(y) - 1)
        raise ConvexityViolation(
            f"sampled profile not convex: relative defect {defect / scale:.3e}",
            triple=((float(y[lo]), float(phi[lo])),
                    (float(y[i]), float(phi[i])),
                    (float(y[hi]), float(phi[hi]))))
    return conjugate_pl(pl)
