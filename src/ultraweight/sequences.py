"""Weight sequences: families, algebra, condition predicates, and comparisons.

A weight sequence is a positive sequence M_0, M_1, ... described through its
quotients mu_p = M_p / M_{p-1} (with mu_0 = 1).  All arithmetic runs on
log(M_p) so that fast families (e.g. q-geometric ones reaching 1e4800 by
p = 100) stay representable.  Families are lazily extendable: values are
generated in chunks on demand and cached; concurrent readers always observe a
consistent prefix because the cache is swapped atomically.

Asymptotic facts (summability, liminf conditions, comparisons) are decided
from a `TailModel` when one is attached; finite data alone never certifies a
Satisfied verdict for a sum condition.  Explicit finite lists therefore yield
only Violated (witnessed divergence trend) or Inconclusive for those checks.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .special import gammaln, hurwitz_zeta
from .verdict import (COMPARE_ROOT, COMPARE_SLOPE, DEFAULT_P_MAX,
                      SUM_UNDIMINISHED, ConditionVerdict, EvaluationRangeError,
                      InternalInconsistency, InvalidArgument, InvalidSpec,
                      NotLogConvex, Verdict, both_ways, grid_decided,
                      read_only, settled, stabilized)

# a precondition or postcondition on a sequence (log-convexity, a bounded
# quotient ratio) reads p up to this
PRECONDITION_P = 20000
_LC_TOL = 1e-12
_BETA_P_CAP = 20000  # beta1/beta3 read mu_{Qp}/mu_p for p up to this
_BETA_Q_MAX = 8  # and for Q up to this
_MG_P_CAP = 4096  # check_mg probes indices up to this: its defect table is quadratic
_SUM_BLOCK = 1024  # log_suffix_sums: terms per block sharing one scale
_MAX_BLOCK_SPAN = 600.0  # nats from a block's max to its min that one scale holds
_LOG_FLOAT_MAX = math.log(sys.float_info.max)  # math.exp overflows from here
_EXP_ZERO = -746.0  # exp is exactly +0.0 below about -745.13
_LOG_P_CAP = 1 << 21  # log_p keeps its table up to this p
_TAIL_TERMS = 100000  # a log-linear tail sum adds at most this many terms


# ---------------------------------------------------------------------------
# log p
# ---------------------------------------------------------------------------

_log_p_table = read_only(np.log(np.arange(1, 4097, dtype=float)))  # log p at p - 1
_log_p_lock = threading.Lock()


def log_p(lo: int, hi: int) -> np.ndarray:
    """log p for p = lo..hi (1 <= lo), read-only.

    The values come from one table that grows by doubling and is swapped
    whole, like a sequence's table; every value is np.log of the float p.
    Past `_LOG_P_CAP` they are computed afresh.
    """
    global _log_p_table
    table = _log_p_table
    if hi > len(table):
        if hi > _LOG_P_CAP:
            return read_only(np.log(np.arange(lo, hi + 1, dtype=float)))
        with _log_p_lock:
            table = _log_p_table
            have = len(table)
            if hi > have:
                top = min(max(hi, 2 * have), _LOG_P_CAP)
                grown = np.log(np.arange(have + 1, top + 1, dtype=float))
                table = _log_p_table = read_only(np.concatenate([table, grown]))
    return table[lo - 1: hi]


# ---------------------------------------------------------------------------
# tail models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailModel:
    """Analytic description of quotient growth valid for p >= `start`.

    kind "power":    c_lo * p**e_lo <= mu_p <= c_hi * p**e_hi; `exact` means
                     mu_p == c_hi * p**e_hi (and both bounds coincide).
    kind "loglinear": log mu_p == a*p + b + g*log p exactly (supra-polynomial).
    """

    kind: str
    start: int = 1
    exact: bool = False
    e_lo: float = 0.0
    e_hi: float = 0.0
    c_lo: float = 1.0
    c_hi: float = 1.0
    a: float = 0.0
    b: float = 0.0
    g: float = 0.0

    @staticmethod
    def power(exponent: float, coeff: float = 1.0, *, exact: bool = True,
              lower: tuple[float, float] | None = None, start: int = 1) -> "TailModel":
        if lower is None:
            return TailModel("power", start=start, exact=exact, e_lo=exponent,
                             e_hi=exponent, c_lo=coeff, c_hi=coeff)
        e_lo, c_lo = lower
        return TailModel("power", start=start, exact=False, e_lo=e_lo, e_hi=exponent,
                         c_lo=c_lo, c_hi=coeff)

    @staticmethod
    def log_linear(a: float, b: float = 0.0, g: float = 0.0, *, start: int = 1) -> "TailModel":
        if a <= 0:
            raise InvalidArgument("log-linear tail model needs a > 0")
        return TailModel("loglinear", start=start, exact=True, a=a, b=b, g=g)

    # -- algebra -----------------------------------------------------------

    def powered(self, r: float) -> "TailModel":
        if self.kind == "power":
            return replace(self, e_lo=self.e_lo * r, e_hi=self.e_hi * r,
                           c_lo=self.c_lo ** r, c_hi=self.c_hi ** r)
        return replace(self, a=self.a * r, b=self.b * r, g=self.g * r)

    def shifted(self, eps: float) -> "TailModel":
        """Quotients multiplied by p**eps."""
        if self.kind == "power":
            return replace(self, e_lo=self.e_lo + eps, e_hi=self.e_hi + eps)
        return replace(self, g=self.g + eps)

    # -- closed forms ------------------------------------------------------

    @property
    def superpolynomial(self) -> bool:
        return self.kind == "loglinear"

    @property
    def power_law(self) -> bool:
        """mu_p == c_hi * p**e_hi for every p >= 1."""
        return self.kind == "power" and self.exact and self.start == 1

    def log_quotient(self, p: np.ndarray) -> np.ndarray:
        """Exact log mu_p; only valid when `exact` and p >= start."""
        if not self.exact:
            raise EvaluationRangeError("log_quotient on a non-exact tail model")
        p = np.asarray(p, dtype=float)
        if self.kind == "power":
            return self.e_hi * np.log(p) + math.log(self.c_hi)
        return self.a * p + self.b + self.g * np.log(p)

    def log_value(self, p) -> np.ndarray:
        """Exact log M_p = sum_{k<=p} log mu_k, elementwise over an array of
        indices (held as floats: they can exceed the int64 range); needs an
        exact model with start == 1."""
        if not (self.exact and self.start == 1):
            raise EvaluationRangeError("no closed form for this tail model")
        p = np.asarray(p, dtype=float)
        if self.kind == "power":
            return self.e_hi * gammaln(p + 1.0) + p * math.log(self.c_hi)
        return self.a * p * (p + 1.0) / 2.0 + self.b * p + self.g * gammaln(p + 1.0)

    def count_quotients_below(self, log_t) -> np.ndarray:
        """Largest p with log mu_p <= log_t (0 if none), elementwise over an
        array; indices come back as floats, inf at log_t = inf.  Exact models
        only."""
        if not self.exact:
            raise EvaluationRangeError("no inversion for a non-exact tail model")
        shape = np.shape(log_t)
        log_t = np.asarray(log_t, dtype=float).reshape(-1)
        # p past the float range is inf, and log mu_p there is never read
        with np.errstate(over="ignore", invalid="ignore"):
            if self.kind == "power":
                if self.e_hi <= 0:
                    raise EvaluationRangeError("cannot invert non-increasing quotients")
                p = np.floor(np.exp((log_t - math.log(self.c_hi)) / self.e_hi))
            else:
                # solve a*p + b + g*log p = log_t by Newton steps on p >= 1, all
                # points at once until every step is below a quarter; an
                # infinite log_t would make every step nan, so it is set apart
                top = log_t == math.inf
                lt = np.where(top, self.b + self.a, log_t) if top.any() else log_t
                p_f = np.maximum(1.0, (lt - self.b) / self.a)
                for _ in range(40):
                    dp = (lt - self.log_quotient(p_f)) / (self.a + self.g / p_f)
                    p_f = np.maximum(1.0, p_f + dp)
                    if np.all(np.abs(dp) < 0.25):
                        break
                p = np.floor(p_f + 1e-9)
                p[top] = math.inf
            # the rounded inversion can be a step off (at a quotient itself,
            # about every other time, and tens of steps near 2**52): settle it
            # on log mu_p <= log_t < log mu_{p+1}, where p + 1 is still a
            # different float.  A point that needs no step in the first pass
            # needs none later, so further passes read only the points the
            # last one moved.
            settle = p < 2.0 ** 52
            self._settle(p, log_t, settle & (p >= 1), -1.0)
            self._settle(p, log_t, settle, 1.0)
        return np.maximum(0.0, p).reshape(shape)[()]

    def _settle(self, p: np.ndarray, log_t: np.ndarray, where: np.ndarray,
                step: float) -> None:
        """Step p in place by `step` at the points `where` until none is off:
        down while log mu_p > log_t (never below 0), up while
        log mu_{p+1} <= log_t."""
        def off(pi, lt):
            if step < 0:
                return (pi >= 1) & (self.log_quotient(np.maximum(pi, 1.0)) > lt)
            return self.log_quotient(pi + 1.0) <= lt

        idx = np.flatnonzero(where & off(p, log_t))
        while idx.size:
            p[idx] += step
            idx = idx[off(p[idx], log_t[idx])]

    # -- tail sums ---------------------------------------------------------

    def tail_power_sum(self, inv_r: float, start_p: int) -> tuple[float, float]:
        """Bracket [lo, hi] for sum_{k >= start_p} mu_k**(-inv_r).

        Returns (inf, inf) when divergence is certain, and a straddling
        bracket (finite, inf) when the model cannot decide.
        """
        s = max(start_p, self.start)
        if s != start_p:
            raise EvaluationRangeError("tail sum requested before model validity")
        if self.kind == "loglinear":
            # terms exp(-(a*k+b)*inv_r) * k**(-g*inv_r)
            if self.g == 0.0:
                # exactly geometric, ratio exp(-a*inv_r): the sum is the first
                # term over 1 - exp(-a*inv_r), which is a*inv_r where that
                # product underflows
                x = self.a * inv_r
                log_gap = (math.log(-math.expm1(-x)) if x > 1e-300
                           else math.log(self.a) + math.log(inv_r))
                log_total = -(self.a * s + self.b) * inv_r - log_gap
                if not log_total < _LOG_FLOAT_MAX:
                    return (sys.float_info.max, math.inf)  # past the float range
                total = math.exp(log_total)
                return (total, total * (1.0 + 1e-12))
            # sum numerically, the geometric decay makes a few hundred terms
            # exact to double precision
            total = 0.0
            k = s
            while k < s + _TAIL_TERMS:
                term = math.exp(-(self.a * k + self.b) * inv_r) * k ** (-self.g * inv_r)
                total += term
                if term < 1e-18 * max(total, 1e-300):
                    return (total, total * (1.0 + 1e-12))
                k += 1
            # the terms from k on fall at least geometrically, by
            # exp(-a*inv_r) * (1 + 1/k)**(-g*inv_r) or less
            log_ratio = -inv_r * (self.a + min(self.g, 0.0) * math.log1p(1.0 / k))
            if log_ratio >= 0.0:
                return (total, math.inf)
            term = math.exp(-(self.a * k + self.b) * inv_r) * k ** (-self.g * inv_r)
            return (total, total + term / -math.expm1(log_ratio))
        x_hi = self.e_hi * inv_r
        x_lo = self.e_lo * inv_r
        # upper quotient bound gives the sum's lower bound and vice versa
        lo = self.c_hi ** (-inv_r) * hurwitz_zeta(x_hi, s)
        hi = self.c_lo ** (-inv_r) * hurwitz_zeta(x_lo, s)
        if math.isinf(lo):
            # divergence certain: terms are >= a divergent p-series
            return (math.inf, math.inf)
        return (lo, hi)

    def tail_sum_converges(self, inv_r: float) -> Optional[bool]:
        """Convergence of sum mu_k**(-inv_r); None when the bracket straddles."""
        if self.kind == "loglinear":
            return True
        if self.e_hi * inv_r <= 1:
            return False
        if self.e_lo * inv_r > 1:
            return True
        return None


def log_ratio_limit(tm: TailModel, tn: TailModel) -> Optional[float]:
    """lim log(mu_p/nu_p) for quotients mu_p on the law tm and nu_p on tn: a
    real, +-inf, or None when the two laws do not decide it.

    By Cesaro's mean it is also the limit of log(M_p/N_p)/p.
    """
    if tm.kind != tn.kind:
        return math.inf if tm.superpolynomial else -math.inf
    if tm.kind == "power":
        if tm.e_hi < tn.e_lo:
            return -math.inf
        if tm.e_lo > tn.e_hi:
            return math.inf
        return math.log(tm.c_hi) - math.log(tn.c_hi) if tm.exact and tn.exact else None
    if tm.a != tn.a:
        return math.inf if tm.a > tn.a else -math.inf
    if tm.g != tn.g:
        return math.inf if tm.g > tn.g else -math.inf
    return tm.b - tn.b


# ---------------------------------------------------------------------------
# the sequence object
# ---------------------------------------------------------------------------

class WeightSequence:
    """Immutable-in-value weight sequence with a lazily grown cache.

    `log_quotient_fn(lo, hi)` must return log mu_p for p = lo..hi inclusive
    (1-based; mu_0 == 1 by convention).  `finite_size`, when given, marks an
    explicit list whose domain ends at index finite_size - 1.
    """

    def __init__(self, label: str,
                 log_quotient_fn: Callable[[int, int], np.ndarray], *,
                 tail_model: TailModel | None = None,
                 log_m0: float = 0.0,
                 finite_size: int | None = None,
                 spec: dict | None = None,
                 structural: frozenset[str] = frozenset()):
        self.label = label
        self._fn = log_quotient_fn
        self.tail_model = tail_model
        self.log_m0 = float(log_m0)
        self.finite_size = finite_size
        self.spec = spec
        self.structural = structural
        self._lock = threading.Lock()
        # the log mu table and the table sizes after each growth: log M is
        # summed from them on first read, one growth chunk at a time
        self._data = (np.zeros(1), (1,))
        self._log_M = np.zeros(1) + self.log_m0
        self.m0_warning = abs(self.log_m0) > 0.0

    # -- cache management --------------------------------------------------

    @property
    def max_index(self) -> Optional[int]:
        return None if self.finite_size is None else self.finite_size - 1

    def _capped(self, p: int) -> int:
        return p if self.finite_size is None else min(p, self.finite_size - 1)

    def ensure(self, p: int) -> None:
        """Grow the cache to cover indices 0..p (clamped for finite lists)."""
        p = self._capped(p)
        if p < len(self._data[0]):
            return
        with self._lock:
            log_mu, ends = self._data
            have = len(log_mu)
            if p < have:
                return
            target = max(p + 1, 2 * have)
            if self.finite_size is not None:
                target = min(target, self.finite_size)
            chunk = np.asarray(self._fn(have, target - 1), dtype=float)
            if len(chunk) != target - have:
                raise InternalInconsistency("quotient generator returned a wrong-sized chunk")
            # single assignment keeps concurrent readers on a consistent prefix
            self._data = (np.concatenate([log_mu, chunk]), ends + (target,))

    def log_quotients(self, p: int) -> np.ndarray:
        """Array of log mu_0..log mu_p."""
        self.ensure(p)
        return self._data[0][: self._capped(p) + 1]

    def log_values(self, p: int) -> np.ndarray:
        """Array of log M_0..log M_p."""
        self.ensure(p)
        p = self._capped(p)
        log_M = self._log_M
        if p >= len(log_M):
            log_M = self._sum_log_values(p)
        return log_M[: p + 1]

    def _sum_log_values(self, p: int) -> np.ndarray:
        """The log M table through the growth chunk that holds index p.

        Each chunk is summed as one cumsum on top of the last value before
        it, so every log M_p is the same float whenever it is read.
        """
        with self._lock:
            log_M = self._log_M
            if p < len(log_M):
                return log_M
            log_mu, ends = self._data
            parts, have = [log_M], len(log_M)
            for end in ends:
                if end <= have:
                    continue
                # a log M past the float range is +inf, and is read as such
                with np.errstate(over="ignore"):
                    parts.append(parts[-1][-1] + np.cumsum(log_mu[have:end]))
                have = end
                if p < have:
                    break
            self._log_M = np.concatenate(parts)
            return self._log_M

    def log_quotient(self, p: int) -> float:
        if p < 0:
            raise InvalidArgument("index must be >= 0")
        self._check_range(p)
        return float(self.log_quotients(p)[p])

    def log_value(self, p: int) -> float:
        if p < 0:
            raise InvalidArgument("index must be >= 0")
        self._check_range(p)
        return float(self.log_values(p)[p])

    def quotient(self, p: int) -> float:
        return _exp(self.log_quotient(p))

    def value(self, p: int) -> float:
        return _exp(self.log_value(p))

    def _check_range(self, p: int) -> None:
        if self.finite_size is not None and p >= self.finite_size:
            raise EvaluationRangeError(
                f"{self.label}: index {p} beyond explicit list of size {self.finite_size}")

    # -- structure ---------------------------------------------------------

    @property
    def normalized(self) -> bool:
        """1 = M_0 <= M_1."""
        return self.log_m0 == 0.0 and self.log_quotient(1) >= 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WeightSequence({self.label})"


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def gevrey(s: float) -> WeightSequence:
    """M_p = (p!)**s, quotients mu_p = p**s."""
    if s <= 0:
        raise InvalidArgument("gevrey index s must be > 0")

    def fn(lo: int, hi: int) -> np.ndarray:
        return s * log_p(lo, hi)

    return WeightSequence(f"gevrey(s={s:g})", fn,
                          tail_model=TailModel.power(s),
                          spec={"family": "gevrey", "s": s})


def qgevrey(q: float) -> WeightSequence:
    """M_p = q**(p*p), quotients mu_p = q**(2p-1)."""
    if q <= 1:
        raise InvalidArgument("qgevrey base q must be > 1")
    lq = math.log(q)

    def fn(lo: int, hi: int) -> np.ndarray:
        return (2.0 * np.arange(lo, hi + 1, dtype=float) - 1.0) * lq

    return WeightSequence(f"qgevrey(q={q:g})", fn,
                          tail_model=TailModel.log_linear(2.0 * lq, -lq),
                          spec={"family": "qgevrey", "q": q})


def explicit(values) -> WeightSequence:
    """Finite list of positive reals M_0..M_P; no tail model is attached."""
    vals = np.asarray(list(values), dtype=float)
    if len(vals) < 2:
        raise InvalidArgument("explicit sequence needs at least M_0 and M_1")
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise InvalidSpec("explicit sequence values must be finite and positive")
    logs = np.log(vals)
    dl = np.diff(logs)

    def fn(lo: int, hi: int) -> np.ndarray:
        return dl[lo - 1: hi]

    return WeightSequence(f"explicit(n={len(vals)})", fn,
                          log_m0=float(logs[0]),
                          finite_size=len(vals),
                          spec={"family": "explicit", "values": [float(v) for v in vals]})


def from_quotients(rule: Callable[[int], float], *, label: str = "quotients",
                   tail_model: TailModel | None = None,
                   log_scale: bool = False) -> WeightSequence:
    """Sequence defined by a quotient rule p -> mu_p (or log mu_p)."""

    def fn(lo: int, hi: int) -> np.ndarray:
        out = np.empty(hi - lo + 1)
        for i, p in enumerate(range(lo, hi + 1)):
            v = float(rule(p))
            out[i] = v if log_scale else math.log(v)
        return out

    return WeightSequence(label, fn, tail_model=tail_model)


def power(M: WeightSequence, r: float) -> WeightSequence:
    """M**r taken entrywise: quotients mu_p**r."""
    if not 0 < r < math.inf:
        raise InvalidArgument("power exponent r must be finite and > 0")

    def fn(lo: int, hi: int) -> np.ndarray:
        # a log quotient past the float range is +inf, and is read as such
        with np.errstate(over="ignore"):
            return r * M.log_quotients(hi)[lo: hi + 1]

    spec = {"family": "power", "r": r, "base": M.spec} if M.spec is not None else None
    # mu_p**r stays nondecreasing for any r > 0, but (mu_p/p)**r nondecreasing
    # only survives r >= 1 (for r < 1 the 1/p factor can win)
    structural = M.structural if r >= 1.0 else M.structural & frozenset({"lc"})
    return WeightSequence(f"power(r={r:g}, base={M.label})", fn,
                          tail_model=None if M.tail_model is None else M.tail_model.powered(r),
                          log_m0=r * M.log_m0,
                          finite_size=M.finite_size,
                          spec=spec,
                          structural=structural)


def factorial_shift(M: WeightSequence, eps: float) -> WeightSequence:
    """(p!)**eps * M_p: quotients p**eps * mu_p."""
    if eps < 0:
        raise InvalidArgument("factorial shift exponent eps must be >= 0")

    def fn(lo: int, hi: int) -> np.ndarray:
        p = np.arange(lo, hi + 1, dtype=float)
        return eps * np.log(p) + M.log_quotients(hi)[lo: hi + 1]

    spec = {"family": "shift", "eps": eps, "base": M.spec} if M.spec is not None else None
    return WeightSequence(f"shift(eps={eps:g}, base={M.label})", fn,
                          tail_model=None if M.tail_model is None else M.tail_model.shifted(eps),
                          log_m0=M.log_m0,
                          finite_size=M.finite_size,
                          spec=spec)


def hat(M: WeightSequence) -> WeightSequence:
    """p! * M_p: quotients p * mu_p."""
    seq = factorial_shift(M, 1.0)
    seq.label = f"hat({M.label})"
    if M.spec is not None:
        seq.spec = {"family": "hat", "base": M.spec}
    return seq


# ---------------------------------------------------------------------------
# suffix-sum machinery (shared with the indices module)
# ---------------------------------------------------------------------------

def log_sum_exp(x: np.ndarray, out: np.ndarray | None = None) -> float:
    """log sum_k exp(x_k), shifted by the max term; -inf for no terms.

    The shift keeps every exponential in [0, 1] with the largest equal to 1,
    so the sum neither overflows nor loses its leading term (Blanchard,
    Higham & Higham, IMA J. Numer. Anal. 41, 2021).  The exponentials go to
    `out` when given (x itself, when the caller no longer needs it).  When
    an end term lies below `_EXP_ZERO`, the terms there get the +0.0 that exp
    gives them without calling it, which is many times slower on underflow.
    """
    if len(x) == 0:
        return -math.inf
    m = float(np.max(x))
    if not math.isfinite(m):
        return m
    e = np.subtract(x, m, out=out)
    if e[0] < _EXP_ZERO or e[-1] < _EXP_ZERO:
        under = e < _EXP_ZERO
        np.exp(e, out=e, where=~under)
        e[under] = 0.0
    else:
        np.exp(e, out=e)
    return m + math.log(float(np.sum(e)))


def _running_log_suffix_sums(x: np.ndarray, seed: float) -> np.ndarray:
    """log_suffix_sums by one running logaddexp from the end, term by term."""
    acc = np.empty(len(x) + 1)
    acc[0] = seed
    acc[1:] = x[::-1]
    np.logaddexp.accumulate(acc, out=acc)
    return acc[:0:-1]


def log_suffix_sums(x: np.ndarray, seed: float = -math.inf) -> np.ndarray:
    """out[i] = log(sum_{k>=i} exp(x_k) + exp(seed)), by blocked scaled cumsums.

    The terms past the first len(x) % `_SUM_BLOCK` are cut into blocks of
    `_SUM_BLOCK`.  The carry into a block, the log-sum of every later block
    plus the seed, is one running logaddexp over the block totals.  Each block
    is scaled by the larger of its max and its carry, so one reversed cumsum,
    one `exp` and one `log` give its suffix sums; every scaled suffix is then
    at least exp(-_MAX_BLOCK_SPAN), far from underflow.  A block whose terms
    span more than `_MAX_BLOCK_SPAN` nats, or that holds an infinite or nan
    term, is summed exactly by a running logaddexp seeded with its carry, and
    so are the leading terms before the first block.  When most blocks are
    that wide, one running logaddexp sums all the terms.
    """
    x = np.asarray(x, dtype=float)
    nb, lead = divmod(len(x), _SUM_BLOCK)
    if nb == 0:
        return _running_log_suffix_sums(x, seed)
    xb = x[lead:].reshape(nb, _SUM_BLOCK)
    top = np.max(xb, axis=1)
    with np.errstate(invalid="ignore"):
        wide = ~(top - np.min(xb, axis=1) <= _MAX_BLOCK_SPAN)
    if 2 * np.count_nonzero(wide) > nb:
        return _running_log_suffix_sums(x, seed)
    out = np.empty(len(x))
    ob = out[lead:].reshape(nb, _SUM_BLOCK)
    shift = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.subtract(xb, shift[:, None], out=ob)
        np.exp(ob, out=ob)
        np.cumsum(ob[:, ::-1], axis=1, out=ob[:, ::-1])  # ob[j, i]: block sum from i
        totals = shift + np.log(ob[:, 0])
        carry = np.append(_running_log_suffix_sums(totals[1:], seed), seed)
        scale = np.maximum(shift, carry)
        ob *= np.exp(shift - scale)[:, None]
        ob += np.exp(carry - scale)[:, None]
        np.log(ob, out=ob)
    ob += scale[:, None]
    diverged = carry == math.inf
    ob[diverged] = math.inf
    for j in np.flatnonzero(wide & ~diverged):
        ob[j] = _running_log_suffix_sums(xb[j], carry[j])
    out[:lead] = _running_log_suffix_sums(x[:lead], float(np.logaddexp(totals[0], carry[0])))
    return out


class SuffixSums:
    """Tail-completed suffix sums of nu_k**(-inv_r) of one sequence N up to P,
    at any order.

    N's log quotients are read once, on the first order that sums; each order
    computes only its terms, its tail bracket and their log suffix sums.
    """

    def __init__(self, N: WeightSequence, P: int):
        self.N = N
        self.P = N._capped(P)
        self._last: tuple[float, np.ndarray] | None = None  # the last order's log_T

    @cached_property
    def log_nu(self) -> np.ndarray:
        """log nu_k, k = 1..P, read on the first order that sums."""
        return read_only(self.N.log_quotients(self.P)[1:])

    def tail(self, inv_r: float) -> tuple[tuple[float, float] | None, Optional[bool]]:
        """N's tail bracket past P and whether its tail model says the sum converges.

        (None, None) when N has no tail model that reaches P + 1.
        """
        if inv_r <= 0:
            raise InvalidArgument("inv_r must be > 0")
        tm = self.N.tail_model
        if tm is None or tm.start > self.P + 1:
            return None, None
        bracket, converges = tm.tail_power_sum(inv_r, self.P + 1), tm.tail_sum_converges(inv_r)
        if converges and not bracket[1] < math.inf:
            converges = None  # a convergent tail that no float bounds certifies nothing
        return bracket, converges

    def at(self, inv_r: float) -> np.ndarray:
        return self.summed(inv_r, *self.tail(inv_r))

    def summed(self, inv_r: float, tail: tuple[float, float] | None,
               converges: Optional[bool]) -> np.ndarray:
        """log T_p = log sum_{k>=p} nu_k**(-inv_r) for p = 1..P (at index
        p - 1), completed by that order's `tail`; read-only.

        The last order's sums are kept, so two readers of one order sum once.
        """
        last = self._last
        if last is not None and last[0] == inv_r:
            return last[1]
        seed = -math.inf  # no tail, or a straddling bracket: the finite partial sums
        if converges is False:
            seed = math.inf
        elif tail is not None and math.isfinite(tail[1]) and tail[1] > 0:
            seed = math.log(tail[1])
        terms = -inv_r * self.log_nu  # log of nu_k**(-inv_r), k = 1..P
        log_T = read_only(log_suffix_sums(terms, seed))
        self._last = (inv_r, log_T)
        return log_T


class RatioSweep:
    """sup_p (mu_p**inv_r / p) * sum_{k>=p} nu_k**(-inv_r) of one pair (M, N)
    over p = 1..P, at any order.

    The log quotients of M and N and log p are read once, on the first order
    that sums; each order computes only N's suffix sums and the per-p log
    values, and reads nothing when N's tail model says the inner sum
    diverges.  `sums`, N's SuffixSums up to P when the caller holds them
    already, are read and not summed again.
    """

    def __init__(self, M: WeightSequence, N: WeightSequence, P: int,
                 sums: SuffixSums | None = None):
        self.sums = SuffixSums(N, P) if sums is None else sums
        if self.sums.N is not N or self.sums.P != N._capped(P):
            raise InternalInconsistency("suffix sums of another sequence or range")
        self.M, self.P = M, min(self.sums.P, M._capped(P))

    @cached_property
    def log_mu(self) -> np.ndarray:
        return read_only(self.M.log_quotients(self.P)[1: self.P + 1])

    @cached_property
    def log_p(self) -> np.ndarray:
        return log_p(1, self.P)

    def verdict(self, cond: str, inv_r: float) -> ConditionVerdict:
        """The verdict on the sup at one order.

        log F_p = inv_r log mu_p - log p + log T_p for p = 1..P, with T_p N's
        tail-completed suffix sum; nothing is summed when N's tail model
        refutes the order.
        """
        tail, converges = self.sums.tail(inv_r)
        if converges is False:
            return finish_sup_verdict(cond, None, converges, self.P)
        log_T = self.sums.summed(inv_r, tail, converges)
        log_F = np.multiply(self.log_mu, inv_r)
        log_F -= self.log_p
        # a quotient past the float range meets a suffix sum that vanishes
        # there: inf - inf is nan, which the verdict reads as such
        with np.errstate(invalid="ignore"):
            log_F += log_T[: self.P]
        return finish_sup_verdict(cond, log_F, converges, self.P)


# ---------------------------------------------------------------------------
# condition checks
# ---------------------------------------------------------------------------

# the counterexample keys of a decrease: the previous value and the value at p
_DECREASE_KEYS = {"lc": ("mu_prev", "mu_p"), "slc": ("prev", "mu_p_over_p")}


def _first_decrease(cond: str, red: np.ndarray, tol: float,
                    provenance: str) -> Optional[ConditionVerdict]:
    """Violated at the first p with red_p < red_{p-1} - tol, where red[i] is
    the log quotient (lc) or log(mu_p/p) (slc) at p = i + 1; None if none."""
    bad = np.nonzero(np.diff(red) < -tol)[0]
    if not len(bad):
        return None
    p = int(bad[0]) + 2
    prev, cur = _DECREASE_KEYS[cond]
    return ConditionVerdict.violated(cond, {
        "p": p, prev: math.exp(red[p - 2]), cur: math.exp(red[p - 1])}, provenance)


def check_lc(M: WeightSequence, P: int = 2000) -> ConditionVerdict:
    """Log-convexity: M_p^2 <= M_{p-1} M_{p+1}, equivalently mu nondecreasing."""
    P = M._capped(P)
    log_mu = M.log_quotients(P)
    scale = max(1.0, float(np.max(np.abs(log_mu))))
    # the condition lives on p >= 1; mu_0 = 1 is a convention, not a constraint
    return (_first_decrease("lc", log_mu[1:], _LC_TOL * scale, "trend")
            or _monotone_satisfied(M, "lc", P, shift=0.0))


def check_slc(M: WeightSequence, P: int = 2000) -> ConditionVerdict:
    """Strong log-convexity: log-convexity of m_p = M_p / p! (quotients mu_p/p)."""
    P = M._capped(P)
    red = M.log_quotients(P)[1:] - log_p(1, P)  # red[i] = log(mu_{i+1}/(i+1))
    scale = max(1.0, float(np.max(np.abs(red))))
    return (_first_decrease("slc", red, _LC_TOL * scale, "trend")
            or _monotone_satisfied(M, "slc", P, shift=-1.0))


def require_log_convex(M: WeightSequence, p_max: int) -> ConditionVerdict:
    """check_lc on p up to min(p_max, PRECONDITION_P), the one gate of every
    operation that needs M log-convex; NotLogConvex when it is Violated."""
    verdict = check_lc(M, min(p_max, PRECONDITION_P))
    if verdict.is_violated:
        raise NotLogConvex(f"{M.label} is not log-convex: "
                           f"{dict(verdict.counterexample)}")
    return verdict


def _monotone_satisfied(M: WeightSequence, cond: str, P: int, shift: float) -> ConditionVerdict:
    """Range is monotone; decide whether that extends to all p.

    `shift` is the exponent offset applied to the quotients (-1 for the
    reduced sequence).  Certification comes from the finite domain itself,
    an exact tail model whose quotient law is eventually monotone, or a
    structural fact recorded by a construction.
    """
    if cond in M.structural:
        return ConditionVerdict.satisfied(cond, {"checked_up_to": P}, "structure")
    if M.finite_size is not None:
        return ConditionVerdict.satisfied(cond, {"checked_up_to": P}, "finite-domain")
    tm = M.tail_model
    if tm is not None and tm.exact:
        eventually = (tm.e_hi + shift >= 0) if tm.kind == "power" else True
        if eventually and P >= tm.start:
            return ConditionVerdict.satisfied(cond, {"checked_up_to": P}, "tail-model")
        if not eventually:
            # quotient law eventually decreasing: locate a concrete violation
            probe = max(P, tm.start) + 1
            red = M.log_quotients(probe + 1)[1:] + shift * log_p(1, probe + 1)
            found = _first_decrease(cond, red, 0.0, "tail-model")
            if found is not None:
                return found
    return ConditionVerdict.inconclusive(cond, {
        "checked_up_to": P, "monotone_on_range": True}, "trend")


def check_mg(M: WeightSequence, P: int = 1024) -> ConditionVerdict:
    """Moderate growth: M_{p+q} <= C**(p+q) M_p M_q for some C.

    P is the largest index probed, at most `_MG_P_CAP`, so p and q run up
    to P // 2, which the evidence reports as `checked_up_to`.  An
    existential constant can never be refuted from finite data, so the
    verdict is Satisfied (running max of the normalized defect stabilizes)
    or Inconclusive, never Violated.  The witness `C` is that running max;
    on an exact power tail from index 1 with M_0 >= 1 it is at least 2**e,
    which bounds the defect for every p and q, not only on the probed range.
    """
    P = min(M._capped(P), _MG_P_CAP) // 2
    if P < 8:
        return ConditionVerdict.inconclusive("mg", {"checked_up_to": P}, "trend",
                                             note="range too short")
    log_M = M.log_values(2 * P)
    idx = np.arange(P + 1)
    # a log M past the float range is +inf, and a defect that reads it nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ssum = log_M[idx][:, None] + log_M[idx][None, :]
        total = log_M[idx[:, None] + idx[None, :]]
        denom = (idx[:, None] + idx[None, :]).astype(float)
        denom[0, 0] = 1.0
        defect = (total - ssum) / denom
    running = []
    n = 8
    while n <= P:
        running.append(float(np.max(defect[: n + 1, : n + 1])))
        n *= 2
    if n // 2 != P:
        running.append(float(np.max(defect)))
    inside = np.isfinite(log_M)
    if not inside.all():
        # every running max from the first range that reads an infinite log M is nan
        return ConditionVerdict.inconclusive("mg", {
            "running_max_log": [v for v in running if math.isfinite(v)],
            "checked_up_to": P, "log_M_infinite_from_p": int(np.argmin(inside)),
            "note": "log M_p leaves the float range"}, "trend")
    model_bounded = None
    tm = M.tail_model
    if tm is not None:
        model_bounded = not tm.superpolynomial
    if model_bounded is False:
        return ConditionVerdict.inconclusive("mg", {
            "running_max_log": running, "checked_up_to": P,
            "model": "quotients grow supra-polynomially; no constant can work"}, "tail-model")
    how = "tail-model" if model_bounded else "stabilized-range"
    if stabilized(np.array(running)) or model_bounded:
        # M_{p+q} / (M_p M_q) = binom(p+q, p)**e / M_0 <= 2**(e (p+q)) for
        # every p, q on an exact power tail from index 1, also past the range
        e = (max(tm.e_hi, 0.0) if tm is not None and tm.power_law
             and M.log_m0 >= 0 else None)
        log_C = running[-1] if e is None else max(running[-1], e * math.log(2.0))
        if not log_C < _LOG_FLOAT_MAX:
            return ConditionVerdict.inconclusive("mg", {
                "running_max_log": running, "checked_up_to": P,
                "note": "the constant C exceeds the float range"}, how)
        C = math.exp(running[-1])
        if e is not None:
            C = max(C, 2.0 ** e)
        return ConditionVerdict.satisfied("mg", {"C": C, "checked_up_to": P}, how)
    return ConditionVerdict.inconclusive("mg", {
        "running_max_log": running, "checked_up_to": P,
        "note": "running max still growing at range end"}, "trend")


def check_nq_r(M: WeightSequence, r: float, P: int = DEFAULT_P_MAX) -> ConditionVerdict:
    """Non-quasianalyticity of order r: sum mu_p**(-1/r) < infinity."""
    if not 0 < r < math.inf:
        raise InvalidArgument("order r must be finite and > 0")
    inv_r = 1.0 / r
    cond = "nq" if r == 1.0 else f"nq_{r:g}"
    P = M._capped(P)
    terms = -inv_r * M.log_quotients(P)[1:]
    # log partial sums over k <= P // 4, P // 2 and P, one shifted sum per
    # span, each span overwritten by its own exponentials
    spans = (terms[: P // 4], terms[P // 4: P // 2], terms[P // 2:])
    log_s4 = log_sum_exp(spans[0], out=spans[0])
    log_s2 = float(np.logaddexp(log_s4, log_sum_exp(spans[1], out=spans[1])))
    log_s1 = float(np.logaddexp(log_s2, log_sum_exp(spans[2], out=spans[2])))
    tm = M.tail_model
    if tm is not None and tm.start <= P + 1:
        conv = tm.tail_sum_converges(inv_r)
        if conv is True:
            lo_t, hi_t = tm.tail_power_sum(inv_r, P + 1)
            total_hi = float(np.logaddexp(log_s1, math.log(hi_t) if hi_t > 0 else -math.inf))
            total_lo = float(np.logaddexp(log_s1, math.log(lo_t) if lo_t > 0 else -math.inf))
            if not total_hi < _LOG_FLOAT_MAX:
                # a convergent tail that no float bounds certifies nothing
                return ConditionVerdict.inconclusive(cond, {
                    "partial_sum": math.exp(log_s1), "at_p": P, "tail_lower": lo_t}, "tail-model")
            return ConditionVerdict.satisfied(cond, {
                "sum": math.exp(total_hi),
                "sum_lower": math.exp(total_lo),
                "partial_terms": P}, "tail-model")
        if conv is False:
            return ConditionVerdict.violated(cond, {
                "partial_sum": math.exp(log_s1), "at_p": P,
                "tail_exponent": tm.e_hi * inv_r if tm.kind == "power" else math.inf},
                "tail-model")
    # no usable model: look at the partial-sum trend over successive doublings
    if P < 8:
        return ConditionVerdict.inconclusive(cond, {
            "partial_sum": math.exp(log_s1), "at_p": P}, "trend",
            note="range too short for a trend call")
    s4, s2, s1 = math.exp(log_s4), math.exp(log_s2), math.exp(log_s1)
    d_prev, d_last = s2 - s4, s1 - s2
    if d_last > SUM_UNDIMINISHED * d_prev and d_last > 1e-12 * s1:
        return ConditionVerdict.violated(cond, {
            "partial_sum": s1, "at_p": P,
            "increment_last_doubling": d_last, "increment_previous": d_prev}, "trend",
            reason="partial sums keep growing at an undiminished rate")
    return ConditionVerdict.inconclusive(cond, {
        "partial_sum": s1, "at_p": P,
        "increment_last_doubling": d_last, "increment_previous": d_prev}, "trend")


def check_nq(M: WeightSequence, P: int = DEFAULT_P_MAX) -> ConditionVerdict:
    return check_nq_r(M, 1.0, P)


def _window(values: np.ndarray) -> np.ndarray:
    """The last tenth of `values`, at least two of them."""
    return values[-max(2, len(values) // 10):]


def _check_beta(M: WeightSequence, threshold: str, P: int) -> ConditionVerdict:
    """Shared body for beta_1 (liminf mu_{Qp}/mu_p > Q) and beta_3 (> 1).

    Each Q = 2.._BETA_Q_MAX reads mu_{Qp}/mu_p for p <= min(P // Q,
    _BETA_P_CAP); the scan stops at a Q with fewer than eight such p.
    """
    cond = "beta1" if threshold == "Q" else "beta3"
    tm = M.tail_model
    P = M._capped(P)
    evidence = {}
    for Q in range(2, _BETA_Q_MAX + 1):
        if Q * 8 > P:
            break
        top = min(P, Q * _BETA_P_CAP)
        log_mu = M.log_quotients(top)
        p_hi = top // Q
        p = np.arange(1, p_hi + 1)
        # log(mu_{Qp}/mu_p); a quotient past the float range makes the gap
        # inf or nan (inf - inf), and the window reads the finite gaps only
        with np.errstate(invalid="ignore"):
            gap = log_mu[Q * p] - log_mu[p]
        gap = gap[np.isfinite(gap)]
        window = {}
        if len(gap):
            window["window_liminf_log"] = float(np.min(_window(gap)))
        need = math.log(Q) if threshold == "Q" else 0.0
        evidence[Q] = {**window, "needed_log": need}
        if tm is not None and tm.exact:
            if tm.kind == "power":
                limit = tm.e_hi * math.log(Q)  # coefficients cancel in the ratio
            else:
                limit = math.inf
            if limit > need:
                witness = {"Q": Q, "liminf": math.exp(min(limit, 700.0))}
                if window:
                    witness["window_liminf"] = math.exp(min(window["window_liminf_log"], 700.0))
                return ConditionVerdict.satisfied(cond, witness, "tail-model")
    if tm is not None and tm.exact and tm.kind == "power":
        e = tm.e_hi
        fails = (e <= 1.0) if threshold == "Q" else (e <= 0.0)
        if fails:
            return ConditionVerdict.violated(cond, {
                "Q_max": _BETA_Q_MAX, "quotient_exponent": e}, "tail-model",
                reason="ratio liminf equals Q**e for every Q, below the threshold")
    return ConditionVerdict.inconclusive(cond, {"per_Q": evidence}, "trend")


def check_beta1(M: WeightSequence, P: int = 160000) -> ConditionVerdict:
    return _check_beta(M, "Q", P)


def check_beta3(M: WeightSequence, P: int = 160000) -> ConditionVerdict:
    return _check_beta(M, "1", P)


def check_gamma1(M: WeightSequence, P: int = DEFAULT_P_MAX) -> ConditionVerdict:
    """sup_p (mu_p / p) * sum_{k>=p} 1/mu_k < infinity."""
    return RatioSweep(M, M, P).verdict("gamma1", 1.0)


def finish_sup_verdict(cond: str, log_F: Optional[np.ndarray], converges: Optional[bool],
                       P: int) -> ConditionVerdict:
    """Turn a sup-of-suffix-sums sweep log_F over p = 1..P into a verdict
    (None when N's tail model says the inner sum diverges).

    The verdict reads three values of log_F's running sup: its first, its
    middle and its last.  The running sup is finite everywhere exactly when
    the first and the last are; it is built in full only to report a sup
    that is still moving.
    """
    if log_F is None:
        return ConditionVerdict.violated(cond, {"p": 1, "inner_sum": math.inf}, "tail-model")
    n = len(log_F)
    first, last = (float(log_F[0]), float(np.max(log_F))) if n else (math.nan, math.nan)
    if math.inf in (first, last):
        return ConditionVerdict.violated(cond, {"p": 1, "inner_sum": math.inf}, "trend",
                                         reason="inner sum not finite on range")
    if not (math.isfinite(first) and math.isfinite(last)):
        # nan where a quotient past the float range meets a vanishing sum
        # (inf - inf), or no term at all: the sweep shows nothing
        return ConditionVerdict.inconclusive(cond, {"P": P}, "trend",
            note="the sweep is not finite on range (quotients past the float range)")
    # exp of a log sup below about -708 loses precision, and below -745
    # rounds to 0: the next float up keeps the sup an upper bound
    sup = math.exp(last)
    if sup < sys.float_info.min:
        sup = math.nextafter(sup, math.inf)
    is_stable = n >= 4 and settled(float(np.max(log_F[: n // 2 + 1])), last)
    if is_stable and converges is True:
        return ConditionVerdict.satisfied(cond, {"sup": sup, "P": P},
                                          "stabilized-range+tail-model")
    if is_stable:
        return ConditionVerdict.inconclusive(cond, {"sup_on_range": sup, "P": P},
            "stabilized-range", note="sup stabilized but the inner-sum tail is uncertified")
    running = np.maximum.accumulate(log_F)
    return ConditionVerdict.inconclusive(cond, {
        "sup_on_range": sup, "P": P,
        "running_sup_log": [float(v) for v in running[:: max(1, len(running) // 16)]]},
        "trend", note="running sup still moving at range end")


# condition name -> checker; every checker takes P, the largest index probed,
# and one whose name ends in "_r" takes the order r before it
SEQUENCE_CHECKS = {"lc": check_lc, "slc": check_slc, "mg": check_mg,
                   "nq": check_nq, "nq_r": check_nq_r, "beta1": check_beta1,
                   "beta3": check_beta3, "gamma1": check_gamma1}


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

_RELATIONS = ("precsim", "vartriangleleft", "equivalent")


def _exp(x: float) -> float:
    """exp(x), and inf past the float range."""
    return math.inf if x >= _LOG_FLOAT_MAX else math.exp(x)


def compare(M: WeightSequence, N: WeightSequence, relation: str,
            P: int = DEFAULT_P_MAX) -> ConditionVerdict:
    """Compare two sequences through d_p = log(M_p/N_p)/p.

    precsim:         sup_p (M_p/N_p)**(1/p) finite
    vartriangleleft: (M_p/N_p)**(1/p) -> 0
    equivalent:      precsim both ways
    """
    if relation not in _RELATIONS:
        raise InvalidArgument(f"unknown relation {relation!r}")
    if relation == "equivalent":
        return both_ways(compare(M, N, "precsim", P), compare(N, M, "precsim", P),
                         lambda fw, bw: {"sup_both_ways": max(fw["sup"], bw["sup"])})

    P = min(M._capped(P), N._capped(P))
    d = (M.log_values(P)[1:] - N.log_values(P)[1:]) / np.arange(1, P + 1)
    sup_d = float(np.max(d))
    win = _window(d)
    trend = {"log_sup": sup_d, "window_mean_log": float(np.mean(win)),
             "window_last_log": float(win[-1]), "P": P}

    tm, tn = M.tail_model, N.tail_model
    exact = tm is not None and tn is not None and tm.exact and tn.exact
    limit = log_ratio_limit(tm, tn) if exact else None  # limit of d_p, or None
    if relation == "precsim":
        if limit is not None:
            if limit < math.inf:
                return ConditionVerdict.satisfied("precsim", {"sup": _exp(sup_d)}, "tail-model")
            return ConditionVerdict.violated("precsim", {
                "p": P, "ratio_root": _exp(float(d[-1]))}, "tail-model",
                reason="model: (M_p/N_p)^(1/p) diverges")
        slope = float(win[-1] - win[0])
        if slope <= COMPARE_SLOPE * max(1.0, abs(sup_d)):
            return grid_decided("precsim", Verdict.SATISFIED, "window slope",
                                {"sup": _exp(sup_d)})
        return grid_decided("precsim", Verdict.INCONCLUSIVE, "window slope", trend)
    # vartriangleleft
    if limit is not None:
        if limit == -math.inf:
            return ConditionVerdict.satisfied("vartriangleleft",
                {"limit": 0.0, "window_value": _exp(float(win[-1]))}, "tail-model")
        return ConditionVerdict.violated("vartriangleleft", {
            "p": P, "ratio_root": _exp(float(win[-1])),
            "limit": _exp(limit)}, "tail-model",
            reason="model: ratio root does not vanish")
    if float(win[-1]) < float(win[0]) and win[-1] < math.log(COMPARE_ROOT):
        return grid_decided("vartriangleleft", Verdict.SATISFIED, "window root",
                            {"limit_bound": _exp(float(win[-1]))})
    return grid_decided("vartriangleleft", Verdict.INCONCLUSIVE, "window root", trend)

