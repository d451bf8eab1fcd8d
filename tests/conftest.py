"""Shared fixtures and independent oracles.

The oracles here recompute target quantities by brute force (dense sups,
adaptive quadrature, direct maximization) with no shared code paths into
the library's shortcut implementations, so agreement is meaningful.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

import ultraweight as uw


# ---------------------------------------------------------------------------
# oracles

def brute_associated_log(M: uw.WeightSequence, t: float, p_cap: int = 1000) -> float:
    """Dense sup of p*log t - log M_p over p <= p_cap."""
    logs = M.log_values(p_cap)
    p = np.arange(len(logs))
    return float(np.max(p * math.log(t) - logs)) if t > 0 else 0.0


def brute_mixed_sup_seq(M: uw.WeightSequence, N: uw.WeightSequence,
                        r: float, P: int = 10 ** 5) -> np.ndarray:
    """Running sup of (mu_p^{1/r}/p) * sum_{k>=p} nu_k^{-1/r}, exact p-series tail."""
    inv_r = 1.0 / r
    log_mu = M.log_quotients(P)[1:]
    log_nu = N.log_quotients(P)[1:]
    terms = np.exp(-inv_r * log_nu)
    tail_lo, tail_hi = N.tail_model.tail_power_sum(inv_r, P + 1)
    if not math.isfinite(tail_hi):
        return np.full(P, math.inf)
    suffix = np.cumsum(terms[::-1])[::-1] + 0.5 * (tail_lo + tail_hi)
    p = np.arange(1, P + 1)
    vals = np.exp(inv_r * log_mu) / p * suffix
    return np.maximum.accumulate(vals)


def quad_kernel_integral(omega: uw.WeightFunction, t: float, s: float) -> float:
    """Adaptive quadrature of integral_1^inf omega(t*y) * y^{-s} dy."""
    val, _ = integrate.quad(lambda y: omega.value(t * y) * y ** (-s),
                            1.0, np.inf, limit=400)
    return val


def brute_conjugate(pl: uw.ConvexPL, x: float, y_hi: float,
                    n: int = 20001) -> float:
    """Direct max of x*y - pl(y) over [0, y_hi].

    The objective is piecewise linear in y, so its max sits at a breakpoint
    (or an interval end); the dense grid is unioned with the breakpoints to
    make the oracle exact rather than merely close.
    """
    ys = np.union1d(np.linspace(0.0, y_hi, n), pl.xs[pl.xs <= y_hi])
    return float(np.max(x * ys - pl(ys)))


def reference_lower_hull(xs: np.ndarray, vals: np.ndarray):
    """Lower convex hull by the one-point-at-a-time monotone chain.

    Returns the hull vertices (xs, vals) and the largest drop from the input
    to the hull's linear interpolation.
    """
    hull = [0]
    for i in range(1, len(xs)):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            lhs = (vals[i1] - vals[i0]) * (xs[i] - xs[i1])
            rhs = (vals[i] - vals[i1]) * (xs[i1] - xs[i0])
            if lhs >= rhs:
                hull.pop()
            else:
                break
        hull.append(i)
    hx, hv = xs[hull], vals[hull]
    return hx, hv, float(np.max(vals - np.interp(xs, hx, hv)))


def reference_log_suffix_sums(x: np.ndarray, seed: float = -math.inf) -> np.ndarray:
    """log(sum_{k>=i} exp(x_k) + exp(seed)) for every i, one term at a time
    by a sequential running logaddexp from the end."""
    full = np.concatenate([np.asarray(x, dtype=float), [seed]])
    return np.logaddexp.accumulate(full[::-1])[::-1][:len(x)]


def reference_log_sum_exp(x: np.ndarray, out: np.ndarray | None = None) -> float:
    """log sum_k exp(x_k) by the same sequential running logaddexp; `out`,
    the scratch buffer of `log_sum_exp`, is not needed."""
    return float(reference_log_suffix_sums(x)[0]) if len(x) else -math.inf


def scalar_log_quotient(tm, p: int) -> float:
    """log mu_p of an exact tail model, in scalar math."""
    if tm.kind == "power":
        return tm.e_hi * math.log(p) + math.log(tm.c_hi)
    return tm.a * p + tm.b + tm.g * math.log(p)


def scalar_count_quotients_below(tm, log_t: float) -> int:
    """Largest p with log mu_p <= log_t, one point at a time: closed form
    (power) or Newton (log-linear) for a first guess, then unit steps until
    log mu_p <= log_t < log mu_{p+1}."""
    if tm.kind == "power":
        p = math.floor(math.exp((log_t - math.log(tm.c_hi)) / tm.e_hi))
    else:
        p_f = max(1.0, (log_t - tm.b) / tm.a)
        for _ in range(40):
            dp = (log_t - scalar_log_quotient(tm, p_f)) / (tm.a + tm.g / p_f)
            p_f = max(1.0, p_f + dp)
            if abs(dp) < 0.25:
                break
        p = math.floor(p_f + 1e-9)
    while p >= 1 and scalar_log_quotient(tm, p) > log_t:
        p -= 1
    while scalar_log_quotient(tm, p + 1) <= log_t:
        p += 1
    return max(0, p)


def scalar_log_value(tm, p: int) -> float:
    """log M_p = sum_{k <= p} log mu_k of an exact tail model, via math.lgamma."""
    if tm.kind == "power":
        return tm.e_hi * math.lgamma(p + 1) + p * math.log(tm.c_hi)
    return tm.a * p * (p + 1) / 2.0 + tm.b * p + tm.g * math.lgamma(p + 1)


def assert_status(verdict, expected: str) -> None:
    expected = expected.lower()
    assert verdict.status.value == expected, (
        f"{verdict.condition}: expected {expected}, got {verdict.status.value} "
        f"(witness={dict(verdict.witness)}, "
        f"counterexample={dict(verdict.counterexample)}, "
        f"trend={dict(verdict.trend)})")


# ---------------------------------------------------------------------------
# fixtures

@pytest.fixture(scope="session")
def gevrey1():
    return uw.gevrey(1.0)


@pytest.fixture(scope="session")
def gevrey2():
    return uw.gevrey(2.0)


@pytest.fixture(scope="session")
def gevrey3():
    return uw.gevrey(3.0)


@pytest.fixture(scope="session")
def qgevrey2():
    return uw.qgevrey(2.0)


@pytest.fixture(scope="session")
def assoc_g1(gevrey1):
    return uw.associated_function(gevrey1)


@pytest.fixture(scope="session")
def assoc_g2(gevrey2):
    return uw.associated_function(gevrey2)


@pytest.fixture(scope="session")
def sqrt_weight():
    return uw.PowerLaw(0.5)


@pytest.fixture(scope="session")
def cbrt_weight():
    return uw.PowerLaw(1.0 / 3.0)
