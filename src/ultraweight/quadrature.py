"""Integrals of weight functions against power kernels.

Everything here computes windows of integral_t^inf f(u) * u**(-s) du.  The
window [t, Y] is handled by fixed-order Gauss-Legendre panels on the log axis
(the integrand of a power-law weight is a pure exponential there, so a handful
of nodes is already exact to double precision); the stretch beyond the cutoff
Y = max(t, 1) * Y_CUT uses a closed form when the caller supplies one and a
fitted power-law extrapolation (flagged) otherwise.

scipy.integrate.quad is deliberately not used here so the test suite can hold
it up as an independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .special import gammaincc, gammaln
from .verdict import GridTooCoarse, InvalidArgument

Y_CUT = 1e8
_NODES = 16
_PANELS_PER_UNIT = 4  # panels per unit of log-length, minimum 8 total


@lru_cache(maxsize=8)
def _gauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(nodes)
    return x, w


def _edges(a: float, b: float, kinks: Sequence[float]) -> np.ndarray:
    """Panel edges in v = log u, kinks forced onto the boundary set."""
    va, vb = math.log(a), math.log(b)
    n = max(8, int(_PANELS_PER_UNIT * (vb - va)) + 1)
    edges = np.linspace(va, vb, n + 1)
    ks = [math.log(k) for k in kinks if a < k < b]
    if ks:
        edges = np.unique(np.concatenate([edges, np.asarray(ks)]))
    return edges


def kernel_window(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
                  s: float, *, kinks: Sequence[float] = (),
                  nodes: int = _NODES) -> float:
    """integral_a^b f(u) u**(-s) du via log-axis Gauss-Legendre panels."""
    if not (0 < a < b):
        raise InvalidArgument("kernel_window needs 0 < a < b")
    edges = _edges(a, b, kinks)
    x, w = _gauss(nodes)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * np.diff(edges)
    v = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    u = np.exp(v)
    g = np.asarray(f(u), dtype=float) * np.exp((1.0 - s) * v)
    return float(np.sum(g.reshape(len(mid), nodes) * w[None, :], axis=1) @ half)


def power_log_tail(c: float, a: float, k: float, off: float, s: float,
                   Y: float) -> float:
    """Closed form for integral_Y^inf (c u**a (log u)**k - off) u**(-s) du.

    Needs a < s - 1 (else divergent) and Y >= 1.  The incomplete-gamma form
    comes from substituting v = log u.
    """
    lam = s - 1.0 - a
    if lam <= 0:
        return math.inf
    L = math.log(max(Y, 1.0))
    if k == 0:
        main = c * math.exp(-lam * L) / lam
    else:
        main = c * math.exp(gammaln(k + 1.0)) * gammaincc(k + 1.0, lam * L) \
            / lam ** (k + 1.0)
    if off:
        if s <= 1:
            return math.inf
        main -= off * Y ** (1.0 - s) / (s - 1.0)
    return main


@dataclass(frozen=True)
class TailIntegral:
    value: float
    window_value: float
    tail_value: float
    cutoff: float
    tail_method: str  # "closed-form" | "fitted"


def integral_to_infinity(f: Callable[[np.ndarray], np.ndarray], t: float, s: float,
                         *, model_tail: Callable[[float], float] | None = None,
                         kinks: Sequence[float] = (), y_cut: float = Y_CUT,
                         nodes: int = _NODES) -> TailIntegral:
    """integral_t^inf f(u) u**(-s) du with an analytic or fitted tail."""
    if t <= 0:
        raise InvalidArgument("lower limit must be positive")
    Y = max(t, 1.0) * y_cut
    window = kernel_window(f, t, Y, s, kinks=kinks, nodes=nodes)
    if model_tail is not None:
        tail = float(model_tail(Y))
        method = "closed-form"
    else:
        tail = _fitted_tail(f, Y, s)
        method = "fitted"
    return TailIntegral(value=window + tail, window_value=window, tail_value=tail,
                        cutoff=Y, tail_method=method)


def _fitted_tail(f: Callable[[np.ndarray], np.ndarray], Y: float, s: float) -> float:
    """Extrapolate f as a power law fitted at {Y, 2Y}; caller flags this."""
    fy, f2y = (float(v) for v in f(np.array([Y, 2.0 * Y])))
    if fy <= 0.0:
        return 0.0
    a_hat = math.log(max(f2y, 1e-300) / fy) / math.log(2.0)
    if a_hat >= s - 1.0 - 0.05:
        raise GridTooCoarse(
            f"fitted tail exponent {a_hat:.3f} too close to kernel order {s - 1:.3f}")
    return fy * Y ** (1.0 - s) / (s - 1.0 - a_hat) * 1.0


def suffix_integral_grid(f: Callable[[np.ndarray], np.ndarray], ts: np.ndarray,
                         s: float, *, model_tail: Callable[[float], float] | None = None,
                         kinks: Sequence[float] = (), y_cut: float = Y_CUT,
                         nodes: int = _NODES, sub: int = 3) -> np.ndarray:
    """G[i] = integral_{ts[i]}^inf f(u) u**(-s) du for an ascending grid.

    Consecutive grid points become panel boundaries (each split into `sub`
    panels), so the whole sweep costs a single vectorized evaluation of f plus
    one closing window and tail beyond the last point.
    """
    ts = np.asarray(ts, dtype=float)
    if len(ts) < 2 or np.any(np.diff(ts) <= 0) or ts[0] <= 0:
        raise InvalidArgument("suffix_integral_grid needs a positive ascending grid")
    v_edges = np.log(ts)
    fine = np.concatenate([
        np.linspace(v_edges[:-1], v_edges[1:], sub + 1, axis=0).T[:, :-1].ravel(),
        v_edges[-1:]])
    ks = np.log([k for k in kinks if ts[0] < k < ts[-1]])
    if len(ks):
        fine = np.unique(np.concatenate([fine, ks]))
    x, w = _gauss(nodes)
    mid = 0.5 * (fine[1:] + fine[:-1])
    half = 0.5 * np.diff(fine)
    v = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    g = np.asarray(f(np.exp(v)), dtype=float) * np.exp((1.0 - s) * v)
    panel_vals = np.sum(g.reshape(len(mid), nodes) * w[None, :], axis=1) * half
    # map panels back onto the coarse grid segments
    seg_idx = np.searchsorted(v_edges, mid, side="right") - 1
    seg_vals = np.zeros(len(ts) - 1)
    np.add.at(seg_vals, seg_idx, panel_vals)
    closing = integral_to_infinity(f, float(ts[-1]), s, model_tail=model_tail,
                                   kinks=kinks, y_cut=y_cut, nodes=nodes)
    G = np.empty(len(ts))
    G[-1] = closing.value
    G[:-1] = closing.value + np.cumsum(seg_vals[::-1])[::-1]
    return G
