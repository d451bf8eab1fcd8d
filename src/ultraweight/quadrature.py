"""Integrals of weight functions against power kernels.

Everything here computes windows of integral_t^inf f(u) * u**(-s) du.  The
window [t, Y] is handled by fixed-order Gauss-Legendre panels on the log axis
(the integrand of a power-law weight is a pure exponential there, so a handful
of nodes is already exact to double precision); the stretch beyond the cutoff
Y = max(t, 1) * Y_CUT uses a closed form when the caller supplies one and a
fitted power-law extrapolation (flagged) otherwise.

Each integral is two steps: sample f at the nodes (`PanelSamples`,
`TailSamples`, `SuffixSamples`), then apply the kernel u**(-s) and the
weights.  The public functions run both back to back; a caller that needs
one window at many orders s samples f once and keeps the samples.  One
sampler, `SuffixSamples`, serves integrals to infinity from one lower limit
or from each point of an ascending grid.

scipy.integrate.quad is deliberately not used here so the test suite can hold
it up as an independent oracle.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .special import gammaincc, gammaln
from .verdict import GridTooCoarse, InvalidArgument, read_only

Y_CUT = 1e8
_NODES = 16  # Gauss-Legendre nodes per panel
_PANELS_PER_UNIT = 4  # panels per unit of log-length, minimum 8 total
_SUB = 3  # panels per interval of a suffix grid
# points per block of pointwise array work: 64 KB of float64 stays in cache,
# and a block's temporaries are reused from the heap instead of being mapped
# and faulted in afresh for every array
BLOCK = 8192


@lru_cache(maxsize=1)
def _gauss() -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(_NODES)
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


class PanelSamples:
    """f at the Gauss-Legendre nodes of log-axis panels: everything in the
    panel integrals of f(u) u**(-s) du that does not depend on s.  Its arrays
    are read-only.

    Past one `BLOCK` of nodes, the panel sums of every order are computed a
    block at a time, and so is f at the nodes when f is the eval of a
    pointwise weight function that does not run blocks itself: no temporary
    spans all the nodes.
    """

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray):
        x, _ = _gauss()
        mid = 0.5 * (edges[1:] + edges[:-1])
        self.half = read_only(0.5 * np.diff(edges))  # panel half-widths in v
        v = np.multiply(self.half[:, None], x[None, :])
        v += mid[:, None]
        self.v = read_only(v.ravel())
        owner = getattr(f, "__self__", None)
        if (len(self.v) > BLOCK and getattr(owner, "pointwise", False)
                and not owner.blocked):
            fv = np.empty_like(self.v)
            for _, nodes in self._blocks():
                fv[nodes] = f(np.exp(self.v[nodes]))
        else:
            fv = np.asarray(f(np.exp(self.v)), dtype=float)
        self.fv = read_only(fv)

    def _blocks(self):
        """(panels, nodes) slices of consecutive panels, `BLOCK` nodes each."""
        step = BLOCK // _NODES
        for i in range(0, len(self.half), step):
            yield slice(i, i + step), slice(i * _NODES, (i + step) * _NODES)

    def panel_sums(self, s: float) -> np.ndarray:
        """Weighted node sums per panel; times `half` they are the panel integrals."""
        _, w = _gauss()

        def sums(fv: np.ndarray, v: np.ndarray) -> np.ndarray:
            g = fv * np.exp((1.0 - s) * v)
            return np.sum(g.reshape(-1, _NODES) * w[None, :], axis=1)

        if len(self.v) <= BLOCK:
            return sums(self.fv, self.v)
        out = np.empty(len(self.half))
        for panels, nodes in self._blocks():
            out[panels] = sums(self.fv[nodes], self.v[nodes])
        return out

    def integral(self, s: float) -> float:
        return float(self.panel_sums(s) @ self.half)


def kernel_window(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
                  kinks: Sequence[float] = ()) -> PanelSamples:
    """f at the log-axis Gauss-Legendre nodes of [a, b]: `.integral(s)` is
    integral_a^b f(u) u**(-s) du, for any order s.

    With `suffix_integral_grid` it is one of the two functions that
    perfbench's tracer finds by name and counts integrand points in."""
    if not (0 < a < b):
        raise InvalidArgument("a quadrature window needs 0 < a < b")
    return PanelSamples(f, _edges(a, b, kinks))


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


class TailSamples:
    """f at every point integral_t^inf f(u) u**(-s) du reads, for any order
    s: the window [t, Y] with Y = max(t, 1) * Y_CUT, and Y and 2Y, where the
    fitted tail reads f, on first use."""

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], t: float, *,
                 kinks: Sequence[float] = ()):
        if t <= 0:
            raise InvalidArgument("lower limit must be positive")
        self.cutoff = max(t, 1.0) * Y_CUT
        self.window = kernel_window(f, t, self.cutoff, kinks=kinks)
        self._f = f

    @cached_property
    def far(self) -> tuple[float, float]:
        """f(Y) and f(2Y)."""
        fy, f2y = (float(v) for v in self._f(np.array([self.cutoff, 2.0 * self.cutoff])))
        return fy, f2y

    def integral(self, s: float, model_tail: Callable[[float], float] | None = None
                 ) -> float:
        """The window integral plus `model_tail(Y)`, or a fitted tail without one."""
        tail = (float(model_tail(self.cutoff)) if model_tail is not None
                else _fitted_tail(*self.far, self.cutoff, s))
        return self.window.integral(s) + tail


def _fitted_tail(fy: float, f2y: float, Y: float, s: float) -> float:
    """Extrapolate f as a power law fitted to fy = f(Y), f2y = f(2Y); caller
    flags this."""
    if fy <= 0.0:
        return 0.0
    a_hat = math.log(max(f2y, 1e-300) / fy) / math.log(2.0)
    if a_hat >= s - 1.0 - 0.05:
        raise GridTooCoarse(
            f"fitted tail exponent {a_hat:.3f} too close to kernel order {s - 1:.3f}")
    return fy * Y ** (1.0 - s) / (s - 1.0 - a_hat) * 1.0


class SuffixSamples:
    """f at every point `suffix_integral_grid` reads on one ascending grid of
    one or more points, for any order s: the panels between grid points (none
    for one point) and the closing tail past the last."""

    def __init__(self, f: Callable[[np.ndarray], np.ndarray], ts: np.ndarray, *,
                 kinks: Sequence[float] = ()):
        ts = np.asarray(ts, dtype=float)
        if len(ts) < 1 or np.any(np.diff(ts) <= 0) or ts[0] <= 0:
            raise InvalidArgument("suffix_integral_grid needs a positive ascending grid")
        self.panels = None
        if len(ts) > 1:
            v_edges = np.log(ts)
            fine = np.concatenate([
                np.linspace(v_edges[:-1], v_edges[1:], _SUB + 1, axis=0).T[:, :-1].ravel(),
                v_edges[-1:]])
            ks = np.log([k for k in kinks if ts[0] < k < ts[-1]])
            if len(ks):
                fine = np.unique(np.concatenate([fine, ks]))
            self.panels = PanelSamples(f, fine)
            # the coarse grid segment each panel lies in
            mid = 0.5 * (fine[1:] + fine[:-1])
            self.segment = read_only(np.searchsorted(v_edges, mid, side="right") - 1)
        self.closing = TailSamples(f, float(ts[-1]), kinks=kinks)
        self.size = len(ts)

    def integrals(self, s: float, model_tail: Callable[[float], float] | None = None
                  ) -> np.ndarray:
        G = np.full(self.size, self.closing.integral(s, model_tail))
        if self.panels is not None:
            panel_vals = self.panels.panel_sums(s) * self.panels.half
            seg_vals = np.zeros(self.size - 1)
            np.add.at(seg_vals, self.segment, panel_vals)
            G[:-1] += np.cumsum(seg_vals[::-1])[::-1]
        return G


def suffix_integral_grid(f: Callable[[np.ndarray], np.ndarray], ts: np.ndarray,
                         s: float, *, model_tail: Callable[[float], float] | None = None,
                         kinks: Sequence[float] = ()) -> np.ndarray:
    """G[i] = integral_{ts[i]}^inf f(u) u**(-s) du for an ascending grid.

    Consecutive grid points become panel boundaries (each interval split into
    `_SUB` panels), so the whole sweep costs a single vectorized evaluation of
    f plus one closing window and tail beyond the last point.
    """
    return SuffixSamples(f, ts, kinks=kinks).integrals(s, model_tail)
