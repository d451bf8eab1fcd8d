"""Shared verdict types, error hierarchy, and run configuration.

A condition check never returns a bare bool: asymptotic facts decided from
finite data carry their evidence.  `Satisfied` must name at least one witness
constant, `Violated` must point at a counterexample, and `Inconclusive`
carries the trend data that stopped short of a decision.  Each names what
decided it, its provenance, from the one vocabulary `PROVENANCE`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

import numpy as np

INDEX_CAP = 64.0  # encodes "infinite beyond tested range" for index estimates
DEFAULT_INDEX_TOL = 1e-2
DEFAULT_P_MAX = 10 ** 5  # largest sequence index a sweep probes by default


class UltraweightError(Exception):
    """Base class for all package errors."""


class InvalidSpec(UltraweightError):
    """Malformed generator descriptor (JSON or inline)."""


class InvalidArgument(UltraweightError, ValueError):
    """Argument outside the documented domain (e.g. r <= 0)."""


class PreconditionError(UltraweightError):
    """A documented operation precondition does not hold."""


class NotLogConvex(PreconditionError):
    pass


class DivergentAssociated(PreconditionError):
    """A sup transform or its conjugate is +inf where it is asked for:
    (M_p)^{1/p} stays bounded, or a finite list's conjugate past its end."""


class NotNonQuasianalytic(PreconditionError):
    pass


class GammaNotAboveOne(PreconditionError):
    """Witness search failed where an index > 1 was required."""


class PreconditionInconclusive(PreconditionError):
    """A precondition could not be certified from the available data."""


class ConvexityViolation(UltraweightError):
    """Sampled log-reparametrized function is non-convex beyond tolerance."""

    def __init__(self, message: str, triple: tuple | None = None):
        super().__init__(message)
        self.triple = triple


class GridTooCoarse(UltraweightError):
    """Auto-refinement hit its cap without the target quantity stabilizing."""


class InternalInconsistency(UltraweightError):
    """Computed verdicts contradict an implication that must hold between them."""


class EvaluationRangeError(UltraweightError):
    """Evaluation requested beyond the range supported by the data."""


# what decided a verdict, in any status: a structural fact of the object, a
# finite list's whole domain, a sequence's tail law, a function's growth model,
# a running sup settled on the computed range (with a tail law for the rest),
# or "trend": the finite data alone, a rule on the range or a counterexample in it
PROVENANCE = frozenset({"structure", "finite-domain", "tail-model", "growth-model",
                        "stabilized-range", "stabilized-range+tail-model", "trend"})


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class ConditionVerdict:
    """Outcome of a single condition check.

    `witness` holds the constants certifying a Satisfied verdict, `counterexample`
    the point (and offending values) behind a Violated one, `trend` whatever
    finite evidence was gathered when neither could be concluded, and
    `provenance` what decided it (one of `PROVENANCE`).
    """

    condition: str
    status: Verdict
    provenance: str
    witness: Mapping[str, float] = field(default_factory=dict)
    counterexample: Mapping[str, float] = field(default_factory=dict)
    trend: Mapping[str, Any] = field(default_factory=dict)
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCE:
            raise InternalInconsistency(f"{self.condition!r}: provenance {self.provenance!r}")
        if self.status is Verdict.SATISFIED and not self.witness:
            raise InternalInconsistency(
                f"Satisfied verdict for {self.condition!r} lacks a witness constant")
        if self.status is Verdict.VIOLATED and not self.counterexample:
            raise InternalInconsistency(
                f"Violated verdict for {self.condition!r} lacks a counterexample")

    @property
    def is_satisfied(self) -> bool:
        return self.status is Verdict.SATISFIED

    @property
    def is_violated(self) -> bool:
        return self.status is Verdict.VIOLATED

    @property
    def is_inconclusive(self) -> bool:
        return self.status is Verdict.INCONCLUSIVE

    @staticmethod
    def satisfied(condition: str, witness: Mapping[str, float], provenance: str,
                  **diag: Any) -> "ConditionVerdict":
        return ConditionVerdict(condition, Verdict.SATISFIED, provenance,
                                witness=dict(witness), diagnostics=diag)

    @staticmethod
    def violated(condition: str, counterexample: Mapping[str, float], provenance: str,
                 **diag: Any) -> "ConditionVerdict":
        return ConditionVerdict(condition, Verdict.VIOLATED, provenance,
                                counterexample=dict(counterexample), diagnostics=diag)

    @staticmethod
    def inconclusive(condition: str, trend: Mapping[str, Any], provenance: str,
                     **diag: Any) -> "ConditionVerdict":
        return ConditionVerdict(condition, Verdict.INCONCLUSIVE, provenance,
                                trend=dict(trend), diagnostics=diag)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"condition": self.condition, "status": self.status.value,
                               "provenance": self.provenance}
        if self.witness:
            out["witness"] = _jsonify(self.witness)
        if self.counterexample:
            out["counterexample"] = _jsonify(self.counterexample)
        if self.trend:
            out["trend"] = _jsonify(self.trend)
        if self.diagnostics:
            out["diagnostics"] = _jsonify(self.diagnostics)
        return out


_EVIDENCE = {Verdict.SATISFIED: "witness", Verdict.VIOLATED: "counterexample",
             Verdict.INCONCLUSIVE: "trend"}


def grid_decided(cond: str, status: Verdict, rule: str,
                 evidence: Mapping[str, Any]) -> ConditionVerdict:
    """A verdict the finite grid decided alone, with no model behind it:
    provenance `trend`, and the rule that decided in its diagnostics."""
    return ConditionVerdict(cond, status, "trend", diagnostics={"rule": rule},
                            **{_EVIDENCE[status]: dict(evidence)})


def both_ways(fwd: ConditionVerdict, bwd: ConditionVerdict,
              witness: Callable[[Mapping, Mapping], Mapping]) -> ConditionVerdict:
    """"equivalent" from its two one-way verdicts, with `witness(fwd.witness,
    bwd.witness)` when both hold and the `direction` of the first that fails.
    Both read the same two laws or models, or not both have one: one provenance."""
    if fwd.is_satisfied and bwd.is_satisfied:
        return ConditionVerdict.satisfied("equivalent", witness(fwd.witness, bwd.witness),
                                          fwd.provenance)
    if fwd.is_violated or bwd.is_violated:
        loser, direction = (fwd, "forward") if fwd.is_violated else (bwd, "backward")
        return ConditionVerdict.violated("equivalent", dict(loser.counterexample),
                                         loser.provenance, direction=direction)
    return ConditionVerdict.inconclusive("equivalent", {
        "forward": fwd.status.value, "backward": bwd.status.value}, fwd.provenance)


def read_only(a: np.ndarray) -> np.ndarray:
    """`a` with writes refused: arrays shared across the probes of one index
    call must not be changed by any of them."""
    a.flags.writeable = False
    return a


def _jsonify(obj: Any) -> Any:
    """Coerce numpy scalars/arrays and non-finite floats into JSON-safe values."""
    if isinstance(obj, Mapping):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, enum.Enum):
        return obj.value
    return obj


# the uniform y = log t grid that conjugation and the sampled convexity
# check read: y in [0, log 1e12], 2000 points
Y_GRID = read_only(np.linspace(0.0, math.log(1e12), 2000))


@dataclass(frozen=True)
class Grid:
    """Geometric evaluation grid on the t-axis."""

    t_min: float = 1e-2
    t_max: float = 1e12
    points: int = 600

    def __post_init__(self) -> None:
        if not (0 < self.t_min < self.t_max < math.inf):
            raise InvalidArgument("grid needs finite 0 < t_min < t_max")
        if self.points < 16:
            raise InvalidArgument("grid needs at least 16 points")

    def geometric(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.points)


@dataclass(frozen=True)
class RunConfig:
    """Deterministic knobs shared by library sweeps and the CLI."""

    grid: Grid = field(default_factory=Grid)
    p_max: int = DEFAULT_P_MAX
    index_tol: float = DEFAULT_INDEX_TOL

    def __post_init__(self) -> None:
        if not self.index_tol > 0:  # NaN included
            raise InvalidArgument("tolerance must be positive")
        if not isinstance(self.p_max, (int, np.integer)):
            raise InvalidArgument(f"p_max must be an integer, got {self.p_max!r}")
        if self.p_max < 4:
            raise InvalidArgument("p_max must be at least 4")


# ---------------------------------------------------------------------------
# trend policy: the thresholds a check applies to the end of a finite range

STABILIZE_REL = 1e-3  # "sup stabilizes": < 0.1% change over the last doubling
REL_MARGIN = 1.01  # widens a sup read off the range into a witness constant
# a running sup grows by TREND_GROW over each of its last two quarters, or
# ends within TREND_FLAT (RATIO_TREND_FLAT for a ratio of gauges) of its middle
TREND_GROW, TREND_FLAT, RATIO_TREND_FLAT = 1.05, 1.0005, 1.02
VANISH, NOT_VANISH = 0.5, 0.98  # a ratio that should vanish: end over middle
LOG_VANISH, LOG_NOT_VANISH = 1 / 1.2, 1 / 1.02  # the same for omega3's log t/omega
GAUGE_NOT_VANISH = math.inf  # compare_o: no end value refutes b = o(a)
WINDOW_DECAY, WINDOW_FLAT = 0.7, 0.9  # window integrals: last increment over previous
SUM_UNDIMINISHED = 0.5  # partial sums: last doubling's increment over previous
COMPARE_SLOPE, COMPARE_ROOT = 1e-3, 0.5  # compare: flat log-ratio slope, vanished root
QUOTIENT_RATIO_STEP = 0.05  # rise of the quotient ratio's running max: unbounded


def stabilized(running_values: np.ndarray, rel: float = STABILIZE_REL) -> bool:
    """True when a running sup/max changed by < `rel` over the last doubling.

    `running_values` is the running extremum sampled along an (implicitly
    geometric) range; the comparison is between the final value and the value
    at the halfway point of the range.
    """
    v = np.asarray(running_values, dtype=float)
    v = v[np.isfinite(v)]
    if len(v) < 4:
        return False
    return settled(v[len(v) // 2], v[-1], rel)


def settled(half: float, final: float, rel: float = STABILIZE_REL) -> bool:
    """True when a running sup's `final` value is within `rel` of its `half` one."""
    if final == 0:
        return abs(half) <= rel
    return abs(final - half) <= rel * abs(final)

