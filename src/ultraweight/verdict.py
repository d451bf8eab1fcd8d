"""Shared verdict types, error hierarchy, and run configuration.

A condition check never returns a bare bool: asymptotic facts decided from
finite data carry their evidence.  `Satisfied` must name at least one witness
constant, `Violated` must point at a counterexample, and `Inconclusive`
carries the trend data that stopped short of a decision.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

INDEX_CAP = 64.0  # encodes "infinite beyond tested range" for index estimates
DEFAULT_INDEX_TOL = 1e-2


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
    finite evidence was gathered when neither could be concluded.
    """

    condition: str
    status: Verdict
    witness: Mapping[str, float] = field(default_factory=dict)
    counterexample: Mapping[str, float] = field(default_factory=dict)
    trend: Mapping[str, Any] = field(default_factory=dict)
    diagnostics: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
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
    def satisfied(condition: str, witness: Mapping[str, float],
                  **diag: Any) -> "ConditionVerdict":
        return ConditionVerdict(condition, Verdict.SATISFIED, witness=dict(witness),
                                diagnostics=diag)

    @staticmethod
    def violated(condition: str, counterexample: Mapping[str, float],
                 **diag: Any) -> "ConditionVerdict":
        return ConditionVerdict(condition, Verdict.VIOLATED,
                                counterexample=dict(counterexample), diagnostics=diag)

    @staticmethod
    def inconclusive(condition: str, trend: Mapping[str, Any],
                     **diag: Any) -> "ConditionVerdict":
        return ConditionVerdict(condition, Verdict.INCONCLUSIVE, trend=dict(trend),
                                diagnostics=diag)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"condition": self.condition, "status": self.status.value}
        if self.witness:
            out["witness"] = _jsonify(self.witness)
        if self.counterexample:
            out["counterexample"] = _jsonify(self.counterexample)
        if self.trend:
            out["trend"] = _jsonify(self.trend)
        if self.diagnostics:
            out["diagnostics"] = _jsonify(self.diagnostics)
        return out


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


GRID_POINTS_ENV = "ULTRAWEIGHT_GRID_POINTS"


def _default_points(fallback: int) -> int:
    raw = os.environ.get(GRID_POINTS_ENV)
    if raw is None:
        return fallback
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidArgument(f"{GRID_POINTS_ENV} must be an integer, got {raw!r}") from exc
    if value < 16:
        raise InvalidArgument(f"{GRID_POINTS_ENV} must be >= 16, got {value}")
    return value


@dataclass(frozen=True)
class Grid:
    """Geometric evaluation grid on the t-axis."""

    t_min: float = 1e-2
    t_max: float = 1e12
    points: int = 0  # 0 = resolve from env / default at construction

    def __post_init__(self) -> None:
        if self.points == 0:
            object.__setattr__(self, "points", _default_points(600))
        if not (0 < self.t_min < self.t_max < math.inf):
            raise InvalidArgument("grid needs finite 0 < t_min < t_max")
        if self.points < 16:
            raise InvalidArgument("grid needs at least 16 points")

    def geometric(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.points)

    def tail(self, fraction: float = 0.1) -> np.ndarray:
        """Final `fraction` of the grid, used for trend/liminf style estimates."""
        ts = self.geometric()
        k = max(2, int(len(ts) * fraction))
        return ts[-k:]


@dataclass(frozen=True)
class YGrid:
    """Uniform grid on the y = log t axis used for conjugation."""

    y_max: float = math.log(1e12)
    points: int = 0

    def __post_init__(self) -> None:
        if self.points == 0:
            object.__setattr__(self, "points", _default_points(2000))
        if self.y_max <= 0:
            raise InvalidArgument("y_max must be positive")

    def values(self) -> np.ndarray:
        return np.linspace(0.0, self.y_max, self.points)


@dataclass(frozen=True)
class RunConfig:
    """Deterministic knobs shared by library sweeps and the CLI."""

    grid: Grid = field(default_factory=Grid)
    ygrid: YGrid = field(default_factory=YGrid)
    p_max: int = 10 ** 5
    index_tol: float = DEFAULT_INDEX_TOL

    def __post_init__(self) -> None:
        if not self.index_tol > 0:  # NaN included
            raise InvalidArgument("tolerance must be positive")
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

