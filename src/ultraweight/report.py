"""Deterministic JSON run reports.

A report is a plain mapping rendered with sorted keys, so two runs with the
same inputs and configuration produce byte-identical text except for the
``wall_time`` field.  Non-finite floats serialize as the strings ``"inf"`` /
``"-inf"`` / ``"nan"`` (see ``verdict._jsonify``), keeping the output strict
JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from . import __version__
from .verdict import PROVENANCE, _jsonify

SCHEMA_VERSION = "2"
TOOL_NAME = "ultraweight"


@dataclass
class Report:
    """Envelope for one command-line run.

    `inputs` echoes the parsed descriptors and knobs, `results` holds the
    verdicts / estimates / construction summaries, `diagnostics` whatever
    supporting evidence the operations produced.
    """

    command: str
    inputs: Mapping[str, Any] = field(default_factory=dict)
    results: Mapping[str, Any] = field(default_factory=dict)
    diagnostics: Mapping[str, Any] = field(default_factory=dict)
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": {"name": TOOL_NAME, "version": __version__},
            "command": self.command,
            "inputs": _jsonify(self.inputs),
            "results": _jsonify(self.results),
            "diagnostics": _jsonify(self.diagnostics),
            "wall_time": self.wall_time,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


_STATUSES = ("satisfied", "violated", "inconclusive")


def iter_statuses(obj: Any) -> Iterator[str]:
    """Every verdict status string buried anywhere in a result tree."""
    if isinstance(obj, Mapping):
        status = obj.get("status")
        if isinstance(status, str) and status in _STATUSES:
            yield status
        for v in obj.values():
            yield from iter_statuses(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from iter_statuses(v)


def exit_code_for(results: Any) -> int:
    """0 all Satisfied (or nothing to decide), 1 any Violated, 2 any Inconclusive."""
    statuses = list(iter_statuses(results))
    if any(s == "violated" for s in statuses):
        return 1
    if any(s == "inconclusive" for s in statuses):
        return 2
    return 0


def validate_report(data: Mapping[str, Any]) -> list[str]:
    """Structural problems in a serialized report; empty list when clean."""
    problems: list[str] = []
    if data.get("schema_version") != SCHEMA_VERSION:
        problems.append(f"schema_version {data.get('schema_version')!r} "
                        f"(expected {SCHEMA_VERSION!r})")
    for key in ("tool", "command", "inputs", "results", "diagnostics",
                "wall_time"):
        if key not in data:
            problems.append(f"missing field {key!r}")

    def walk(obj: Any, path: str) -> None:
        if isinstance(obj, Mapping):
            # a verdict, or an index sample with its status under "verdict"
            status = obj.get("status", obj.get("verdict"))
            if status == "satisfied" and not obj.get("witness"):
                problems.append(f"{path}: satisfied without witness")
            if status == "violated" and not obj.get("counterexample"):
                problems.append(f"{path}: violated without counterexample")
            if status in _STATUSES and obj.get("provenance") not in PROVENANCE:
                problems.append(f"{path}: provenance {obj.get('provenance')!r}")
            for k, v in obj.items():
                walk(v, f"{path}.{k}")
        elif isinstance(obj, (list, tuple)):
            for i, v in enumerate(obj):
                walk(v, f"{path}[{i}]")

    walk(data.get("results", {}), "results")
    return problems
