"""Build weight sequences and weight functions from portable descriptors.

Two descriptor forms are accepted everywhere an input is expected:

* a mapping, or its JSON text, or ``@path`` naming a JSON file: sequence
  descriptors carry a ``family`` key, function descriptors a ``kind`` key,
  with nested descriptors for derived objects.  This is exactly what
  ``WeightSequence.spec`` / ``WeightFunction.spec()`` hold, so every
  constructed object can be serialized and re-ingested.
* a compact inline form for the command line: ``NAME:n1,n2,...`` or
  ``NAME(arg, ...)``, e.g. ``gevrey:2``, ``power:0.5``, ``assoc(gevrey:1)``,
  ``shift(gevrey(2), 0.5)``.  Inside parentheses the colon form binds a
  single number; use the parenthesized form for multi-number arguments
  there (``explicit(1,4,8,32)``).  The arguments fill the same fields the
  mapping names, in table order; a trailing list field takes the rest.

Both forms share one table per domain (``_SEQUENCES``, ``_FUNCTIONS``) with
the same defaults, and every number must be finite.  Objects built here
evaluate identically to the originals that emitted the descriptor;
re-parsing an emitted descriptor is the supported way to move constructions
between runs.
"""

from __future__ import annotations

import json
import math
import numbers
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence, Union

import numpy as np

from .verdict import InvalidSpec
from .sequences import (WeightSequence, explicit, factorial_shift, gevrey, hat,
                        power, qgevrey)
from .functions import (KappaPower, LogPower, NormalizedShift, PiecewiseGlue,
                        PowerLaw, WeightFunction, power_substitute)

SpecLike = Union[str, Mapping[str, Any], WeightSequence, WeightFunction]


# ---------------------------------------------------------------------------
# inline grammar

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


@dataclass
class _Node:
    name: str
    args: list  # floats and nested _Node entries


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _parse_number(text: str, i: int):
    m = _NUMBER_RE.match(text, i)
    if m is None:
        return None, i
    return float(m.group(0)), m.end()


def _parse_expr(text: str, i: int, depth: int):
    i = _skip_ws(text, i)
    m = _NAME_RE.match(text, i)
    if m is None:
        raise InvalidSpec(f"expected a name at position {i} in {text!r}")
    node = _Node(m.group(0), [])
    i = _skip_ws(text, m.end())
    if i < len(text) and text[i] == "(":
        i = _skip_ws(text, i + 1)
        while True:
            if i >= len(text):
                raise InvalidSpec(f"unclosed '(' in {text!r}")
            if text[i] == ")":
                i += 1
                break
            value, j = _parse_number(text, i)
            # a bare number is an argument only if it ends the argument slot;
            # otherwise it was the start of something malformed
            if value is not None and _skip_ws(text, j) < len(text) \
                    and text[_skip_ws(text, j)] in ",)":
                node.args.append(value)
                i = _skip_ws(text, j)
            else:
                sub, i = _parse_expr(text, i, depth + 1)
                node.args.append(sub)
                i = _skip_ws(text, i)
            if i < len(text) and text[i] == ",":
                i = _skip_ws(text, i + 1)
    elif i < len(text) and text[i] == ":":
        i = _skip_ws(text, i + 1)
        while True:
            value, j = _parse_number(text, i)
            if value is None:
                raise InvalidSpec(f"expected a number after ':' in {text!r}")
            node.args.append(value)
            i = _skip_ws(text, j)
            # inside parentheses the colon form binds one number; the comma
            # belongs to the enclosing argument list
            if depth == 0 and i < len(text) and text[i] == ",":
                i = _skip_ws(text, i + 1)
            else:
                break
    return node, i


def parse_inline(text: str) -> _Node:
    """Parse the compact ``NAME:...`` / ``NAME(...)`` descriptor form."""
    node, i = _parse_expr(text, 0, 0)
    i = _skip_ws(text, i)
    if i != len(text):
        raise InvalidSpec(f"trailing input {text[i:]!r} in descriptor {text!r}")
    return node


# ---------------------------------------------------------------------------
# builders

def _descendant_seq(base: WeightSequence, r: float) -> WeightSequence:
    from .constructions import descendant
    return descendant(base, r).S


def _associated(seq: WeightSequence) -> WeightFunction:
    from .constructions import associated_function
    return associated_function(seq)


# family or kind -> (constructor, {field: default, None where required}),
# fields in inline order.  A field "base" holds a descriptor of the same
# domain, "sequence" a sequence descriptor, one of _LISTS a list of numbers,
# any other field a number.  Factory functions are called through their
# module-level names (hence the lambdas), which per-layer tracing re-points.
_SEQUENCES = {
    "gevrey": (lambda s: gevrey(s), {"s": None}),
    "qgevrey": (lambda q: qgevrey(q), {"q": None}),
    "explicit": (lambda values: explicit(values), {"values": None}),
    "power": (lambda base, r: power(base, r), {"base": None, "r": None}),
    "shift": (lambda base, eps: factorial_shift(base, eps),
              {"base": None, "eps": None}),
    "hat": (lambda base: hat(base), {"base": None}),
    "descendant": (_descendant_seq, {"base": None, "r": None}),
}
_FUNCTIONS = {
    "power": (PowerLaw, {"a": None, "c": 1.0}),
    "logpower": (LogPower, {"k": None, "c": 1.0}),
    "assoc": (_associated, {"sequence": None}),
    "subst": (lambda base, r: power_substitute(base, r),
              {"base": None, "r": None}),
    "kappa": (KappaPower, {"base": None, "r": 1.0}),
    "normalized": (NormalizedShift, {"base": None}),
    "glue": (PiecewiseGlue, {"base": None, "breakpoints": None,
                             "multipliers": None, "offsets": None}),
}
_FUNCTIONS["norm"] = _FUNCTIONS["normalized"]
_LISTS = ("values", "breakpoints", "multipliers", "offsets")
_DOMAINS = {WeightSequence: ("sequence", "family", _SEQUENCES),
            WeightFunction: ("function", "kind", _FUNCTIONS)}


def _number(field: str, value: Any) -> float:
    """The one reader of descriptor numbers: finite reals only."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise InvalidSpec(f"field {field!r} must be a finite number, "
                          f"not {value!r}")
    return float(value)


def _from_node(node: _Node, key: str, table: Mapping) -> dict:
    """The mapping an inline node stands for: its arguments fill the fields
    in order, and a trailing list field takes all that remain."""
    name = node.name.lower()
    spec, args = {key: name}, list(node.args)
    if name not in table:
        return spec  # the builder names the unknown family or kind
    fields = list(table[name][1])
    for field in fields:
        if field in _LISTS and field != fields[-1]:
            raise InvalidSpec(f"{name} carries several lists; pass it as a "
                              "JSON descriptor (@file or inline JSON)")
        if field in _LISTS:
            spec[field], args = args, []
        elif args:
            spec[field] = args.pop(0)
    if args:
        raise InvalidSpec(f"{name} takes at most {len(fields)} argument(s)")
    return spec


def _build(spec: Any, cls: type):
    """An object of `cls` (WeightSequence or WeightFunction) from any
    descriptor form; nested descriptors recurse through here."""
    if isinstance(spec, cls):
        return spec
    noun, key, table = _DOMAINS[cls]
    if isinstance(spec, str):
        text = spec.strip()
        spec = (_load_mapping(text[1:]) if text.startswith("@")
                else _loads(text) if text.startswith("{")
                else parse_inline(text))
    if isinstance(spec, _Node):
        spec = _from_node(spec, key, table)
    if not isinstance(spec, Mapping):
        raise InvalidSpec(f"cannot build a {noun} from {type(spec).__name__}")
    name = spec.get(key)
    if not isinstance(name, str) or name not in table:
        raise InvalidSpec(f"unknown {noun} {key} {name!r}" if name is not None
                          else f"{noun} descriptor needs a {key!r} key")
    make, fields = table[name]
    args = []
    for field, default in fields.items():
        value = spec.get(field, default)
        if value is None:
            raise InvalidSpec(f"{noun} {key} {name!r} lacks field {field!r}")
        if field in ("base", "sequence"):
            args.append(_build(value, cls if field == "base" else WeightSequence))
        elif field in _LISTS:
            if not isinstance(value, (list, tuple)):
                raise InvalidSpec(f"field {field!r} must be a list of numbers")
            args.append([_number(field, v) for v in value])
        else:
            args.append(_number(field, value))
    return make(*args)


def _load_mapping(path: str) -> Mapping[str, Any]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidSpec(f"cannot read descriptor file {path!r}: {exc}") from None
    return _loads(text)


def _loads(text: str) -> Mapping[str, Any]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidSpec(f"invalid JSON descriptor: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidSpec("JSON descriptor must be an object")
    return data


def make_sequence(spec: SpecLike) -> WeightSequence:
    """Weight sequence from a descriptor (mapping, JSON text, @file, inline)."""
    return _build(spec, WeightSequence)


def make_function(spec: SpecLike) -> WeightFunction:
    """Weight function from a descriptor (mapping, JSON text, @file, inline)."""
    return _build(spec, WeightFunction)


# ---------------------------------------------------------------------------
# serialization helpers

def spec_of(obj: Union[WeightSequence, WeightFunction]) -> Mapping[str, Any]:
    """The portable descriptor of a sequence or function, if it has one."""
    if isinstance(obj, WeightSequence):
        if obj.spec is None:
            raise InvalidSpec(f"sequence {obj.label!r} has no portable descriptor")
        return obj.spec
    return obj.spec()


def dump_spec(obj: Union[WeightSequence, WeightFunction], path: str) -> None:
    Path(path).write_text(json.dumps(spec_of(obj), sort_keys=True, indent=2)
                          + "\n")


def function_csv(fn: WeightFunction, ts: Sequence[float]) -> str:
    """Sampled values, columns ``t,value``."""
    ts = np.asarray(ts, dtype=float)
    vals = fn.eval(ts)
    lines = ["t,value"]
    lines += [f"{t:.17g},{v:.17g}" for t, v in zip(ts, vals)]
    return "\n".join(lines) + "\n"


def sequence_csv(M: WeightSequence, P: int) -> str:
    """Log values up to index P, columns ``p,log_value``.

    Values themselves overflow float64 for quite small P on factorial-type
    sequences, so the sampled column is the log.
    """
    P = min(P, M.max_index if M.max_index is not None else P)
    logs = M.log_values(P)
    lines = ["p,log_value"]
    lines += [f"{p},{v:.17g}" for p, v in enumerate(logs)]
    return "\n".join(lines) + "\n"


def matrix_csv(matrix) -> str:
    """Matrix rows, columns ``j,l,W`` (W = exp of the stored log value)."""
    lines = ["j,l,W"]
    lines += [f"{j},{l:.17g},{w:.17g}" for j, l, w in matrix.rows()]
    return "\n".join(lines) + "\n"
