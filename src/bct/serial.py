"""Text and JSON formats: systems, labels, rationals, states, kernels.

System syntax:  `2`, `(2*3)`, `((2*2)*2)`; `1` is the trivial system.
Label syntax:   leaf `3`, node `(x y)+` / `(x y)-`, unit `*`.
Rationals are strings `[+-]p/q` or `[+-]p` (`1/2`, `-3`); `2/4` normalizes on
input.  Parse failures raise ParseError with a machine-readable code.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Callable, Hashable, Iterator, Sequence

from .config import MAX_NESTING, shown
from .kernels import Instrument, Kernel
from .labels import LeafLabel, NodeLabel, PureLabel, UNIT, coder, label_to_str
from .states import GeneralizedVector, StateVector
from .systems import (
    Leaf,
    Node,
    SystemTree,
    TheoryMode,
    Trivial,
    compose_systems,
    leaf,
    trivial,
)

E_RATIONAL = "E_RATIONAL"
E_LABEL_SYNTAX = "E_LABEL_SYNTAX"
E_LABEL_RANGE = "E_LABEL_RANGE"
E_SYSTEM_SYNTAX = "E_SYSTEM_SYNTAX"
E_MODE = "E_MODE"
E_SCHEMA = "E_SCHEMA"

_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")
_DIMENSION = re.compile(r"\d+")
_LABEL_LEAF = re.compile(r"\*|\d+")

# A leaf's number may have at most as many digits as `int` reads under the
# least digit limit an interpreter can set, 640 (see
# `sys.int_info.str_digits_check_threshold`), so the parser refuses a longer
# one itself, with its own message, whatever the limit in force.
_MAX_DIGITS = 640


class ParseError(ValueError):
    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


# ---------------------------------------------------------------------------
# Rationals


def fraction_to_str(value: Fraction) -> str:
    value = Fraction(value)
    return str(value)


def parse_fraction(text: str) -> Fraction:
    if not isinstance(text, str):
        raise ParseError(E_RATIONAL, f"rational must be a string, got {shown(text)}")
    if _RATIONAL.fullmatch(text.strip()):
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            pass  # a zero denominator, or more digits than `int` reads
    raise ParseError(E_RATIONAL, f"bad rational {shown(text)}")


# ---------------------------------------------------------------------------
# Trees: systems and labels share one syntax


def _parse_tree(text: str, code: str, separator: str, closers: dict[str, Any],
                leaf_syntax: tuple[re.Pattern, str, Callable[[str], Any]],
                node: Callable[[Any, Any, Any], Any]) -> Any:
    """Parse a leaf, or `(x<separator>y)` followed by one of `closers`.

    A closing token's value goes to `node` with the two subtrees;
    `leaf_syntax` is (token pattern, name for errors, token -> leaf).  Errors
    carry `code` and the position in the stripped text; nesting deeper than
    MAX_NESTING is refused at the parenthesis that passes the cap.
    """
    if not isinstance(text, str):
        raise ParseError(code, f"expected a string, got {shown(text)}")
    echo = shown(text)
    text = text.strip()
    pattern, leaf_name, make_leaf = leaf_syntax
    pos = 0

    def fail(message: str):
        raise ParseError(code, f"{message} at position {pos} in {echo}")

    def term(depth: int) -> Any:
        nonlocal pos
        if pos >= len(text):
            fail("unexpected end")
        if text[pos] == "(":
            if depth == MAX_NESTING:
                fail(f"nesting deeper than {MAX_NESTING}")
            pos += 1
            left = term(depth + 1)
            if not text.startswith(separator, pos):
                fail(f"expected {separator!r}")
            pos += len(separator)
            right = term(depth + 1)
            closer = next((c for c in closers if text.startswith(c, pos)), None)
            if closer is None:
                fail("expected " + " or ".join(map(repr, closers)))
            pos += len(closer)
            return node(left, right, closers[closer])
        match = pattern.match(text, pos)
        if match is None:
            fail(f"expected {leaf_name}")
        if match.end() - pos > _MAX_DIGITS:
            fail(f"number too long ({match.end() - pos} digits)")
        try:
            tree = make_leaf(match.group())
        except ValueError as exc:
            fail(str(exc))
        pos = match.end()
        return tree

    tree = term(0)
    if pos != len(text):
        fail("trailing input")
    return tree


# ---------------------------------------------------------------------------
# Systems


def system_to_str(system: SystemTree) -> str:
    if isinstance(system, Trivial):
        return "1"
    if isinstance(system, Leaf):
        return str(system.system.dim)
    assert isinstance(system, Node)
    return f"({system_to_str(system.left)}*{system_to_str(system.right)})"


def parse_system(text: str, mode: TheoryMode = TheoryMode.BCT) -> SystemTree:
    def dimension_leaf(token: str) -> SystemTree:
        dim = int(token)
        return trivial(mode) if dim == 1 else leaf(dim, mode)

    return _parse_tree(text, E_SYSTEM_SYNTAX, "*", {")": None},
                       (_DIMENSION, "a dimension", dimension_leaf),
                       lambda left, right, _: compose_systems(left, right))


# ---------------------------------------------------------------------------
# Labels


def parse_label(text: str, system: SystemTree | None = None) -> PureLabel:
    label = _parse_tree(text, E_LABEL_SYNTAX, " ", {")+": 1, ")-": -1},
                        (_LABEL_LEAF, "an index",
                         lambda token: UNIT if token == "*" else LeafLabel(int(token))),
                        NodeLabel)
    if system is not None and coder(system).index(label) is None:
        raise ParseError(E_LABEL_RANGE, f"label {shown(text)} is not a pure label of "
                                        f"{shown(system_to_str(system), quoted=False)}")
    return label


# ---------------------------------------------------------------------------
# Vectors, kernels, instruments


def parse_mode(text: str) -> TheoryMode:
    try:
        return TheoryMode(text)
    except ValueError as exc:
        raise ParseError(E_MODE, f"unknown mode {shown(text)}") from exc


def vector_to_json(vector: GeneralizedVector) -> dict:
    coeffs = {label_to_str(label): fraction_to_str(value)
              for label, value in vector.coeffs.items()}
    return {
        "mode": vector.system.mode.value,
        "system": system_to_str(vector.system),
        "coeffs": dict(sorted(coeffs.items())),
    }


def state_from_json(doc: dict) -> StateVector:
    mode = _checked(doc, "state")
    system = parse_system(doc["system"], mode)
    coeffs = {label: parse_fraction(v) for label, v in _by_label(doc["coeffs"], system)}
    try:
        return StateVector(system, coeffs)
    except ValueError as exc:
        raise ParseError(E_SCHEMA, shown(str(exc), quoted=False)) from exc


def _kernel(doc: dict, mode: TheoryMode) -> Kernel:
    """The kernel of a document that has passed the schema."""
    in_system = parse_system(doc["in"], mode)
    out_system = parse_system(doc["out"], mode)
    rows: dict[PureLabel, dict] = {}
    for a, entries in _by_label(doc["rows"], in_system):
        row: dict = {}
        for entry in entries:
            if set(entry) != {"to", "tau", "w"}:
                raise ParseError(E_SCHEMA, f"bad row entry {shown(entry)}")
            key = (parse_label(entry["to"], out_system), entry["tau"])
            w = parse_fraction(entry["w"])
            row[key] = row[key] + w if key in row else w
        rows[a] = row
    try:
        return Kernel(in_system, out_system, rows)
    except ValueError as exc:
        raise ParseError(E_SCHEMA, shown(str(exc), quoted=False)) from exc


def outcomes_to_json(outcomes: Sequence[Hashable]) -> list:
    return [o if isinstance(o, (int, str)) else str(o) for o in outcomes]


def instrument_from_json(doc: dict) -> Instrument:
    mode = _checked(doc, "instrument")
    if not doc["branches"]:
        raise ParseError(E_SCHEMA, "branches must be a non-empty list")
    branches = tuple(_kernel(b, parse_mode(b.get("mode", mode.value)))
                     for b in doc["branches"])
    outcomes = tuple(doc.get("outcomes", ()))
    if outcomes and len(outcomes) != len(branches):
        raise ParseError(E_SCHEMA, "outcomes must match branches")
    try:
        return Instrument(branches, outcomes)
    except ValueError as exc:
        raise ParseError(E_SCHEMA, shown(str(exc), quoted=False)) from exc


def _checked(doc: Any, kind: str) -> TheoryMode:
    """Check `doc` against the published schema of `kind`; return its mode."""
    validate_document(doc, kind)
    return parse_mode(doc.get("mode", "BCT"))


def _by_label(doc: dict, system: SystemTree) -> Iterator[tuple[PureLabel, Any]]:
    """The entries of `doc` under their parsed keys; two spellings of one
    label are E_SCHEMA."""
    spelled: dict[PureLabel, str] = {}
    for text, value in doc.items():
        label = parse_label(text, system)
        if label in spelled:
            raise ParseError(E_SCHEMA, f"keys {shown(spelled[label])} and {shown(text)} "
                                       "name the same label")
        spelled[label] = text
        yield label, value


def dumps(doc: Any) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Published schema (subset of JSON Schema, enforced by validate_document)


def schema() -> dict:
    rational = {"type": "string", "pattern": "rational: 'p' or 'p/q' in decimal digits, "
                "with an optional sign, q not 0 ('2/4' reads as 1/2)"}
    label = {"type": "string", "pattern": "label: index, '*', or '(x y)+/-'"}
    system = {"type": "string", "pattern": "system: dim, '1', or '(a*b)'"}
    mode = {"type": "string", "enum": ["BCT", "CT"]}
    return {
        "state": {
            "type": "object",
            "required": ["system", "coeffs"],
            "properties": {"mode": mode, "system": system,
                           "coeffs": {"type": "object", "values": rational,
                                      "keys": label}},
        },
        "kernel": {
            "type": "object",
            "required": ["in", "out", "rows"],
            "properties": {
                "mode": mode, "in": system, "out": system,
                "rows": {"type": "object", "keys": label,
                         "values": {"type": "array",
                                    "items": {"type": "object",
                                              "required": ["to", "tau", "w"],
                                              "properties": {"to": label,
                                                             "tau": {"type": "integer",
                                                                     "enum": [-1, 1]},
                                                             "w": rational}}}},
            },
        },
        "instrument": {
            "type": "object",
            "required": ["branches"],
            "properties": {"mode": mode,
                           "branches": {"type": "array", "items": {"$ref": "kernel"}},
                           "outcomes": {"type": "array",
                                        "items": {"type": ["string", "integer"]}}},
        },
        "dilation_result": {
            "type": "object",
            "required": ["verified", "sigma", "observation", "mu"],
            "properties": {"verified": {"type": "boolean"},
                           "sigma": {"$ref": "state"},
                           "observation": {"type": "array",
                                           "items": {"$ref": "state"}},
                           "outcomes": {"type": "array",
                                        "items": {"type": ["string", "integer"]}},
                           "mu": {"type": "object", "values": rational}},
        },
        "check_report": {
            "type": "object",
            "required": ["name", "params", "passed"],
            "properties": {"name": {"type": "string"},
                           "params": {"type": "object"},
                           "passed": {"type": "boolean"},
                           "counterexample": {"type": ["object", "null"]}},
        },
        "protocol_report": {
            "type": "object",
            "required": ["protocol", "inputs", "outcomes", "success"],
            "properties": {"protocol": {"type": "string"},
                           "inputs": {"type": "object"},
                           "outcomes": {"type": "array"},
                           "success": {"type": "boolean"},
                           "notes": {"type": "string"}},
        },
        "span_report": {
            "type": "object",
            "required": ["dims", "mode", "d_composite"],
            "properties": {"dims": {"type": "array"},
                           "mode": mode,
                           "d_systems": {"type": "array"},
                           "d_composite": {"type": "integer"},
                           "delta2": {"type": "object"},
                           "delta3": {"type": "integer"},
                           "class_ranks": {"type": "object"},
                           "bilocal_identity_holds": {"type": "boolean"}},
        },
    }


_TYPES = {"object": dict, "array": list, "string": str,
          "integer": int, "boolean": bool, "null": type(None)}


def _is_type(node: Any, kind: str) -> bool:
    """JSON typing: a bool is not an integer."""
    return isinstance(node, _TYPES[kind]) and not (kind == "integer"
                                                   and isinstance(node, bool))


def validate_document(doc: Any, kind: str) -> None:
    """Check a document against the published schema; raises ParseError.

    A mode outside its enum is E_MODE; every other violation is E_SCHEMA.
    """
    schemas = schema()
    if kind not in schemas:
        raise ParseError(E_SCHEMA, f"unknown document kind {kind!r}")

    def check(node: Any, spec: dict, where: str) -> None:
        if "$ref" in spec:
            check(node, schemas[spec["$ref"]], where)
            return
        expected = spec.get("type")
        if expected is not None:
            allowed = expected if isinstance(expected, list) else [expected]
            if not any(_is_type(node, t) for t in allowed):
                raise ParseError(E_SCHEMA, f"{where}: expected {expected}")
        if "enum" in spec and node not in spec["enum"]:
            code = E_MODE if where.endswith(".mode") else E_SCHEMA
            raise ParseError(code, f"{where}: {shown(node)} not in {spec['enum']}")
        if isinstance(node, dict):
            for key in spec.get("required", ()):
                if key not in node:
                    raise ParseError(E_SCHEMA, f"{where}: missing {key!r}")
            for key, sub in spec.get("properties", {}).items():
                if key in node:
                    check(node[key], sub, f"{where}.{key}")
            if "values" in spec:
                for key, value in node.items():
                    check(value, spec["values"], f"{where}.{shown(key, quoted=False)}")
        if isinstance(node, list) and "items" in spec:
            for i, item in enumerate(node):
                check(item, spec["items"], f"{where}[{i}]")

    check(doc, schemas[kind], kind)
