"""JSON forms for matrices, statements, calculi, and derivation trees.

Formulas travel as grammar strings in the canonical prefix syntax.  Cell
keys of an interpretation table are the argument values joined with
commas, and a constant's key "" is the only one not split, so a value may
be named ""; value names must not contain commas themselves.
The *_to_data functions emit plain dict/list structures with all sets in
a canonical order, so dumping them is deterministic; dumps() fixes the
remaining presentation choices.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from .calculi import STAR, Calculus, Label, Node, RuleSchema
from .errors import SerializeError
from .language import (App, Formula, Signature, parse_formula,
                       subformula_sequence)
from .semantics import BMatrix, BStatement, NdAlgebra, NdMatrix, Statement1D

Data = Any


def dumps(data: Data) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline at end."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def loads(text: str) -> Data:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SerializeError(f"not valid JSON: {e}") from None


def _expect_mapping(data, what: str) -> Mapping:
    if not isinstance(data, Mapping):
        raise SerializeError(f"{what} must be a JSON object")
    return data

def _expect_keys(data: Mapping, what: str, required: set[str],
                 optional: set[str] = frozenset()):
    missing = required - set(data)
    if missing:
        raise SerializeError(f"{what} lacks key(s) {sorted(missing)}")
    unknown = set(data) - required - optional
    if unknown:
        raise SerializeError(f"{what} has unknown key(s) {sorted(unknown)}")


def _string_list(data, what: str) -> list[str]:
    if not isinstance(data, list) or \
            not all(isinstance(x, str) for x in data):
        raise SerializeError(f"{what} must be a list of strings")
    return data


def _formulas(data, what: str, sig: Signature | None) -> frozenset[Formula]:
    return frozenset(parse_formula(t, sig)
                     for t in _string_list(data, what))


def _formula_strs(fs) -> list[str]:
    return sorted(str(f) for f in fs)


def _schema_strs(fs) -> list[str]:
    """``_formula_strs`` for calculi and trees, which are read back without
    a signature: a constant would come back as a variable, so it is
    refused."""
    for g in subformula_sequence(fs):
        if isinstance(g, App) and not g.args:
            raise SerializeError(f"constant {g.conn!r} cannot be written: "
                                 "read without a signature, it is a variable")
    return _formula_strs(fs)


# ---------------------------------------------------------------------------
# signatures and matrices


def signature_to_data(sig: Signature) -> Data:
    out: Data = {"connectives": dict(sig.connectives)}
    if sig.notation:
        out["notation"] = dict(sig.notation)
    return out


def signature_from_data(data: Data) -> Signature:
    data = _expect_mapping(data, "signature")
    _expect_keys(data, "signature", {"connectives"}, {"notation"})
    conns = _expect_mapping(data["connectives"], "connectives")
    return Signature(conns, _expect_mapping(data.get("notation", {}),
                                            "notation"))


def _cell_key(args: tuple[str, ...]) -> str:
    return ",".join(args)


def matrix_to_data(m: NdMatrix | BMatrix) -> Data:
    alg = m.algebra
    if any("," in v for v in alg.values):
        raise SerializeError("value names must not contain commas")
    order = {v: i for i, v in enumerate(alg.values)}
    interp = {
        conn: {_cell_key(args): sorted(out, key=order.__getitem__)
               for args, out in cells.items()}
        for conn, cells in alg.interpretation.items()}
    data: Data = {
        "signature": signature_to_data(alg.signature),
        "values": list(alg.values),
        "designated": sorted(m.designated, key=order.__getitem__),
        "interpretation": interp,
    }
    if isinstance(m, BMatrix):
        data["antidesignated"] = sorted(m.antidesignated,
                                        key=order.__getitem__)
    return data


def matrix_from_data(data: Data) -> NdMatrix | BMatrix:
    data = _expect_mapping(data, "matrix")
    _expect_keys(data, "matrix",
                 {"signature", "values", "designated", "interpretation"},
                 {"antidesignated"})
    sig = signature_from_data(data["signature"])
    values = tuple(_string_list(data["values"], "values"))
    if any("," in v for v in values):
        raise SerializeError("value names must not contain commas")
    interp_data = _expect_mapping(data["interpretation"], "interpretation")
    interp = {}
    for conn, cells in interp_data.items():
        cells = _expect_mapping(cells, f"interpretation of {conn!r}")
        table = {}
        for key, out in cells.items():
            if not isinstance(key, str):
                raise SerializeError(f"bad cell key {key!r} for {conn!r}")
            args = tuple(key.split(",")) \
                if key or sig.connectives.get(conn) else ()
            table[args] = frozenset(
                _string_list(out, f"cell {conn}({key})"))
        interp[conn] = table
    alg = NdAlgebra(sig, values, interp)
    designated = frozenset(_string_list(data["designated"], "designated"))
    if "antidesignated" in data:
        anti = frozenset(_string_list(data["antidesignated"],
                                      "antidesignated"))
        return BMatrix(alg, designated, anti)
    return NdMatrix(alg, designated)


# ---------------------------------------------------------------------------
# statements and rules
#
# the JSON keys of their formula sets by dimension, in the positional field
# order of Statement1D, BStatement and RuleSchema (after name and dimension)

_SIDES = {1: ("antecedent", "succedent"), 2: ("acc", "nacc", "rej", "nrej")}


def statement_to_data(s: Statement1D | BStatement) -> Data:
    for kind, keys in zip((Statement1D, BStatement), _SIDES.values()):
        if isinstance(s, kind):
            return {k: _formula_strs(getattr(s, k)) for k in keys}
    raise SerializeError(f"not a statement: {s!r}")


def statement_from_data(data: Data, sig: Signature | None = None,
                        ) -> Statement1D | BStatement:
    data = _expect_mapping(data, "statement")
    for kind, keys in zip((Statement1D, BStatement), _SIDES.values()):
        if not data.keys().isdisjoint(keys):
            _expect_keys(data, "statement", set(), set(keys))
            return kind(*(_formulas(data.get(k, []), k, sig) for k in keys))
    raise SerializeError("statement must have " + " or ".join(
        "/".join(keys) for keys in _SIDES.values()) + " keys")


def rule_to_data(r: RuleSchema) -> Data:
    keys = _SIDES[1 if r.dimension == 1 else 2]
    return {"name": r.name, **{k: _schema_strs(getattr(r, k)) for k in keys}}


def rule_from_data(data: Data, dimension: int,
                   sig: Signature | None = None) -> RuleSchema:
    data = _expect_mapping(data, "rule")
    if "name" not in data or not isinstance(data["name"], str):
        raise SerializeError("rule lacks a name")
    name = data["name"]
    what = f"rule {name!r}"
    keys = _SIDES[1 if dimension == 1 else 2]
    _expect_keys(data, what, {"name"}, set(keys))
    return RuleSchema(name, dimension,
                      *(_formulas(data.get(k, []), what, sig) for k in keys))


# ---------------------------------------------------------------------------
# calculi


def calculus_to_data(c: Calculus) -> Data:
    data: Data = {"name": c.name, "dimension": c.dimension,
                  "rules": [rule_to_data(r) for r in c.rules]}
    if c.theta is not None:
        data["theta"] = _schema_strs(c.theta)
    return data


def calculus_from_data(data: Data, sig: Signature | None = None) -> Calculus:
    data = _expect_mapping(data, "calculus")
    _expect_keys(data, "calculus", {"name", "dimension", "rules"}, {"theta"})
    if not isinstance(data["name"], str):
        raise SerializeError("calculus name must be a string")
    if type(data["dimension"]) is not int or data["dimension"] not in (1, 2):
        raise SerializeError("calculus dimension must be 1 or 2")
    if not isinstance(data["rules"], list):
        raise SerializeError("rules must be a list")
    rules = tuple(rule_from_data(r, data["dimension"], sig)
                  for r in data["rules"])
    theta = None
    if "theta" in data:
        theta = _formulas(data["theta"], "theta", sig)
    return Calculus(data["name"], data["dimension"], rules, theta)


# ---------------------------------------------------------------------------
# derivation trees
#
# schema: {"label": "star" | {"acc": [...], "rej": [...]},
#          "rule": name, "subst": {var: formula}, "children": [...]}
# with rule/subst/children present only where meaningful


def tree_to_data(t: Node) -> Data:
    if t.is_star:
        return {"label": "star"}
    data: Data = {"label": {"acc": _schema_strs(t.label.acc),
                            "rej": _schema_strs(t.label.rej)}}
    if t.rule is not None:
        data["rule"] = t.rule
        data["subst"] = {v: _schema_strs([f])[0] for v, f in (t.subst or ())}
        data["children"] = [tree_to_data(ch) for ch in t.children]
    return data


def tree_from_data(data: Data, sig: Signature | None = None) -> Node:
    data = _expect_mapping(data, "tree node")
    _expect_keys(data, "tree node", {"label"}, {"rule", "subst", "children"})
    if data["label"] == "star":
        _expect_keys(data, "discontinued node", {"label"})
        return Node(STAR)
    label_data = _expect_mapping(data["label"], "label")
    _expect_keys(label_data, "label", set(), {"acc", "rej"})
    label = Label(_formulas(label_data.get("acc", []), "label acc", sig),
                  _formulas(label_data.get("rej", []), "label rej", sig))
    if "rule" not in data:
        _expect_keys(data, "leaf node", {"label"})
        return Node(label)
    if not isinstance(data["rule"], str):
        raise SerializeError("rule name must be a string")
    subst_data = _expect_mapping(data.get("subst", {}), "subst")
    for v, f in subst_data.items():
        if not isinstance(f, str):
            raise SerializeError(f"subst value for {v!r} must be a string")
    subst = tuple(sorted((v, parse_formula(f, sig))
                         for v, f in subst_data.items()))
    children = data.get("children", [])
    if not isinstance(children, list):
        raise SerializeError("children must be a list")
    return Node(label, data["rule"], subst,
                tuple(tree_from_data(ch, sig) for ch in children))
