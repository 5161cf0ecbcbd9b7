"""Schematic Hilbert-style systems over formula-set pairs, in one and two
dimensions: rule instantiation, derivation trees with discontinuation
leaves, proof checking, and bounded saturation proof search.

A derivation tree's nodes carry pair labels (acc-side, rej-side); expanding
a node with a rule instance whose antecedent is contained in the label adds
one child per succedent formula (succedent acc-side formulas join the
acc component, succedent rej-side formulas the rej component), or one
discontinuation (star) child when the succedent is empty.  A proof of a
statement is a derivation rooted inside the statement's antecedent pair in
which every branch either discontinues or reaches a label meeting the
succedent pair.

Proof search runs backward from the antecedent label, restricted to a
finite fence of generalized subformulas of the statement.  Instances with
a succedent formula already present in its component are skipped (they add
nothing), so every expansion strictly grows each child label and the search
terminates.  Because componentwise-larger labels inherit proofs, expanding
by any fully-progressing instance preserves provability; the search is
therefore greedy, without backtracking, and a label with no applicable
instance left is a sound "not provable within the fence" witness.  For
theta-analytic calculi that equals non-provability; in general it is only
relative to the fence.

The fence and its closure under taking subformulas come from one
bottom-up pass over the statement's sides; along the closure each
formula is measured from its arguments, its size and printed form, and
numbered: the fence formulas ordered by size, then printed form, formula
i standing for the bit ``1 << i``, then the rest of the closure, each
with a node: its connective and argument numbers.  The fence-bounded
instances are found by one-way matching of each rule's schema formulas
against the nodes, in a plan compiled from the schema once per
calculus, so no instance that leaves the fence is built.  This is
complete because every schema variable occurs in some schema formula
and every instantiated formula must lie in the fence.  Variables bind
fence numbers only; the image of a schema formula whose variables are
bound is read off the binding, or looked up in an index from nodes to
numbers; and the rules whose plans start alike share their first
matches.  Each instance is a row of fence numbers: its
substitution, and its four sets as masks packed into one int.  The
instances are ordered by fewest branches, then rule order, then the fence
numbers of the substitution's values: the order a product over the
fence, tuple by tuple, would visit them in.

The search keeps each label as one mask, so applicability is a bitwise
test against each row, and runs on an explicit stack; Labels and Nodes
are built only for the tree it returns, a child's label from its
parent's checked sides and one fence formula.  Rendering and checking walk
trees on explicit stacks too, so no tree depth hits the recursion limit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import indexOf
from typing import Iterable, Union

from .errors import CalculiError
from .language import (App, Formula, Substitution, Var, _gen_closure, size,
                       subformula_sequence, substitute, theta_set, variables)
from .semantics import BStatement, Statement1D, _bits, _fset, _Lazy


@dataclass(frozen=True)
class RuleSchema:
    """A schematic rule: finite formula sets closed under substitution.

    Dimension 1 uses the acc-side pair only (antecedent/succedent aliases);
    dimension 2 indexes the four sets by attitude, with (acc, rej) the
    antecedent pair and (nacc, nrej) the succedent pair.
    """

    name: str
    dimension: int
    acc: frozenset[Formula] = frozenset()
    nacc: frozenset[Formula] = frozenset()
    rej: frozenset[Formula] = frozenset()
    nrej: frozenset[Formula] = frozenset()
    # the schema variables, sorted
    _vars: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.dimension) is not int or self.dimension not in (1, 2):
            raise CalculiError(f"rule {self.name!r}: dimension must be 1 or 2")
        for att in ("acc", "nacc", "rej", "nrej"):
            object.__setattr__(self, att, _fset(getattr(self, att)))
        if self.dimension == 1 and (self.rej or self.nrej):
            raise CalculiError(
                f"rule {self.name!r}: one-dimensional rules must leave the "
                f"rej-side empty")
        object.__setattr__(self, "_vars", tuple(sorted({
            v for f in self.acc | self.nacc | self.rej | self.nrej
            for v in variables(f)})))

    @property
    def antecedent(self) -> frozenset[Formula]:
        return self.acc

    @property
    def succedent(self) -> frozenset[Formula]:
        return self.nacc

    def schema_variables(self) -> tuple[str, ...]:
        return self._vars


@dataclass(frozen=True)
class RuleInstance:
    """A rule schema with concrete formulas substituted in."""

    rule: str
    dimension: int
    acc: frozenset[Formula]
    nacc: frozenset[Formula]
    rej: frozenset[Formula]
    nrej: frozenset[Formula]
    subst: tuple[tuple[str, Formula], ...]

    @property
    def branches(self) -> int:
        return len(self.nacc) + len(self.nrej)

    @property
    def closing(self) -> bool:
        return self.branches == 0


@dataclass(frozen=True)
class Calculus:
    """A named finite list of rule schemas sharing one dimension, with an
    optional default theta set for analyticity-bounded proof search."""

    name: str
    dimension: int
    rules: tuple[RuleSchema, ...]
    theta: frozenset[Formula] | None = None
    # the rules by their first compiled step (``_id_steps``), in rule
    # order: (its matcher, the empty binding), or None for a rule with no
    # step -> [(rule index, the step's attitudes, the later steps), ...]
    _groups: dict[tuple | None, list[tuple[int, int, tuple]]] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        if type(self.dimension) is not int or self.dimension not in (1, 2):
            raise CalculiError(
                f"calculus {self.name!r}: dimension must be 1 or 2")
        rules = tuple(self.rules)
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise CalculiError(f"calculus {self.name!r}: duplicate rule names")
        for r in rules:
            if r.dimension != self.dimension:
                raise CalculiError(
                    f"calculus {self.name!r}: rule {r.name!r} has dimension "
                    f"{r.dimension}, calculus has {self.dimension}")
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "_groups", {})
        for ri, r in enumerate(rules):
            (_, first, atts), *steps = _id_steps(r) or [(0, None, 0)]
            key = first and (first, (None,) * len(r._vars))
            self._groups.setdefault(key, []).append((ri, atts, tuple(steps)))
        if self.theta is not None:
            object.__setattr__(self, "theta", theta_set(self.theta))

    def rule_named(self, name: str) -> RuleSchema:
        for r in self.rules:
            if r.name == name:
                return r
        raise CalculiError(f"unknown rule name {name!r}")


def lift_calculus(c: Calculus) -> Calculus:
    """A one-dimensional calculus as a two-dimensional one with empty
    rej-side components; it proves exactly the same acc-side statements."""
    if c.dimension != 1:
        raise CalculiError("lift_calculus expects a one-dimensional calculus")
    return Calculus(c.name, 2,
                    tuple(RuleSchema(r.name, 2, acc=r.acc, nacc=r.nacc)
                          for r in c.rules),
                    c.theta)


def instantiate_rule(r: RuleSchema, s: Substitution) -> RuleInstance:
    """Apply a substitution to every schema formula."""
    used = {v: s[v] for v in r._vars if v in s}
    sub = lambda fs: frozenset(substitute(f, used) for f in fs)
    return RuleInstance(r.name, r.dimension, sub(r.acc), sub(r.nacc),
                        sub(r.rej), sub(r.nrej),
                        tuple(sorted(used.items())))


# ---------------------------------------------------------------------------
# derivation trees


class _StarType:
    """The discontinuation label; copies and unpickling give back STAR."""

    def __reduce__(self):
        return "STAR"

    def __repr__(self):
        return "Star"


STAR = _StarType()


@dataclass(frozen=True)
class Label:
    """A pair of finite formula sets; dimension-1 labels keep rej empty."""

    acc: frozenset[Formula] = frozenset()
    rej: frozenset[Formula] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "acc", _fset(self.acc))
        object.__setattr__(self, "rej", _fset(self.rej))

    @classmethod
    def _of(cls, acc: frozenset[Formula], rej: frozenset[Formula]) -> Label:
        """The Label of two sides already known to be frozensets of
        formulas, built without ``__post_init__``'s check."""
        label = object.__new__(cls)
        label.__dict__.update(acc=acc, rej=rej)
        return label

    def contains(self, other: "Label") -> bool:
        return other.acc <= self.acc and other.rej <= self.rej

    def render(self, dim: int = 2) -> str:
        return _texts(dim)[0](self)


@dataclass(frozen=True)
class Node:
    """A derivation-tree node.  Expanded nodes record the rule name and the
    substitution that produced their children; leaves record neither."""

    label: Union[Label, _StarType]
    rule: str | None = None
    subst: tuple[tuple[str, Formula], ...] | None = None
    children: tuple["Node", ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_star(self) -> bool:
        return self.label is STAR


def _texts(dim: int) -> tuple:
    """The label and substitution printers of one rendering: each formula,
    label side and substitution is printed once, with no owner object."""
    formula = _Lazy(str)
    side = _Lazy(lambda fs: ", ".join(sorted(map(formula.__getitem__, fs))))
    subst = _Lazy(lambda s: "{" + ", ".join(
        f"{v} := {formula[f]}" for v, f in s) + "}")
    if dim == 1:
        return (lambda label: "{" + side[label.acc] + "}"), subst.__getitem__
    return (lambda label: "acc{" + side[label.acc] + "} | rej{"
            + side[label.rej] + "}"), subst.__getitem__


def render_tree_text(t: Node, dim: int = 2) -> str:
    """Deterministic indented rendering, one node per line."""
    label, subst = _texts(dim)
    out: list[str] = []
    stack = [(t, "")]
    while stack:
        n, indent = stack.pop()
        if n.is_star:
            out.append(indent + "*")
        elif n.rule is None:
            out.append(indent + label(n.label))
        else:
            out.append(f"{indent}{label(n.label)}  -- {n.rule} "
                       f"{subst(tuple(n.subst or ()))}")
        if n.children:
            indent += "  "
            stack += [(ch, indent) for ch in reversed(n.children)]
    return "\n".join(out)


def render_tree_dot(t: Node, dim: int = 2) -> str:
    """The same tree as a DOT digraph; star leaves drawn as boxes.  Nodes
    are numbered in preorder, and the edge to a child follows the child's
    subtree."""
    label = _texts(dim)[0]
    lines = ["digraph proof {", '  node [fontname="monospace"];']
    counter = 0
    # (node, start and end of the edge line to it, or None and ""), or
    # (None, an edge line owed after the subtree just printed, "")
    stack: list[tuple] = [(t, None, "")]
    while stack:
        n, edge, end = stack.pop()
        if n is None:
            lines.append(edge)
            continue
        me = f"n{counter}"
        counter += 1
        if edge is not None:
            stack.append((None, edge + me + end, ""))
        if n.is_star:
            lines.append(f'  {me} [label="*", shape=box];')
        else:
            text = label(n.label).replace('"', '\\"')
            lines.append(f'  {me} [label="{text}"];')
        end = f' [label="{n.rule}"];' if n.rule is not None else ";"
        stack += ((ch, f"  {me} -> ", end) for ch in reversed(n.children))
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# instance generation

class _Fence:
    """A fence, ordered and numbered for matching.  ``closure`` holds the
    fence formulas and all their subformulas, each after its arguments,
    as ``language._gen_closure`` builds them; each is measured from its
    arguments (``_measure``).  The fence formulas come by size, then
    printed form, then first occurrence in ``fence``; a formula's index in
    ``formulas`` is its id, ``pos`` maps it back, and id i stands for the
    bit ``1 << i`` of a mask.  The rest of the closure gets ids from ``n``
    on, in closure order.  ``nodes`` holds each id's ``(conn, argument
    ids)`` (conn None for a variable), ``index`` maps nodes back to ids,
    and ``heads`` lists the fence ids of each ``(conn, arity)``."""

    def __init__(self, closure: Iterable[Formula], fence: Iterable[Formula]):
        measure: dict[Formula, tuple[int, str]] = {}
        for f in closure:
            measure[f] = _measure(f, measure)
        self.formulas = sorted(dict.fromkeys(fence), key=measure.__getitem__)
        self.texts = [measure[f][1] for f in self.formulas]
        n = self.n = len(self.formulas)
        self.pos = {f: i for i, f in enumerate(self.formulas)}
        ids = dict(self.pos)
        for g in measure:
            ids.setdefault(g, len(ids))
        self.nodes = [(None, ()) if g.__class__ is Var else
                      (g.conn, tuple(map(ids.__getitem__, g.args)))
                      for g in ids]
        self.index = {node: i for i, node in enumerate(self.nodes)}
        self.heads: dict[tuple[str, int], list[int]] = {}
        for i, (conn, args) in enumerate(self.nodes[:n]):
            if conn is not None:
                self.heads.setdefault((conn, len(args)), []).append(i)
        # a plan step's attitude set -> its bits in an instance key, where
        # attitude a takes the bits from a * n (see ``_instance_pool``)
        self.spread = [0]
        for a in range(4):
            self.spread += [bits | 1 << a * n for bits in self.spread]

    def mask(self, fs: Iterable[Formula]) -> int:
        """The bits of the members of ``fs`` that lie in the fence."""
        out = 0
        for f in fs:
            if f in self.pos:
                out |= 1 << self.pos[f]
        return out

    def set_of(self, mask: int) -> frozenset[Formula]:
        """The fence formulas at the bits of ``mask``."""
        return frozenset(map(self.formulas.__getitem__, _bits(mask)))

    def label_of(self, x: int) -> Label:
        """The Label of a label mask: acc side in the low ``n`` bits, rej
        side above them."""
        n = len(self.formulas)
        return Label(self.set_of(x & (1 << n) - 1), self.set_of(x >> n))

    def by_text(self, mask: int) -> list[int]:
        """The ids of the bits of ``mask``, ordered by the printed forms
        of their formulas."""
        return sorted(_bits(mask), key=self.texts.__getitem__)


def _measure(f: Formula, measure: dict[Formula, tuple[int, str]],
             ) -> tuple[int, str]:
    """The size and printed form of ``f`` from its arguments' in
    ``measure``."""
    if f.__class__ is Var or not f.args:
        return 1, str(f)
    parts = [measure[a] for a in f.args]
    return (1 + sum([n for n, _ in parts]),
            f"{f.conn}({','.join([text for _, text in parts])})")


def _id_steps(r: RuleSchema) -> list[tuple[str, object, int]]:
    """``r``'s plan: a ``(kind, data, attitudes)`` step per schema formula,
    largest first (by size, then printed form), on fence ids that fill a
    binding, ids in ``_vars`` order (None where unbound).  The attitudes
    are a 4-bit set in the order acc, rej, nacc, nrej.  The first step,
    and any whose formula has a variable no earlier step binds, is a
    "match"; its data, ``_match``'s matcher, is the root's ``(conn,
    arity)`` (None for a variable), ``(k, conn, arity)`` per nested
    compound and ``(k, slot)`` per variable, k a place in the ids of the
    root, its arguments, then each nested compound's in turn.  Any other
    step reads its formula's image off the binding: "var" data is a slot,
    for a bare variable; "find" data is a ``(conn, refs)`` lookup in
    ``_Fence.index`` per compound, bottom up, a ref being a slot or
    ``len(_vars)`` plus an earlier lookup's number."""
    slot = {Var(v): k for k, v in enumerate(r._vars)}
    sides = (r.acc, r.rej, r.nacc, r.nrej)
    bound: set[str] = set()
    out: list[tuple[str, object, int]] = []
    for pat in sorted(r.acc | r.nacc | r.rej | r.nrej,
                      key=lambda f: (-size(f), str(f))):
        atts = sum(1 << a for a, fs in enumerate(sides) if pat in fs)
        names = variables(pat)
        if not out or not bound.issuperset(names):
            bound.update(names)
            tree, descend = [pat], []
            for k, g in enumerate(tree):  # grows by each compound's args
                if g.__class__ is App:
                    descend.append((k, g.conn, len(g.args)))
                    tree += g.args
            head = descend.pop(0)[1:] if pat.__class__ is App else None
            leaves = tuple((k, slot[g]) for k, g in enumerate(tree)
                           if g.__class__ is Var)
            out.append(("match", (head, tuple(descend), leaves), atts))
        elif pat.__class__ is Var:
            out.append(("var", slot[pat], atts))
        else:
            ref, data = dict(slot), []
            for g in subformula_sequence((pat,)):
                if g.__class__ is App:
                    ref[g] = len(ref)
                    data.append((g.conn, tuple([ref[a] for a in g.args])))
            out.append(("find", tuple(data), atts))
    return out


def _match(fence: _Fence, matcher: tuple, bind: tuple) -> list[tuple]:
    """``(id, binding)`` per fence formula that ``matcher`` (``_id_steps``)
    matches, extending ``bind``; nested compounds are read off
    ``fence.nodes``, also outside the fence, but variables bind fence ids."""
    head, descend, leaves = matcher
    n, nodes = fence.n, fence.nodes
    out = []
    for at in fence.heads.get(head, ()) if head else range(n):
        ids = [at, *nodes[at][1]]
        for k, conn, arity in descend:
            c, args = nodes[ids[k]]
            if c != conn or len(args) != arity:
                break
            ids += args
        else:
            b = [*bind]
            for k, v in leaves:  # unbound: take a fence id; bound: agree
                if b[v] is None and ids[k] < n:
                    b[v] = ids[k]
                elif b[v] != ids[k]:
                    break
            else:
                out.append((at, tuple(b)))
    return out


def _instance_pool(c: Calculus, fence: _Fence) -> list[tuple]:
    """Every fence-bounded instance of every rule, as a row ``(branches,
    rule index, substitution, key)``.  The substitution is the ids of the
    values of ``schema_variables()``.  The key holds the four
    instantiated sets as masks of fence ids: with ``n`` the fence size,
    acc in bits 0 to n - 1, then rej, nacc and nrej n bits each, so its
    low ``2n`` bits are the antecedent and the rest the succedent.  Rows
    are deduplicated and ordered by branch count (closing instances have
    zero), then rule order, then substitution: the order in which
    ``itertools.product`` over the fence would visit the values of
    ``schema_variables()``, keeping the first of equal instances.
    Computed once per fence and filtered per label.

    Each rule's steps (``_id_steps``) are followed on fence ids, largest
    schema formula first; every variable occurs in some schema formula,
    so this finds exactly the substitutions a product over the fence
    would keep.  The rules whose first steps are one matcher share its
    matches (``Calculus._groups``); only a later "match" step pushes
    partial matches, as (next step, binding, key bits so far), onto a
    stack emptied before the next first match.
    """
    n, spread, index = fence.n, fence.spread, fence.index
    rows, stack = [], []
    for first, group in c._groups.items():
        found = _match(fence, *first) if first else [(0, ())]
        for ri, atts, steps in group:
            for at, bind in found:
                i, key = 0, spread[atts] << at
                while True:
                    while i < len(steps):
                        kind, data, atts_i = steps[i]
                        i += 1
                        if kind == "var":
                            at_i = bind[data]
                        elif kind == "find":
                            ids = [*bind]  # a missed lookup gives -1
                            for conn, refs in data:
                                ids.append(index.get(
                                    (conn, tuple([ids[r] for r in refs])), -1))
                            if not 0 <= (at_i := ids[-1]) < n:
                                break
                        else:
                            stack += [(i, b, key | spread[atts_i] << at_i)
                                      for at_i, b in _match(fence, data, bind)]
                            break
                        key |= spread[atts_i] << at_i
                    else:
                        rows.append(((key >> 2 * n).bit_count(), ri, bind, key))
                    if not stack:
                        break
                    i, bind, key = stack.pop()
    rows.sort()
    firsts: dict[tuple[int, int], tuple] = {}
    for row in rows:
        firsts.setdefault((row[1], row[3]), row)
    return list(firsts.values())


def _blocked(x: int, twice: int) -> int:
    """The key bits that keep an instance from applying at label mask
    ``x`` (acc side in the low half of ``twice`` bits, rej side in the
    high half): antecedent formulas missing from the label and succedent
    formulas already in their component.  An instance applies when its
    key has none of them."""
    return x ^ (1 << twice) - 1 | x << twice


def applicable_instances(c: Calculus, label: Label,
                         fence: Iterable[Formula]) -> list[RuleInstance]:
    """All fence-bounded instances applicable at ``label`` that make
    progress, deterministically ordered: fewest branches first (closing
    instances have zero), then rule order, then substitution order (the
    fence positions of the values of ``schema_variables()``, the fence
    ordered by size, then printed form).

    An instance is applicable when every instantiated formula lies in the
    fence and its antecedent pair is contained in the label; it makes
    progress when its succedent is empty or no succedent formula is already
    present in its component (otherwise it is satisfied and skipped).  The
    candidates are built from the fence formulas that one-way matching
    finds for the schema formulas (see ``_instance_pool``).
    """
    fs = list(fence)
    fence = _Fence(subformula_sequence(fs), fs)
    n = len(fence.formulas)
    blocked = _blocked(fence.mask(label.acc) | fence.mask(label.rej) << n,
                       2 * n)
    return [instantiate_rule(c.rules[ri], dict(zip(
                c.rules[ri]._vars, map(fence.formulas.__getitem__, subst))))
            for _, ri, subst, key in _instance_pool(c, fence)
            if not key & blocked]


# ---------------------------------------------------------------------------
# derivation and proof checking

def check_derivation(c: Calculus, t: Node) -> bool:
    """True iff every expanded node follows from its recorded rule and
    substitution: antecedent contained in the label, one child per
    succedent formula with exactly that formula added to its component,
    and a single star child for empty succedents.  Nodes are checked in
    preorder."""
    stack = [t]
    while stack:
        n = stack.pop()
        if not _derives(c, n):
            return False
        stack += reversed(n.children)
    return True


def _derives(c: Calculus, n: Node) -> bool:
    """check_derivation at one node, leaving its children's own steps."""
    if n.is_star:
        return not n.children
    if not n.children:
        return n.rule is None
    if n.rule is None:
        return False
    rule = c.rule_named(n.rule)
    inst = instantiate_rule(rule, dict(n.subst or ()))
    if not (inst.acc <= n.label.acc and inst.rej <= n.label.rej):
        return False
    if inst.closing:
        return len(n.children) == 1 and n.children[0].is_star
    expected = Counter()
    for f in inst.nacc:
        expected[Label(n.label.acc | {f}, n.label.rej)] += 1
    for f in inst.nrej:
        expected[Label(n.label.acc, n.label.rej | {f})] += 1
    got = Counter()
    for ch in n.children:
        if ch.is_star:
            return False
        got[ch.label] += 1
    return expected == got


def _statement_pairs(c: Calculus, s) -> tuple[Label, Label]:
    """(antecedent pair, succedent pair), embedding dimension 1 on the
    acc side.  Raises on a dimension mismatch."""
    if isinstance(s, Statement1D):
        if c.dimension != 1:
            raise CalculiError(
                "one-dimensional statement given to a two-dimensional calculus")
        return Label(s.antecedent), Label(s.succedent)
    if isinstance(s, BStatement):
        if c.dimension != 2:
            raise CalculiError(
                "two-dimensional statement given to a one-dimensional calculus")
        return Label(s.acc, s.rej), Label(s.nacc, s.nrej)
    raise CalculiError(f"not a statement: {s!r}")


def check_proof(c: Calculus, s, t: Node) -> bool:
    """True iff ``t`` is a correct derivation whose root lies inside the
    statement's antecedent pair and whose every branch discontinues or
    reaches a label meeting the succedent pair."""
    ant, suc = _statement_pairs(c, s)
    if t.is_star or not check_derivation(c, t):
        return False
    if not ant.contains(t.label):
        return False
    stack = [t]
    while stack:
        n = stack.pop()
        if not (n.children or n.is_star or n.label.acc & suc.acc
                or n.label.rej & suc.rej):
            return False
        stack += n.children
    return True


# ---------------------------------------------------------------------------
# saturation proof search

@dataclass(frozen=True)
class Proved:
    """Search succeeded; the tree re-checks under check_proof."""

    tree: Node


@dataclass(frozen=True)
class Saturated:
    """Search hit an open label with no applicable instance left: the
    statement is not provable within the theta-fence."""

    label: Label


@dataclass(frozen=True)
class LimitExceeded:
    """Search gave up on resources; carries the exhausted limit's name."""

    limit: str
    nodes: int
    depth: int
    max_nodes: int
    max_depth: int | None


ProofOutcome = Union[Proved, Saturated, LimitExceeded]


def prove(c: Calculus, s, theta: Iterable[Formula],
          max_nodes: int = 10 ** 6,
          max_depth: int | None = None) -> ProofOutcome:
    """Backward saturation search for a proof of ``s`` bounded by the
    generalized subformulas of the statement under ``theta``.

    Expands the leftmost open branch with the first applicable instance;
    a branch stops when its label meets the succedent pair.  Greedy
    expansion is complete relative to the fence (larger labels inherit
    proofs), so the first saturated label ends the search.  Each expansion
    adds a formula to one side, so no branch outgrows the fence; the
    search needs no depth limit, and ``max_depth`` is only the caller's.

    The search runs depth first on an explicit stack.  A label is one
    mask of fence positions, its acc side in the low ``n`` bits and its
    rej side in the next ``n``, and the first applicable instance is the
    first pool row whose key has no bit of ``_blocked`` (see
    ``_instance_pool``).  Labels and Nodes are built only for the outcome
    returned.
    """
    if max_nodes < 1:
        raise CalculiError("max_nodes must be >= 1")
    if max_depth is not None and max_depth < 0:
        raise CalculiError("max_depth must be >= 0")
    ant, suc = _statement_pairs(c, s)
    gen, closure = _gen_closure(theta_set(theta),
                                ant.acc | ant.rej | suc.acc | suc.rej)
    fence = _Fence(closure, gen)
    pool = _instance_pool(c, fence)
    n = len(fence.formulas)
    twice = 2 * n
    keys = [row[3] for row in pool]
    # per row, once it is used: the bits its children add, last child first
    grown: list[list[int] | None] = [None] * len(pool)
    # every statement formula lies in the fence, since theta holds p
    goal = fence.mask(suc.acc) | fence.mask(suc.rej) << n
    nodes = 0
    deepest = 0
    # the expanded tree in preorder: (label, index of the pool row that
    # expands it or None, parent's index), and None for a star
    visited: list[tuple | None] = []
    stack = [(fence.mask(ant.acc) | fence.mask(ant.rej) << n, 0, -1)]
    while stack:
        x, depth, parent = stack.pop()
        nodes += 1
        if depth > deepest:
            deepest = depth
        if nodes > max_nodes:
            return LimitExceeded("max_nodes", nodes, deepest, max_nodes,
                                 max_depth)
        if x & goal:
            visited.append((x, None, parent))
            continue
        try:
            i = indexOf(map(_blocked(x, twice).__and__, keys), 0)
        except ValueError:
            return Saturated(fence.label_of(x))
        if max_depth is not None and depth >= max_depth:
            return LimitExceeded("max_depth", nodes, deepest, max_nodes,
                                 max_depth)
        me = len(visited)
        visited.append((x, i, parent))
        if not keys[i] >> twice:
            nodes += 1
            if nodes > max_nodes:
                return LimitExceeded("max_nodes", nodes, deepest, max_nodes,
                                     max_depth)
            visited.append(None)
            continue
        adds = grown[i]
        if adds is None:
            adds = grown[i] = [1 << f for f in fence.by_text(
                keys[i] >> twice & (1 << n) - 1)]
            adds += [1 << n + f for f in fence.by_text(keys[i] >> 3 * n)]
            adds.reverse()
        depth += 1
        stack += [(x | bit, depth, me) for bit in adds]
    return Proved(_tree(c, fence, pool, visited))


def _tree(c: Calculus, fence: _Fence, pool: list[tuple],
          visited: list) -> Node:
    """The Node tree of a search's preorder ``visited`` list.  Labels are
    made parent first, a child's from its parent's by the one fence
    formula it adds, so a side a child leaves alone is the parent's
    frozenset, and neither side is checked again (``Label._of``).  Then,
    walked backwards, every node comes after its children, which are on
    top of ``built`` in order."""
    n = len(fence.formulas)
    formulas = fence.formulas
    labels: list[Label | None] = []
    for entry in visited:
        if entry is None:
            labels.append(None)
            continue
        x, _, parent = entry
        if parent < 0:
            labels.append(fence.label_of(x))
            continue
        up = labels[parent]
        f = (x ^ visited[parent][0]).bit_length() - 1
        labels.append(Label._of(up.acc | {formulas[f]}, up.rej) if f < n
                      else Label._of(up.acc, up.rej | {formulas[f - n]}))
    substs: dict[int, tuple] = {}
    built: list[Node] = []
    for entry, label in zip(reversed(visited), reversed(labels)):
        if entry is None:
            built.append(Node(STAR))
            continue
        i = entry[1]
        if i is None:
            built.append(Node(label))
            continue
        branches, ri, subst, _ = pool[i]
        rule = c.rules[ri]
        pairs = substs.get(i)
        if pairs is None:
            pairs = substs[i] = tuple(zip(
                rule._vars, map(formulas.__getitem__, subst)))
        kids = tuple([built.pop() for _ in range(branches or 1)])
        built.append(Node(label, rule.name, pairs, kids))
    return built[0]
