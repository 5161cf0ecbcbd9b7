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

The fence-bounded instances are found by one-way matching of each rule's
schema formulas against the fence, in a plan stored with the rule, so no
instance that leaves the fence is built.  This is complete because every
schema variable occurs in some schema formula and every instantiated
formula must lie in the fence.  Each instance is made of the fence
formulas (whose hashes are cached) that its schema formulas matched.  The
instances are ordered by fewest branches, then rule order, then the fence
positions of the substitution's values: the order a product over the
fence, tuple by tuple, would visit them in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Union

from .errors import CalculiError
from .language import (App, Formula, Substitution, Var, gen_subformulas,
                       size, substitute, theta_set, variables)
from .semantics import BStatement, Statement1D, _fset, _sorted


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
    # the match plan: (schema formula, variables it binds first), largest
    # formula first, and the sorted schema variables
    _steps: tuple[tuple[Formula, tuple[str, ...]], ...] = field(
        init=False, compare=False, repr=False)
    _vars: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise CalculiError(f"rule {self.name!r}: dimension must be 1 or 2")
        for att in ("acc", "nacc", "rej", "nrej"):
            object.__setattr__(self, att, _fset(getattr(self, att)))
        if self.dimension == 1 and (self.rej or self.nrej):
            raise CalculiError(
                f"rule {self.name!r}: one-dimensional rules must leave the "
                f"rej-side empty")
        steps, bound = [], {}
        for pat in sorted(self.acc | self.nacc | self.rej | self.nrej,
                          key=lambda f: (-size(f), str(f))):
            fresh = tuple(v for v in variables(pat) if v not in bound)
            bound.update(dict.fromkeys(fresh))
            steps.append((pat, fresh))
        object.__setattr__(self, "_steps", tuple(steps))
        object.__setattr__(self, "_vars", tuple(sorted(bound)))

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

    def __post_init__(self):
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
    """The discontinuation label; a single shared instance."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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

    def contains(self, other: "Label") -> bool:
        return other.acc <= self.acc and other.rej <= self.rej

    def render(self, dim: int = 2) -> str:
        acc = ", ".join(str(f) for f in _sorted(self.acc))
        if dim == 1:
            return "{" + acc + "}"
        rej = ", ".join(str(f) for f in _sorted(self.rej))
        return "acc{" + acc + "} | rej{" + rej + "}"


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


def _subst_str(subst) -> str:
    return "{" + ", ".join(f"{v} := {f}" for v, f in subst) + "}"


def render_tree_text(t: Node, dim: int = 2) -> str:
    """Deterministic indented rendering, one node per line."""
    out: list[str] = []

    def go(n: Node, indent: int):
        line = "  " * indent
        line += "*" if n.is_star else n.label.render(dim)
        if n.rule is not None:
            line += f"  -- {n.rule} {_subst_str(n.subst or ())}"
        out.append(line)
        for ch in n.children:
            go(ch, indent + 1)

    go(t, 0)
    return "\n".join(out)


def render_tree_dot(t: Node, dim: int = 2) -> str:
    """The same tree as a DOT digraph; star leaves drawn as boxes."""
    lines = ["digraph proof {", '  node [fontname="monospace"];']
    counter = [0]

    def go(n: Node) -> str:
        me = f"n{counter[0]}"
        counter[0] += 1
        if n.is_star:
            lines.append(f'  {me} [label="*", shape=box];')
        else:
            text = n.label.render(dim).replace('"', '\\"')
            lines.append(f'  {me} [label="{text}"];')
        for ch in n.children:
            kid = go(ch)
            edge = f"  {me} -> {kid}"
            if n.rule is not None:
                edge += f' [label="{n.rule}"]'
            lines.append(edge + ";")
        return me

    go(t)
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# instance generation

def _fence_order(fence: Iterable[Formula]) -> list[Formula]:
    return sorted(fence, key=lambda f: (size(f), str(f)))


def _match(pattern: Formula, f: Formula, s: dict[str, Formula]) -> bool:
    """One-way matching: extend ``s`` in place so that ``pattern`` under
    ``s`` is ``f``; False (with ``s`` partly extended) when impossible."""
    if isinstance(pattern, Var):
        return s.setdefault(pattern.name, f) == f
    return (isinstance(f, App) and f.conn == pattern.conn
            and len(f.args) == len(pattern.args)
            and all(_match(a, b, s) for a, b in zip(pattern.args, f.args)))


def _fence_matches(rule: RuleSchema, fence_list: list[Formula],
                   by_head: dict[str, list[Formula]],
                   position: dict[Formula, int]) -> list[tuple[dict, dict]]:
    """Every substitution of fence formulas for the rule's variables under
    which each schema formula lands in the fence, paired with the map from
    schema formula to that fence formula (its image), in the order of the
    fence positions of the values of ``schema_variables()``.

    Schema formulas are matched one way against the fence, largest first;
    the image of a formula whose variables are already bound is looked up
    instead.  Every variable occurs in some schema formula, so this finds
    exactly the substitutions a product over the fence would keep.
    """
    steps = rule._steps
    found: list[tuple[dict, dict]] = []
    s: dict[str, Formula] = {}
    image: dict[Formula, Formula] = {}

    def extend(i: int):
        if i == len(steps):
            found.append((dict(s), dict(image)))
            return
        pat, fresh = steps[i]
        if not fresh:
            at = position.get(s[pat.name] if isinstance(pat, Var)
                              else substitute(pat, s))
            if at is not None:
                image[pat] = fence_list[at]
                extend(i + 1)
            return
        candidates = (fence_list if isinstance(pat, Var)
                      else by_head.get(pat.conn, ()))
        # s is extended in place: unbinding the fresh variables undoes it
        for g in candidates:
            if _match(pat, g, s) and all(s[v] in position for v in fresh):
                image[pat] = g
                extend(i + 1)
            for v in fresh:
                s.pop(v, None)

    extend(0)
    schema_vars = rule._vars
    found.sort(key=lambda m: [position[m[0][v]] for v in schema_vars])
    return found


def _instance_pool(c: Calculus,
                   fence: Iterable[Formula]) -> list[RuleInstance]:
    """Every fence-bounded instance of every rule, built from the fence
    formulas its schema formulas matched (see ``_fence_matches``),
    deduplicated, and ordered by branch count (closing instances have
    zero), then rule order, then substitution order: the order in which
    ``itertools.product`` over the fence (in ``_fence_order``) would visit
    the values of ``schema_variables()``, keeping the first of equal
    instances.  Computed once per fence and filtered per label."""
    fence_list = list(dict.fromkeys(_fence_order(fence)))
    position = {f: i for i, f in enumerate(fence_list)}
    by_head: dict[str, list[Formula]] = {}
    for g in fence_list:
        if isinstance(g, App):
            by_head.setdefault(g.conn, []).append(g)
    out: list[tuple[int, int, RuleInstance]] = []
    seen: set[tuple] = set()
    for ri, rule in enumerate(c.rules):
        for s, image in _fence_matches(rule, fence_list, by_head, position):
            sets = tuple(frozenset(map(image.__getitem__, fs)) for fs in
                         (rule.acc, rule.nacc, rule.rej, rule.nrej))
            key = (ri, *sets)
            if key in seen:
                continue
            seen.add(key)
            inst = RuleInstance(rule.name, rule.dimension, *sets,
                                tuple((v, s[v]) for v in rule._vars))
            out.append((inst.branches, ri, inst))
    out.sort(key=lambda t: (t[0], t[1]))
    return [inst for _, _, inst in out]


def _applies(inst: RuleInstance, label: Label) -> bool:
    """Antecedent contained in the label and progress guaranteed: no
    succedent formula already present in its component (vacuous for
    closing instances, which are always progress)."""
    if not (inst.acc <= label.acc and inst.rej <= label.rej):
        return False
    if any(f in label.acc for f in inst.nacc) or \
            any(f in label.rej for f in inst.nrej):
        return False
    return True


def applicable_instances(c: Calculus, label: Label,
                         fence: Iterable[Formula]) -> list[RuleInstance]:
    """All fence-bounded instances applicable at ``label`` that make
    progress, deterministically ordered: fewest branches first (closing
    instances have zero), then rule order, then substitution order (the
    fence positions of the values of ``schema_variables()``, in
    ``_fence_order``).

    An instance is applicable when every instantiated formula lies in the
    fence and its antecedent pair is contained in the label; it makes
    progress when its succedent is empty or no succedent formula is already
    present in its component (otherwise it is satisfied and skipped).  The
    candidates are built from the fence formulas that one-way matching
    finds for the schema formulas (see ``_instance_pool``).
    """
    return [inst for inst in _instance_pool(c, fence)
            if _applies(inst, label)]


# ---------------------------------------------------------------------------
# derivation and proof checking

def check_derivation(c: Calculus, t: Node) -> bool:
    """True iff every expanded node follows from its recorded rule and
    substitution: antecedent contained in the label, one child per
    succedent formula with exactly that formula added to its component,
    and a single star child for empty succedents."""

    def go(n: Node) -> bool:
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
            if len(n.children) != 1 or not n.children[0].is_star:
                return False
        else:
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
            if expected != got:
                return False
        return all(go(ch) for ch in n.children)

    return go(t)


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


def _meets(label: Label, succ: Label) -> bool:
    return bool(label.acc & succ.acc) or bool(label.rej & succ.rej)


def check_proof(c: Calculus, s, t: Node) -> bool:
    """True iff ``t`` is a correct derivation whose root lies inside the
    statement's antecedent pair and whose every branch discontinues or
    reaches a label meeting the succedent pair."""
    ant, suc = _statement_pairs(c, s)
    if t.is_star or not check_derivation(c, t):
        return False
    if not ant.contains(t.label):
        return False

    def leaves_ok(n: Node) -> bool:
        if not n.children:
            return n.is_star or _meets(n.label, suc)
        return all(leaves_ok(ch) for ch in n.children)

    return leaves_ok(t)


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
    max_depth: int


ProofOutcome = Union[Proved, Saturated, LimitExceeded]


class _Saturation(Exception):
    def __init__(self, label):
        self.label = label


class _Limit(Exception):
    def __init__(self, which):
        self.which = which


def prove(c: Calculus, s, theta: Iterable[Formula],
          max_nodes: int = 10 ** 6,
          max_depth: int | None = None) -> ProofOutcome:
    """Backward saturation search for a proof of ``s`` bounded by the
    generalized subformulas of the statement under ``theta``.

    Expands the leftmost open branch with the first applicable instance;
    a branch stops when its label meets the succedent pair.  Greedy
    expansion is complete relative to the fence (larger labels inherit
    proofs), so the first saturated label ends the search.  A label with
    no applicable instance saturates even at the depth limit, so the empty
    statement (empty fence, depth limit 0) gives ``Saturated(Label())``.
    """
    ant, suc = _statement_pairs(c, s)
    theta = theta_set(theta)
    fence = _fence_order(gen_subformulas(theta, s.formulas()))
    pool = _instance_pool(c, fence)
    if max_depth is None:
        max_depth = 4 * len(fence)
    nodes = 0
    deepest = 0

    def expand(label: Label, depth: int) -> Node:
        nonlocal nodes, deepest
        nodes += 1
        deepest = max(deepest, depth)
        if nodes > max_nodes:
            raise _Limit("max_nodes")
        if _meets(label, suc):
            return Node(label)
        inst = next((i for i in pool if _applies(i, label)), None)
        if inst is None:
            raise _Saturation(label)
        if depth >= max_depth:
            raise _Limit("max_depth")
        if inst.closing:
            nodes += 1
            children = (Node(STAR),)
        else:
            kids = []
            for f in _sorted(inst.nacc):
                kids.append(expand(Label(label.acc | {f}, label.rej),
                                   depth + 1))
            for f in _sorted(inst.nrej):
                kids.append(expand(Label(label.acc, label.rej | {f}),
                                   depth + 1))
            children = tuple(kids)
        return Node(label, inst.rule, inst.subst, children)

    try:
        tree = expand(ant, 0)
    except _Saturation as e:
        return Saturated(e.label)
    except _Limit as e:
        return LimitExceeded(e.which, nodes, deepest, max_nodes, max_depth)
    return Proved(tree)
