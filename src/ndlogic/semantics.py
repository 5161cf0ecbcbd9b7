"""Finite non-deterministic matrices in one and two dimensions.

An NdAlgebra interprets every connective as a set-valued table over a finite
value set; an NdMatrix adds one distinguished (designated) set, a BMatrix
adds two (designated and antidesignated).  Consequence is decided by
enumerating coherent valuations of a statement's subformula closure in one
fixed order, within each position's sides, keeping arc consistency after
every assignment (MAC) and undoing it by a trail; narrowing removes no
value of any countermodel, so the first countermodel found is the first of
the full enumeration.  Each compound's domain is cut to its arguments'
image as its constraint is built, so the root propagates only from the
compounds whose sides cut that image.  Each constraint reads a template
that its algebra builds once per connective and pattern of equal arguments.

Semantic checking is restricted to total algebras: a coherent valuation on
a subformula-closed set then always extends to the full language, which
makes finite enumeration sound and complete.  Partial algebras can be
represented but every checking operation rejects them with
NonTotalAlgebraError.  Separator reports scan the unary formulas depth by
depth, except for value pairs that a simulation of the cells proves
inseparable at every depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import combinations, count, product
from operator import and_, or_
from typing import Iterable, Iterator, Mapping, Sequence, Union
from weakref import ref

from .errors import NonTotalAlgebraError, SemanticsError
from .language import (P, Formula, Signature, Var, _pool_levels,
                       _rebuild, subformula_sequence, variables)

# ---------------------------------------------------------------------------
# algebras and matrices

Interpretation = Mapping[str, Mapping[tuple[str, ...], frozenset[str]]]


@dataclass(frozen=True)
class NdAlgebra:
    """Finite set-valued algebra over a signature.

    ``interpretation[conn][args]`` is the set of possible outputs for that
    argument tuple; an empty cell makes the algebra partial.
    """

    signature: Signature
    values: tuple[str, ...]
    interpretation: Interpretation
    # derived lookup tables, not part of the algebra's identity
    _index: Mapping[str, int] = field(init=False, compare=False, repr=False)
    # per connective, its cells as value masks by row code: the arguments'
    # value indices as digits in base |values|, the first lowest
    _cells: Mapping[str, tuple[int, ...]] = \
        field(init=False, compare=False, repr=False)
    # per connective and argument-equality pattern, the constraint
    # template of ``_Arcs`` (see ``_template``), built when first met from
    # the rows as bit masks of their row codes (as in ``_cells``): per
    # value, the rows whose cell holds it; per column and value, the rows
    # with that value there
    _templates: Mapping[tuple, tuple] = \
        field(init=False, compare=False, repr=False)
    _total: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        values = tuple(self.values)
        if len(set(values)) != len(values) or not values:
            raise SemanticsError("values must be non-empty and distinct")
        index, nv = {v: i for i, v in enumerate(values)}, len(values)
        interp: dict[str, dict[tuple[str, ...], frozenset[str]]] = {}
        cells_of: dict[str, tuple[int, ...]] = {}
        rows_of: dict[str, tuple[list[int], list[list[int]]]] = {}
        for conn, arity in self.signature.connectives.items():
            cells = self.interpretation.get(conn)
            if cells is None:
                raise SemanticsError(f"no interpretation for connective {conn!r}")
            want = len(values) ** arity
            if len(cells) != want:
                raise SemanticsError(
                    f"interpretation of {conn!r} has {len(cells)} cells, "
                    f"expected {want}")
            rows = {}  # the value indices of args -> (args, out)
            for args, out in cells.items():
                args = tuple(args)
                if len(args) != arity or any(a not in index for a in args):
                    raise SemanticsError(f"bad cell key {args!r} for {conn!r}")
                out = frozenset(out)
                if not out <= index.keys():
                    raise SemanticsError(f"cell {conn}{args} not within values")
                rows[tuple(map(index.__getitem__, args))] = args, out
            interp[conn], masks, holds = {}, [0] * want, [0] * nv
            cols = [[0] * nv for _ in range(arity)]
            for ik, (args, out) in sorted(rows.items()):
                interp[conn][args] = out
                code = sum(v * nv ** i for i, v in enumerate(ik))
                for w in map(index.__getitem__, out):
                    masks[code] |= 1 << w
                    holds[w] |= 1 << code
                for col, v in zip(cols, ik):
                    col[v] |= 1 << code
            cells_of[conn], rows_of[conn] = tuple(masks), (holds, cols)
        extra = set(self.interpretation) - set(self.signature.connectives)
        if extra:
            raise SemanticsError(f"interpretation for undeclared {sorted(extra)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "interpretation", interp)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_cells", cells_of)
        object.__setattr__(self, "_templates",
                           _Lazy(partial(_template, rows_of)))
        object.__setattr__(self, "_total", all(
            out for cells in interp.values() for out in cells.values()))


def check_total(alg: NdAlgebra) -> bool:
    """True iff no interpretation cell is empty; reads a flag set when the
    algebra is built."""
    return alg._total


def _require_total(alg: NdAlgebra):
    if not check_total(alg):
        raise NonTotalAlgebraError(
            "operation requires a total algebra; some cell is empty")


@dataclass(frozen=True)
class NdMatrix:
    """One-dimensional matrix: algebra plus a designated value set."""

    algebra: NdAlgebra
    designated: frozenset[str]

    def __post_init__(self):
        designated = frozenset(self.designated)
        if not designated <= set(self.algebra.values):
            raise SemanticsError("designated set must be a subset of values")
        object.__setattr__(self, "designated", designated)


@dataclass(frozen=True)
class BMatrix:
    """Two-dimensional matrix: algebra plus designated and antidesignated
    sets; the two may freely overlap."""

    algebra: NdAlgebra
    designated: frozenset[str]
    antidesignated: frozenset[str]

    def __post_init__(self):
        designated = frozenset(self.designated)
        anti = frozenset(self.antidesignated)
        values = set(self.algebra.values)
        if not designated <= values or not anti <= values:
            raise SemanticsError("distinguished sets must be subsets of values")
        object.__setattr__(self, "designated", designated)
        object.__setattr__(self, "antidesignated", anti)


Matrix = Union[NdMatrix, BMatrix]


def _b_only(m: Matrix, what: str):
    """Refuse a target that is not a B-matrix; ``what`` says why."""
    if not isinstance(m, BMatrix):
        raise SemanticsError(f"{what}; target is not a B-matrix")


def _require_statement(s, kind: type):
    """Refuse a statement that is not a ``kind``."""
    if not isinstance(s, kind):
        raise SemanticsError(
            f"statement must be a {kind.__name__}, not {type(s).__name__}")


# ---------------------------------------------------------------------------
# statements and verdicts


def _fset(fs: Iterable[Formula]) -> frozenset[Formula]:
    fs = frozenset(fs)
    for f in fs:
        if not isinstance(f, Formula):
            raise SemanticsError(f"not a formula: {f!r}")
    return fs


@dataclass(frozen=True)
class Statement1D:
    """A pair of finite formula sets: antecedent and succedent."""

    antecedent: frozenset[Formula] = frozenset()
    succedent: frozenset[Formula] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "antecedent", _fset(self.antecedent))
        object.__setattr__(self, "succedent", _fset(self.succedent))

    def formulas(self) -> tuple[Formula, ...]:
        return _sorted(self.antecedent) + _sorted(self.succedent)


@dataclass(frozen=True)
class BStatement:
    """Four attitude-indexed finite formula sets.  The antecedent pair is
    (acc, rej); the succedent pair is (nacc, nrej)."""

    acc: frozenset[Formula] = frozenset()
    nacc: frozenset[Formula] = frozenset()
    rej: frozenset[Formula] = frozenset()
    nrej: frozenset[Formula] = frozenset()

    def __post_init__(self):
        for att in ("acc", "nacc", "rej", "nrej"):
            object.__setattr__(self, att, _fset(getattr(self, att)))

    def formulas(self) -> tuple[Formula, ...]:
        return (_sorted(self.acc) + _sorted(self.nacc)
                + _sorted(self.rej) + _sorted(self.nrej))


def _sorted(fs: Iterable[Formula]) -> tuple[Formula, ...]:
    """``fs`` sorted by printed form; fewer than two are not printed."""
    fs = tuple(fs)
    return fs if len(fs) < 2 else tuple(sorted(fs, key=str))


@dataclass(frozen=True)
class Valuation:
    """A coherent assignment on a subformula-closed domain, reported in
    enumeration order: variables first, then compounds bottom-up."""

    domain: tuple[Formula, ...]
    assignment: Mapping[Formula, str]

    def __call__(self, f: Formula) -> str:
        return self.assignment[f]

    def lines(self) -> list[str]:
        return [f"v({f}) = {self.assignment[f]}" for f in self.domain]

    def __str__(self) -> str:
        return ", ".join(f"v({f})={self.assignment[f]}" for f in self.domain)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a semantic check; invalid verdicts carry the first
    countermodel in enumeration order."""

    valid: bool
    countermodel: Valuation | None = None

    def __bool__(self) -> bool:
        return self.valid


# ---------------------------------------------------------------------------
# valuation enumeration

def _compile(alg: NdAlgebra, fs: Sequence[Formula]):
    """Number the subformula closure (variables first, then compounds
    bottom-up) and compile one plan entry per position: (None, var_name)
    for a variable, (conn, arg_positions) otherwise.  One pass over the
    closure numbers the variables and checks the compounds, which are
    numbered after them."""
    conns = alg.signature.connectives
    pos: dict[Formula, int] = {}
    plan: list[tuple] = []
    compounds = []
    for f in subformula_sequence(fs):
        if f.__class__ is Var:
            pos[f] = len(plan)
            plan.append((None, f.name))
        elif conns.get(f.conn) == len(f.args):
            compounds.append(f)
        elif f.conn in conns:
            raise SemanticsError(f"arity mismatch for {f.conn!r} in {f}")
        else:
            raise SemanticsError(f"connective {f.conn!r} not interpreted")
    for f in compounds:
        pos[f] = len(plan)
        plan.append((f.conn, tuple([pos[a] for a in f.args])))
    return (*pos,), pos, plan


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


class _Lazy(dict):
    """A dict that fills a missing key with ``make(key)``."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        got = self[key] = self.make(key)
        return got


# ``_bits(mask)`` per mask, filled as masks are met and shared by every
# search; a list is read, never changed
_BITS = _Lazy(_bits)


def _union(parts: Sequence[int], mask: int) -> int:
    """The union of ``parts[v]`` over the set bits v of ``mask``."""
    return reduce(or_, map(parts.__getitem__, _BITS[mask]), 0)


def _image(holds: Sequence[int], rows: int) -> int:
    """The mask of the values w whose rows ``holds[w]`` meet ``rows``."""
    return sum(1 << w for w, h in enumerate(holds) if rows & h)


def _template(rows_of: Mapping[str, tuple[list[int], list[list[int]]]],
              key: tuple[str, tuple[int, ...] | None]) -> tuple:
    """The constraint template of ``_Arcs`` for ``key``, (conn, pattern):
    the pattern numbers each argument by the first argument equal to it,
    or is None when they are distinct.  It holds the columns of
    ``rows_of`` for the distinct arguments (a repeated argument's merged,
    so its rows agree); per column, the union of its rows over a domain;
    the image of a mask of rows; and the rows whose cells hold some value
    of a domain.  The last three are filled per mask as met."""
    conn, pattern = key
    holds, cols = rows_of[conn]
    if pattern:
        cols = [[reduce(and_, rows) for rows in zip(*(
            col for col, y in zip(cols, pattern) if y == x))]
            for x in dict.fromkeys(pattern)]
    return (cols, [_Lazy(partial(_union, col)) for col in cols],
            _Lazy(partial(_image, holds)), _Lazy(partial(_union, holds)))


class _Arcs:
    """Generalised arc consistency over a plan's cells, undone by a trail.

    ``dom`` holds each position's values as a bit mask from ``allowed``, a
    compound's cut to the image of its arguments' domains; ``cut`` lists the
    compounds whose mask cut that image.  Each compound's cell, v(i) in
    conn(v(a1), ..., v(ak)), is one constraint on i and its distinct arguments,
    read off the algebra's template for the pattern of its arguments; a
    repeated argument's columns must agree, so a revision is exact.  Every
    shrunk domain goes on ``trail`` as (position, old mask)."""

    def __init__(self, alg: NdAlgebra, plan: list[tuple],
                 allowed: Mapping[int, int]):
        every = (1 << len(alg.values)) - 1
        self.dom: list[int] = []
        self.trail: list[tuple[int, int]] = []
        self.cons: list[tuple | None] = []  # (distinct args, template)
        self.watch: list[list[int]] = [[] for _ in plan]  # constraints on i
        self.cut: list[int] = []
        dom, cut, templates = self.dom, self.cut, alg._templates
        for i, (conn, args) in enumerate(plan):
            dom.append(allowed.get(i, every))
            if conn is None:
                self.cons.append(None)
                continue
            pattern = None
            if len(set(args)) < len(args):
                scope = tuple(dict.fromkeys(args))
                pattern, args = tuple(map(scope.index, args)), scope
            template = templates[conn, pattern]
            self.cons.append((args, template))
            _, unions, image, _ = template
            rows = -1
            for a, union in zip(args, unions):
                rows &= union[dom[a]]
            held = image[rows]
            if held & ~dom[i]:
                cut.append(i)
            dom[i] &= held
            for x in (i, *args):
                self.watch[x].append(i)

    def narrow(self, todo: list[int]) -> bool:
        """Revise the constraints ``todo`` (a list it empties), and those
        on any domain that shrinks, until none shrinks (AC-3); False once
        one empties.  A revision keeps the values of the rows within the
        argument domains whose cell meets the compound's domain, so it
        removes no value of a coherent valuation within the domains."""
        dom, trail, cons, watch, bits = \
            self.dom, self.trail, self.cons, self.watch, _BITS
        queued = set(todo)
        while todo:
            i = todo.pop()
            queued.discard(i)
            scope, (cols, unions, image, reach) = cons[i]
            rows = -1
            for a, union in zip(scope, unions):
                rows &= union[dom[a]]
            out = dom[i] & image[rows]
            if not out:
                return False
            shrunk = [(i, out)] if out != dom[i] else []
            met = rows & reach[out]
            if met != rows:  # some argument value may have lost its rows
                for a, col in zip(scope, cols):
                    keep = sum(1 << v for v in bits[dom[a]] if met & col[v])
                    if keep != dom[a]:
                        shrunk.append((a, keep))
            for x, mask in shrunk:
                trail.append((x, dom[x]))
                dom[x] = mask
                for c in watch[x]:
                    if c not in queued and c != i:
                        queued.add(c)
                        todo.append(c)
        return True

    def root(self) -> bool:
        """Narrow every domain to the arc-consistent closure, the largest
        one within the domains, whatever the schedule; False if one is or
        becomes empty.  In a total algebra each constraint but those in
        ``cut`` is arc consistent once built, so AC-3 runs from these."""
        return all(self.dom) and self.narrow(self.cut)

    def fix(self, i: int, mask: int) -> bool:
        """Narrow position i to ``mask``, within its domain, and propagate;
        False if any domain empties."""
        if mask == self.dom[i]:
            return True
        self.trail.append((i, self.dom[i]))
        self.dom[i] = mask
        return bool(mask) and self.narrow(self.watch[i][:])

    def undo(self, mark: int):
        dom, trail = self.dom, self.trail
        while len(trail) > mark:
            x, old = trail.pop()
            dom[x] = old


def _valuations(alg: NdAlgebra, plan: list[tuple],
                allowed: Mapping[int, int]) -> Iterator[list[int]]:
    """Yield, as a list of value indices, every coherent assignment that
    keeps each position of ``allowed`` within its value mask, in declared
    value order with earlier positions varying slowest.  The search
    maintains arc consistency (MAC): positions go in plan order, each
    taking the lowest value left in its domain; after a yield, or when a
    value fails, the value is taken out, and the search backtracks from an
    empty domain.  Domains are narrowed at the root and after each step,
    which removes only values of no coherent valuation within them: so
    the search meets the valuations in the order of the full product."""
    arcs = _Arcs(alg, plan, allowed)
    if not arcs.root():
        return
    dom, marks = arcs.dom, []  # the trail's length before each assignment
    while True:
        if len(marks) == len(plan):
            yield [d.bit_length() - 1 for d in dom]
            ok = False
        else:
            i = len(marks)
            marks.append(len(arcs.trail))
            ok = arcs.fix(i, dom[i] & -dom[i])
        while not ok:
            if not marks:
                return
            i = len(marks) - 1
            arcs.undo(marks.pop())
            ok = arcs.fix(i, dom[i] & (dom[i] - 1))


def _to_valuation(alg: NdAlgebra, doms: tuple[Formula, ...],
                  vals: Sequence[int]) -> Valuation:
    return Valuation(doms, {f: alg.values[v] for f, v in zip(doms, vals)})


def coherent_valuations(alg: NdAlgebra, fs: Iterable[Formula],
                        ) -> list[Valuation]:
    """All coherent valuations on the subformula closure of ``fs`` in
    enumeration order.  Requires a total algebra."""
    _require_total(alg)
    doms, _, plan = _compile(alg, _sorted(fs))
    return [_to_valuation(alg, doms, vals)
            for vals in _valuations(alg, plan, {})]


def induced_multifunction(alg: NdAlgebra, f: Formula,
                          inputs: Sequence[str]) -> frozenset[str]:
    """The value set a formula can take when its distinct variables (in
    first-occurrence order) are fixed to ``inputs``: each value of its
    domain in ``_Arcs``, the image of the pins, that some valuation takes."""
    _require_total(alg)
    vs = variables(f)
    if len(vs) != len(inputs):
        raise SemanticsError(
            f"formula has {len(vs)} variables, got {len(inputs)} inputs")
    index = alg._index
    for x in inputs:
        if x not in index:
            raise SemanticsError(f"unknown value {x!r}")
    doms, pos, plan = _compile(alg, [f])
    pins = {pos[Var(v)]: 1 << index[x] for v, x in zip(vs, inputs)}
    arcs, top = _Arcs(alg, plan, pins), len(plan) - 1
    return frozenset(alg.values[w] for w in _bits(arcs.dom[top])
                     if next(_valuations(alg, plan, {**pins, top: 1 << w}),
                             None) is not None)


# ---------------------------------------------------------------------------
# entailment

def _entails(alg: NdAlgebra, des: Iterable[str], anti: Iterable[str],
             *sides: Iterable[Formula]) -> Verdict:
    """The one entailment search over the ``sides`` acc, nacc, rej and
    nrej (trailing ones optional): valid iff no coherent valuation puts acc
    inside ``des``, nacc outside it, rej inside ``anti`` and nrej outside
    it.  Those sets, as value masks intersected for a formula on several
    sides, are each position's allowed values.  ``_valuations`` keeps arc
    consistency within them, and narrowing removes no countermodel's
    value, so its first yield is the first countermodel of the full
    enumeration.  The closure is built from each side sorted, in turn."""
    _require_total(alg)
    d, a = (sum(1 << alg._index[v] for v in x) for x in (des, anti))
    every = (1 << len(alg.values)) - 1
    oks = (d, every & ~d, a, every & ~a)
    fs = [(f, ok) for side, ok in zip(sides, oks) for f in _sorted(side)]
    doms, pos, plan = _compile(alg, [f for f, _ in fs])
    allowed: dict[int, int] = {}
    for f, ok in fs:
        allowed[pos[f]] = allowed.get(pos[f], ok) & ok
    vals = next(_valuations(alg, plan, allowed), None)
    return Verdict(True) if vals is None else \
        Verdict(False, _to_valuation(alg, doms, vals))


def entails_1d(m: NdMatrix, s: Statement1D) -> Verdict:
    """SET-SET entailment: valid iff every coherent valuation that
    designates the whole antecedent designates some succedent formula;
    the t-aspect of B-entailment."""
    _require_statement(s, Statement1D)
    return _entails(m.algebra, m.designated, (), s.antecedent, s.succedent)


def b_entails(b: BMatrix, s: BStatement) -> Verdict:
    """B-entailment: valid iff no coherent valuation places acc inside the
    designated set, nacc outside it, rej inside the antidesignated set and
    nrej outside it, all at once."""
    _b_only(b, "B-entailment is two-dimensional")
    _require_statement(s, BStatement)
    return _entails(b.algebra, b.designated, b.antidesignated,
                    s.acc, s.nacc, s.rej, s.nrej)


def aspect_entails(b: BMatrix, aspect: str, s: Statement1D) -> Verdict:
    """One-dimensional consequence recovered from a B-matrix: the t-aspect
    reads the statement through acc/nacc, the f-aspect through rej/nrej."""
    if aspect in ("t", "t-aspect"):
        side = "designated"
    elif aspect in ("f", "f-aspect"):
        side = "antidesignated"
    else:
        raise SemanticsError(f"unknown aspect {aspect!r}; use 't' or 'f'")
    _b_only(b, f"the {aspect[0]}-aspect reads the {side} set")
    _require_statement(s, Statement1D)
    return _entails(b.algebra, getattr(b, side), (), s.antecedent,
                    s.succedent)


def b_product(m1: NdMatrix, m2: NdMatrix) -> BMatrix:
    """Combine two matrices sharing one algebra into a B-matrix whose
    designated set comes from the first and antidesignated set from the
    second."""
    if not (isinstance(m1, NdMatrix) and isinstance(m2, NdMatrix)):
        raise SemanticsError("product needs two plain matrices")
    if m1.algebra != m2.algebra:
        raise SemanticsError(
            "product requires the two matrices to share an identical algebra")
    return BMatrix(m1.algebra, m1.designated, m2.designated)


# ---------------------------------------------------------------------------
# strong homomorphisms

def strong_hom_report(m1: NdMatrix, m2: NdMatrix, mapping: Mapping[str, str],
                      subsig: Signature) -> list[str]:
    """Violations of the strong-homomorphism conditions for ``mapping``
    restricted to the connectives of ``subsig`` (cell images within target
    cells, designation kept both ways); empty means it holds."""
    a1, a2 = m1.algebra, m2.algebra
    for v in a1.values:
        if v not in mapping:
            raise SemanticsError(f"mapping not total: missing {v!r}")
        if mapping[v] not in a2._index:
            raise SemanticsError(f"mapping image {mapping[v]!r} not a value")
    for conn, arity in subsig.connectives.items():
        if a1.signature.connectives.get(conn) != arity or \
                a2.signature.connectives.get(conn) != arity:
            raise SemanticsError(
                f"connective {conn!r}/{arity} not shared by both matrices")
    out = []
    for conn in sorted(subsig.connectives):
        arity = subsig.connectives[conn]
        for args, cell in a1.interpretation[conn].items():
            mapped_args = tuple(mapping[a] for a in args)
            target = a2.interpretation[conn][mapped_args]
            image = {mapping[z] for z in cell}
            if not image <= target:
                out.append(
                    f"{conn}({','.join(args)}): image {sorted(image)} not "
                    f"within {conn}({','.join(mapped_args)}) = {sorted(target)}")
    for x in a1.values:
        if (x in m1.designated) != (mapping[x] in m2.designated):
            out.append(f"designation not preserved at {x!r} -> {mapping[x]!r}")
    return out


# ---------------------------------------------------------------------------
# separators and expressiveness

@dataclass(frozen=True)
class FormulaLimit:
    """The separator scan stopped because the next depth would take the
    pool past ``max_formulas``; every formula up to ``depth`` was searched."""

    depth: int
    max_formulas: int


def _intern(items: list, ids: dict, item) -> int:
    """The id of ``item`` in ``items``, appended if it is new."""
    got = ids.setdefault(item, len(items))
    if got == len(items):
        items.append(item)
    return got


class _Memo(dict):
    """A dict that fills a missing key with ``make(key)``; it holds the
    method's object weakly, so that object is freed without the cycle
    collector."""

    def __init__(self, make):
        self.owner, self.make = ref(make.__self__), make.__func__

    def __missing__(self, key):
        got = self[key] = self.make(self.owner(), key)
        return got


class _SeparatorScan:
    """The unary formulas of one algebra up to one depth, and their vectors.

    The unary pool is built level by level, in the order of
    ``_pool_levels``, as deep as some pair's search needs.  The budget is
    read once, off the level sizes: ``total`` counts the formulas of the
    levels that fit ``max_formulas``, and ``limit`` is the FormulaLimit of
    the first level that does not, or None.  Each formula has a vector,
    its induced value set at every value of p as bit masks.  Vectors are
    interned in the order of their first formula, and ``firsts[v]`` is
    vector v's first formula as a node ``(conn, arg ids)``.

    A node's vector is read off its argument relation: the rows of values
    its arguments take together at each value of p, as masks of row codes,
    which index ``alg._cells``; the vector is the union of the cells at
    them.  Each node keeps the mask of the compounds in its closure that can
    take several values at some value of p; an argument tuple's shared set S
    is the union of the pairwise intersections of those masks.  Closures are
    subformula-closed and every other shared node has one value at each
    value of p, so coherent valuations of the arguments' closures combine
    iff they agree on S.  The relation is thus the join on S of the
    arguments' profiles: the pairs (values of S as one code, value of the
    argument), read off the joint relation of S and the argument, or the
    vector if S is empty.  A level is kept as nodes when more formulas fit
    the budget, because they are the next level's arguments; the last level
    built keeps only the first node of each new vector.  The algebra must be
    total, which ``_simulation`` relies on too."""

    def __init__(self, alg: NdAlgebra, max_depth: int,
                 max_formulas: int = 10 ** 6):
        _require_total(alg)
        self.alg = alg
        if max_formulas < 1:
            raise SemanticsError("max_formulas must be >= 1")
        self.nv = nv = len(alg.values)
        self.cells = {**alg._cells,  # None copies a column
                      None: tuple(1 << v for v in range(nv))}
        self.levels = _pool_levels(alg.signature, max_depth)
        self.total, self.limit = 0, None
        for d, (*_, n) in enumerate(_pool_levels(alg.signature, max_depth)):
            if self.total + n > max_formulas:
                self.limit = FormulaLimit(d - 1, max_formulas)
                break
            self.total += n
        self.depth, self.size = -1, 0  # deepest level built, pool size
        self.nodes, self.firsts = [], []  # kept nodes, first node per vector
        self.vector, self.multi = [], []  # per node: vector id, see above
        self.vectors, self.vector_ids = [], {}
        self.profiles, self.profile_ids = [], {}
        self.relations, self.relation_ids = [], {}
        self.profile_of = _Memo(self._profile)  # (node, S) -> profile
        self.relation_of = _Memo(self._join)  # profiles -> relation
        self.by_relation: dict[tuple[str | None, int], tuple] = {}
        self.meets = _Memo(self._meet)  # profiles at one value of p -> rows
        self.joints, self.expansions = _Memo(self._joint), _Memo(self._expand)
        # node -> its formula, built once however many pairs it separates
        self.formula = _Memo(self._formula).__getitem__

    def grow(self) -> bool:
        """Build the next level of the pool; False once it holds the
        ``total`` formulas within the budget."""
        if self.size == self.total:
            return False
        first, below, conns, size = next(self.levels)
        self.depth += 1
        self.size += size
        keep = self.size < self.total
        walks = {k: self._walk(k, first, below, keep)
                 for k in {k for _, k in conns}}
        for conn, k in conns:
            for ids, rel in walks[k]:
                vec = self._vector(conn, rel, ids)
                if keep:
                    own = any(m & (m - 1) for m in self.vectors[vec])
                    self.multi.append(reduce(or_, map(
                        self.multi.__getitem__, ids), own << len(self.nodes)))
                    self.nodes.append((conn, ids))
                    self.vector.append(vec)
        return True

    def _walk(self, k: int, first: int, below: int, keep: bool) -> list:
        """(ids, relation id) of every argument tuple of arity k if
        ``keep``, else of each relation's first, in ``_arg_tuples`` order;
        the first k - 1 ids keep their profiles per shared set."""
        if not k:
            return [((), self._relation(()))]
        multi, profile_of = self.multi, self.profile_of
        walk, seen = [], set()
        for pre in product(range(below), repeat=k - 1):
            shared = reduce(or_, (multi[a] & multi[b]
                                  for a, b in combinations(pre, 2)), 0)
            union = reduce(or_, map(multi.__getitem__, pre), 0)
            heads: dict[int, tuple[int, ...]] = {}
            for b in range(0 if max(pre, default=-1) >= first else first,
                           below):
                s = shared | union & multi[b]
                head = heads.get(s)
                if head is None:
                    head = heads[s] = tuple([profile_of[a, s] for a in pre])
                rel = self.relation_of[head + (profile_of[b, s],)]
                if keep or rel not in seen:
                    seen.add(rel)
                    walk.append((pre + (b,), rel))
        return walk

    def _relation(self, ids: tuple[int, ...]) -> int:
        """The id of the argument relation of the nodes ``ids``."""
        shared = reduce(or_, (self.multi[a] & self.multi[b]
                              for a, b in combinations(ids, 2)), 0)
        return self.relation_of[tuple([self.profile_of[a, shared]
                                       for a in ids])]

    def _profile(self, key: tuple[int, int]) -> int:
        """For ``key`` = (a, S), the profile id of node a on S: nv ** |S|,
        then per value of p the codes s + v * nv ** |S| of S's s and a's v."""
        a, shared = key
        cols = tuple(_bits(shared | 1 << a))
        keep = tuple(i for i, n in enumerate(cols) if shared >> n & 1)
        return _intern(self.profiles, self.profile_ids, (
            self.nv ** len(keep), *(
                self.expansions[rel, len(cols), keep, (cols.index(a),), None]
                for rel in self.joints[cols])))

    def _join(self, key: tuple[int, ...]) -> int:
        """The relation id of arguments with the profiles ``key``."""
        top = self.profiles[key[0]][0] if key else 1
        return _intern(self.relations, self.relation_ids, tuple(
            self.meets[(top, *(self.profiles[p][x] for p in key))]
            for x in range(1, self.nv + 1)))

    def _meet(self, key: tuple[int, ...]) -> int:
        """For ``key`` = (nv ** |S|, profile masks at one value of p), the
        rows (v_i) such that some s has code s + v_i * nv ** |S| in mask i."""
        top, *masks = key
        fits = {0: (1 << top) - 1}  # row code -> the codes of S it fits
        for i, m in enumerate(masks):
            fits = {c + v * self.nv ** i: f for c, fit in fits.items()
                    for v in range(self.nv) if (f := fit & m >> v * top)}
        return sum(1 << c for c in fits)

    def _vector(self, conn: str | None, rel: int,
                ids: tuple[int, ...]) -> int:
        """The id of the vector of ``conn`` over relation ``rel``, the union
        of its cells at the rows; a new one's first node is (conn, ids)."""
        vec = self.by_relation.get((conn, rel))
        if vec is None:
            cells = self.cells[conn]
            vec = self.by_relation[conn, rel] = tuple(
                1 << x if conn is None
                else reduce(or_, map(cells.__getitem__, _bits(rows)))
                for x, rows in enumerate(self.relations[rel]))
        got = _intern(self.vectors, self.vector_ids, vec)
        if got == len(self.firsts):
            self.firsts.append((conn, ids))
        return got

    def _formula(self, node: tuple[str | None, tuple[int, ...]]) -> Formula:
        """The formula of ``node``.  Argument ids lie below their node's,
        so the closure's ids ascending list it for ``_rebuild``, which
        builds it without recursion."""
        seen, todo = set(), [node]
        while todo:
            for a in todo.pop()[1]:
                if a not in seen:
                    seen.add(a)
                    todo.append(self.nodes[a])
        at = {a: i for i, a in enumerate(sorted(seen))}
        return _rebuild(tuple(
            P.name if conn is None else (conn, tuple(map(at.__getitem__, ids)))
            for conn, ids in [*map(self.nodes.__getitem__, at), node]))

    def _joint(self, ids: tuple[int, ...]) -> tuple[int, ...]:
        """The rows the ascending, distinct ``ids`` take together at each
        value of p.  Several ids are reduced by expanding the largest, n:
        ids grow with depth, so n lies in no other closure, and the
        valuations of the closure of ``ids`` are those of the rest and n's
        arguments, each extended by a cell value for n."""
        if len(ids) == 1:
            return self.vectors[self.vector[ids[0]]]
        *rest, n = ids
        conn, args = self.nodes[n]
        below = tuple(sorted(set(rest).union(args)))
        keep = tuple(map(below.index, rest))
        at = tuple(map(below.index, args))
        return tuple(self.expansions[rel, len(below), keep, at, conn]
                     for rel in self.joints[below])

    def _expand(self, key: tuple) -> int:
        """For ``key`` = (rel, arity, keep, at, conn), the ``keep`` columns
        of each row of rel followed by each value of conn's cell at ``at``;
        with no ``keep`` columns, the union of those cells as a value mask."""
        rel, arity, keep, at, conn = key
        nv, top, got = self.nv, self.nv ** len(keep), 0
        for code in _bits(rel):
            row = [code // nv ** j % nv for j in range(arity)]
            code = sum(row[k] * nv ** j for j, k in enumerate(keep))
            cell = sum(row[k] * nv ** j for j, k in enumerate(at))
            for w in _bits(self.cells[conn][cell]):
                got |= 1 << (code + w * top)
        return got


def _simulation(alg: NdAlgebra, dist: Sequence[int], total: int) -> list[int]:
    """``rel[x]``, the mask of the y with x R y, for a relation R that keeps
    the distinguished masks ``dist`` and simulates every cell.  R starts as
    the pairs of equal membership in every mask; it loses each non-identity
    pair of any tuple of pairs where the left cell has an output with no
    R-partner in the right cell, until none is lost or R is the identity.
    So x R y proves ⟨x,y⟩ inseparable: bottom-up, a coherent valuation with
    p = x has a partner with p = y, R-related at each formula, and each
    value of x's non-empty set has one of its membership in y's.  R is
    sound, not greatest; it is the identity unless its work bound, the
    candidates times Σ |R|^arity, is below a whole scan's ``total``."""
    nv, every = len(alg.values), (1 << len(alg.values)) - 1
    rel = [reduce(and_, [d if d >> x & 1 else every & ~d for d in dist], every)
           for x in range(nv)]
    size, sig = sum(map(int.bit_count, rel)), alg.signature.connectives
    arities = [k for k in sig.values() if k]
    if (size - nv) * sum(size ** k for k in arities) >= total:
        return [1 << x for x in range(nv)]
    conns = [(sig[c], alg._cells[c]) for c in sorted(sig, key=sig.get)
             if sig[c]]
    masks = set().union(*(cells for _, cells in conns))
    at = clean = 0  # the connective checked next; clean checks in a row
    while clean < len(conns) and size > nv:
        if not clean:  # R is new: per mask, the z R-related to none of it
            lonely = {m: sum((not r & m) << z for z, r in enumerate(rel))
                      for m in masks}
            related = {}  # per arity and row code, the R-related codes
        k, cells = conns[at]
        if k not in related:
            related[k] = [1]
            for j in range(k):
                related[k] = [reduce(or_, [n << y * nv ** j for y in _BITS[r]])
                              for r in rel for n in related[k]]
        bad = {out: sum(1 << c for c, m in enumerate(cells) if out & lonely[m])
               for out in set(cells)}  # the right codes each out fails at
        drop = [0] * nv
        for code, (out, near) in enumerate(zip(cells, related[k])):
            for right in _bits(bad[out] & near):
                for j in range(k):
                    x, y = code // nv ** j % nv, right // nv ** j % nv
                    drop[x] |= (x != y) << y
        if any(drop):
            rel, clean = [r & ~d for r, d in zip(rel, drop)], 0
            size = sum(map(int.bit_count, rel))
        else:
            at, clean = (at + 1) % len(conns), clean + 1
    return rel


@dataclass(frozen=True)
class PairSeparation:
    """One unordered value pair's separation result; ``into`` is the value
    whose induced set lies inside the named distinguished set.  An open pair
    carries a FormulaLimit if the budget, not the depth bound, ended it."""

    x: str
    y: str
    separator: Formula | None
    via: str | None = None
    into: str | None = None
    limit: FormulaLimit | None = None


def separator_for_pair(target: Matrix, x: str, y: str, max_depth: int,
                       max_formulas: int = 10 ** 6,
                       ) -> Formula | FormulaLimit | None:
    """First unary formula (in enumeration order) whose induced value sets
    at ``x`` and ``y`` fall on opposite sides of a distinguished set; None
    if no formula up to ``max_depth`` does, and a FormulaLimit if the pool
    up to the depth searched next has more than ``max_formulas`` formulas.
    A pair that a simulation proves inseparable gets that without a scan."""
    scan = _SeparatorScan(target.algebra, max_depth, max_formulas)
    if x == y:
        raise SemanticsError("separator search requires two distinct values")
    for v in (x, y):
        if v not in scan.alg._index:
            raise SemanticsError(f"unknown value {v!r}")
    found = _separator_search(scan, *_certificate(scan, target), x, y)
    return found.limit or found.separator


def _certificate(scan: _SeparatorScan, target: Matrix) -> tuple:
    """``target``'s distinguished sets as named value masks, and the
    ``_simulation`` relation they give over ``scan``'s algebra."""
    index = scan.alg._index
    dist = [(name, sum(1 << index[v] for v in getattr(target, name)))
            for name in ("designated", "antidesignated")
            if hasattr(target, name)]
    return dist, _simulation(scan.alg, [d for _, d in dist], scan.total)


def _separator_search(scan: _SeparatorScan, dist: list[tuple[str, int]],
                      rel: list[int], x: str, y: str) -> PairSeparation:
    """The first vector of ``scan`` whose sets at x and y fall on opposite
    sides of one of the named masks ``dist``; a pair that ``rel`` relates
    either way gets the scan's final answer with no further level built."""
    xi, yi = scan.alg._index[x], scan.alg._index[y]
    for vec in count():
        while vec == len(scan.vectors):
            if rel[xi] >> yi & 1 or rel[yi] >> xi & 1 or not scan.grow():
                return PairSeparation(x, y, None, limit=scan.limit)
        sx, sy = scan.vectors[vec][xi], scan.vectors[vec][yi]
        for name, d in dist:
            for inside, outside, into in ((sx, sy, x), (sy, sx, y)):
                if not inside & ~d and not outside & d:
                    return PairSeparation(x, y, scan.formula(scan.firsts[vec]),
                                          name, into)


@dataclass(frozen=True)
class ExpressivenessReport:
    target_kind: str
    max_depth: int
    entries: tuple[PairSeparation, ...]
    sufficiently_expressive: bool

    def lines(self) -> list[str]:
        out = [f"expressiveness report ({self.target_kind}, "
               f"depth <= {self.max_depth})"]
        limit = None
        for e in self.entries:
            if e.limit:
                limit = e.limit
                out.append(f"  <{e.x},{e.y}>: open after depth "
                           f"{limit.depth}, max_formulas "
                           f"{limit.max_formulas} reached")
            elif e.separator is None:
                out.append(f"  <{e.x},{e.y}>: none up to depth {self.max_depth}")
            else:
                out.append(f"  <{e.x},{e.y}>: {e.separator}"
                           f"  [{e.into} inside {e.via}]")
        verdict = "sufficiently expressive (up to bound)" if \
            self.sufficiently_expressive else "not separated within bound"
        if limit:
            verdict = f"max_formulas limit reached after depth {limit.depth}"
        out.append(f"  => {verdict}")
        return out


def expressiveness_report(target: Matrix, max_depth: int,
                          max_formulas: int = 10 ** 6,
                          ) -> ExpressivenessReport:
    """Separator search over every unordered pair of distinct values,
    within a pool of at most ``max_formulas`` formulas; the pairs share one
    scan, and no pair that a simulation proves inseparable grows it."""
    scan = _SeparatorScan(target.algebra, max_depth, max_formulas)
    dist, rel = _certificate(scan, target)
    entries = tuple(_separator_search(scan, dist, rel, x, y)
                    for x, y in combinations(scan.alg.values, 2))
    return ExpressivenessReport(
        "bmatrix" if isinstance(target, BMatrix) else "matrix",
        max_depth, entries,
        all(e.separator is not None for e in entries))


# ---------------------------------------------------------------------------
# schema validation

def validate_rule(target: Matrix, rule) -> Verdict:
    """Check a rule schema semantically: its variables are read as atoms
    and the schema statement is run through the matching entailment (valid
    schemas stay valid under all substitutions)."""
    if rule.dimension == 1 and not isinstance(target, NdMatrix):
        raise SemanticsError(
            f"rule {rule.name!r} is one-dimensional; target is not an "
            f"ordinary matrix")
    if rule.dimension == 2:
        _b_only(target, f"rule {rule.name!r} is two-dimensional")
    return _entails(target.algebra, target.designated,
                    getattr(target, "antidesignated", ()),
                    rule.acc, rule.nacc, rule.rej, rule.nrej)
