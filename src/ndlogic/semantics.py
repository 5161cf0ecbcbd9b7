"""Finite non-deterministic matrices in one and two dimensions.

An NdAlgebra interprets every connective as a set-valued table over a finite
value set; an NdMatrix adds one distinguished (designated) set, a BMatrix
adds two (designated and antidesignated).  Consequence is decided by
enumerating coherent valuations of a statement's subformula closure in one
fixed order, checking each position's sides as it is assigned; cut branches
hold no countermodel, so the first countermodel found is reproducible.  A
search that has not answered after a few steps beyond the closure's size
starts over in the same order, keeping arc consistency after every
assignment (MAC) and undoing it by a trail; narrowing removes no value of
any countermodel.

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
from functools import reduce
from itertools import combinations, count, product
from operator import and_, or_
from typing import Container, Iterable, Iterator, Mapping, Sequence, Union
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
    _tables: Mapping[str, Mapping[tuple[int, ...], tuple[int, ...]]] = \
        field(init=False, compare=False, repr=False)
    # _tables' rows numbered in order, as bit masks of row numbers: per
    # value, the rows whose cell holds it; per column and value, the rows
    # with that value there
    _rows: Mapping[str, tuple[list[int], list[list[int]]]] = \
        field(init=False, compare=False, repr=False)
    _total: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        values = tuple(self.values)
        if len(set(values)) != len(values) or not values:
            raise SemanticsError("values must be non-empty and distinct")
        index = {v: i for i, v in enumerate(values)}
        interp: dict[str, dict[tuple[str, ...], frozenset[str]]] = {}
        tables: dict[str, dict[tuple[int, ...], tuple[int, ...]]] = {}
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
            interp[conn], tables[conn] = {}, {}
            holds = [0] * len(values)
            cols = [[0] * len(values) for _ in range(arity)]
            for row, (ik, (args, out)) in enumerate(sorted(rows.items())):
                interp[conn][args] = out
                tables[conn][ik] = tuple(i for i, v in enumerate(values)
                                         if v in out)
                for w in tables[conn][ik]:
                    holds[w] |= 1 << row
                for col, v in zip(cols, ik):
                    col[v] |= 1 << row
            rows_of[conn] = holds, cols
        extra = set(self.interpretation) - set(self.signature.connectives)
        if extra:
            raise SemanticsError(f"interpretation for undeclared {sorted(extra)}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "interpretation", interp)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "_rows", rows_of)
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
    return tuple(sorted(fs, key=str))


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
    for a variable, (conn, arg_positions) otherwise."""
    seq = subformula_sequence(fs)
    doms = [f for f in seq if isinstance(f, Var)] + \
           [f for f in seq if not isinstance(f, Var)]
    pos = {f: i for i, f in enumerate(doms)}
    plan: list[tuple] = []
    conns = alg.signature.connectives
    for f in doms:
        if isinstance(f, Var):
            plan.append((None, f.name))
        else:
            if f.conn not in conns:
                raise SemanticsError(f"connective {f.conn!r} not interpreted")
            if conns[f.conn] != len(f.args):
                raise SemanticsError(f"arity mismatch for {f.conn!r} in {f}")
            plan.append((f.conn, tuple(pos[a] for a in f.args)))
    return tuple(doms), pos, plan


def _valuations(alg: NdAlgebra, plan: list[tuple],
                allowed: Mapping[int, Container[int]], pushes: int = -1,
                ) -> Iterator[list[int] | bool]:
    """Yield, as a reused list of value indices, every coherent assignment
    that keeps each position of ``allowed`` in its set, in declared value
    order with earlier positions varying slowest.  Sets are checked as
    positions are assigned; candidates wait on a stack, not in recursion.
    With ``pushes`` >= 0, it yields False and stops where it would push
    more positions than that."""
    vals = [0] * len(plan)
    tables = alg._tables
    every = range(len(alg.values))

    def candidates(i: int) -> Iterable[int]:
        conn, info = plan[i]
        out = every if conn is None else \
            tables[conn][tuple(map(vals.__getitem__, info))]
        return filter(allowed[i].__contains__, out) if i in allowed else out

    last = len(plan) - 1
    if last < 0:
        yield vals
        return
    stack = [iter(candidates(0))]
    while stack:
        i = len(stack) - 1
        for v in stack[i]:
            vals[i] = v
            if i < last:
                if not pushes:
                    yield False
                    return
                pushes -= 1
                stack.append(iter(candidates(i + 1)))
                break
            yield vals
        else:
            stack.pop()


class _Arcs:
    """Generalised arc consistency over a plan's cells, undone by a trail.

    ``dom`` holds each position's values as a bit mask, from ``allowed``.
    Each compound's cell, v(i) in conn(v(a1), ..., v(ak)), is one
    constraint on i and its distinct arguments, read off the algebra's
    ``_rows``; a repeated argument's columns must agree, so a revision is
    exact.  Every shrunk domain goes on ``trail`` as (position, old mask)."""

    def __init__(self, alg: NdAlgebra, plan: list[tuple],
                 allowed: Mapping[int, Container[int]]):
        nv = len(alg.values)
        self.bits = [_bits(m) for m in range(1 << nv)]
        self.dom = [sum(1 << v for v in range(nv) if v in allowed[i])
                    if i in allowed else (1 << nv) - 1
                    for i in range(len(plan))]
        self.trail: list[tuple[int, int]] = []
        self.cons: list[tuple | None] = []  # (distinct args, columns, holds)
        self.watch: list[list[int]] = [[] for _ in plan]  # constraints on i
        for i, (conn, args) in enumerate(plan):
            if conn is None:
                self.cons.append(None)
                continue
            holds, cols = alg._rows[conn]
            scope = tuple(dict.fromkeys(args))
            if len(scope) < len(args):
                cols = [[reduce(and_, rows) for rows in zip(*(
                    col for col, a in zip(cols, args) if a == x))]
                    for x in scope]
            self.cons.append((scope, cols, holds))
            for x in (i, *scope):
                self.watch[x].append(i)

    def narrow(self, todo: list[int]) -> bool:
        """Revise the constraints ``todo`` (a list it empties), and those
        on any domain that shrinks, until none shrinks (AC-3); False once
        one empties.  A revision keeps the values of the rows within the
        argument domains whose cell meets the compound's domain, so it
        removes no value of a coherent valuation within the domains."""
        dom, trail, cons, watch, bits = \
            self.dom, self.trail, self.cons, self.watch, self.bits
        queued = set(todo)
        while todo:
            i = todo.pop()
            queued.discard(i)
            scope, cols, holds = cons[i]
            rows = -1
            for a, col in zip(scope, cols):
                within = 0
                for v in bits[dom[a]]:
                    within |= col[v]
                rows &= within
            out = met = 0
            for w in bits[dom[i]]:
                if rows & holds[w]:
                    out |= 1 << w
                    met |= rows & holds[w]
            if not out:
                return False
            shrunk = [(i, out)]
            if met != rows:  # some argument value may have lost its rows
                shrunk += [(a, sum(1 << v for v in bits[dom[a]]
                                   if met & col[v]))
                           for a, col in zip(scope, cols)]
            for x, mask in shrunk:
                if dom[x] & ~mask:
                    trail.append((x, dom[x]))
                    dom[x] &= mask
                    for c in watch[x]:
                        if c not in queued and c != i:
                            queued.add(c)
                            todo.append(c)
        return True

    def root(self) -> bool:
        """Narrow from every constraint; False if a domain is or becomes
        empty."""
        return all(self.dom) and \
            self.narrow([i for i, c in enumerate(self.cons) if c])

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


def _mac_search(alg: NdAlgebra, plan: list[tuple],
                allowed: Mapping[int, Container[int]]) -> list[int] | None:
    """The first assignment ``_valuations`` yields within ``allowed``, or
    None, by maintaining arc consistency (MAC).  Positions go in plan
    order, each taking the lowest value left in its domain; a value that
    fails is taken out, and the search backtracks from an empty domain.
    Domains are narrowed at the root and after each step, which removes
    only values of no coherent valuation within them: so the search meets
    the same valuations in the same order."""
    arcs = _Arcs(alg, plan, allowed)
    if not arcs.root():
        return None
    dom, marks = arcs.dom, []  # the trail's length before each assignment
    while len(marks) < len(plan):
        i = len(marks)
        marks.append(len(arcs.trail))
        if not arcs.fix(i, dom[i] & -dom[i]):
            while True:
                i = len(marks) - 1
                arcs.undo(marks.pop())
                if arcs.fix(i, dom[i] & (dom[i] - 1)):
                    break
                if not marks:
                    return None
    return [d.bit_length() - 1 for d in dom]


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
    first-occurrence order) are fixed to ``inputs``."""
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
    pins = {pos[Var(v)]: (index[x],) for v, x in zip(vs, inputs)}
    out = {vals[-1] for vals in _valuations(alg, plan, pins)}
    return frozenset(alg.values[i] for i in out)


# ---------------------------------------------------------------------------
# entailment

# Positions the plain search pushes beyond the closure's size before
# _entails switches to the MAC search; a search that never backtracks
# pushes fewer than the closure's size.  64 buys the median, which most
# operations pay, at some cost in the tail.  On the benchmark's check-mix
# inputs, seed 1, 5,000 operations in-process, medians of ten runs on a
# 2-core VM, budgets 0, 16 and 64 read p50 0.158, 0.156 and 0.149 ms,
# p99.9 0.55, 0.57 and 0.69 ms, and 5,815, 5,731 and 5,561 ops/s.  An
# earlier six-run set put 256 at p50 0.149 ms against 0.139 at 64, p99.9
# 0.88 ms; the plain search alone had a p99.9 of 18.1 ms.
_PLAIN_PUSHES = 64


def _entails(alg: NdAlgebra, des: Iterable[str], anti: Iterable[str],
             *sides: Iterable[Formula]) -> Verdict:
    """The one entailment search over the ``sides`` acc, nacc, rej and
    nrej (trailing ones optional): valid iff no coherent valuation puts acc
    inside ``des``, nacc outside it, rej inside ``anti`` and nrej outside
    it.  Those sets, intersected for a formula on several sides, are each
    position's allowed values.  The search runs in two phases in one
    order, so the first countermodel is the same either way.  The plain
    ``_valuations`` checks the sets as it assigns; a cut branch holds no
    countermodel, so its first yield is the first countermodel.  If it has
    not answered after ``_PLAIN_PUSHES`` positions pushed beyond the
    closure's size, ``_mac_search`` starts over, keeping arc consistency
    after every assignment and undoing it by a trail.  The closure is built
    from each side sorted, in turn."""
    _require_total(alg)
    d, a = (frozenset(map(alg._index.__getitem__, x)) for x in (des, anti))
    every = frozenset(range(len(alg.values)))
    oks = (d, every - d, a, every - a)
    fs = [(f, ok) for side, ok in zip(sides, oks) for f in _sorted(side)]
    doms, pos, plan = _compile(alg, [f for f, _ in fs])
    allowed: dict[int, frozenset[int]] = {}
    for f, ok in fs:
        allowed[pos[f]] = allowed.get(pos[f], ok) & ok
    vals = next(_valuations(alg, plan, allowed, len(plan) + _PLAIN_PUSHES),
                None)
    if vals is False:
        vals = _mac_search(alg, plan, allowed)
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


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


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
    its arguments take together at each value of p, as masks of row codes
    (digits in base |values|, the first column lowest).  Each node keeps
    the mask of the compounds in its closure that can take several values
    at some value of p; an argument tuple's shared set S is the union of
    the pairwise intersections of those masks.  Closures are
    subformula-closed and every other shared node has one value at each
    value of p, so coherent valuations of the arguments' closures combine
    iff they agree on S.  The relation is thus the join on S of the
    arguments' profiles: the pairs (values of S as one code, value of the
    argument), read off the joint relation of S and the argument, or the
    vector if S is empty.  A level is kept as nodes when more formulas fit
    the budget, because they are the next level's arguments; the last level
    built keeps only the first node of each new vector.  The algebra must
    be total, which ``_simulation`` relies on too."""

    def __init__(self, alg: NdAlgebra, max_depth: int,
                 max_formulas: int = 10 ** 6):
        _require_total(alg)
        self.alg = alg
        if max_formulas < 1:
            raise SemanticsError("max_formulas must be >= 1")
        self.nv = nv = len(alg.values)
        self.cells = {c: {sum(v * nv ** i for i, v in enumerate(args)):
                          sum(1 << w for w in out) for args, out in t.items()}
                      for c, t in alg._tables.items()}  # by row code
        self.cells[None] = {v: 1 << v for v in range(nv)}  # copies a column
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
            at = tuple(range(len(ids)))
            vec = self.by_relation[conn, rel] = tuple(
                1 << x if conn is None
                else self.expansions[rows, len(at), (), at, conn]
                for x, rows in enumerate(self.relations[rel]))
        got = _intern(self.vectors, self.vector_ids, vec)
        if got == len(self.firsts):
            self.firsts.append((conn, ids))
        return got

    def formula(self, node: tuple[str | None, tuple[int, ...]]) -> Formula:
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
    R-partner in the right cell, until none is lost.  So x R y proves
    ⟨x,y⟩ inseparable: bottom-up, a coherent valuation with p = x has a
    partner with p = y, R-related at each formula, and each value of x's
    non-empty set has one of its membership in y's.  R is sound, not
    greatest; it is the identity unless its work bound, the candidates
    times Σ |R|^arity, is below the ``total`` formulas of a whole scan."""
    nv = len(alg.values)
    rel = [sum(1 << y for y in range(nv)
               if all(d >> x & 1 == d >> y & 1 for d in dist))
           for x in range(nv)]
    size = sum(map(int.bit_count, rel))
    arities = [k for k in alg.signature.connectives.values() if k]
    if (size - nv) * sum(size ** k for k in arities) >= total:
        return [1 << x for x in range(nv)]
    conns = sorted(({xs: sum(1 << w for w in out) for xs, out in t.items()}
                    for t in alg._tables.values() if next(iter(t))),
                   key=len)
    at = clean = 0  # the connective checked next; clean checks in a row
    while clean < len(conns):
        cells, rows, drop = conns[at], list(map(_bits, rel)), [0] * nv
        partners = {m: sum(1 << z for z in range(nv) if rel[z] & m)
                    for m in set(cells.values())}
        for xs, out in cells.items():
            for ys in product(*map(rows.__getitem__, xs)):
                if out & ~partners[cells[ys]]:
                    for x, y in zip(xs, ys):
                        drop[x] |= (x != y) << y
        if any(drop):
            rel, clean = [r & ~d for r, d in zip(rel, drop)], 0
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
