"""Propositional language layer: signatures, formulas, parsing and printing,
substitutions, plain and generalized subformulas, bounded unary enumeration.

Formulas are a free term algebra: a formula is a variable or a connective
applied to the declared number of arguments.  Any identifier not declared in
the signature at hand is a variable.  The canonical concrete syntax is prefix
application ``name(arg, ...)``; infix sugar exists only for connectives given
a notation alias, and always with mandatory parentheses.  ``parse_formula``
is the whole parser: one loop over the token list with an explicit stack of
open applications and infix groups, so nesting depth is not limited by
recursion.  Formulas are interned (hash-consed): one live object per
structure, so equal formulas are the same object and compare by identity.
The intern table is a plain dict of weak references, each removing its
entry when its formula dies, so a lookup and an insertion run in C.
``gen_subformulas`` builds the generalized subformulas in one bottom-up
pass, which also lists their subformula closure for a proof fence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from itertools import product
from typing import Iterable, Iterator, Mapping
from weakref import ref

from .errors import LanguageError, ParseError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INFIX_TOKEN_RE = re.compile(r"[^\w\s(),]+\Z")


class Formula:
    """Base class; concrete formulas are Var or App.  Formulas are
    hash-consed: the constructors return the one live object for their
    structure, so syntactic equality is identity, and a formula hashes by
    identity too.  The table holding them maps a structure to a weak
    reference, so a formula nothing else refers to goes away, and the
    reference's callback then drops the entry.  A copy of a formula is
    itself."""

    __slots__ = ("__weakref__",)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


# the live formulas, as weak references: a variable under its name, an
# application under ``(conn, args)``
_interned: dict[object, ref] = {}


def _forget(table: dict, key, dead: ref) -> None:
    """Drop ``table[key]`` if it is still ``dead``, whose formula died.
    ``table`` is bound in: at exit the module's globals may be gone."""
    if table.get(key) is dead:
        del table[key]


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Var(Formula):
    """A propositional variable."""

    name: str

    def __new__(cls, name: str):
        entry = _interned.get(name)
        self = entry and entry()
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            _interned[name] = ref(self, partial(_forget, _interned, name))
        return self

    def __reduce__(self):
        # rebuild via the constructor, so that unpickling re-interns
        return Var, (self.name,)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True, slots=True, eq=False, init=False)
class App(Formula):
    """A connective applied to arguments."""

    conn: str
    args: tuple[Formula, ...]

    def __new__(cls, conn: str, args: tuple[Formula, ...] = ()):
        key = (conn, args)
        entry = _interned.get(key)
        self = entry and entry()
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "conn", conn)
            object.__setattr__(self, "args", args)
            _interned[key] = ref(self, partial(_forget, _interned, key))
        return self

    def __reduce__(self):
        # a flat node list, so that deep formulas pickle without recursion
        seq = subformula_sequence([self])
        at = {g: i for i, g in enumerate(seq)}
        return _rebuild, (tuple(g.name if g.__class__ is Var else
                                (g.conn, tuple(at[a] for a in g.args))
                                for g in seq),)

    def __str__(self) -> str:
        return _print(self, False)

    def __repr__(self) -> str:
        return _print(self, True)


def _rebuild(nodes: tuple) -> Formula:
    """The formula of ``App.__reduce__``'s node list, in which a variable
    is its name and an application is (conn, indices of its arguments in
    the list), each after its arguments; built through the constructors,
    so the result is the interned object."""
    built: list[Formula] = []
    for n in nodes:
        built.append(Var(n) if n.__class__ is str else
                     App(n[0], tuple(built[i] for i in n[1])))
    return built[-1]


def _print(f: Formula, as_repr: bool) -> str:
    """The printed form of ``f``, or its repr, built on an explicit stack
    so that deep formulas print without recursion: the stack holds
    formulas still to print and punctuation."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        g = stack.pop()
        if g.__class__ is str:
            out.append(g)
        elif g.__class__ is Var:
            out.append(repr(g) if as_repr else g.name)
        elif not (g.args or as_repr):
            out.append(g.conn)
        else:
            if as_repr:
                head, sep = f"App({g.conn!r}, (", ", "
                stack.append(",))" if len(g.args) == 1 else "))")
            else:
                head, sep = g.conn + "(", ","
                stack.append(")")
            for a in reversed(g.args):
                stack += (a, sep)
            if g.args:
                stack.pop()
            stack.append(head)
    return "".join(out)


@dataclass(frozen=True)
class Signature:
    """Finite family of connective names with arities.

    ``notation`` maps a connective name to an infix alias (binary only),
    e.g. ``{"imp": "->"}`` lets the parser read ``(p -> q)``.
    """

    connectives: Mapping[str, int]
    notation: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        conns = dict(self.connectives)
        notation = dict(self.notation)
        for name, arity in conns.items():
            if not isinstance(name, str) or not _IDENT_RE.fullmatch(name):
                raise LanguageError(f"bad connective name: {name!r}")
            if type(arity) is not int or arity < 0:
                raise LanguageError(f"bad arity for {name!r}: {arity!r}")
        seen_aliases: dict[str, str] = {}
        for name, alias in notation.items():
            if name not in conns:
                raise LanguageError(f"notation for undeclared connective {name!r}")
            if conns[name] != 2:
                raise LanguageError(f"infix notation requires arity 2: {name!r}")
            if not isinstance(alias, str) or not _INFIX_TOKEN_RE.fullmatch(alias):
                raise LanguageError(f"bad infix alias for {name!r}: {alias!r}")
            if alias in seen_aliases:
                raise LanguageError(f"alias {alias!r} used by both "
                                    f"{seen_aliases[alias]!r} and {name!r}")
            seen_aliases[alias] = name
        object.__setattr__(self, "connectives", conns)
        object.__setattr__(self, "notation", notation)

    def infix_aliases(self) -> dict[str, str]:
        """alias -> connective name."""
        return {alias: name for name, alias in self.notation.items()}


# ---------------------------------------------------------------------------
# parsing / printing

def _tokenize(text: str, infix_tokens: list[str]) -> list[tuple[str, str, int]]:
    """The tokens of ``text`` as ``(kind, text, position)``, ending with
    ``("eof", "", len(text))``.  The kind is ``"ident"``, ``"infix"`` or
    the punctuation character itself."""
    toks = []
    i, n = 0, len(text)
    # longest-match-first so "->" wins over a hypothetical "-"
    infix_tokens = sorted(infix_tokens, key=len, reverse=True)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            toks.append((ch, ch, i))
            i += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            toks.append(("ident", m.group(), i))
            i = m.end()
            continue
        for tok in infix_tokens:
            if text.startswith(tok, i):
                toks.append(("infix", tok, i))
                i += len(tok)
                break
        else:
            hint = "" if infix_tokens else \
                "; infix notation needs a signature that declares it"
            raise ParseError(f"unknown token {text[i]!r}{hint}", i)
    toks.append(("eof", "", n))
    return toks


def parse_formula(text: str, sig: Signature | None = None) -> Formula:
    """Parse ``text`` into a Formula.

    With a signature: applied identifiers must be declared with the right
    arity, bare declared nullary names become applications, and infix sugar
    from the signature's notation is accepted.  Without one (permissive
    mode): every applied identifier is a connective, every bare identifier
    is a variable, and no infix sugar is available.

    One loop over the token list does recursive descent on an explicit
    stack, so that nesting depth is not limited by recursion.  A frame is
    ``[name, at, args]`` for an open application of ``name`` at position
    ``at``, and ``[None, at, parts]`` for an open infix group, whose parts
    become left operand, operator and right operand.
    """
    arity = sig.connectives if sig is not None else {}
    infix = sig.infix_aliases() if sig is not None else {}
    toks = _tokenize(text, list(infix))
    i = 0
    stack: list[list] = []
    while True:
        kind, name, at = toks[i]
        i += 1
        if kind == "(":
            stack.append([None, at, []])
            continue
        if kind != "ident":
            raise ParseError(f"expected a formula, found {name!r}", at)
        if toks[i][0] == "(":
            i += 1
            stack.append([name, at, []])
            continue
        if name not in arity:
            done = Var(name)
        elif arity[name]:
            raise ParseError(f"connective {name!r} used without arguments", at)
        else:
            done = App(name, ())
        # hand the finished formula to the open frames
        while stack:
            name, at, args = stack[-1]
            args.append(done)
            kind, tok, at2 = toks[i]
            i += 1
            if name is None and len(args) == 1:
                if kind != "infix":
                    raise ParseError(
                        f"expected an infix operator, found {tok!r}", at2)
                args.append(tok)
                break
            if name is not None and kind == ",":
                break
            if kind != ")":
                raise ParseError(f"expected ')', found {tok!r}", at2)
            stack.pop()
            if name is None:
                done = App(infix[args[1]], (args[0], args[2]))
                continue
            if sig is not None:
                if name not in arity:
                    raise ParseError(f"unknown connective {name!r}", at)
                if arity[name] != len(args):
                    raise ParseError(f"connective {name!r} expects "
                                     f"{arity[name]} arguments, got {len(args)}",
                                     at)
            done = App(name, tuple(args))
        else:
            kind, tok, at = toks[i]
            if kind != "eof":
                raise ParseError(f"trailing input {tok!r}", at)
            return done


# ---------------------------------------------------------------------------
# structural operations

Substitution = Mapping[str, Formula]


def substitute(f: Formula, s: Substitution) -> Formula:
    """Simultaneously replace every variable occurrence; identity on
    variables absent from ``s``."""
    memo: dict[Formula, Formula] = {}
    for g in subformula_sequence((f,)):
        memo[g] = (s.get(g.name, g) if isinstance(g, Var) else
                   App(g.conn, tuple(map(memo.__getitem__, g.args))))
    return memo[f]


def variables(f: Formula) -> tuple[str, ...]:
    """Distinct variable names in first-occurrence (leftmost) order."""
    return tuple(g.name for g in subformula_sequence((f,))
                 if g.__class__ is Var)


def subformulas(f: Formula) -> frozenset[Formula]:
    """All subformulas of ``f``, including ``f`` itself."""
    return frozenset(subformula_sequence([f]))


def subformula_sequence(fs: Iterable[Formula]) -> tuple[Formula, ...]:
    """Subformulas of all of ``fs``, duplicate-free, in post order of first
    occurrence: every formula appears after all of its parts."""
    out: list[Formula] = []
    seen: set[Formula] = set()
    for f in fs:
        stack = [(f, False)]
        while stack:
            g, parts_done = stack.pop()
            if g in seen:
                continue
            if parts_done or isinstance(g, Var) or not g.args:
                seen.add(g)
                out.append(g)
            else:
                stack.append((g, True))
                stack += ((a, False) for a in reversed(g.args))
    return tuple(out)


def depth(f: Formula) -> int:
    """Connective-nesting depth: 0 for variables."""
    n, level = 0, [f]
    while any(isinstance(g, App) for g in level):
        n += 1
        level = [a for g in level if isinstance(g, App) for a in g.args]
    return n


def size(f: Formula) -> int:
    """Node count."""
    n, stack = 0, [f]
    while stack:
        n += 1
        g = stack.pop()
        if isinstance(g, App):
            stack += g.args
    return n


# ---------------------------------------------------------------------------
# theta sets and generalized subformulas

P = Var("p")


def theta_set(formulas: Iterable[Formula]) -> frozenset[Formula]:
    """Validate and canonicalize a set of unary formulas.

    Every member must use at most one distinct variable (renamed to ``p``),
    and the bare variable ``p`` must be in the set.
    """
    out = set()
    for f in formulas:
        vs = variables(f)
        if len(vs) > 1:
            raise LanguageError(f"theta member {f} uses more than one variable")
        if len(vs) == 1 and vs[0] != "p":
            f = substitute(f, {vs[0]: P})
        out.add(f)
    if P not in out:
        raise LanguageError("theta must contain the bare variable p")
    return frozenset(out)


def gen_subformulas(theta: Iterable[Formula],
                    fs: Iterable[Formula]) -> frozenset[Formula]:
    """Generalized subformulas: every theta member instantiated at every
    plain subformula of every formula in ``fs``.  With theta = {p} this is
    exactly the plain subformula set."""
    return frozenset(_gen_closure(theta, fs)[0])


def _gen_closure(theta: Iterable[Formula], fs: Iterable[Formula],
                 ) -> tuple[list[Formula], list[Formula]]:
    """The generalized subformulas of ``gen_subformulas`` in the order
    first built, and their closure under taking subformulas, without
    repeats, each formula after its arguments.  One bottom-up pass: a
    theta member is instantiated at a plain subformula g by replacing its
    first variable with g along the member's own subformula sequence, so
    the closure is the plain subformulas and every formula built."""
    subs = subformula_sequence(fs)
    closure = dict.fromkeys(subs)
    out: dict[Formula, None] = {}
    for th in theta:
        seq = subformula_sequence((th,))
        v = next((h for h in seq if h.__class__ is Var), None)
        # a ground member is its own one instance
        for g in subs if v is not None else (th,):
            image = {v: g}
            for h in seq:
                if h not in image:
                    f = image[h] = h if h.__class__ is Var else App(
                        h.conn, tuple(map(image.__getitem__, h.args)))
                    closure.setdefault(f)
            out.setdefault(image[th])
    return list(out), list(closure)


def _pool_levels(sig: Signature, max_depth: int,
                 ) -> Iterator[tuple[int, int, list[tuple[str | None, int]],
                                     int]]:
    """The pool of enumerate_unary_formulas level by level, as
    ``(first, below, conns, size)`` for each depth d from 0 to max_depth.
    An id is a pool position; ids grow with depth, so the ids below
    ``below`` are the formulas of depth < d and those from ``first`` on
    have depth d - 1.  Level d holds, for each connective ``(name,
    arity)`` of ``conns`` in turn, one node per argument tuple of
    ``_arg_tuples``: ``size`` nodes in all, known before any is made.
    Level 0 is ``p`` alone, as the connective None; then connectives come
    by name, constants only at depth 1.  An empty level past depth 0 has
    no arguments for the next, so every later level is empty too: the
    levels stop before it."""
    if max_depth < 0:
        raise LanguageError("max_depth must be >= 0")
    yield 0, 0, [(None, 0)], 1
    arity = sig.connectives
    first, below = 0, 1
    for d in range(1, max_depth + 1):
        conns = [(name, arity[name]) for name in sorted(arity)
                 if arity[name] or d == 1]
        size = sum(below ** k - first ** k if k else 1 for _, k in conns)
        if not size:
            return
        yield first, below, conns, size
        first, below = below, below + size


def _arg_tuples(k: int, first: int, below: int) -> Iterator[tuple[int, ...]]:
    """The argument id tuples of arity k at the level whose arguments are
    the ids below ``below``, at least one of them from ``first`` on, in
    enumeration order; a constant's is ``()``."""
    return (ids for ids in product(range(below), repeat=k)
            if not ids or max(ids) >= first)


def enumerate_unary_formulas(sig: Signature, max_depth: int) -> list[Formula]:
    """All formulas over the single variable ``p`` of depth <= max_depth,
    duplicate-free, depth-major, then lexicographic by connective name,
    then by argument tuple in enumeration order."""
    pool: list[Formula] = []
    for first, below, conns, _ in _pool_levels(sig, max_depth):
        for name, k in conns:
            pool += (P if name is None else
                     App(name, tuple(pool[i] for i in ids))
                     for ids in _arg_tuples(k, first, below))
    return pool
