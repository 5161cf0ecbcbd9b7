"""Bundled logics and verification battery.

This module ships the package's reference artifacts: a five-valued
non-deterministic matrix for a logic of formal inconsistency, its
rejection-flavoured twin and their two-dimensional product; the matching
28-rule two-dimensional calculus with three worked derivations; a family
of deterministic matrices of growing size approximating the same logic
from below; Hilbert-style axiom systems over positive classical logic;
and two small didactic systems built on a three-valued algebra.  All
interpretation tables are embedded as data and re-checked at
construction time.  verify_paper_suite runs the whole battery and
reports one pass/fail line per item.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .calculi import (STAR, Calculus, Label, Node, Proved, RuleSchema,
                      check_proof, prove)
from .errors import LogicsError
from .language import App, Formula, Signature, Var, parse_formula
from .semantics import (BMatrix, BStatement, NdAlgebra, NdMatrix, Statement1D,
                        b_entails, b_product, entails_1d,
                        expressiveness_report, separator_for_pair,
                        strong_hom_report, validate_rule)

P = Var("p")
Q = Var("q")

SIGMA_MCI = Signature({"neg": 1, "cons": 1, "and": 2, "or": 2, "imp": 2},
                      {"and": "&", "or": "|", "imp": "->"})


def _f(text: str) -> Formula:
    return parse_formula(text, SIGMA_MCI)


# ---------------------------------------------------------------------------
# the five-valued matrices

MCI_VALUES = ("f", "F", "I", "T", "t")
MCI_DESIGNATED = frozenset({"I", "T", "t"})
MCI_ANTIDESIGNATED = frozenset({"f", "I", "T"})

# golden unary tables, written out cell by cell
_MCI_NEG = {("f",): {"I", "t"}, ("F",): {"T"}, ("I",): {"I", "t"},
            ("T",): {"F"}, ("t",): {"f"}}
_MCI_CONS = {("f",): {"T"}, ("F",): {"T"}, ("I",): {"F"},
             ("T",): {"T"}, ("t",): {"T"}}


def _positive(values, designated, high, low) -> dict:
    """The and/or/imp tables of a positive fragment: ``high`` where the
    classical connective holds of membership in ``designated``, else
    ``low``."""
    ops = {"and": lambda a, b: a and b, "or": lambda a, b: a or b,
           "imp": lambda a, b: not a or b}
    return {conn: {(x, y): high if op(x in designated, y in designated)
                   else low for x in values for y in values}
            for conn, op in ops.items()}


# ---------------------------------------------------------------------------
# the 28-rule two-dimensional calculus
#
# schema table, one row per rule: (name, acc, nrej, rej, nacc); the acc and
# rej columns are the antecedent pair, nacc and nrej the succedent pair

_HMCI2D_TABLE = (
    ("imp1", ("q",), (), (), ("imp(p,q)",)),
    ("imp2", (), (), (), ("p", "imp(p,q)")),
    ("imp3", ("imp(p,q)", "p"), (), (), ("q",)),
    ("imp4", ("p",), ("imp(p,q)",), (), ("q",)),
    ("imp5", ("imp(p,q)", "cons(imp(p,q))"), (), ("imp(p,q)",), ()),
    ("and1", ("p", "q"), (), (), ("and(p,q)",)),
    ("and2", ("and(p,q)",), (), (), ("p",)),
    ("and3", ("and(p,q)",), (), (), ("q",)),
    ("and4", (), ("and(p,q)",), (), ("and(p,q)",)),
    ("and5", ("and(p,q)", "cons(and(p,q))"), (), ("and(p,q)",), ()),
    ("or1", ("p",), (), (), ("or(p,q)",)),
    ("or2", ("q",), (), (), ("or(p,q)",)),
    ("or3", ("or(p,q)",), (), (), ("p", "q")),
    ("or4", (), ("or(p,q)",), (), ("p", "q")),
    ("or5", ("or(p,q)", "cons(or(p,q))"), (), ("or(p,q)",), ()),
    ("cons1", ("cons(p)",), ("cons(p)",), (), ()),
    ("cons2", (), (), (), ("cons(cons(p))",)),
    ("cons3", (), (), ("cons(p)",), ("cons(p)",)),
    ("cons4", (), ("p",), (), ("cons(p)",)),
    ("cons5", (), ("cons(p)",), (), ("p",)),
    ("neg1", (), ("neg(p)", "p"), (), ()),
    ("neg2", ("neg(p)", "cons(p)", "p"), (), (), ()),
    ("neg3", ("neg(p)", "p"), ("p",), (), ()),
    ("neg4", ("cons(neg(p))",), (), ("neg(p)", "p"), ()),
    ("neg5", (), (), ("neg(p)", "p"), ("neg(p)",)),
    ("neg6", (), (), (), ("neg(p)", "cons(p)")),
    ("neg7", (), (), (), ("neg(p)", "p")),
    ("neg8", (), ("p",), (), ("cons(neg(p))",)),
)


def _hmci2d_rules() -> tuple[RuleSchema, ...]:
    return tuple(
        RuleSchema(name, 2,
                   acc=frozenset(_f(t) for t in acc),
                   nrej=frozenset(_f(t) for t in nrej),
                   rej=frozenset(_f(t) for t in rej),
                   nacc=frozenset(_f(t) for t in nacc))
        for name, acc, nrej, rej, nacc in _HMCI2D_TABLE)


@dataclass(frozen=True)
class MciArtifacts:
    """The bundled five-valued artifacts: signature, the two matrices,
    their product, and the 28-rule two-dimensional calculus."""

    sigma_mci: Signature
    m5: NdMatrix
    m5_rej: NdMatrix
    b5: BMatrix
    hmci2d: Calculus


@lru_cache(maxsize=1)
def mci_artifacts() -> MciArtifacts:
    alg = NdAlgebra(SIGMA_MCI, MCI_VALUES, {
        "neg": _MCI_NEG, "cons": _MCI_CONS,
        **_positive(MCI_VALUES, MCI_DESIGNATED, {"I", "t"}, {"f"}),
    })
    # construction self-check: spot facts that pin each table's shape
    checks = [
        alg.interpretation["neg"][("f",)] == {"I", "t"},
        alg.interpretation["neg"][("T",)] == {"F"},
        alg.interpretation["cons"][("I",)] == {"F"},
        alg.interpretation["cons"][("t",)] == {"T"},
        alg.interpretation["and"][("T", "t")] == {"I", "t"},
        alg.interpretation["and"][("T", "F")] == {"f"},
        alg.interpretation["or"][("f", "F")] == {"f"},
        alg.interpretation["or"][("f", "T")] == {"I", "t"},
        alg.interpretation["imp"][("F", "f")] == {"I", "t"},
        alg.interpretation["imp"][("t", "F")] == {"f"},
    ]
    if not all(checks):
        raise LogicsError("five-valued algebra failed its construction check")
    m5 = NdMatrix(alg, MCI_DESIGNATED)
    m5_rej = NdMatrix(alg, MCI_ANTIDESIGNATED)
    b5 = b_product(m5, m5_rej)
    rules = _hmci2d_rules()
    if len(rules) != 28:
        raise LogicsError("two-dimensional calculus must have 28 rules")
    hmci2d = Calculus("hmci2d", 2, rules, theta=(P, _f("cons(p)")))
    return MciArtifacts(SIGMA_MCI, m5, m5_rej, b5, hmci2d)


def mci_worked_derivations() -> tuple[tuple[BStatement, Node], ...]:
    """Three hand-transcribed derivations in the 28-rule calculus: the
    mutual derivability of "not consistent" and "glut", and the theorem
    that negated consistency is itself consistent.  Each tree re-checks
    under check_proof against its statement."""
    a = _f("and(p,neg(p))")
    np_, cp = _f("neg(p)"), _f("cons(p)")
    ncp, ccp = _f("neg(cons(p))"), _f("cons(cons(p))")
    cncp = _f("cons(neg(cons(p)))")
    sp = (("p", P),)
    scp = (("p", cp),)
    spq = (("p", P), ("q", np_))

    t1 = Node(Label({a}), "and2", spq, (
        Node(Label({a, P}), "and3", spq, (
            Node(Label({a, P, np_}), "neg7", scp, (
                Node(Label({a, P, np_, ncp})),
                Node(Label({a, P, np_, cp}), "neg2", sp, (Node(STAR),)),
            )),
        )),
    ))
    s1 = BStatement(acc={a}, nacc={ncp})

    t2 = Node(Label({ncp}), "neg6", sp, (
        Node(Label({ncp, np_}), "cons5", sp, (
            Node(Label({ncp, np_, P}), "and1", spq, (
                Node(Label({ncp, np_, P, a})),
            )),
            Node(Label({ncp, np_}, {cp}), "cons3", sp, (
                Node(Label({ncp, np_, cp}, {cp}), "cons2", sp, (
                    Node(Label({ncp, np_, cp, ccp}, {cp}), "neg2", scp,
                         (Node(STAR),)),
                )),
            )),
        )),
        Node(Label({ncp, cp}), "cons2", sp, (
            Node(Label({ncp, cp, ccp}), "neg2", scp, (Node(STAR),)),
        )),
    ))
    s2 = BStatement(acc={ncp}, nacc={a})

    t3 = Node(Label(), "cons4", (("p", ncp),), (
        Node(Label({cncp})),
        Node(Label(rej={ncp}), "neg8", scp, (
            Node(Label({cncp}, {ncp})),
            Node(Label(rej={ncp, cp}), "neg5", scp, (
                Node(Label({ncp}, {ncp, cp}), "cons3", sp, (
                    Node(Label({ncp, cp}, {ncp, cp}), "cons2", sp, (
                        Node(Label({ncp, cp, ccp}, {ncp, cp}), "neg2", scp,
                             (Node(STAR),)),
                    )),
                )),
            )),
        )),
    ))
    s3 = BStatement(nacc={cncp})

    return ((s1, t1), (s2, t2), (s3, t3))


# ---------------------------------------------------------------------------
# the growing family of deterministic matrices


@dataclass(frozen=True)
class MkMatrix:
    """Deterministic matrix with 2(k+1) values; the upper half is
    designated.  Values are rendered as decimal strings."""

    k: int
    matrix: NdMatrix

    @property
    def successor(self) -> int:
        return self.k + 1


def mk_matrix(k: int) -> MkMatrix:
    """The k-th member of the family; k must be at least 1.

    With s = k+1 and values 1..2s: conjunction yields s+1 when both
    arguments are designated and 1 otherwise; disjunction yields s+1 when
    either is; implication yields 1 exactly when the first argument is
    designated and the second is not; the consistency operator sends 2s
    to 1 and everything else to s+1; negation sends 1 and 2s to s+1,
    shifts 2..s up by s, and shifts s+1..2s-1 down by s-1.
    """
    if k < 1:
        raise LogicsError(f"family index must be >= 1, got {k}")
    s = k + 1
    top = 2 * s
    values = tuple(str(v) for v in range(1, top + 1))
    des = frozenset(str(v) for v in range(s + 1, top + 1))

    def neg(x: int) -> int:
        if x == 1 or x == top:
            return s + 1
        if 2 <= x <= s:
            return x + s
        return x - (s - 1)

    interp = {
        "neg": {(str(x),): {str(neg(x))} for x in range(1, top + 1)},
        "cons": {(str(x),): {"1" if x == top else str(s + 1)}
                 for x in range(1, top + 1)},
        **_positive(values, des, {str(s + 1)}, {"1"}),
    }
    return MkMatrix(k, NdMatrix(NdAlgebra(SIGMA_MCI, values, interp), des))


def iterated_neg(k: int, m: int) -> int:
    """Value of m-fold negation applied to s+1 in the k-th family member,
    computed by table iteration and cross-checked against the closed form
    (s+1)+m/2 for even m and 1+(m+1)/2 for odd m."""
    if not 1 <= m <= 2 * k:
        raise LogicsError(f"iteration count must be in 1..{2 * k}, got {m}")
    alg = mk_matrix(k).matrix.algebra
    s = k + 1
    value = str(s + 1)
    for _ in range(m):
        (value,) = alg.interpretation["neg"][(value,)]
    got = int(value)
    closed = (s + 1) + m // 2 if m % 2 == 0 else 1 + (m + 1) // 2
    if got != closed:
        raise LogicsError(
            f"negation iteration disagrees with closed form at k={k}, m={m}: "
            f"{got} vs {closed}")
    return got


def two_valued_positive_matrix() -> NdMatrix:
    """Classical two-valued matrix for the binary fragment."""
    sig = Signature({"and": 2, "or": 2, "imp": 2})
    interp = _positive(("0", "1"), {"1"}, {"1"}, {"0"})
    return NdMatrix(NdAlgebra(sig, ("0", "1"), interp), frozenset({"1"}))


def mk_boolean_collapse(k: int) -> dict[str, str]:
    """The halving map onto the two-valued matrix: lower half to 0, upper
    half to 1.  A strong homomorphism on the binary fragment."""
    s = k + 1
    return {str(v): "0" if v <= s else "1" for v in range(1, 2 * s + 1)}


# ---------------------------------------------------------------------------
# Hilbert-style axiom systems

_CPL_POS_AXIOMS = (
    ("a1", "(p -> (q -> p))"),
    ("a2", "((p -> (q -> r)) -> ((p -> q) -> (p -> r)))"),
    ("a3", "(and(p,q) -> p)"),
    ("a4", "(and(p,q) -> q)"),
    ("a5", "(p -> (q -> and(p,q)))"),
    ("a6", "(p -> or(p,q))"),
    ("a7", "(q -> or(p,q))"),
    ("a8", "((p -> r) -> ((q -> r) -> (or(p,q) -> r)))"),
    ("a9", "(((p -> q) -> p) -> p)"),
)


def _axiom_rules(pairs: Iterable[tuple[str, str]]) -> list[RuleSchema]:
    return [RuleSchema(name, 1, nacc={_f(text)}) for name, text in pairs]


_MP = RuleSchema("mp", 1, acc={P, _f("imp(p,q)")}, nacc={Q})


def cpl_pos() -> Calculus:
    """Positive classical base: nine axiom schemas plus detachment."""
    return Calculus("cplpos", 1, tuple(_axiom_rules(_CPL_POS_AXIOMS)) + (_MP,))


def iter_neg_formula(j: int, core: Formula) -> Formula:
    """j-fold negation wrapped around a formula."""
    out = core
    for _ in range(j):
        out = App("neg", (out,))
    return out


@dataclass(frozen=True)
class HmciFamily:
    """Axiomatic system number k of the chain: the positive base plus
    excluded middle, controlled explosion, glut introduction, and the
    iterated-consistency schemas up to index k."""

    k: int
    calculus: Calculus


def hmci_axioms(k: int) -> HmciFamily:
    """The k-th axiomatic system; k must be at least 0.  Every axiom is a
    succedent-singleton schema and detachment is the only proper rule."""
    if k < 0:
        raise LogicsError(f"chain index must be >= 0, got {k}")
    rules = _axiom_rules(_CPL_POS_AXIOMS)
    rules.append(RuleSchema("lem", 1, nacc={_f("or(p,neg(p))")}))
    rules.append(RuleSchema("gexp", 1,
                            nacc={_f("(cons(p) -> (p -> (neg(p) -> q)))")}))
    rules.append(RuleSchema("glut", 1,
                            nacc={_f("(neg(cons(p)) -> and(p,neg(p)))")}))
    for j in range(k + 1):
        body = App("cons", (iter_neg_formula(j, App("cons", (P,))),))
        rules.append(RuleSchema(f"cons-iter{j}", 1, nacc={body}))
    rules.append(_MP)
    return HmciFamily(k, Calculus(f"hmci:{k}", 1, tuple(rules)))


# ---------------------------------------------------------------------------
# the three-valued didactic systems

SIGMA_GH = Signature({"g": 1, "h": 1})
GH_VALUES = ("t", "f", "bot")


def _g(text: str) -> Formula:
    return parse_formula(text, SIGMA_GH)


@lru_cache(maxsize=1)
def _gh_algebra() -> NdAlgebra:
    full = frozenset(GH_VALUES)
    return NdAlgebra(SIGMA_GH, GH_VALUES, {
        "g": {("t",): full, ("f",): full, ("bot",): {"t"}},
        "h": {("t",): full, ("f",): {"f"}, ("bot",): full},
    })


def example1() -> tuple[NdMatrix, Callable[[int], RuleSchema]]:
    """A three-valued matrix with a single designated value and the
    infinite schema family it validates: i-fold h around an atom entails
    the atom or its g-image.  No finite prefix of the family suffices,
    which is what the two-dimensional treatment in example2 repairs."""
    matrix = NdMatrix(_gh_algebra(), frozenset({"t"}))

    def generator(i: int) -> RuleSchema:
        if i < 0:
            raise LogicsError(f"schema index must be >= 0, got {i}")
        return RuleSchema(f"gen{i}", 1,
                          acc={_apply_h(i)},
                          nacc={P, _g("g(p)")})

    return matrix, generator


def _apply_h(i: int) -> Formula:
    out: Formula = P
    for _ in range(i):
        out = App("h", (out,))
    return out


def example1_rules(i: int) -> Calculus:
    """The one-dimensional calculus collecting the first schemas of the
    example1 family, indexes 0 through i."""
    _, gen = example1()
    return Calculus(f"ex1-rules:{i}", 1, tuple(gen(j) for j in range(i + 1)))


def example2() -> tuple[BMatrix, Calculus]:
    """The two-dimensional repair of example1: the same algebra with a
    designated and an antidesignated value, and a three-rule calculus
    that captures the infinite family at finite size."""
    b = BMatrix(_gh_algebra(), frozenset({"t"}), frozenset({"f"}))
    calc = Calculus("ex2-calc", 2, (
        RuleSchema("r1", 2, acc={P}, rej={P}),
        RuleSchema("r2", 2, nacc={_g("g(p)"), P}, nrej={P}),
        RuleSchema("r3", 2, rej={P}, nrej={_g("h(p)")}),
    ), theta=(P,))
    return b, calc


def example2_repair() -> dict[str, list[str]]:
    """Disambiguate which unary operator each succedent-bearing rule of
    example2 must use: try both candidates against the B-matrix and keep
    the semantically valid reading."""
    b, _ = example2()
    candidates = {
        "r2": lambda op: RuleSchema("r2", 2,
                                    nacc={App(op, (P,)), P}, nrej={P}),
        "r3": lambda op: RuleSchema("r3", 2,
                                    rej={P}, nrej={App(op, (P,))}),
    }
    return {name: [op for op in ("g", "h") if validate_rule(b, make(op)).valid]
            for name, make in candidates.items()}


# ---------------------------------------------------------------------------
# verification battery


@dataclass(frozen=True)
class SuiteItem:
    name: str
    ok: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class SuiteReport:
    items: tuple[SuiteItem, ...]
    passed: bool

    def lines(self, timings: bool = True) -> list[str]:
        out = []
        for it in self.items:
            status = "PASS" if it.ok else "FAIL"
            line = f"{status} {it.name}"
            if timings:
                line += f" ({it.seconds:.2f}s)"
            if not it.ok and it.detail:
                line += f": {it.detail}"
            out.append(line)
        n_ok = sum(1 for it in self.items if it.ok)
        out.append(f"{'OK' if self.passed else 'FAILED'}: "
                   f"{n_ok}/{len(self.items)} items passed")
        return out


def _proved(calc: Calculus, s: BStatement) -> bool:
    """Proof search finds a tree for ``s`` that check_proof accepts."""
    out = prove(calc, s, calc.theta, max_nodes=10 ** 4)
    return isinstance(out, Proved) and check_proof(calc, s, out.tree)


def _suite_items(arts: MciArtifacts, chain_k: int,
                 ) -> list[tuple[str, Callable[[], object], str]]:
    """Rows (name, check, detail): a check returns a falsy value when its
    item passes, else what failed, which goes into ``detail`` at ``{}``."""
    golden = mci_artifacts()
    p, q = P, Q
    neg_p, cons_p = _f("neg(p)"), _f("cons(p)")

    def hallmark_axioms():
        schemas = [_f("or(p,neg(p))"),
                   _f("(cons(p) -> (p -> (neg(p) -> q)))"),
                   _f("(neg(cons(p)) -> and(p,neg(p)))")]
        schemas += [App("cons", (iter_neg_formula(j, App("cons", (p,))),))
                    for j in range(5)]
        return [str(s) for s in schemas
                if not entails_1d(arts.m5, Statement1D(set(), {s})).valid]

    def disjunction_facts():
        disj = _f("or(p,q)")
        facts = [Statement1D({p}, {disj}), Statement1D({q}, {disj}),
                 Statement1D({disj}, {p, q})]
        return [i for i, s in enumerate(facts)
                if not entails_1d(arts.m5, s).valid]

    def rules_28_sound():
        bad = [r.name for r in arts.hmci2d.rules
               if not validate_rule(arts.b5, r).valid]
        n = len(arts.hmci2d.rules)
        return (bad or n != 28) and f"{n} rules, invalid: {bad}"

    def ex2_rules_sound():
        b, calc = example2()
        return [r.name for r in calc.rules if not validate_rule(b, r).valid]

    def separator_table():
        rep = expressiveness_report(arts.b5, 1)
        expected = {
            ("f", "F"): ("p", "antidesignated", "f"),
            ("f", "I"): ("p", "designated", "I"),
            ("f", "T"): ("p", "designated", "T"),
            ("f", "t"): ("p", "designated", "t"),
            ("F", "I"): ("p", "designated", "I"),
            ("F", "T"): ("p", "designated", "T"),
            ("F", "t"): ("p", "designated", "t"),
            ("I", "T"): ("cons(p)", "designated", "T"),
            ("I", "t"): ("p", "antidesignated", "I"),
            ("T", "t"): ("p", "antidesignated", "T"),
        }
        got = {(e.x, e.y): (str(e.separator), e.via, e.into)
               for e in rep.entries}
        ok = got == expected and rep.sufficiently_expressive
        diff = {k: v for k, v in got.items() if expected.get(k) != v}
        return not ok and str(diff)

    def compression():
        b, calc = example2()
        statements = {i: BStatement(acc={_apply_h(i)}, nacc={p, _g("g(p)")})
                      for i in (1, 2, 3)}
        return [i for i, s in statements.items()
                if not (_proved(calc, s) and b_entails(b, s).valid)]

    def ex1_schemas_valid():
        m, gen = example1()
        return [i for i in range(5) if not validate_rule(m, gen(i)).valid]

    def chain_soundness():
        bool2 = two_valued_positive_matrix()
        sig_pos = bool2.algebra.signature
        bad = []
        for k in range(1, chain_k + 1):
            mk = mk_matrix(k).matrix
            if strong_hom_report(mk, bool2, mk_boolean_collapse(k), sig_pos):
                bad.append(f"k={k} collapse not a strong homomorphism")
            for r in hmci_axioms(2 * k - 1).calculus.rules:
                if not validate_rule(mk, r).valid:
                    bad.append(f"k={k} rule {r.name}")
        return "; ".join(bad[:4])

    def chain_strictness():
        bad = []
        for k in range(1, chain_k + 1):
            s_succ = k + 2
            top = 2 * (k + 1)
            body = iter_neg_formula(2 * k, App("cons", (p,)))
            goal = App("cons", (body,))
            v = entails_1d(mk_matrix(k).matrix, Statement1D(set(), {goal}))
            trace_ok = (not v.valid
                        and v.countermodel(p) == "1"
                        and v.countermodel(App("cons", (p,))) == str(s_succ)
                        and v.countermodel(body) == str(top))
            axiom_names = {r.name for r in
                          hmci_axioms(2 * k + 1).calculus.rules}
            if not trace_ok or f"cons-iter{2 * k}" not in axiom_names:
                bad.append(str(k))
        return bad

    def itneg_closed_form():
        bad = []
        for k in range(1, 7):
            for m in range(1, 2 * k + 1):
                try:
                    iterated_neg(k, m)
                except LogicsError:
                    bad.append((k, m))
        return bad

    def compound_recovery():
        bad = []
        for conn in ("and", "or", "imp"):
            c = App(conn, (p, q))
            cc = App("cons", (c,))
            if not all(_proved(arts.hmci2d, s) and b_entails(arts.b5, s).valid
                       for s in (BStatement(acc={c, cc}, rej={c}),
                                 BStatement(acc={c}, rej={cc, c}))):
                bad.append(conn)
        return bad

    return [
        ("construction-golden",
         lambda: not (arts.m5 == golden.m5 and arts.m5_rej == golden.m5_rej
                      and arts.b5 == golden.b5
                      and arts.hmci2d.rules == golden.hmci2d.rules),
         "artifacts differ from embedded golden tables"),
        ("paraconsistency",
         lambda: entails_1d(arts.m5, Statement1D({p, neg_p}, {q})).valid,
         "contradiction exploded"),
        ("gentle-explosion",
         lambda: not entails_1d(arts.m5,
                                Statement1D({cons_p, p, neg_p}, set())).valid,
         "consistent contradiction not absurd"),
        ("hallmark-axioms", hallmark_axioms, "invalid: {}"),
        ("disjunction-facts", disjunction_facts, "facts {} invalid"),
        ("rules-28-sound", rules_28_sound, "{}"),
        ("ex2-rules-sound", ex2_rules_sound, "invalid: {}"),
        ("ex2-repair",
         lambda: (got := example2_repair()) != {"r2": ["g"], "r3": ["h"]}
         and got,
         "got {}"),
        ("product-identity",
         lambda: b_product(arts.m5, arts.m5_rej) != arts.b5,
         "product disagrees with bundled two-dimensional matrix"),
        ("separator-table", separator_table, "diverging entries: {}"),
        ("inner-pairs-blind",
         lambda: separator_for_pair(arts.m5, "t", "T", 1) is not None
         or separator_for_pair(arts.m5, "f", "F", 1) is not None,
         "one-dimensional matrix separated an inner pair"),
        ("ex1-blind-spot",
         lambda: separator_for_pair(example1()[0], "f", "bot", 2) is not None,
         "depth-2 separator found unexpectedly"),
        ("worked-derivations-check",
         lambda: [i for i, (s, t) in enumerate(mci_worked_derivations())
                  if not check_proof(arts.hmci2d, s, t)],
         "trees {} rejected"),
        ("worked-derivations-search",
         lambda: [i for i, (s, _) in enumerate(mci_worked_derivations())
                  if not _proved(arts.hmci2d, s)],
         "statements {} not re-derived"),
        ("dimensional-compression", compression, "indexes {} failed"),
        ("ex1-schemas-valid", ex1_schemas_valid, "schema indexes {} invalid"),
        ("chain-soundness", chain_soundness, "{}"),
        ("chain-strictness", chain_strictness, "k in {} failed"),
        ("itneg-closed-form", itneg_closed_form, "mismatches at {}"),
        ("gap-and-glut",
         lambda: b_entails(arts.b5, BStatement(nacc={p}, nrej={p})).valid
         or b_entails(arts.b5, BStatement(acc={p, cons_p}, nrej={p})).valid,
         "atomic gap/glut statement unexpectedly valid"),
        ("compound-recovery", compound_recovery, "compounds {} failed"),
    ]


def verify_paper_suite(artifacts: MciArtifacts | None = None,
                       chain_k: int = 3) -> SuiteReport:
    """Run the full verification battery and report per-item results.

    ``artifacts`` substitutes the bundled five-valued artifacts, which
    lets corrupted inputs demonstrate that the battery actually bites;
    ``chain_k`` bounds the family checks (runtime grows quickly with it)
    and must be at least 1, or the chain items would check nothing.
    """
    if chain_k < 1:
        raise LogicsError(f"chain_k must be >= 1, got {chain_k}")
    arts = artifacts if artifacts is not None else mci_artifacts()
    items = []
    for name, check, detail in _suite_items(arts, chain_k):
        t0 = time.perf_counter()
        try:
            failed = check()
            detail = detail.format(failed) if failed else ""
        except Exception as e:  # a crashing item must not kill the report
            failed, detail = True, f"{type(e).__name__}: {e}"
        items.append(SuiteItem(name, not failed, detail,
                               time.perf_counter() - t0))
    return SuiteReport(tuple(items), all(it.ok for it in items))
