"""Semantic layer tests against hand-frozen oracles: valuation
enumeration order, first countermodels, products, aspects, strong
homomorphisms, separator search and rule validation."""

import copy
import os
import random
import subprocess
import sys
import time
from itertools import combinations, islice, product
from pathlib import Path

import pytest

import ndlogic
from conftest import D5, INTERP5, R5, SIG5, V5, make_alg5
from test_separators_golden import matrices
from ndlogic import semantics
from ndlogic.calculi import RuleSchema
from ndlogic.errors import NonTotalAlgebraError, SemanticsError
from ndlogic.language import (App, Signature, Var, _pool_levels,
                              enumerate_unary_formulas, parse_formula,
                              subformula_sequence, subformulas, variables)
from ndlogic.logics import example1, example2
from ndlogic.semantics import (BMatrix, BStatement, FormulaLimit,
                               NdAlgebra, NdMatrix, PairSeparation,
                               Statement1D, Valuation, Verdict,
                               aspect_entails, b_entails,
                               b_product, check_total,
                               coherent_valuations, entails_1d,
                               expressiveness_report, induced_multifunction,
                               separator_for_pair, strong_hom_report,
                               validate_rule, ExpressivenessReport,
                               _Arcs, _SeparatorScan,
                               _certificate, _compile, _mac_search,
                               _separator_search, _simulation,
                               _valuations)

p = Var("p")
q = Var("q")


def f5(text):
    return parse_formula(text, SIG5)


def fgh(text):
    return parse_formula(text, Signature({"g": 1, "h": 1}))


# ---------------------------------------------------------------------------
# algebra construction


class TestAlgebra:
    def test_equal_regardless_of_cell_order(self, alg5):
        shuffled = {c: dict(reversed(list(cells.items())))
                    for c, cells in INTERP5.items()}
        assert NdAlgebra(SIG5, V5, shuffled) == alg5

    def test_total(self, alg5):
        assert check_total(alg5)

    def test_partial_cell_detected(self):
        interp = {c: dict(cells) for c, cells in INTERP5.items()}
        interp["neg"] = dict(interp["neg"])
        interp["neg"][("f",)] = set()
        partial = NdAlgebra(SIG5, V5, interp)
        assert not check_total(partial)

    def test_missing_connective_rejected(self):
        interp = {c: cells for c, cells in INTERP5.items() if c != "cons"}
        with pytest.raises(SemanticsError):
            NdAlgebra(SIG5, V5, interp)

    def test_wrong_cell_count_rejected(self):
        interp = dict(INTERP5)
        interp["neg"] = {k: v for k, v in INTERP5["neg"].items()
                         if k != ("t",)}
        with pytest.raises(SemanticsError):
            NdAlgebra(SIG5, V5, interp)

    def test_output_outside_values_rejected(self):
        interp = dict(INTERP5)
        interp["neg"] = dict(INTERP5["neg"])
        interp["neg"][("t",)] = {"zz"}
        with pytest.raises(SemanticsError):
            NdAlgebra(SIG5, V5, interp)

    def test_undeclared_interpretation_rejected(self):
        interp = dict(INTERP5)
        interp["extra"] = {(): {"t"}}
        with pytest.raises(SemanticsError):
            NdAlgebra(SIG5, V5, interp)

    def test_bad_cell_key_rejected(self):
        interp = dict(INTERP5)
        interp["neg"] = {(k if k != ("t",) else ("zz",)): v
                         for k, v in INTERP5["neg"].items()}
        with pytest.raises(SemanticsError, match="bad cell key"):
            NdAlgebra(SIG5, V5, interp)

    def test_duplicate_values_rejected(self):
        with pytest.raises(SemanticsError):
            NdAlgebra(SIG5, ("f", "F", "I", "T", "f"), INTERP5)

    def test_derived_tables_are_not_parameters(self, alg5):
        assert alg5._index["f"] == 0 and alg5._tables["neg"][(0,)] == (2, 4)
        with pytest.raises(TypeError):
            NdAlgebra(SIG5, V5, INTERP5, _index={})
        with pytest.raises(TypeError):
            NdAlgebra(SIG5, V5, INTERP5, None, None)

    def test_designated_subset_enforced(self, alg5):
        with pytest.raises(SemanticsError):
            NdMatrix(alg5, frozenset({"nope"}))
        with pytest.raises(SemanticsError):
            BMatrix(alg5, D5, frozenset({"nope"}))


# ---------------------------------------------------------------------------
# coherent valuations


class TestCoherentValuations:
    def test_no_formula_has_only_the_empty_valuation(self, alg5):
        assert coherent_valuations(alg5, []) == [Valuation((), {})]

    def test_single_variable(self, alg5):
        vs = coherent_valuations(alg5, [p])
        assert [v(p) for v in vs] == list(V5)

    def test_negation_branching_order(self, alg5):
        vs = coherent_valuations(alg5, [f5("neg(p)")])
        got = [(v(p), v(f5("neg(p)"))) for v in vs]
        assert got == [("f", "I"), ("f", "t"), ("F", "T"), ("I", "I"),
                       ("I", "t"), ("T", "F"), ("t", "f")]

    def test_domain_order_variables_first(self, alg5):
        vs = coherent_valuations(alg5, [f5("and(p,q)"), f5("neg(p)")])
        assert [str(f) for f in vs[0].domain] == \
            ["p", "q", "and(p,q)", "neg(p)"]

    def test_requires_total(self):
        interp = dict(INTERP5)
        interp["neg"] = dict(INTERP5["neg"])
        interp["neg"][("f",)] = set()
        partial = NdAlgebra(SIG5, V5, interp)
        with pytest.raises(NonTotalAlgebraError):
            coherent_valuations(partial, [f5("neg(p)")])


# ---------------------------------------------------------------------------
# induced multifunctions


class TestInducedMultifunction:
    def test_negation_cell(self, alg5):
        assert induced_multifunction(alg5, f5("neg(p)"), ["f"]) == {"I", "t"}

    def test_identity(self, alg5):
        assert induced_multifunction(alg5, p, ["T"]) == {"T"}

    def test_double_negation(self, alg5):
        assert induced_multifunction(alg5, f5("neg(neg(p))"), ["F"]) == {"F"}

    def test_shared_subformula_correlation(self):
        # e(x,x) is constant a, so e(u(p),u(p)) must be {a} even though
        # u itself can take either value
        sig = Signature({"u": 1, "e": 2})
        alg = NdAlgebra(sig, ("a", "b"), {
            "u": {("a",): {"a", "b"}, ("b",): {"a", "b"}},
            "e": {("a", "a"): {"a"}, ("a", "b"): {"b"},
                  ("b", "a"): {"b"}, ("b", "b"): {"a"}},
        })
        f = parse_formula("e(u(p),u(p))", sig)
        assert induced_multifunction(alg, f, ["a"]) == {"a"}

    def test_input_arity_checked(self, alg5):
        with pytest.raises(SemanticsError):
            induced_multifunction(alg5, f5("and(p,q)"), ["f"])
        with pytest.raises(SemanticsError):
            induced_multifunction(alg5, p, ["zz"])


# ---------------------------------------------------------------------------
# one-dimensional entailment


class TestEntails1D:
    def test_overlap(self, m5):
        assert entails_1d(m5, Statement1D({p}, {p})).valid

    def test_paraconsistent(self, m5):
        v = entails_1d(m5, Statement1D({p, f5("neg(p)")}, {q}))
        assert not v.valid
        cm = v.countermodel
        assert cm(p) == "I" and cm(q) == "f" and cm(f5("neg(p)")) == "I"

    def test_gentle_explosion(self, m5):
        s = Statement1D({f5("cons(p)"), p, f5("neg(p)")}, set())
        assert entails_1d(m5, s).valid

    def test_excluded_middle(self, m5):
        assert entails_1d(m5, Statement1D(set(), {f5("or(p,neg(p))")})).valid

    def test_first_countermodel_atomic(self, m5):
        v = entails_1d(m5, Statement1D({p}, {q}))
        assert not v.valid
        assert v.countermodel(p) == "I" and v.countermodel(q) == "f"

    def test_empty_succedent_countermodel(self, m5):
        v = entails_1d(m5, Statement1D(set(), {p}))
        assert not v.valid and v.countermodel(p) == "f"

    def test_empty_statement_invalid(self, m5):
        # no formula, so the one valuation is the empty one
        assert entails_1d(m5, Statement1D()) == \
            Verdict(False, Valuation((), {}))

    def test_non_formula_rejected(self):
        with pytest.raises(SemanticsError, match="not a formula: 'p'"):
            Statement1D({"p"})

    def test_arity_mismatch_rejected(self, m5):
        s = Statement1D({App("neg", (p, q))}, set())
        with pytest.raises(SemanticsError, match="arity mismatch"):
            entails_1d(m5, s)

    def test_verdict_truthiness(self, m5):
        assert bool(entails_1d(m5, Statement1D({p}, {p})))
        assert not bool(entails_1d(m5, Statement1D({p}, {q})))

    def test_requires_total(self):
        interp = dict(INTERP5)
        interp["cons"] = dict(INTERP5["cons"])
        interp["cons"][("I",)] = set()
        m = NdMatrix(NdAlgebra(SIG5, V5, interp), D5)
        with pytest.raises(NonTotalAlgebraError):
            entails_1d(m, Statement1D({f5("cons(p)")}, set()))


# ---------------------------------------------------------------------------
# two-dimensional entailment


class TestBEntails:
    def test_overlap_same_component(self, b5):
        assert b_entails(b5, BStatement(acc={p}, nacc={p})).valid

    def test_cross_component_gap(self, b5):
        # t is designated but not antidesignated, so acc does not force nrej
        v = b_entails(b5, BStatement(acc={p}, nrej={p}))
        assert not v.valid and v.countermodel(p) == "t"

    def test_inconsistency_forces_unreliability(self, b5):
        s = BStatement(acc={f5("and(p,neg(p))")}, nacc={f5("neg(cons(p))")})
        assert b_entails(b5, s).valid

    def test_first_countermodel(self, b5):
        v = b_entails(b5, BStatement(acc={p}, nacc={q}))
        assert not v.valid
        assert v.countermodel(p) == "I" and v.countermodel(q) == "f"

    def test_empty_statement_invalid(self, b5):
        assert b_entails(b5, BStatement()) == Verdict(False, Valuation((), {}))

    @pytest.mark.parametrize("call, message", [
        (lambda m: b_entails(m, BStatement(acc={p})),
         "B-entailment is two-dimensional"),
        (lambda m: aspect_entails(m, "f", Statement1D({p}, {q})),
         "the f-aspect reads the antidesignated set"),
        (lambda m: aspect_entails(m, "t", Statement1D({p}, {q})),
         "the t-aspect reads the designated set"),
        (lambda m: validate_rule(m, RuleSchema("two", 2, acc={p})),
         "rule 'two' is two-dimensional"),
    ])
    def test_plain_matrix_refused(self, m5, call, message):
        with pytest.raises(SemanticsError) as e:
            call(m5)
        assert str(e.value) == f"{message}; target is not a B-matrix"

    @pytest.mark.parametrize("call, message", [
        (lambda m5, b5: b_entails(b5, Statement1D({p}, {q})),
         "statement must be a BStatement, not Statement1D"),
        (lambda m5, b5: entails_1d(m5, BStatement(acc={p})),
         "statement must be a Statement1D, not BStatement"),
        (lambda m5, b5: aspect_entails(b5, "t", BStatement(acc={p})),
         "statement must be a Statement1D, not BStatement"),
        (lambda m5, b5: aspect_entails(b5, "f", BStatement(rej={p})),
         "statement must be a Statement1D, not BStatement"),
    ])
    def test_wrong_statement_kind_refused(self, m5, b5, call, message):
        with pytest.raises(SemanticsError) as e:
            call(m5, b5)
        assert str(e.value) == message

    def test_disjoint_distinguished_sets_close(self, b_gh):
        assert b_entails(b_gh, BStatement(acc={p}, rej={p})).valid

    def test_gap_repair_valid(self, b_gh):
        s = BStatement(nacc={fgh("g(p)"), p}, nrej={p})
        assert b_entails(b_gh, s).valid

    def test_gap_repair_needs_right_operator(self, b_gh):
        s = BStatement(nacc={fgh("h(p)"), p}, nrej={p})
        v = b_entails(b_gh, s)
        assert not v.valid
        assert v.countermodel(p) == "bot" and v.countermodel(fgh("h(p)")) == "f"

    def test_rejection_repair_valid(self, b_gh):
        assert b_entails(b_gh, BStatement(rej={p}, nrej={fgh("h(p)")})).valid

    def test_rejection_repair_needs_right_operator(self, b_gh):
        v = b_entails(b_gh, BStatement(rej={p}, nrej={fgh("g(p)")}))
        assert not v.valid
        assert v.countermodel(p) == "f" and v.countermodel(fgh("g(p)")) == "t"


# ---------------------------------------------------------------------------
# aspects and products


def _aspect_samples():
    """Hand-picked statements, then seeded random ones over p and q."""
    yield from [Statement1D({p, f5("neg(p)")}, {q}),
                Statement1D({f5("cons(p)"), p, f5("neg(p)")}, set()),
                Statement1D({p}, {f5("or(p,q)")}),
                Statement1D(set(), {p})]
    rng = random.Random(10)
    for _ in range(60):
        yield _random_statement(rng, SIG5, 5)


class TestAspectsAndProduct:
    # each aspect is the one-dimensional consequence of its component, down
    # to the first countermodel
    def test_t_aspect_matches_first_component(self, b5, m5):
        verdicts = [(aspect_entails(b5, "t", s), entails_1d(m5, s))
                    for s in _aspect_samples()]
        for va, vm in verdicts:
            assert va == vm
        assert {va.valid for va, _ in verdicts} == {True, False}

    def test_f_aspect_matches_second_component(self, b5, m5_rej):
        s = Statement1D({p}, {f5("neg(p)")})
        va = aspect_entails(b5, "f", s)
        vm = entails_1d(m5_rej, s)
        assert not va.valid and not vm.valid
        for v in (va, vm):
            assert v.countermodel(p) == "f"
            assert v.countermodel(f5("neg(p)")) == "t"
        verdicts = [(aspect_entails(b5, "f", s), entails_1d(m5_rej, s))
                    for s in _aspect_samples()]
        for va, vm in verdicts:
            assert va == vm
        assert {va.valid for va, _ in verdicts} == {True, False}

    def test_f_aspect_overlap(self, b5):
        assert aspect_entails(b5, "f-aspect", Statement1D({p}, {p})).valid

    def test_aspect_name_checked(self, b5):
        with pytest.raises(SemanticsError):
            aspect_entails(b5, "sideways", Statement1D({p}, {p}))

    def test_product_builds_b5(self, m5, m5_rej, b5):
        assert b_product(m5, m5_rej) == b5

    def test_product_with_self(self, m5):
        b = b_product(m5, m5)
        assert b.designated == b.antidesignated == m5.designated

    def test_product_requires_shared_algebra(self, m5, m_gh):
        with pytest.raises(SemanticsError):
            b_product(m5, m_gh)

    def test_product_refuses_a_b_matrix_factor(self, m5, b5):
        # b5 shares m5's algebra, so only the kind check can refuse it
        for left, right in ((b5, m5), (m5, b5)):
            with pytest.raises(SemanticsError) as e:
                b_product(left, right)
            assert str(e.value) == "product needs two plain matrices"


# ---------------------------------------------------------------------------
# strong homomorphisms


BOOL_SIG = Signature({"and": 2, "or": 2, "imp": 2})
BOOL_INTERP = {
    "and": {("0", "0"): {"0"}, ("0", "1"): {"0"},
            ("1", "0"): {"0"}, ("1", "1"): {"1"}},
    "or": {("0", "0"): {"0"}, ("0", "1"): {"1"},
           ("1", "0"): {"1"}, ("1", "1"): {"1"}},
    "imp": {("0", "0"): {"1"}, ("0", "1"): {"1"},
            ("1", "0"): {"0"}, ("1", "1"): {"1"}},
}
BOOL2 = NdMatrix(NdAlgebra(BOOL_SIG, ("0", "1"), BOOL_INTERP),
                 frozenset({"1"}))

COLLAPSE5 = {"f": "0", "F": "0", "I": "1", "T": "1", "t": "1"}


class TestStrongHom:
    def test_identity(self, m5):
        ident = {v: v for v in V5}
        assert not strong_hom_report(m5, m5, ident, SIG5)

    def test_positive_collapse_to_two_valued(self, m5):
        assert not strong_hom_report(m5, BOOL2, COLLAPSE5, BOOL_SIG)

    def test_designation_violation_reported(self, m5, alg5):
        target = NdMatrix(alg5, frozenset({"t"}))
        report = strong_hom_report(m5, target, {v: v for v in V5}, SIG5)
        assert report and all("designation" in line for line in report)

    def test_cell_violation_reported(self, m5):
        sig = Signature({"and": 2, "or": 2, "imp": 2, "neg": 1})
        interp = dict(BOOL_INTERP)
        interp["neg"] = {("0",): {"1"}, ("1",): {"0"}}
        bool_neg = NdMatrix(NdAlgebra(sig, ("0", "1"), interp),
                            frozenset({"1"}))
        report = strong_hom_report(m5, bool_neg, COLLAPSE5, sig)
        assert report and any(line.startswith("neg") for line in report)

    def test_mapping_must_be_total(self, m5):
        partial = {v: "0" for v in V5 if v != "t"}
        with pytest.raises(SemanticsError):
            strong_hom_report(m5, BOOL2, partial, BOOL_SIG)

    def test_mapping_image_checked(self, m5):
        bad = {v: "2" for v in V5}
        with pytest.raises(SemanticsError):
            strong_hom_report(m5, BOOL2, bad, BOOL_SIG)

    def test_subsignature_must_be_shared(self, m5):
        with pytest.raises(SemanticsError):
            strong_hom_report(m5, BOOL2, COLLAPSE5, SIG5)


# ---------------------------------------------------------------------------
# separators


class TestSeparators:
    def test_consistency_operator_splits_inner_pair(self, b5):
        assert separator_for_pair(b5, "I", "T", 1) == f5("cons(p)")

    def test_atom_splits_via_antidesignated(self, b5):
        assert separator_for_pair(b5, "t", "T", 0) == p
        assert separator_for_pair(b5, "f", "F", 0) == p

    def test_single_set_blind_spot(self, m5):
        assert separator_for_pair(m5, "t", "T", 1) is None
        assert separator_for_pair(m5, "f", "F", 1) is None

    def test_depth_zero_insufficient_for_inner_pair(self, b5):
        assert separator_for_pair(b5, "I", "T", 0) is None

    def test_distinct_values_required(self, b5):
        for x, y, message in (
                ("I", "I", "separator search requires two distinct values"),
                ("I", "z", "unknown value 'z'"),
                ("z", "I", "unknown value 'z'")):
            with pytest.raises(SemanticsError) as e:
                separator_for_pair(b5, x, y, 1)
            assert str(e.value) == message
            # the scan's own refusals come first
            with pytest.raises(SemanticsError) as e:
                separator_for_pair(b5, x, y, 1, 0)
            assert str(e.value) == "max_formulas must be >= 1"

    def test_full_b5_report(self, b5):
        rep = expressiveness_report(b5, 1)
        assert rep.sufficiently_expressive
        assert rep.target_kind == "bmatrix"
        by_pair = {(e.x, e.y): e for e in rep.entries}
        assert len(by_pair) == 10
        cons_p = f5("cons(p)")
        assert by_pair[("I", "T")].separator == cons_p
        assert by_pair[("I", "T")].via == "designated"
        assert by_pair[("I", "T")].into == "T"
        for pair, e in by_pair.items():
            if pair != ("I", "T"):
                assert e.separator == p
        assert by_pair[("f", "F")].via == "antidesignated"
        assert by_pair[("f", "F")].into == "f"
        assert by_pair[("f", "I")].via == "designated"
        assert by_pair[("f", "I")].into == "I"
        assert by_pair[("T", "t")].via == "antidesignated"
        assert by_pair[("T", "t")].into == "T"

    def test_nondeterministic_blur_defeats_search(self, m_gh):
        assert separator_for_pair(m_gh, "f", "bot", 2) is None
        rep = expressiveness_report(m_gh, 2)
        assert not rep.sufficiently_expressive
        by_pair = {(e.x, e.y): e for e in rep.entries}
        assert by_pair[("t", "f")].separator == p
        assert by_pair[("t", "bot")].separator == p
        assert by_pair[("f", "bot")].separator is None

    def test_second_distinguished_set_restores_power(self, b_gh):
        rep = expressiveness_report(b_gh, 0)
        assert rep.sufficiently_expressive
        by_pair = {(e.x, e.y): e for e in rep.entries}
        assert by_pair[("f", "bot")].separator == p
        assert by_pair[("f", "bot")].via == "antidesignated"
        assert by_pair[("f", "bot")].into == "f"

    def test_report_lines_render(self, b_gh):
        lines = expressiveness_report(b_gh, 0).lines()
        assert lines[0].startswith("expressiveness report")
        assert lines[-1].endswith("sufficiently expressive (up to bound)")


# ---------------------------------------------------------------------------
# separator scan against induced_multifunction

# a non-deterministic constant c and a binary k whose cells on equal
# arguments differ from those on unequal ones, so a shared argument makes
# k(c,c) and k(k(p,p),k(p,p)) narrower than the product of their arguments
SIG_CK = Signature({"c": 0, "k": 2})
V_CK = ("u", "v", "w")
ALG_CK = NdAlgebra(SIG_CK, V_CK, {
    "c": {(): {"v", "w"}},
    "k": {(x, y): ({"v", "w"} if x == y == "u" else {"u"} if x == y
                   else {"w"}) for x in V_CK for y in V_CK},
})


def _random_algebra(rng, arity=2):
    """Three values, a constant, a unary and a connective k of ``arity``;
    every cell a random non-empty set."""
    sig = Signature({"c": 0, "g": 1, "k": arity})
    values = ("a", "b", "d")

    def cell():
        return set(rng.sample(values, rng.randint(1, 3)))

    return NdAlgebra(sig, values, {
        "c": {(): cell()},
        "g": {(x,): cell() for x in values},
        "k": {args: cell() for args in product(values, repeat=arity)}})


def _pool_nodes(target, max_depth):
    """The pool of enumerate_unary_formulas, each formula as a node
    ``(conn, arg ids)`` over the pool's positions, and those positions."""
    pool = enumerate_unary_formulas(target.algebra.signature, max_depth)
    index = {f: i for i, f in enumerate(pool)}
    return pool, [(None, ()) if f == p else
                  (f.conn, tuple(index[a] for a in f.args))
                  for f in pool], index


def _takes_joint(scan, index, f):
    """Whether f has two or more distinct arguments that share a compound
    with several possible values at some value of p."""
    return len(set(f.args)) > 1 and _takes_relation(scan, index, f)


def _takes_relation(scan, index, f):
    """Whether two argument positions of f share a compound with several
    possible values at some value of p: the formulas whose sets are read
    off a joint relation.  The shared compounds lie below the last level,
    so the scan keeps their nodes."""
    seen, shared = set(), set()
    for a in f.args:
        below = {g for g in subformulas(a) if not isinstance(g, Var)}
        shared |= seen & below
        seen |= below
    return any(m.bit_count() > 1 for g in shared
               for m in scan.vectors[scan.vector[index[g]]])


def _full_scan(target, max_depth):
    scan = _SeparatorScan(target.algebra, max_depth)
    while scan.grow():
        pass
    return scan


def _assert_sample_matches_oracle(scan, pool, nodes, sample):
    """The nodes ``sample`` of the pool: each one's formula, and its vector
    as the scan's relation path reads it, against induced_multifunction;
    a node the scan keeps has that vector too."""
    alg = scan.alg
    for i in sample:
        f = pool[i]
        assert scan.formula(nodes[i]) == f
        conn, ids = nodes[i]
        vec = scan._vector(conn, scan._relation(ids), ids)
        if i < len(scan.nodes):
            assert scan.nodes[i] == nodes[i] and scan.vector[i] == vec
        for x, value in enumerate(alg.values):
            got = {v for j, v in enumerate(alg.values)
                   if scan.vectors[vec][x] >> j & 1}
            inputs = [value] if variables(f) else []
            assert got == induced_multifunction(alg, f, inputs), (f, value)


def _assert_scan_matches_oracle(target, max_depth):
    scan = _full_scan(target, max_depth)
    pool, nodes, _ = _pool_nodes(target, max_depth)
    kept = len(enumerate_unary_formulas(target.algebra.signature,
                                        max_depth - 1)) if max_depth else 0
    assert scan.nodes == nodes[:kept] and scan.size == len(pool)
    _assert_sample_matches_oracle(scan, pool, nodes, range(len(pool)))


class TestSeparatorScanOracle:
    def test_mci5(self, m5):
        _assert_scan_matches_oracle(m5, 2)

    def test_mci_b(self, b5):
        _assert_scan_matches_oracle(b5, 2)

    def test_examples(self):
        _assert_scan_matches_oracle(example1()[0], 2)
        _assert_scan_matches_oracle(example2()[0], 2)

    def test_shared_arguments_are_not_a_product(self):
        m = NdMatrix(ALG_CK, frozenset({"u"}))
        k = lambda a, b: parse_formula(f"k({a},{b})", SIG_CK)
        assert induced_multifunction(ALG_CK, k("c", "c"), []) == {"u"}
        assert induced_multifunction(
            ALG_CK, k("k(p,p)", "k(p,p)"), ["u"]) == {"u"}
        _assert_scan_matches_oracle(m, 3)

    def test_random_algebras(self):
        rng = random.Random(4)
        for _ in range(20):
            alg = _random_algebra(rng)
            _assert_scan_matches_oracle(NdMatrix(alg, frozenset({"a"})), 2)

    def test_ternary_connective(self):
        # a ternary tuple's shared set joins three pairwise intersections,
        # such as the non-deterministic c in k(c,g(c),p)
        rng = random.Random(7)
        for _ in range(3):
            m = NdMatrix(_random_algebra(rng, 3), frozenset({"a"}))
            _assert_scan_matches_oracle(m, 2)
            _assert_first_occurrences(m, 2)

    def test_mci5_joint_relations(self, m5):
        # on mci5, joints over two or more argument ids first occur at
        # depth 3: check a seeded sample of the nodes that take them
        scan = _full_scan(m5, 3)
        pool, nodes, index = _pool_nodes(m5, 3)
        first = len(enumerate_unary_formulas(m5.algebra.signature, 2))
        depth3 = list(range(first, len(pool)))
        random.Random(5).shuffle(depth3)
        sample = list(islice(
            (i for i in depth3 if _takes_joint(scan, index, pool[i])), 500))
        assert len(sample) == 500
        _assert_sample_matches_oracle(scan, pool, nodes, sample)
        assert scan.joints

    def test_relation_nodes_at_depth_three(self):
        # seeded samples of the depth-3 nodes that take the joint path,
        # repeated arguments included, on ALG_CK and random algebras
        rng = random.Random(6)
        targets = [NdMatrix(ALG_CK, frozenset({"u"}))] + [
            NdMatrix(_random_algebra(rng), frozenset({"a"}))
            for _ in range(8)]
        sampled = 0
        for target in targets:
            scan = _full_scan(target, 3)
            pool, nodes, index = _pool_nodes(target, 3)
            first = len(enumerate_unary_formulas(target.algebra.signature, 2))
            depth3 = [i for i in range(first, len(pool))
                      if _takes_relation(scan, index, pool[i])]
            rng.shuffle(depth3)
            _assert_sample_matches_oracle(scan, pool, nodes, depth3[:40])
            sampled += len(depth3[:40])
        assert sampled > 200
        assert scan.expansions


def _first_occurrences(target, max_depth):
    """Brute force: each distinct vector of induced value sets over the
    pool, in order of its first formula, with that formula."""
    alg = target.algebra
    firsts = {}
    for f in enumerate_unary_formulas(alg.signature, max_depth):
        vec = tuple(induced_multifunction(alg, f, [x] if variables(f) else [])
                    for x in alg.values)
        firsts.setdefault(vec, f)
    return list(firsts.items())


def _assert_first_occurrences(target, max_depth):
    scan = _full_scan(target, max_depth)
    values = scan.alg.values
    got = [(tuple(frozenset(v for j, v in enumerate(values) if m >> j & 1)
                  for m in vec), scan.formula(node))
           for vec, node in zip(scan.vectors, scan.firsts)]
    assert got == _first_occurrences(target, max_depth)


class TestFirstOccurrence:
    # a report prints the first formula of the first separating vector,
    # so the order of the scan's vectors is what the golden reports pin
    def test_builtin_matrices(self):
        for name, target in matrices():
            if not name.startswith("random:"):
                for depth in (0, 1, 2):
                    _assert_first_occurrences(target, depth)

    def test_golden_random_matrices_at_depth_three(self):
        for name, target in matrices():
            if name.startswith("random:"):
                _assert_first_occurrences(target, 3)

    def test_random_algebras_at_depth_three(self):
        rng = random.Random(8)
        for _ in range(20):
            target = NdMatrix(_random_algebra(rng), frozenset({"a"}))
            _assert_first_occurrences(target, 3)


class TestLazyPool:
    def test_mci_b_report_stops_early(self, b5):
        reports = []
        for depth in (3, 4):
            scan = _SeparatorScan(b5.algebra, depth)
            dist, rel = _certificate(scan, b5)
            values = b5.algebra.values
            entries = [_separator_search(scan, dist, rel, x, y)
                       for i, x in enumerate(values) for y in values[i + 1:]]
            assert all(e.separator for e in entries)
            assert scan.depth == 1 and len(scan.nodes) == scan.size == 6
            reports.append(expressiveness_report(b5, depth))
        assert reports[0].entries == reports[1].entries
        assert reports[1].sufficiently_expressive

    def test_pool_grows_to_the_end_in_order(self, m5):
        scan = _SeparatorScan(m5.algebra, 2)
        sizes = [scan.size]
        while scan.grow():
            sizes.append(scan.size)
        assert sizes == [0, 1, 6, 121] and scan.depth == 2
        # the last level keeps no nodes, only each new vector's first
        assert len(scan.nodes) == len(scan.vector) == 6
        assert len(scan.firsts) == len(scan.vectors)
        assert not scan.grow()
        assert (scan.total - scan.size, scan.limit) == (0, None)


class TestFormulaBudget:
    def test_mci5_depth_four_stops_before_the_level(self, m5):
        # mci5 never separates <f,F> and <T,t>, and depth 4 would take
        # the pool from 44,166 to about 5.85e9 formulas
        rep = expressiveness_report(m5, 4)
        limit = FormulaLimit(3, 10 ** 6)
        by_pair = {(e.x, e.y): e for e in rep.entries}
        assert by_pair["f", "F"] == PairSeparation("f", "F", None,
                                                   limit=limit)
        assert by_pair["T", "t"].limit == limit
        assert not rep.sufficiently_expressive
        assert rep.lines()[-1] == \
            "  => max_formulas limit reached after depth 3"
        assert "  <f,F>: open after depth 3, max_formulas 1000000 reached" \
            in rep.lines()
        # the separated pairs are those of the depth-3 report
        full = expressiveness_report(m5, 3)
        assert [e for e in rep.entries if not e.limit] == \
            [e for e in full.entries if e.separator]
        assert separator_for_pair(m5, "f", "F", 4) == limit
        assert separator_for_pair(m5, "f", "F", 3) is None
        # depth 3 is the last level built, so its nodes are not kept
        scan = _full_scan(m5, 4)
        assert (scan.depth, scan.size, len(scan.nodes)) == (3, 44166, 121)
        assert (scan.total - scan.size, scan.limit) == (0, limit)

    def test_limit_is_checked_per_level(self, m5, b5):
        # 44,166 formulas fit a budget of 44,166 and not one of 44,165
        assert expressiveness_report(m5, 3, 44166) == \
            expressiveness_report(m5, 3)
        rep = expressiveness_report(m5, 3, 44165)
        assert {e.limit for e in rep.entries if e.separator is None} == \
            {FormulaLimit(2, 44165)}
        scan = _full_scan(m5, 3)
        assert scan.depth == 3 and scan.size == 44166
        scan = _SeparatorScan(m5.algebra, 3, 44165)
        while scan.grow():
            pass
        assert (scan.depth, scan.size, len(scan.nodes)) == (2, 121, 6)
        assert (scan.total - scan.size, scan.limit) == \
            (0, FormulaLimit(2, 44165))
        # mci-b separates every pair by depth 1, so six formulas do
        assert expressiveness_report(b5, 4, 6).sufficiently_expressive
        assert separator_for_pair(b5, "I", "T", 2, 1) == FormulaLimit(0, 1)

    def test_budget_must_be_positive(self, m5):
        with pytest.raises(SemanticsError):
            expressiveness_report(m5, 1, 0)


# ---------------------------------------------------------------------------
# the simulation certificate


def _dist(target):
    """The distinguished sets of ``target`` as value masks."""
    index = target.algebra._index
    return [sum(1 << index[v] for v in getattr(target, name))
            for name in ("designated", "antidesignated")
            if hasattr(target, name)]


def _related(target, max_depth=3):
    """The non-identity pairs of the certificate, as value names."""
    total = _SeparatorScan(target.algebra, max_depth).total
    rel = _simulation(target.algebra, _dist(target), total)
    values = target.algebra.values
    assert all(rel[x] >> x & 1 for x in range(len(values)))
    return {(values[x], values[y]) for x in range(len(values))
            for y in range(len(values)) if x != y and rel[x] >> y & 1}


def _uncertified_lines(target, max_depth, max_formulas=10 ** 6, scan=None):
    """The report lines with the certificate off: an identity relation
    makes every pair's search run the scan."""
    scan = scan or _SeparatorScan(target.algebra, max_depth, max_formulas)
    identity = [1 << x for x in range(len(target.algebra.values))]
    dist, _ = _certificate(scan, target)
    entries = tuple(_separator_search(scan, dist, identity, x, y)
                    for x, y in combinations(target.algebra.values, 2))
    return ExpressivenessReport(
        "bmatrix" if isinstance(target, BMatrix) else "matrix", max_depth,
        entries, all(e.separator is not None for e in entries)).lines()


def _assert_certificate_sound(target, max_depth, scan):
    """No certified pair has a separator in the whole scan ``scan`` up to
    ``max_depth``, and the report equals the one without the certificate;
    returns the certified pairs.  They are computed for depth 8, whose
    pool is large enough that the work bound never turns them off."""
    related = _related(target, max_depth=8)
    identity = [1 << x for x in range(len(target.algebra.values))]
    dist, _ = _certificate(scan, target)
    for x, y in related:
        found = _separator_search(scan, dist, identity, x, y)
        assert found.separator is None and found.limit is None, (x, y)
    assert expressiveness_report(target, max_depth).lines() == \
        _uncertified_lines(target, max_depth, scan=scan)
    return related


def _unary_matrix(conns):
    """Five values over unary connectives only, a its one designated
    value: g runs a -> b -> c -> d -> a and sends e to b or c, and h, if
    present, keeps every value, so the pool doubles at each depth."""
    values = ("a", "b", "c", "d", "e")
    g = {"a": {"b"}, "b": {"c"}, "c": {"d"}, "d": {"a"}, "e": {"b", "c"}}
    interp = {"g": {(x,): g[x] for x in values},
              "h": {(x,): {x} for x in values}}
    return NdMatrix(NdAlgebra(Signature({c: 1 for c in conns}), values,
                              {c: interp[c] for c in conns}), {"a"})


class TestSimulationCertificate:
    def test_relates_exactly_the_open_mci5_pairs(self, m5, b5):
        assert _related(m5) == {("F", "f"), ("T", "t")}
        assert _related(b5) == set()
        assert _related(example2()[0]) == set()

    def test_keeps_membership_before_any_vector(self, m5, m5_rej):
        for target in (m5, m5_rej):
            for x, y in _related(target):
                assert (x in target.designated) == (y in target.designated)

    def test_mci5_report_stops_at_depth_one(self, m5):
        scan = _SeparatorScan(m5.algebra, 3)
        dist, rel = _certificate(scan, m5)
        entries = [_separator_search(scan, dist, rel, x, y)
                   for x, y in combinations(m5.algebra.values, 2)]
        assert scan.depth == 1
        assert [(e.x, e.y) for e in entries if e.separator is None] == \
            [("f", "F"), ("T", "t")]
        assert expressiveness_report(m5, 3).lines() == \
            _uncertified_lines(m5, 3)

    def test_work_bound_leaves_small_pools_to_the_scan(self, m5):
        # mci5's bound is 8 candidate pairs times 2 * 13 + 3 * 13 ** 2:
        # 4,264, against 6 formulas at depth 1, and 121 or 44,166 up to
        # depth 3 as the budget stops or admits the last level
        identity = [1, 2, 4, 8, 16]
        for scan in (_SeparatorScan(m5.algebra, 1),
                     _SeparatorScan(m5.algebra, 3, 44165)):
            assert _simulation(m5.algebra, _dist(m5), scan.total) == identity
        assert _simulation(m5.algebra, _dist(m5),
                           _SeparatorScan(m5.algebra, 3, 44166).total) \
            != identity

    def test_every_distinguished_set_over_the_mci_algebra(self, m5):
        alg, values = m5.algebra, m5.algebra.values
        sets = [[v for i, v in enumerate(values) if mask >> i & 1]
                for mask in range(1 << len(values))]
        scan = _full_scan(m5, 3)
        certified = 0
        for target in [NdMatrix(alg, d) for d in sets] + \
                [BMatrix(alg, m5.designated, a) for a in sets]:
            certified += len(_assert_certificate_sound(target, 3, scan))
        assert certified >= 60

    def test_random_algebras(self):
        rng = random.Random(22)
        certified = 0
        for arity, depth in ((2, 3), (2, 3), (3, 2)) * 8:
            alg = _random_algebra(rng, arity)
            sets = [frozenset(rng.sample(alg.values, rng.randint(0, 2)))
                    for _ in range(2)]
            target = NdMatrix(alg, sets[0]) if rng.random() < 0.5 else \
                BMatrix(alg, *sets)
            scan = _SeparatorScan(alg, depth)
            while scan.grow():
                pass
            certified += len(_assert_certificate_sound(target, depth, scan))
        assert certified >= 20

    def test_reports_share_no_state(self, m5, b5):
        assert m5.algebra is b5.algebra
        first = [expressiveness_report(t, 3).lines() for t in (b5, m5)]
        assert [expressiveness_report(t, 3).lines()
                for t in (b5, m5)] == first
        assert first[1] == _uncertified_lines(m5, 3)


class TestCertifiedLimits:
    def test_small_budget_reads_the_level_sizes(self, m5):
        assert separator_for_pair(m5, "f", "F", 3, max_formulas=100) == \
            FormulaLimit(1, 100)
        assert separator_for_pair(m5, "T", "t", 4) == FormulaLimit(3, 10 ** 6)

    def test_mci5_depth_four_lines(self, m5):
        assert expressiveness_report(m5, 4).lines() == [
            "expressiveness report (matrix, depth <= 4)",
            "  <f,F>: open after depth 3, max_formulas 1000000 reached",
            "  <f,I>: p  [I inside designated]",
            "  <f,T>: p  [T inside designated]",
            "  <f,t>: p  [t inside designated]",
            "  <F,I>: p  [I inside designated]",
            "  <F,T>: p  [T inside designated]",
            "  <F,t>: p  [t inside designated]",
            "  <I,T>: cons(p)  [T inside designated]",
            "  <I,t>: cons(p)  [t inside designated]",
            "  <T,t>: open after depth 3, max_formulas 1000000 reached",
            "  => max_formulas limit reached after depth 3"]

    def test_unary_connectives_at_depth_forty(self):
        # <b,e> is certified; a whole scan of the two-connective pool
        # would build 524,287 formulas before the budget stops it
        head = ["expressiveness report (matrix, depth <= 40)",
                "  <a,b>: p  [a inside designated]",
                "  <a,c>: p  [a inside designated]",
                "  <a,d>: p  [a inside designated]",
                "  <a,e>: p  [a inside designated]",
                "  <b,c>: g(g(p))  [c inside designated]",
                "  <b,d>: g(p)  [d inside designated]"]
        tail = ["  <c,d>: g(p)  [d inside designated]",
                "  <c,e>: g(g(p))  [c inside designated]",
                "  <d,e>: g(p)  [d inside designated]"]
        assert expressiveness_report(_unary_matrix("g"), 40).lines() == \
            head + ["  <b,e>: none up to depth 40"] + tail + \
            ["  => not separated within bound"]
        assert expressiveness_report(_unary_matrix("gh"), 40).lines() == \
            head + ["  <b,e>: open after depth 18, max_formulas 1000000 "
                    "reached"] + tail + \
            ["  => max_formulas limit reached after depth 18"]
        assert _related(_unary_matrix("gh"), max_depth=40) == {("b", "e")}

    def test_constants_only_stop_at_the_first_empty_level(self):
        # no connective has an argument, so every level past depth 1 is
        # empty; walking all 10^7 of them took about 16 s
        alg = NdAlgebra(Signature({"c": 0}), ("a", "b"), {"c": {(): {"a"}}})
        assert [size for *_, size in _pool_levels(alg.signature, 10 ** 7)] \
            == [1, 1]
        t0 = time.perf_counter()
        lines = expressiveness_report(NdMatrix(alg, {"a"}), 10 ** 7).lines()
        assert time.perf_counter() - t0 < 1
        assert lines == ["expressiveness report (matrix, depth <= 10000000)",
                         "  <a,b>: p  [a inside designated]",
                         "  => sufficiently expressive (up to bound)"]


# ---------------------------------------------------------------------------
# rule validation


class TestValidateRule:
    def test_conjunction_elimination(self, m5):
        r = RuleSchema("conj-e", 1, acc={f5("and(p,q)")}, nacc={p})
        assert validate_rule(m5, r).valid

    def test_modus_ponens(self, m5):
        r = RuleSchema("mp", 1, acc={p, f5("imp(p,q)")}, nacc={q})
        assert validate_rule(m5, r).valid

    def test_invalid_rule_gets_countermodel(self, m5):
        r = RuleSchema("bad", 1, acc={p}, nacc={f5("and(p,q)")})
        v = validate_rule(m5, r)
        assert not v.valid and v.countermodel(p) in D5

    def test_two_dimensional_rules(self, b_gh):
        r1 = RuleSchema("r1", 2, acc={p}, rej={p})
        r2 = RuleSchema("r2", 2, nacc={fgh("g(p)"), p}, nrej={p})
        r3 = RuleSchema("r3", 2, rej={p}, nrej={fgh("h(p)")})
        assert validate_rule(b_gh, r1).valid
        assert validate_rule(b_gh, r2).valid
        assert validate_rule(b_gh, r3).valid

    def test_dimension_mismatch(self, m5, b5):
        r1 = RuleSchema("one", 1, acc={p}, nacc={p})
        r2 = RuleSchema("two", 2, acc={p}, nacc={p})
        with pytest.raises(SemanticsError):
            validate_rule(b5, r1)
        with pytest.raises(SemanticsError):
            validate_rule(m5, r2)


# ---------------------------------------------------------------------------
# brute-force oracle: the enumeration against every row of values


def _random_formula(rng, sig, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((p, q))
    conn = rng.choice(sorted(sig.connectives))
    return App(conn, tuple(_random_formula(rng, sig, depth - 1)
                           for _ in range(sig.connectives[conn])))


def _closure(fs):
    """The subformulas of ``fs`` in the engine's position order: variables
    first, then compounds, each in post order of first occurrence."""
    seq = subformula_sequence(fs)
    return [f for f in seq if isinstance(f, Var)] + \
        [f for f in seq if not isinstance(f, Var)]


def _random_sides(rng, sig, count, most, fewest=0):
    """``count`` random sets of ``fewest`` to 3 formulas whose closure has
    at most ``most`` formulas."""
    while True:
        sides = [frozenset(_random_formula(rng, sig, 2)
                           for _ in range(rng.randint(fewest, 3)))
                 for _ in range(count)]
        if len(_closure([f for side in sides for f in side])) <= most:
            return sides


def _random_statement(rng, sig, most):
    return Statement1D(*_random_sides(rng, sig, 2, most))


def _rows(alg, closure, pins=()):
    """Every row of ``itertools.product`` over the closure whose compounds
    take a value of their cell and whose pinned variables take their
    pin, in product order."""
    pos = {f: i for i, f in enumerate(closure)}
    cells = [(i, alg.interpretation[f.conn], [pos[a] for a in f.args])
             for i, f in enumerate(closure) if not isinstance(f, Var)]
    pinned = [(pos[v], x) for v, x in pins]
    for row in product(alg.values, repeat=len(closure)):
        if all(row[i] == x for i, x in pinned) and \
                all(row[i] in cell[tuple(row[j] for j in args)]
                    for i, cell, args in cells):
            yield row


def _first_row_inside(alg, closure, sides):
    """The first coherent row putting every formula of each side inside
    that side's value set, or None."""
    pos = {f: i for i, f in enumerate(closure)}
    return next((row for row in _rows(alg, closure)
                 if all(row[pos[f]] in ok for fs, ok in sides for f in fs)),
                None)


def _as_row(verdict, closure):
    return None if verdict.valid else \
        tuple(verdict.countermodel(f) for f in closure)


def _oracle_algebras(alg5, alg_gh):
    """(algebra, largest closure) for mci5, the g/h algebra and seeded
    random three-valued algebras."""
    yield alg5, 5
    yield alg_gh, 7
    rng = random.Random(11)
    for _ in range(6):
        yield _random_algebra(rng), 6


def _sorted_formulas(*sides):
    return [f for side in sides for f in sorted(side, key=str)]


class TestBruteForceOracle:
    def test_coherent_valuations_are_the_coherent_rows(self, alg5, alg_gh):
        rng = random.Random(12)
        for alg, most in _oracle_algebras(alg5, alg_gh):
            for _ in range(12):
                (fs,) = _random_sides(rng, alg.signature, 1, most, 1)
                closure = _closure(_sorted_formulas(fs))
                got = coherent_valuations(alg, fs)
                assert all(v.domain == tuple(closure) for v in got)
                assert [tuple(v(f) for f in closure) for v in got] == \
                    list(_rows(alg, closure))

    def test_induced_multifunction_is_the_pinned_root_column(self, alg5,
                                                              alg_gh):
        rng = random.Random(13)
        for alg, most in _oracle_algebras(alg5, alg_gh):
            for _ in range(6):
                (fs,) = _random_sides(rng, alg.signature, 1, most, 1)
                for f in fs:
                    closure = _closure([f])
                    names = variables(f)
                    for inputs in product(alg.values, repeat=len(names)):
                        pins = [(Var(v), x) for v, x in zip(names, inputs)]
                        column = {row[closure.index(f)]
                                  for row in _rows(alg, closure, pins)}
                        assert induced_multifunction(alg, f, inputs) == \
                            column, (f, inputs)

    def test_first_countermodel_is_the_first_row_inside_the_sides(
            self, alg5, alg_gh):
        rng = random.Random(14)
        for alg, most in _oracle_algebras(alg5, alg_gh):
            values = frozenset(alg.values)
            for _ in range(12):
                d = frozenset(rng.sample(alg.values, rng.randint(0, 3)))
                a = frozenset(rng.sample(alg.values, rng.randint(0, 3)))
                b = BMatrix(alg, d, a)
                acc, nacc, rej, nrej = _random_sides(
                    rng, alg.signature, 4, most)
                closure = _closure(_sorted_formulas(acc, nacc, rej, nrej))
                want = _first_row_inside(alg, closure, [
                    (acc, d), (nacc, values - d),
                    (rej, a), (nrej, values - a)])
                got = b_entails(b, BStatement(acc, nacc, rej, nrej))
                assert _as_row(got, closure) == want
                closure = _closure(_sorted_formulas(acc, nacc))
                want = _first_row_inside(
                    alg, closure, [(acc, d), (nacc, values - d)])
                s = Statement1D(acc, nacc)
                for got in (entails_1d(NdMatrix(alg, d), s),
                            aspect_entails(b, "t", s),
                            aspect_entails(BMatrix(alg, a, d), "f", s)):
                    assert _as_row(got, closure) == want

    def test_sides_holding_bare_variables(self, alg5, alg_gh):
        # a variable is assigned before every compound, so a side that
        # holds one constrains the slowest-varying positions; the aspects
        # read acc/nacc through d and rej/nrej through a
        rng = random.Random(15)
        for alg, most in _oracle_algebras(alg5, alg_gh):
            values = frozenset(alg.values)
            for _ in range(12):
                d = frozenset(rng.sample(alg.values, rng.randint(0, 3)))
                a = frozenset(rng.sample(alg.values, rng.randint(0, 3)))
                b = BMatrix(alg, d, a)
                sides = [fs | frozenset(rng.sample((p, q), rng.randint(0, 2)))
                         for fs in _random_sides(rng, alg.signature, 4,
                                                 most - 2)]
                acc, nacc, rej, nrej = sides
                for got, fs, oks in (
                        (b_entails(b, BStatement(*sides)), sides,
                         (d, values - d, a, values - a)),
                        (aspect_entails(b, "t", Statement1D(acc, nacc)),
                         (acc, nacc), (d, values - d)),
                        (aspect_entails(b, "f", Statement1D(rej, nrej)),
                         (rej, nrej), (a, values - a))):
                    closure = _closure(_sorted_formulas(*fs))
                    want = _first_row_inside(alg, closure,
                                             list(zip(fs, oks)))
                    assert _as_row(got, closure) == want, fs

    def test_one_formula_on_two_sides(self, alg5, alg_gh):
        rng = random.Random(16)
        for alg, most in _oracle_algebras(alg5, alg_gh):
            values = frozenset(alg.values)
            for _ in range(8):
                d = frozenset(rng.sample(alg.values, rng.randint(0, 3)))
                a = frozenset(rng.sample(alg.values, rng.randint(0, 3)))
                b = BMatrix(alg, d, a)
                oks = (d, values - d, a, values - a)
                rest = _random_sides(rng, alg.signature, 4, most)
                f = rng.choice(_closure(_sorted_formulas(*rest)) or [p])
                for i, j in combinations(range(4), 2):
                    sides = [fs | {f} if k in (i, j) else fs
                             for k, fs in enumerate(rest)]
                    closure = _closure(_sorted_formulas(*sides))
                    want = _first_row_inside(alg, closure,
                                             list(zip(sides, oks)))
                    got = b_entails(b, BStatement(*sides))
                    assert _as_row(got, closure) == want, (sides, i, j)
                    if (i, j) in ((0, 1), (2, 3)):
                        assert got.valid
                    elif not got.valid:
                        assert got.countermodel(f) in oks[i] & oks[j]


# ---------------------------------------------------------------------------
# formulas nested deeper than the interpreter's recursion limit


def _chain(conn, depth):
    f = p
    for _ in range(depth):
        f = App(conn, (f,))
    return f


class TestDeepFormulas:
    DEPTH = 10_000

    def test_neg_chain_through_every_entailment(self, m5, m5_rej, b5):
        # the first valuation takes I at every negation, which lies in both
        # distinguished sets
        deep = _chain("neg", self.DEPTH)
        s = Statement1D({deep}, set())
        for v in (entails_1d(m5, s), entails_1d(m5_rej, s),
                  b_entails(b5, BStatement(acc={deep}, rej={deep})),
                  aspect_entails(b5, "t", s), aspect_entails(b5, "f", s)):
            assert not v.valid
            assert len(v.countermodel.domain) == self.DEPTH + 1
            assert v.countermodel(p) == "f" and v.countermodel(deep) == "I"

    def test_side_failing_at_a_variable_is_cut_there(self):
        # q = f lies inside the antidesignated set, so no branch below it
        # holds a countermodel; the search must leave it without walking
        # the branchings of the chain.  A child process turns a regression
        # into a timeout instead of a hung suite.
        code = ("from ndlogic import App, Var\n"
                "from ndlogic.logics import mci_artifacts\n"
                "from ndlogic.semantics import (BStatement, Statement1D,\n"
                "                               aspect_entails, b_entails)\n"
                "p, q = Var('p'), Var('q')\n"
                "deep = p\n"
                f"for _ in range({self.DEPTH}):\n"
                "    deep = App('neg', (deep,))\n"
                "b5 = mci_artifacts().b5\n"
                "for v in (aspect_entails(b5, 'f',\n"
                "                         Statement1D({deep}, {q})),\n"
                "          b_entails(b5, BStatement(rej={deep}, nrej={q}))):\n"
                "    m = v.countermodel\n"
                "    print(v.valid, m(p), m(q), m(deep), len(m.domain))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, check=True, text=True,
                             timeout=60).stdout
        assert out.splitlines() == [f"False f F I {self.DEPTH + 2}"] * 2

    def test_reprs_and_deepcopies(self, m5):
        deep = _chain("neg", self.DEPTH)
        s = Statement1D({deep}, set())
        assert repr(s) == (f"Statement1D(antecedent=frozenset({{{deep!r}}}), "
                           f"succedent=frozenset())")
        assert copy.deepcopy(s) == s
        # a countermodel prints every formula of its domain, so its repr
        # grows with the square of the depth: 600 levels already recursed
        # too deep when formulas printed their reprs recursively
        v = entails_1d(m5, Statement1D({_chain("neg", 600)}, set()))
        assert repr(v).startswith(
            "Verdict(valid=False, countermodel=Valuation(domain=(Var('p'), "
            "App('neg', (Var('p'),)), ")
        got = copy.deepcopy(v)
        assert got == v and got.countermodel.domain == v.countermodel.domain

    def test_scan_rebuilds_a_deep_node(self):
        # the swap's pool holds one s-chain per depth; a node's formula
        # is rebuilt from its closure without one call per level
        swap = NdAlgebra(Signature({"s": 1}), ("a", "b"),
                         {"s": {("a",): {"b"}, ("b",): {"a"}}})
        scan = _SeparatorScan(swap, 1500)
        while scan.grow():
            pass
        assert scan.formula(scan.nodes[-1]) is _chain("s", 1499)

    def test_valid_statement_over_a_cons_chain(self, m5):
        deep = _chain("cons", self.DEPTH)
        assert entails_1d(m5, Statement1D({deep}, {deep})).valid

    def test_cons_chain_valuations(self, alg5):
        # cons is single-valued, and two applications reach its fixed point T
        deep = _chain("cons", self.DEPTH)
        for x in V5:
            assert induced_multifunction(alg5, deep, [x]) == {"T"}
        vs = coherent_valuations(alg5, [deep])
        assert [v(p) for v in vs] == list(V5)
        assert all(v(deep) == "T" and len(v.domain) == self.DEPTH + 1
                   for v in vs)


def _family(n):
    """and(p_i,neg(p_i)) for i < n; every p_i = I designates each."""
    return {App("and", (Var(f"p{i}"), App("neg", (Var(f"p{i}"),))))
            for i in range(n)}


class TestContradictionFamily:
    # the plain search assigns every p_i before any compound, so each
    # wrong value of a p_i costs a whole subtree: x5 per variable, 35.6 s
    # at n = 9 on mci5

    def test_first_countermodels(self, m5, b5):
        # pinned from the plain search: each p_i takes x, q takes y and
        # each and(p_i,neg(p_i)) takes z
        def expected(n, x, y, z):
            ps = [f"p{i}" for i in range(n)]
            return ", ".join([f"v({v})={x}" for v in ps] + [f"v(q)={y}"] + [
                f"v({f})={w}" for v in ps
                for f, w in ((f"neg({v})", "I"), (f"and({v},neg({v}))", z))])

        for n in range(1, 7):
            s = Statement1D(_family(n), {q})
            for v, want in (
                    (entails_1d(m5, s), ("I", "f", "I")),
                    (b_entails(b5, BStatement(acc=_family(n), nacc={q})),
                     ("I", "f", "I")),
                    (aspect_entails(b5, "f", s), ("f", "F", "f"))):
                assert str(v.countermodel) == expected(n, *want)

    def test_twelve_variables_in_a_child_process(self):
        # a child process turns a regression into a timeout instead of a
        # hung suite
        code = ("from ndlogic import App, Var\n"
                "from ndlogic.logics import mci_artifacts\n"
                "from ndlogic.semantics import (BStatement, Statement1D,\n"
                "    aspect_entails, b_entails, entails_1d)\n"
                "q, ps = Var('q'), [Var(f'p{i}') for i in range(12)]\n"
                "fam = {App('and', (x, App('neg', (x,)))) for x in ps}\n"
                "arts = mci_artifacts()\n"
                "s = Statement1D(fam, {q})\n"
                "for v in (entails_1d(arts.m5, s),\n"
                "          b_entails(arts.b5, BStatement(acc=fam, nacc={q})),\n"
                "          aspect_entails(arts.b5, 'f', s)):\n"
                "    m = v.countermodel\n"
                "    print(v.valid, *sorted({m(x) for x in ps}), m(q))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, check=True, text=True,
                             timeout=60).stdout
        assert out.splitlines() == ["False I f", "False I f", "False f F"]


# ---------------------------------------------------------------------------
# arc consistency and the MAC search


def _repeating_formula(rng, sig, depth):
    """A random formula whose arguments often repeat one subformula."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((p, q))
    conn = rng.choice(sorted(sig.connectives))
    same = _repeating_formula(rng, sig, depth - 1)
    return App(conn, tuple(
        same if rng.random() < 0.5 else _repeating_formula(rng, sig, depth - 1)
        for _ in range(sig.connectives[conn])))


def _random_total_algebra(rng, sig):
    """2-4 values; every cell a random non-empty set."""
    values = ("a", "b", "d", "e")[:rng.randint(2, 4)]
    return NdAlgebra(sig, values, {
        conn: {args: set(rng.sample(values, rng.randint(1, len(values))))
               for args in product(values, repeat=k)}
        for conn, k in sig.connectives.items()})


def _narrowed(alg, plan, allowed):
    """The values each position keeps after the MAC search's root step, or
    None once one keeps none."""
    arcs = _Arcs(alg, plan, allowed)
    if arcs.root():
        return {i: frozenset(arcs.bits[m]) for i, m in enumerate(arcs.dom)}
    return None


def _taken(alg, plan, allowed):
    """The values each position takes in some coherent valuation within
    ``allowed``."""
    taken = [set() for _ in plan]
    for vals in _valuations(alg, plan, allowed):
        for seen, v in zip(taken, vals):
            seen.add(v)
    return taken


class TestArcConsistency:
    def test_removes_no_value_of_a_coherent_valuation(self):
        rng = random.Random(26)
        sig = Signature({"c": 0, "g": 1, "k": 2, "t": 3})
        removed = emptied = 0
        for _ in range(600):
            alg = _random_total_algebra(rng, sig)
            fs = [_repeating_formula(rng, sig, 3)
                  for _ in range(rng.randint(1, 2))]
            _, _, plan = _compile(alg, fs)
            if len(plan) > 8:
                continue
            every = frozenset(range(len(alg.values)))
            allowed = {i: frozenset(rng.sample(sorted(every),
                                               rng.randint(1, len(every))))
                       for i in range(len(plan)) if rng.random() < 0.4}
            taken = _taken(alg, plan, allowed)
            doms = _narrowed(alg, plan, allowed)
            if doms is None:
                assert not taken[0]
                emptied += 1
                continue
            for i, seen in enumerate(taken):
                assert seen <= doms[i] <= allowed.get(i, every) and doms[i]
                removed += doms[i] < allowed.get(i, every)
        assert removed >= 200 and emptied >= 25

    def test_revision_of_one_compound_is_exact(self):
        # one compound over variables is one constraint, so arc
        # consistency keeps exactly the values that coherent valuations
        # take, also when an argument repeats
        rng = random.Random(27)
        sig = Signature({"g": 1, "k": 2, "t": 3})
        repeated = narrowed = emptied = 0
        for _ in range(400):
            alg = _random_total_algebra(rng, sig)
            conn = rng.choice(sorted(sig.connectives))
            args = tuple(rng.choice((p, q, Var("r")))
                         for _ in range(sig.connectives[conn]))
            _, _, plan = _compile(alg, [App(conn, args)])
            every = range(len(alg.values))
            allowed = {i: frozenset(rng.sample(every, rng.randint(1, 2)))
                       for i in range(len(plan)) if rng.random() < 0.75}
            taken = _taken(alg, plan, allowed)
            doms = _narrowed(alg, plan, allowed)
            if not taken[0]:
                assert doms is None
                emptied += 1
            else:
                assert doms == dict(enumerate(map(frozenset, taken)))
                narrowed += any(len(d) < len(allowed.get(i, every))
                                for i, d in doms.items())
            repeated += len(set(args)) < len(args)
        assert repeated >= 100 and narrowed >= 100 and emptied >= 5
        # k(p,p) with its output b: no value of p gives b, though each
        # column alone has a row that does
        swap = NdAlgebra(Signature({"k": 2}), ("a", "b"), {"k": {
            ("a", "a"): {"a"}, ("b", "b"): {"a"},
            ("a", "b"): {"b"}, ("b", "a"): {"b"}}})
        _, _, plan = _compile(swap, [App("k", (p, p))])
        assert _narrowed(swap, plan, {1: frozenset({1})}) is None
        assert _narrowed(swap, plan, {1: frozenset({0})}) == \
            {0: frozenset({0, 1}), 1: frozenset({0})}

    def test_mac_search_meets_the_first_valuation(self):
        # the MAC search goes in _valuations' order and narrowing skips
        # only branches that hold no coherent valuation; a few allowed sets
        # are empty, some on a variable that no compound watches
        rng = random.Random(1994)
        sig = Signature({"c": 0, "g": 1, "k": 2, "t": 3})
        tried = none = 0
        while tried < 1000:
            alg = _random_total_algebra(rng, sig)
            fs = [_repeating_formula(rng, sig, 3)
                  for _ in range(rng.randint(1, 3))]
            _, _, plan = _compile(alg, fs)
            if len(plan) > 10:
                continue
            every = range(len(alg.values))
            allowed = {i: frozenset(rng.sample(every,
                                               rng.randint(1, len(every) - 1)
                                               * (rng.random() < 0.97)))
                       for i in range(len(plan)) if rng.random() < 0.75}
            want = next(_valuations(alg, plan, allowed), None)
            assert _mac_search(alg, plan, allowed) == want
            tried += 1
            none += want is None
        assert 250 <= none <= 750

    def test_an_empty_domain_no_compound_watches_is_valid(self, m5, b5,
                                                          monkeypatch):
        # p on both sides may take no value, and as a bare variable no
        # compound's constraint watches it; q, r and s come first, so the
        # plain phase runs out of budget before it reaches p
        f = f5("or(q,or(r,s))")
        statements = (Statement1D({f, p}, {p}), BStatement({f, p}, {p}))
        searched = []
        monkeypatch.setattr(semantics, "_mac_search",
                            lambda *a: searched.append(a) or _mac_search(*a))
        got = [entails_1d(m5, statements[0]), b_entails(b5, statements[1])]
        assert got == [Verdict(True)] * 2 and len(searched) == 2
        monkeypatch.setattr(semantics, "_PLAIN_PUSHES", -10 ** 9)
        assert [entails_1d(m5, statements[0]),
                b_entails(b5, statements[1])] == got

    def test_mac_search_is_linear_in_a_chain(self):
        # the domains are undone by a trail: copying them at every node
        # would make 4x the depth cost 16x.  A child process turns a
        # regression into a timeout instead of a hung suite.
        code = ("import time\n"
                "from ndlogic import App, Var\n"
                "from ndlogic.logics import mci_artifacts\n"
                "from ndlogic.semantics import _compile, _mac_search\n"
                "m5 = mci_artifacts().m5\n"
                "des = frozenset(map(m5.algebra._index.get, m5.designated))\n"
                "def cost(n):\n"
                "    f = Var('p')\n"
                "    for _ in range(n):\n"
                "        f = App('neg', (f,))\n"
                "    _, _, plan = _compile(m5.algebra, [f])\n"
                "    times = []\n"
                "    for _ in range(3):\n"
                "        t = time.perf_counter()\n"
                "        got = _mac_search(m5.algebra, plan, {n: des})\n"
                "        times.append(time.perf_counter() - t)\n"
                "    assert len(got) == n + 1\n"
                "    return min(times)\n"
                "print(cost(10_000) / cost(2_500))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, check=True, text=True,
                             timeout=120).stdout
        assert float(out) < 8

    def test_chains_answer_in_the_plain_phase(self, m5, monkeypatch):
        # a search that never backtracks pushes fewer positions than its
        # closure holds, so the plain phase's budget, counted beyond the
        # closure's size, lets it finish without the MAC search
        calls = []
        monkeypatch.setattr(semantics, "_mac_search",
                            lambda *a: calls.append(a))
        for conn, succedent in (("neg", set()), ("cons", {p})):
            s = Statement1D({_chain(conn, TestDeepFormulas.DEPTH)}, succedent)
            assert not entails_1d(m5, s).valid
        assert not calls

    def test_plain_and_two_phase_search_agree(self, m5, b5, monkeypatch):
        # closures of 10-14 positions: some statements finish within the
        # plain phase's budget, the others go to the MAC search
        rng = random.Random(2026)
        statements = []
        while len(statements) < 80:
            sides = [frozenset(_random_formula(rng, SIG5, 3)
                               for _ in range(rng.randint(0, 2)))
                     for _ in range(4)]
            if 10 <= len(_closure([f for x in sides for f in x])) <= 14:
                statements.append(sides)

        def verdicts():
            out = []
            for acc, nacc, rej, nrej in statements:
                s = Statement1D(acc, nacc)
                out += [entails_1d(m5, s), aspect_entails(b5, "t", s),
                        aspect_entails(b5, "f", s),
                        b_entails(b5, BStatement(acc, nacc, rej, nrej)),
                        validate_rule(m5, RuleSchema("r", 1, acc, nacc)),
                        validate_rule(b5, RuleSchema("r", 2, acc, nacc,
                                                     rej, nrej))]
            return out

        searched = []
        monkeypatch.setattr(semantics, "_mac_search",
                            lambda *a: searched.append(a) or _mac_search(*a))
        two_phase = verdicts()
        assert 50 < len(searched) < len(two_phase) - 50
        assert 50 < sum(v.valid for v in two_phase) < len(two_phase) - 50
        # the plain search alone; then switches at about the closure's size
        for pushes in (-10 ** 9, -1, 0):
            monkeypatch.setattr(semantics, "_PLAIN_PUSHES", pushes)
            assert verdicts() == two_phase
