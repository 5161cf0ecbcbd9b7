"""Bundled artifacts: golden-table equality, the rule inventory, worked
derivations, the deterministic family, axiom systems, the didactic
examples, and the verification battery including a corruption probe."""

from dataclasses import replace

import pytest

from ndlogic.calculi import RuleSchema, check_proof, render_tree_text
from ndlogic.errors import LogicsError
from ndlogic.language import App, Var, parse_formula
from ndlogic.logics import (SIGMA_MCI, cpl_pos, example1, example1_rules,
                            example2, example2_repair, hmci_axioms,
                            iterated_neg, mci_artifacts,
                            mci_worked_derivations, mk_boolean_collapse,
                            mk_matrix, two_valued_positive_matrix,
                            verify_paper_suite)
from ndlogic.semantics import (BMatrix, NdMatrix, b_product,
                               check_strong_hom, validate_rule)

P = Var("p")


def f(text):
    return parse_formula(text, SIGMA_MCI)


class TestArtifacts:

    def test_matrices_match_golden_tables(self, m5, m5_rej, b5):
        arts = mci_artifacts()
        assert arts.m5 == m5
        assert arts.m5_rej == m5_rej
        assert arts.b5 == b5
        assert arts.b5 == b_product(arts.m5, arts.m5_rej)

    def test_signature(self):
        arts = mci_artifacts()
        assert arts.sigma_mci.connectives == {
            "neg": 1, "cons": 1, "and": 2, "or": 2, "imp": 2}
        assert arts.sigma_mci.notation["imp"] == "->"

    def test_cached(self):
        assert mci_artifacts() is mci_artifacts()

    def test_rule_inventory(self):
        calc = mci_artifacts().hmci2d
        assert calc.dimension == 2
        assert len(calc.rules) == 28
        assert [r.name for r in calc.rules] == [
            "imp1", "imp2", "imp3", "imp4", "imp5",
            "and1", "and2", "and3", "and4", "and5",
            "or1", "or2", "or3", "or4", "or5",
            "cons1", "cons2", "cons3", "cons4", "cons5",
            "neg1", "neg2", "neg3", "neg4", "neg5", "neg6", "neg7", "neg8"]
        assert calc.theta == frozenset({P, f("cons(p)")})

    def test_rule_contents_spot_checks(self):
        calc = mci_artifacts().hmci2d
        imp4 = calc.rule_named("imp4")
        assert imp4.acc == frozenset({P})
        assert imp4.nacc == frozenset({f("q")})
        assert imp4.nrej == frozenset({f("imp(p,q)")})
        assert imp4.rej == frozenset()

        and5 = calc.rule_named("and5")
        assert and5.acc == frozenset({f("and(p,q)"), f("cons(and(p,q))")})
        assert and5.rej == frozenset({f("and(p,q)")})
        assert and5.nacc == and5.nrej == frozenset()

        cons4 = calc.rule_named("cons4")
        assert cons4.nacc == frozenset({f("cons(p)")})
        assert cons4.nrej == frozenset({P})
        assert cons4.acc == cons4.rej == frozenset()

        neg2 = calc.rule_named("neg2")
        assert neg2.acc == frozenset({f("neg(p)"), f("cons(p)"), P})
        assert neg2.nacc == neg2.rej == neg2.nrej == frozenset()

        neg8 = calc.rule_named("neg8")
        assert neg8.nacc == frozenset({f("cons(neg(p))")})
        assert neg8.nrej == frozenset({P})

    def test_rules_sound_in_b5(self, b5):
        calc = mci_artifacts().hmci2d
        for r in calc.rules:
            assert validate_rule(b5, r).valid, r.name


class TestWorkedDerivations:

    def test_all_three_check(self):
        arts = mci_artifacts()
        trees = mci_worked_derivations()
        assert len(trees) == 3
        for s, t in trees:
            assert check_proof(arts.hmci2d, s, t)

    def test_statements(self):
        (s1, _), (s2, _), (s3, _) = mci_worked_derivations()
        a, ncp = f("and(p,neg(p))"), f("neg(cons(p))")
        assert s1.acc == {a} and s1.nacc == {ncp}
        assert s2.acc == {ncp} and s2.nacc == {a}
        assert s3.acc == frozenset() and s3.nacc == {f("cons(neg(cons(p)))")}

    def test_tampered_tree_rejected(self):
        arts = mci_artifacts()
        (s1, t1), _, _ = mci_worked_derivations()
        bad = type(t1)(t1.label, "and3", t1.subst, t1.children)
        assert not check_proof(arts.hmci2d, s1, bad)

    def test_render_runs(self):
        _, (s2, t2), _ = mci_worked_derivations()
        text = render_tree_text(t2)
        assert text.splitlines()[0] == \
            "acc{neg(cons(p))} | rej{}  -- neg6 {p := p}"


class TestMkFamily:

    def test_k1_tables(self):
        mk = mk_matrix(1)
        assert mk.k == 1 and mk.successor == 2
        m = mk.matrix
        assert m.algebra.values == ("1", "2", "3", "4")
        assert m.designated == {"3", "4"}
        neg = m.algebra.interpretation["neg"]
        assert {x: neg[(x,)] for x in "1234"} == {
            "1": {"3"}, "2": {"4"}, "3": {"2"}, "4": {"3"}}
        cons = m.algebra.interpretation["cons"]
        assert {x: cons[(x,)] for x in "1234"} == {
            "1": {"3"}, "2": {"3"}, "3": {"3"}, "4": {"1"}}
        tables = m.algebra.interpretation
        assert tables["and"][("3", "4")] == {"3"}
        assert tables["and"][("3", "2")] == {"1"}
        assert tables["or"][("1", "2")] == {"1"}
        assert tables["or"][("1", "4")] == {"3"}
        assert tables["imp"][("3", "2")] == {"1"}
        assert tables["imp"][("2", "1")] == {"3"}
        assert tables["imp"][("3", "4")] == {"3"}

    def test_k2_negation_orbit(self):
        m = mk_matrix(2).matrix
        assert m.designated == {"4", "5", "6"}
        neg = m.algebra.interpretation["neg"]
        orbit = ["4"]
        for _ in range(4):
            (nxt,) = neg[(orbit[-1],)]
            orbit.append(nxt)
        assert orbit == ["4", "2", "5", "3", "6"]

    def test_bad_index(self):
        with pytest.raises(LogicsError):
            mk_matrix(0)

    def test_iterated_neg_values(self):
        assert iterated_neg(1, 1) == 2
        assert iterated_neg(1, 2) == 4
        assert iterated_neg(2, 3) == 3
        assert iterated_neg(2, 4) == 6
        assert iterated_neg(6, 12) == 14

    def test_iterated_neg_range(self):
        with pytest.raises(LogicsError):
            iterated_neg(1, 0)
        with pytest.raises(LogicsError):
            iterated_neg(1, 3)

    def test_boolean_collapse_is_strong_hom(self):
        bool2 = two_valued_positive_matrix()
        for k in (1, 2):
            mk = mk_matrix(k).matrix
            assert check_strong_hom(mk, bool2, mk_boolean_collapse(k),
                                    bool2.algebra.signature)

    def test_two_valued_matrix(self):
        m = two_valued_positive_matrix()
        assert m.algebra.values == ("0", "1")
        assert m.designated == {"1"}
        assert m.algebra.interpretation["imp"][("1", "0")] == {"0"}
        assert m.algebra.interpretation["imp"][("0", "0")] == {"1"}


class TestAxiomSystems:

    def test_cpl_pos(self):
        calc = cpl_pos()
        assert calc.name == "cplpos"
        assert calc.dimension == 1
        names = [r.name for r in calc.rules]
        assert names == ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8",
                         "a9", "mp"]
        mp = calc.rule_named("mp")
        assert mp.antecedent == {P, f("imp(p,q)")}
        assert mp.succedent == {f("q")}

    def test_hmci_family_names(self):
        fam = hmci_axioms(3)
        assert fam.k == 3
        assert fam.calculus.name == "hmci:3"
        names = [r.name for r in fam.calculus.rules]
        assert names[:9] == ["a1", "a2", "a3", "a4", "a5", "a6", "a7",
                             "a8", "a9"]
        assert names[9:] == ["lem", "gexp", "glut", "cons-iter0",
                             "cons-iter1", "cons-iter2", "cons-iter3", "mp"]

    def test_hmci_zero(self):
        names = [r.name for r in hmci_axioms(0).calculus.rules]
        assert "cons-iter0" in names
        assert "cons-iter1" not in names

    def test_axiom_shapes(self):
        calc = hmci_axioms(2).calculus
        assert calc.rule_named("lem").succedent == {f("or(p,neg(p))")}
        assert calc.rule_named("gexp").succedent == \
            {f("(cons(p) -> (p -> (neg(p) -> q)))")}
        assert calc.rule_named("glut").succedent == \
            {f("(neg(cons(p)) -> and(p,neg(p)))")}
        assert calc.rule_named("cons-iter0").succedent == {f("cons(cons(p))")}
        assert calc.rule_named("cons-iter2").succedent == \
            {f("cons(neg(neg(cons(p))))")}
        for r in calc.rules:
            if r.name != "mp":
                assert not r.antecedent and len(r.succedent) == 1

    def test_bad_chain_index(self):
        with pytest.raises(LogicsError):
            hmci_axioms(-1)


class TestExamples:

    def test_example1(self, m_gh):
        m, gen = example1()
        assert m == m_gh
        g2 = gen(2)
        assert g2.name == "gen2"
        hp = App("h", (P,))
        assert g2.antecedent == {App("h", (hp,))}
        assert g2.succedent == {P, App("g", (P,))}
        with pytest.raises(LogicsError):
            gen(-1)

    def test_example1_schemas_valid(self, m_gh):
        _, gen = example1()
        for i in range(5):
            assert validate_rule(m_gh, gen(i)).valid

    def test_example1_rules(self):
        calc = example1_rules(2)
        assert calc.name == "ex1-rules:2"
        assert [r.name for r in calc.rules] == ["gen0", "gen1", "gen2"]

    def test_example2(self, b_gh):
        b, calc = example2()
        assert b == b_gh
        assert calc.name == "ex2-calc"
        assert calc.dimension == 2
        assert [r.name for r in calc.rules] == ["r1", "r2", "r3"]
        assert calc.theta == frozenset({P})
        for r in calc.rules:
            assert validate_rule(b, r).valid

    def test_example2_repair(self):
        assert example2_repair() == {"r2": ["g"], "r3": ["h"]}

    def test_repair_rejects_swapped_reading(self, b_gh):
        swapped = RuleSchema("r3", 2, rej={P}, nrej={App("g", (P,))})
        assert not validate_rule(b_gh, swapped).valid


def _passes(*names):
    return [f"PASS {n}" for n in names]


# corruption -> (make the corrupted artifacts, items that must fail, the
# report's lines without timings)
_CORRUPTIONS = {
    "b5-designated-IT": (
        lambda a: replace(a, b5=BMatrix(a.b5.algebra, frozenset({"I", "T"}),
                                        a.b5.antidesignated)),
        {"rules-28-sound", "separator-table"},
        ["FAIL construction-golden: artifacts differ from embedded golden "
         "tables"]
        + _passes("paraconsistency", "gentle-explosion", "hallmark-axioms",
                  "disjunction-facts")
        + ["FAIL rules-28-sound: 28 rules, invalid: ['imp1', 'imp2', "
           "'imp3', 'imp4', 'and1', 'and2', 'and3', 'and4', 'or1', 'or2', "
           "'or3', 'or4', 'neg6', 'neg7']"]
        + _passes("ex2-rules-sound", "ex2-repair")
        + ["FAIL product-identity: product disagrees with bundled "
           "two-dimensional matrix",
           "FAIL separator-table: diverging entries: "
           "{('f', 't'): ('p', 'antidesignated', 'f'), "
           "('F', 't'): ('neg(p)', 'designated', 'F'), "
           "('I', 't'): ('p', 'designated', 'I'), "
           "('T', 't'): ('p', 'designated', 'T')}"]
        + _passes("inner-pairs-blind", "ex1-blind-spot",
                  "worked-derivations-check", "worked-derivations-search",
                  "dimensional-compression", "ex1-schemas-valid",
                  "chain-soundness", "chain-strictness", "itneg-closed-form")
        + ["FAIL gap-and-glut: atomic gap/glut statement unexpectedly valid",
           "PASS compound-recovery",
           "FAILED: 16/21 items passed"]),
    "b5-antidesignated-fI": (
        lambda a: replace(a, b5=BMatrix(a.b5.algebra, a.b5.designated,
                                        frozenset({"f", "I"}))),
        {"rules-28-sound", "separator-table"},
        ["FAIL construction-golden: artifacts differ from embedded golden "
         "tables"]
        + _passes("paraconsistency", "gentle-explosion", "hallmark-axioms",
                  "disjunction-facts")
        + ["FAIL rules-28-sound: 28 rules, invalid: ['cons1', 'cons5', "
           "'neg1']"]
        + _passes("ex2-rules-sound", "ex2-repair")
        + ["FAIL product-identity: product disagrees with bundled "
           "two-dimensional matrix",
           "FAIL separator-table: diverging entries: "
           "{('I', 'T'): ('p', 'antidesignated', 'I'), "
           "('T', 't'): ('neg(p)', 'antidesignated', 't')}"]
        + _passes("inner-pairs-blind", "ex1-blind-spot",
                  "worked-derivations-check", "worked-derivations-search",
                  "dimensional-compression", "ex1-schemas-valid",
                  "chain-soundness", "chain-strictness", "itneg-closed-form")
        + _passes("gap-and-glut", "compound-recovery")
        + ["FAILED: 17/21 items passed"]),
    "b5-designated-t-antidesignated-f": (
        lambda a: replace(a, b5=BMatrix(a.b5.algebra, frozenset({"t"}),
                                        frozenset({"f"}))),
        {"rules-28-sound", "separator-table", "gap-and-glut"},
        ["FAIL construction-golden: artifacts differ from embedded golden "
         "tables"]
        + _passes("paraconsistency", "gentle-explosion", "hallmark-axioms",
                  "disjunction-facts")
        + ["FAIL rules-28-sound: 28 rules, invalid: ['imp1', 'imp2', "
           "'imp3', 'imp4', 'and1', 'and2', 'and3', 'and4', 'or1', 'or2', "
           "'or3', 'or4', 'cons2', 'cons4', 'cons5', 'neg1', 'neg6', "
           "'neg7', 'neg8']"]
        + _passes("ex2-rules-sound", "ex2-repair")
        + ["FAIL product-identity: product disagrees with bundled "
           "two-dimensional matrix",
           "FAIL separator-table: diverging entries: "
           "{('f', 'I'): ('p', 'antidesignated', 'f'), "
           "('f', 'T'): ('p', 'antidesignated', 'f'), "
           "('F', 'I'): ('and(p,p)', 'antidesignated', 'F'), "
           "('F', 'T'): ('and(p,p)', 'antidesignated', 'F'), "
           "('I', 'T'): ('None', None, None), "
           "('I', 't'): ('p', 'designated', 't'), "
           "('T', 't'): ('p', 'designated', 't')}"]
        + _passes("inner-pairs-blind", "ex1-blind-spot",
                  "worked-derivations-check", "worked-derivations-search",
                  "dimensional-compression", "ex1-schemas-valid",
                  "chain-soundness", "chain-strictness", "itneg-closed-form")
        + ["FAIL gap-and-glut: atomic gap/glut statement unexpectedly valid",
           "PASS compound-recovery",
           "FAILED: 16/21 items passed"]),
    "m5-designated-Tt": (
        lambda a: replace(a, m5=NdMatrix(a.m5.algebra,
                                         frozenset({"T", "t"}))),
        {"paraconsistency", "hallmark-axioms", "disjunction-facts"},
        ["FAIL construction-golden: artifacts differ from embedded golden "
         "tables",
         "FAIL paraconsistency: contradiction exploded",
         "PASS gentle-explosion",
         "FAIL hallmark-axioms: invalid: ['or(p,neg(p))', "
         "'imp(cons(p),imp(p,imp(neg(p),q)))', "
         "'imp(neg(cons(p)),and(p,neg(p)))']",
         "FAIL disjunction-facts: facts [0, 1, 2] invalid"]
        + _passes("rules-28-sound", "ex2-rules-sound", "ex2-repair")
        + ["FAIL product-identity: product disagrees with bundled "
           "two-dimensional matrix"]
        + _passes("separator-table", "inner-pairs-blind", "ex1-blind-spot",
                  "worked-derivations-check", "worked-derivations-search",
                  "dimensional-compression", "ex1-schemas-valid",
                  "chain-soundness", "chain-strictness", "itneg-closed-form")
        + _passes("gap-and-glut", "compound-recovery")
        + ["FAILED: 16/21 items passed"]),
}


@pytest.fixture(scope="module")
def report():
    return verify_paper_suite()


class TestSuite:

    def test_passes(self, report):
        assert report.passed
        assert len(report.items) >= 12
        assert all(it.ok for it in report.items)

    def test_item_names(self, report):
        names = [it.name for it in report.items]
        for expected in ("construction-golden", "rules-28-sound",
                         "separator-table", "worked-derivations-search",
                         "chain-strictness", "gap-and-glut"):
            assert expected in names
        assert len(names) == len(set(names))

    def test_timings_recorded(self, report):
        assert all(it.seconds >= 0 for it in report.items)

    def test_lines(self, report):
        lines = report.lines()
        assert lines[0].startswith("PASS construction-golden (")
        assert lines[-1] == f"OK: {len(report.items)}/{len(report.items)} " \
                            f"items passed"

    @pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
    def test_corruption_is_detected(self, report, corruption):
        corrupt, must_fail, expected = _CORRUPTIONS[corruption]
        bad_report = verify_paper_suite(corrupt(mci_artifacts()), chain_k=1)
        assert not bad_report.passed
        failing = {it.name for it in bad_report.items if not it.ok}
        assert "construction-golden" in failing
        assert must_fail <= failing
        assert "product-identity" in failing
        # the calculus itself is untouched, so proof checking still stands
        passing = {it.name for it in bad_report.items if it.ok}
        assert "worked-derivations-check" in passing
        assert "chain-soundness" in passing
        # every item's line, failure details included, is pinned
        assert bad_report.lines(timings=False) == expected

    @pytest.mark.parametrize("chain_k", [0, -1])
    def test_empty_chain_range_rejected(self, chain_k):
        with pytest.raises(LogicsError):
            verify_paper_suite(chain_k=chain_k)
