"""Acceptance gate: one test per shipping criterion.

Each test rebuilds its facts from the public API, asserts them, and then
prints a single PASS line with the measured wall time.  Runtime bounds
are pinned where the criterion carries one.
"""

import random
import time
from pathlib import Path

import pytest

from ndlogic import serialize
from ndlogic.calculi import Proved, check_proof, prove
from ndlogic.language import App, Var, parse_formula, substitute
from ndlogic.logics import (SIGMA_MCI, example1, example2, hmci_axioms,
                            iterated_neg, mci_artifacts,
                            mci_worked_derivations, mk_boolean_collapse,
                            mk_matrix, two_valued_positive_matrix)
from ndlogic.semantics import (BStatement, Statement1D, aspect_entails,
                               b_entails, entails_1d, expressiveness_report,
                               strong_hom_report, validate_rule)

GOLDEN = Path(__file__).parent / "golden"

P, Q, R = Var("p"), Var("q"), Var("r")
CONS_P = App("cons", (P,))


def _line(name, seconds):
    print(f"ACCEPTANCE {name}: PASS ({seconds:.2f}s)")


def _neg_tower(j, core):
    f = core
    for _ in range(j):
        f = App("neg", (f,))
    return f


def _mci(text):
    return parse_formula(text, SIGMA_MCI)


@pytest.fixture(scope="module", autouse=True)
def _warm_caches():
    # artifact construction is cached; build it outside the timed sections
    mci_artifacts()
    for k in range(1, 7):
        mk_matrix(k)


def test_01_matrix_tables_match_golden_files():
    arts = mci_artifacts()
    t0 = time.perf_counter()
    for fname, obj in (("m5.json", arts.m5),
                       ("mci5_rej.json", arts.m5_rej),
                       ("b5.json", arts.b5)):
        data = serialize.loads((GOLDEN / fname).read_text())
        assert serialize.matrix_from_data(data) == obj, fname
        assert serialize.matrix_to_data(obj) == data, fname
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _line("01 matrix-goldens", dt)


def test_02_hallmark_consecutions():
    m5 = mci_artifacts().m5

    def valid(ant, suc):
        return entails_1d(m5, Statement1D(ant, suc)).valid

    t0 = time.perf_counter()
    assert not valid({P, _mci("neg(p)")}, {Q})
    assert valid({CONS_P, P, _mci("neg(p)")}, set())
    schemas = [
        _mci("(p | neg(p))"),
        _mci("(cons(p) -> (p -> (neg(p) -> q)))"),
        _mci("(neg(cons(p)) -> (p & neg(p)))"),
    ]
    schemas += [App("cons", (_neg_tower(j, CONS_P),)) for j in range(5)]
    for f in schemas:
        assert valid(set(), {f}), str(f)
    disj = _mci("(p | q)")
    assert valid({P}, {disj})
    assert valid({Q}, {disj})
    assert valid({disj}, {P, Q})
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _line("02 hallmark-consecutions", dt)


def test_03_negation_closed_form():
    t0 = time.perf_counter()
    for k in range(1, 7):
        neg = mk_matrix(k).algebra.interpretation["neg"]
        s = k + 1
        value = str(s + 1)
        for m in range(1, 2 * k + 1):
            (value,) = neg[(value,)]
            expected = (s + 1) + m // 2 if m % 2 == 0 else 1 + (m + 1) // 2
            assert int(value) == expected, (k, m)
            assert iterated_neg(k, m) == expected, (k, m)
    dt = time.perf_counter() - t0
    assert dt < 1.0
    _line("03 negation-closed-form", dt)


def test_04_chain_witnesses():
    bool2 = two_valued_positive_matrix()
    sig_pos = bool2.algebra.signature
    t0 = time.perf_counter()
    for k in (1, 2, 3):
        mk = mk_matrix(k)
        for r in hmci_axioms(2 * k - 1).rules:
            assert validate_rule(mk, r).valid, (k, r.name)
        goal = App("cons", (_neg_tower(2 * k, CONS_P),))
        verdict = entails_1d(mk, Statement1D(set(), {goal}))
        assert not verdict.valid, k
        v = verdict.countermodel
        assert v(CONS_P) == str(k + 2), k
        assert v(_neg_tower(2 * k, CONS_P)) == str(2 * k + 2), k
        assert not strong_hom_report(mk, bool2, mk_boolean_collapse(k),
                                     sig_pos)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    _line("04 chain-witnesses", dt)


def test_05_rule_soundness():
    arts = mci_artifacts()
    b_gh, calc_gh = example2()
    t0 = time.perf_counter()
    good = sum(validate_rule(arts.b5, r).valid for r in arts.hmci2d.rules)
    assert good == len(arts.hmci2d.rules) == 28
    good_gh = sum(validate_rule(b_gh, r).valid for r in calc_gh.rules)
    assert good_gh == len(calc_gh.rules) == 3
    dt = time.perf_counter() - t0
    assert dt < 10.0
    _line("05 rule-soundness", dt)


def test_06_worked_derivations():
    arts = mci_artifacts()
    theta = {P, CONS_P}
    t0 = time.perf_counter()
    worked = mci_worked_derivations()
    assert len(worked) == 3
    for s, tree in worked:
        assert check_proof(arts.hmci2d, s, tree)
        out = prove(arts.hmci2d, s, theta, max_nodes=10 ** 4)
        assert isinstance(out, Proved), s
        assert check_proof(arts.hmci2d, s, out.tree)
    _line("06 worked-derivations", time.perf_counter() - t0)


def test_07_separation_reports():
    arts = mci_artifacts()
    t0 = time.perf_counter()

    rep_b = expressiveness_report(arts.b5, 1)
    assert rep_b.sufficiently_expressive
    assert len(rep_b.entries) == 10
    for e in rep_b.entries:
        if {e.x, e.y} == {"I", "T"}:
            assert e.separator == CONS_P
        else:
            assert e.separator == P

    rep_m = expressiveness_report(arts.m5, 3)
    assert not rep_m.sufficiently_expressive
    blind = {(e.x, e.y) for e in rep_m.entries if e.separator is None}
    assert blind == {("f", "F"), ("T", "t")}

    rep_gh = expressiveness_report(example1()[0], 2)
    gh_blind = {(e.x, e.y) for e in rep_gh.entries if e.separator is None}
    assert ("f", "bot") in gh_blind
    _line("07 separation-reports", time.perf_counter() - t0)


def test_08_family_compression():
    b_gh, calc = example2()
    t0 = time.perf_counter()
    for i in (1, 2, 3):
        tower = P
        for _ in range(i):
            tower = App("h", (tower,))
        s = BStatement(acc={tower}, nacc={P, App("g", (P,))})
        out = prove(calc, s, calc.theta)
        assert isinstance(out, Proved), i
        assert check_proof(calc, s, out.tree), i
        assert b_entails(b_gh, s).valid, i
    _line("08 family-compression", time.perf_counter() - t0)


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((P, Q, R))
    conn = rng.choice(("neg", "cons", "and", "or", "imp"))
    arity = 1 if conn in ("neg", "cons") else 2
    return App(conn, tuple(_random_formula(rng, depth - 1)
                           for _ in range(arity)))


def _random_set(rng, max_size=2):
    return frozenset(_random_formula(rng, 2)
                     for _ in range(rng.randint(0, max_size)))


def test_09_aspect_recovery():
    arts = mci_artifacts()
    rng = random.Random(220822)
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        s = Statement1D(_random_set(rng), _random_set(rng))
        if aspect_entails(arts.b5, "t", s).valid != \
                entails_1d(arts.m5, s).valid:
            mismatches += 1
        if aspect_entails(arts.b5, "f", s).valid != \
                entails_1d(arts.m5_rej, s).valid:
            mismatches += 1
    assert mismatches == 0
    _line("09 aspect-recovery", time.perf_counter() - t0)


def _violations_1d(m, seed, n=500):
    rng = random.Random(seed)
    bad = 0
    for _ in range(n):
        phi, psi = _random_set(rng), _random_set(rng)
        x = _random_formula(rng, 2)
        sub = {v: _random_formula(rng, 1) for v in ("p", "q", "r")}

        if not entails_1d(m, Statement1D(phi | {x}, psi | {x})).valid:
            bad += 1
        if entails_1d(m, Statement1D(phi, psi)).valid:
            if not entails_1d(m, Statement1D(phi | {x}, psi)).valid:
                bad += 1
            inst = Statement1D(
                frozenset(substitute(f, sub) for f in phi),
                frozenset(substitute(f, sub) for f in psi))
            if not entails_1d(m, inst).valid:
                bad += 1
        if entails_1d(m, Statement1D(phi, psi | {x})).valid and \
                entails_1d(m, Statement1D(phi | {x}, psi)).valid and \
                not entails_1d(m, Statement1D(phi, psi)).valid:
            bad += 1
    return bad


def _violations_b(b, seed, n=500):
    rng = random.Random(seed)
    bad = 0
    for _ in range(n):
        parts = [_random_set(rng, 1) for _ in range(4)]
        s = BStatement(*parts)
        x = _random_formula(rng, 2)
        sub = {v: _random_formula(rng, 1) for v in ("p", "q", "r")}

        if not b_entails(b, BStatement(parts[0] | {x}, parts[1] | {x},
                                       parts[2], parts[3])).valid:
            bad += 1
        if b_entails(b, s).valid:
            if not b_entails(b, BStatement(parts[0] | {x}, parts[1],
                                           parts[2], parts[3] | {x})).valid:
                bad += 1
            inst = BStatement(*[frozenset(substitute(f, sub) for f in part)
                                for part in parts])
            if not b_entails(b, inst).valid:
                bad += 1
        one = b_entails(b, BStatement(parts[0] | {x}, parts[1],
                                      parts[2], parts[3])).valid
        other = b_entails(b, BStatement(parts[0], parts[1] | {x},
                                        parts[2], parts[3])).valid
        if one and other and not b_entails(b, s).valid:
            bad += 1
    return bad


def test_10_relation_properties():
    arts = mci_artifacts()
    t0 = time.perf_counter()
    assert _violations_1d(arts.m5, 90022) == 0
    assert _violations_1d(mk_matrix(1), 90023) == 0
    assert _violations_b(arts.b5, 90024) == 0
    _line("10 relation-properties", time.perf_counter() - t0)


def test_11_gap_glut_and_compound_recovery():
    arts = mci_artifacts()
    t0 = time.perf_counter()
    assert not b_entails(arts.b5, BStatement(nacc={P}, nrej={P})).valid
    assert not b_entails(
        arts.b5, BStatement(acc={P, CONS_P}, nrej={P})).valid

    theta = arts.hmci2d.theta
    for conn in ("and", "or", "imp"):
        c = App(conn, (P, Q))
        cc = App("cons", (c,))
        for s in (BStatement(acc={c, cc}, rej={c}),
                  BStatement(acc={c}, rej={cc, c})):
            out = prove(arts.hmci2d, s, theta, max_nodes=10 ** 4)
            assert isinstance(out, Proved), (conn, s)
            assert check_proof(arts.hmci2d, s, out.tree), (conn, s)
            assert b_entails(arts.b5, s).valid, (conn, s)
    _line("11 gap-glut-compounds", time.perf_counter() - t0)
