"""Randomized structural properties of the consequence relations and the
proof search, driven by hypothesis with derandomized runs."""

from hypothesis import given, settings, strategies as st

from ndlogic.calculi import Proved, Saturated, check_proof, lift_calculus, prove
from ndlogic.language import App, Signature, Var, substitute
from ndlogic.logics import cpl_pos, example2, mci_artifacts, mk_matrix
from ndlogic.semantics import (BStatement, NdAlgebra, NdMatrix, Statement1D,
                               aspect_entails, b_entails, entails_1d)

P, Q, R = Var("p"), Var("q"), Var("r")

ATOMS = st.sampled_from([P, Q, R])

FORMULAS = st.recursive(
    ATOMS,
    lambda leaf: st.one_of(
        st.builds(lambda a: App("neg", (a,)), leaf),
        st.builds(lambda a: App("cons", (a,)), leaf),
        st.builds(lambda a, b: App("and", (a, b)), leaf, leaf),
        st.builds(lambda a, b: App("or", (a, b)), leaf, leaf),
        st.builds(lambda a, b: App("imp", (a, b)), leaf, leaf)),
    max_leaves=8)

SMALL = st.frozensets(FORMULAS, max_size=2)

TINY_FORMULAS = st.recursive(
    ATOMS,
    lambda leaf: st.one_of(
        st.builds(lambda a: App("neg", (a,)), leaf),
        st.builds(lambda a: App("cons", (a,)), leaf),
        st.builds(lambda a, b: App("and", (a, b)), leaf, leaf)),
    max_leaves=3)

SUBSTITUTIONS = st.fixed_dictionaries(
    {"p": TINY_FORMULAS, "q": TINY_FORMULAS, "r": TINY_FORMULAS})

GH_FORMULAS = st.recursive(
    st.sampled_from([P, Q]),
    lambda leaf: st.one_of(
        st.builds(lambda a: App("g", (a,)), leaf),
        st.builds(lambda a: App("h", (a,)), leaf)),
    max_leaves=4)

GH_SMALL = st.frozensets(GH_FORMULAS, max_size=2)


def _arts():
    return mci_artifacts()


def _apply(sub, fs):
    return frozenset(substitute(f, sub) for f in fs)


class TestOneDimensionalRelation:

    @settings(derandomize=True, deadline=None)
    @given(SMALL, SMALL, FORMULAS)
    def test_overlap(self, phi, psi, x):
        for m in (_arts().m5, mk_matrix(1)):
            assert entails_1d(m, Statement1D(phi | {x}, psi | {x})).valid

    @settings(derandomize=True, deadline=None)
    @given(SMALL, SMALL, SMALL, SMALL)
    def test_dilution(self, phi, psi, more_l, more_r):
        for m in (_arts().m5, mk_matrix(1)):
            if entails_1d(m, Statement1D(phi, psi)).valid:
                assert entails_1d(
                    m, Statement1D(phi | more_l, psi | more_r)).valid

    @settings(derandomize=True, deadline=None)
    @given(SMALL, SMALL, FORMULAS)
    def test_finite_cut(self, phi, psi, x):
        for m in (_arts().m5, mk_matrix(1)):
            if entails_1d(m, Statement1D(phi, psi | {x})).valid and \
                    entails_1d(m, Statement1D(phi | {x}, psi)).valid:
                assert entails_1d(m, Statement1D(phi, psi)).valid

    @settings(derandomize=True, deadline=None)
    @given(SMALL, SMALL, SUBSTITUTIONS)
    def test_substitution_invariance(self, phi, psi, sub):
        for m in (_arts().m5, mk_matrix(1)):
            if entails_1d(m, Statement1D(phi, psi)).valid:
                assert entails_1d(
                    m, Statement1D(_apply(sub, phi), _apply(sub, psi))).valid

    @settings(derandomize=True, deadline=None)
    @given(FORMULAS, FORMULAS)
    def test_disjunction_facts(self, a, b):
        m5 = _arts().m5
        disj = App("or", (a, b))
        assert entails_1d(m5, Statement1D({a}, {disj})).valid
        assert entails_1d(m5, Statement1D({b}, {disj})).valid
        assert entails_1d(m5, Statement1D({disj}, {a, b})).valid

    @settings(derandomize=True, deadline=None)
    @given(SMALL, SMALL)
    def test_countermodels_recheck(self, phi, psi):
        m5 = _arts().m5
        verdict = entails_1d(m5, Statement1D(phi, psi))
        if verdict.valid:
            return
        v = verdict.countermodel
        _assert_coherent(m5.algebra, v)
        assert all(v(f) in m5.designated for f in phi)
        assert all(v(f) not in m5.designated for f in psi)

    @settings(derandomize=True, deadline=None)
    @given(SMALL, SMALL)
    def test_determinism(self, phi, psi):
        m5 = _arts().m5
        s = Statement1D(phi, psi)
        a, b = entails_1d(m5, s), entails_1d(m5, s)
        assert a == b


def _assert_coherent(alg, v):
    for f in v.domain:
        if isinstance(f, App):
            args = tuple(v(a) for a in f.args)
            assert v(f) in alg.interpretation[f.conn][args]


class TestTwoDimensionalRelation:

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(SMALL, SMALL, SMALL, SMALL, FORMULAS, st.booleans())
    def test_overlap(self, acc, nacc, rej, nrej, x, on_acc):
        b5 = _arts().b5
        if on_acc:
            s = BStatement(acc | {x}, nacc | {x}, rej, nrej)
        else:
            s = BStatement(acc, nacc, rej | {x}, nrej | {x})
        assert b_entails(b5, s).valid

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(SMALL, SMALL, SMALL, SMALL,
           st.frozensets(TINY_FORMULAS, max_size=1),
           st.frozensets(TINY_FORMULAS, max_size=1))
    def test_dilution(self, acc, nacc, rej, nrej, extra1, extra2):
        b5 = _arts().b5
        if b_entails(b5, BStatement(acc, nacc, rej, nrej)).valid:
            assert b_entails(b5, BStatement(acc | extra1, nacc | extra2,
                                            rej | extra2, nrej | extra1)).valid

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(SMALL, SMALL, SMALL, SMALL, FORMULAS, st.booleans())
    def test_finite_cut(self, acc, nacc, rej, nrej, x, on_acc):
        b5 = _arts().b5
        s = BStatement(acc, nacc, rej, nrej)
        if on_acc:
            one = BStatement(acc | {x}, nacc, rej, nrej)
            other = BStatement(acc, nacc | {x}, rej, nrej)
        else:
            one = BStatement(acc, nacc, rej | {x}, nrej)
            other = BStatement(acc, nacc, rej, nrej | {x})
        if b_entails(b5, one).valid and b_entails(b5, other).valid:
            assert b_entails(b5, s).valid

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(SMALL, SMALL, SMALL, SMALL, SUBSTITUTIONS)
    def test_substitution_invariance(self, acc, nacc, rej, nrej, sub):
        b5 = _arts().b5
        if b_entails(b5, BStatement(acc, nacc, rej, nrej)).valid:
            inst = BStatement(_apply(sub, acc), _apply(sub, nacc),
                              _apply(sub, rej), _apply(sub, nrej))
            assert b_entails(b5, inst).valid

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(SMALL, SMALL)
    def test_recovery(self, phi, psi):
        arts = _arts()
        s = Statement1D(phi, psi)
        assert aspect_entails(arts.b5, "t", s).valid == \
            entails_1d(arts.m5, s).valid
        assert aspect_entails(arts.b5, "f", s).valid == \
            entails_1d(arts.m5_rej, s).valid

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(SMALL, SMALL, SMALL, SMALL)
    def test_countermodels_recheck(self, acc, nacc, rej, nrej):
        b5 = _arts().b5
        verdict = b_entails(b5, BStatement(acc, nacc, rej, nrej))
        if verdict.valid:
            return
        v = verdict.countermodel
        _assert_coherent(b5.algebra, v)
        assert all(v(f) in b5.designated for f in acc)
        assert all(v(f) not in b5.designated for f in nacc)
        assert all(v(f) in b5.antidesignated for f in rej)
        assert all(v(f) not in b5.antidesignated for f in nrej)


# the boolean collapse of the positive fragment is a full-signature strong
# homomorphism once negation and consistency are stripped off, so verdicts
# must transfer both ways

_POS_SIG = Signature({"and": 2, "or": 2, "imp": 2},
                     {"and": "&", "or": "|", "imp": "->"})

POS_FORMULAS = st.recursive(
    ATOMS,
    lambda leaf: st.one_of(
        st.builds(lambda a, b: App("and", (a, b)), leaf, leaf),
        st.builds(lambda a, b: App("or", (a, b)), leaf, leaf),
        st.builds(lambda a, b: App("imp", (a, b)), leaf, leaf)),
    max_leaves=6)

POS_SMALL = st.frozensets(POS_FORMULAS, max_size=2)


def _positive_pair():
    mk = mk_matrix(1)
    pos4 = NdMatrix(
        NdAlgebra(_POS_SIG, mk.algebra.values,
                  {c: mk.algebra.interpretation[c]
                   for c in ("and", "or", "imp")}),
        mk.designated)
    t, f = "1", "0"
    bool2 = NdMatrix(
        NdAlgebra(_POS_SIG, (f, t), {
            "and": {(x, y): {t if x == t and y == t else f}
                    for x in (f, t) for y in (f, t)},
            "or": {(x, y): {t if x == t or y == t else f}
                   for x in (f, t) for y in (f, t)},
            "imp": {(x, y): {f if x == t and y == f else t}
                    for x in (f, t) for y in (f, t)},
        }),
        frozenset({t}))
    return pos4, bool2


class TestStrongHomTransfer:

    @settings(derandomize=True, deadline=None)
    @given(POS_SMALL, POS_SMALL)
    def test_verdicts_agree(self, phi, psi):
        pos4, bool2 = _positive_pair()
        s = Statement1D(phi, psi)
        assert entails_1d(pos4, s).valid == entails_1d(bool2, s).valid


class TestProofSearch:

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(GH_SMALL, GH_SMALL, GH_SMALL, GH_SMALL)
    def test_proved_trees_recheck_and_are_sound(self, acc, nacc, rej, nrej):
        b, calc = example2()
        s = BStatement(acc, nacc, rej, nrej)
        out = prove(calc, s, calc.theta)
        if isinstance(out, Proved):
            assert check_proof(calc, s, out.tree)
            assert b_entails(b, s).valid

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(GH_SMALL, GH_SMALL, GH_SMALL, GH_SMALL)
    def test_fence_monotone(self, acc, nacc, rej, nrej):
        _, calc = example2()
        s = BStatement(acc, nacc, rej, nrej)
        small = prove(calc, s, {P})
        if isinstance(small, Proved):
            big = prove(calc, s, {P, App("g", (P,))})
            assert isinstance(big, Proved)
            assert check_proof(calc, s, big.tree)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(GH_SMALL, GH_SMALL, GH_SMALL, GH_SMALL)
    def test_deterministic(self, acc, nacc, rej, nrej):
        _, calc = example2()
        s = BStatement(acc, nacc, rej, nrej)
        assert prove(calc, s, calc.theta) == prove(calc, s, calc.theta)

    @settings(derandomize=True, deadline=None, max_examples=25)
    @given(st.frozensets(POS_FORMULAS, max_size=1),
           st.frozensets(POS_FORMULAS, max_size=1))
    def test_dim1_embedding(self, phi, psi):
        c1 = cpl_pos()
        c2 = lift_calculus(c1)
        s1 = Statement1D(phi, psi)
        s2 = BStatement(acc=phi, nacc=psi)
        out1 = prove(c1, s1, {P})
        out2 = prove(c2, s2, {P})
        assert type(out1) is type(out2)
        if isinstance(out1, Proved):
            assert check_proof(c1, s1, out1.tree)
            assert check_proof(c2, s2, out2.tree)
        if isinstance(out1, Saturated):
            assert out1.label.acc == out2.label.acc
            assert not out2.label.rej
