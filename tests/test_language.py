"""Language layer: parsing, printing, substitution, subformulas, enumeration."""

import copy
import dataclasses
import gc
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ndlogic
from ndlogic import (App, LanguageError, ParseError, Signature, Var, depth,
                     enumerate_unary_formulas, gen_subformulas, parse_formula,
                     size, subformula_sequence, subformulas, substitute,
                     theta_set, variables)
from ndlogic import language
from ndlogic.language import _pool_levels

SIG = Signature(
    {"neg": 1, "cons": 1, "and": 2, "or": 2, "imp": 2},
    {"imp": "->", "and": "&", "or": "|"},
)

p, q, r = Var("p"), Var("q"), Var("r")


def neg(x):
    return App("neg", (x,))


def cons(x):
    return App("cons", (x,))


def conj(x, y):
    return App("and", (x, y))


def disj(x, y):
    return App("or", (x, y))


def imp(x, y):
    return App("imp", (x, y))


class TestParse:
    def test_prefix_application(self):
        assert parse_formula("neg(cons(p))", SIG) == neg(cons(p))

    def test_infix_sugar(self):
        assert parse_formula("(p -> q)", SIG) == imp(p, q)

    def test_nested_infix(self):
        assert parse_formula("((p & q) | neg(r))", SIG) == \
            disj(conj(p, q), neg(r))

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_formula("and(p)", SIG)

    def test_unknown_connective_applied(self):
        with pytest.raises(ParseError):
            parse_formula("box(p)", SIG)

    def test_undeclared_identifier_is_variable(self):
        assert parse_formula("snark", SIG) == Var("snark")

    def test_declared_name_bare_is_error(self):
        with pytest.raises(ParseError):
            parse_formula("and", SIG)

    def test_plain_parens_rejected(self):
        # grouping exists only around an infix operator
        with pytest.raises(ParseError):
            parse_formula("(p)", SIG)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_formula("p q", SIG)

    def test_error_position_reported(self):
        with pytest.raises(ParseError) as e:
            parse_formula("neg(%)", SIG)
        assert e.value.position == 4

    def test_permissive_mode(self):
        f = parse_formula("box(p,dia(q))")
        assert f == App("box", (p, App("dia", (q,))))

    def test_permissive_no_infix(self):
        with pytest.raises(ParseError):
            parse_formula("(p -> q)")

    def test_nullary_connective(self):
        s = Signature({"bottom": 0, "neg": 1})
        f = parse_formula("neg(bottom)", s)
        assert f == App("neg", (App("bottom", ()),))
        assert parse_formula(str(f), s) == f

    @pytest.mark.parametrize("arity", [-1, True])
    def test_bad_arity_rejected(self, arity):
        with pytest.raises(LanguageError):
            Signature({"neg": arity})

    @pytest.mark.parametrize("conns, notation, message", [
        ({"1neg": 1}, {}, "bad connective name: '1neg'"),
        ({"neg": 1}, {"imp": "->"},
         "notation for undeclared connective 'imp'"),
        ({"neg": 1}, {"neg": "~"}, "infix notation requires arity 2: 'neg'"),
        ({"imp": 2}, {"imp": "imp"}, "bad infix alias for 'imp': 'imp'"),
        ({"imp": 2, "or": 2}, {"imp": "->", "or": "->"},
         "alias '->' used by both 'imp' and 'or'"),
    ])
    def test_bad_signature_rejected(self, conns, notation, message):
        with pytest.raises(LanguageError) as e:
            Signature(conns, notation)
        assert str(e.value) == message

    def test_whitespace_insignificant(self):
        assert parse_formula(" neg ( p ) ", SIG) == neg(p)

    def test_deep_nesting_without_recursion(self):
        f = p
        for _ in range(10_000):
            f = neg(f)
        assert parse_formula("neg(" * 10_000 + "p" + ")" * 10_000, SIG) == f
        g = p
        for _ in range(5_000):
            g = imp(p, g)
        assert parse_formula("(p -> " * 5_000 + "p" + ")" * 5_000, SIG) == g

    def test_deep_error_position(self):
        text = "neg(" * 10_000 + "p" + ")" * 9_999
        with pytest.raises(ParseError) as e:
            parse_formula(text, SIG)
        assert str(e.value) == f"expected ')', found '' (at position {len(text)})"
        assert e.value.position == len(text)


# SIG plus a constant, so that a constant applied to arguments is covered
SIG_BOT = Signature({**SIG.connectives, "bot": 0}, SIG.notation)


@pytest.mark.parametrize("text, sig, message, position", [
    ("neg(%)", SIG_BOT, "unknown token '%'", 4),
    ("p $ q", None,
     "unknown token '$'; infix notation needs a signature that declares it",
     2),
    ("(p -> q)", None,
     "unknown token '-'; infix notation needs a signature that declares it",
     3),
    ("", SIG_BOT, "expected a formula, found ''", 0),
    ("", None, "expected a formula, found ''", 0),
    (")", None, "expected a formula, found ')'", 0),
    ("neg(,)", SIG_BOT, "expected a formula, found ','", 4),
    ("-> p", SIG_BOT, "expected a formula, found '->'", 0),
    ("f()", None, "expected a formula, found ')'", 2),
    ("f(p,)", None, "expected a formula, found ')'", 4),
    ("and", SIG_BOT, "connective 'and' used without arguments", 0),
    ("neg(and)", SIG_BOT, "connective 'and' used without arguments", 4),
    ("(p q)", SIG_BOT, "expected an infix operator, found 'q'", 3),
    ("(p)", SIG_BOT, "expected an infix operator, found ')'", 2),
    ("(p, q)", None, "expected an infix operator, found ','", 2),
    ("neg(p q)", SIG_BOT, "expected ')', found 'q'", 6),
    ("neg(p -> q)", SIG_BOT, "expected ')', found '->'", 6),
    ("(p -> q", SIG_BOT, "expected ')', found ''", 7),
    ("(p -> q r)", SIG_BOT, "expected ')', found 'r'", 8),
    ("f(p", None, "expected ')', found ''", 3),
    ("box(p)", SIG_BOT, "unknown connective 'box'", 0),
    ("neg(box(p))", SIG_BOT, "unknown connective 'box'", 4),
    ("and(p)", SIG_BOT, "connective 'and' expects 2 arguments, got 1", 0),
    ("neg(p, q)", SIG_BOT, "connective 'neg' expects 1 arguments, got 2", 0),
    ("bot(p)", SIG_BOT, "connective 'bot' expects 0 arguments, got 1", 0),
    ("p q", SIG_BOT, "trailing input 'q'", 2),
    ("p -> q", SIG_BOT, "trailing input '->'", 2),
    ("neg(p))", None, "trailing input ')'", 6),
    ("p,", None, "trailing input ','", 1),
])
def test_parse_error_messages(text, sig, message, position):
    """Every ParseError's exact text and position, with a signature and in
    permissive mode."""
    with pytest.raises(ParseError) as e:
        parse_formula(text, sig)
    assert str(e.value) == f"{message} (at position {position})"
    assert e.value.position == position


# no signature; connectives with three aliases and a constant; one alias;
# aliases of which one is a prefix of another
POSITION_SIGS = [None, SIG_BOT, Signature({"le": 2}, {"le": "<="}),
                 Signature({"lt": 2, "le": 2, "imp": 2},
                           {"lt": "<", "le": "<=", "imp": "=>"})]
POSITION_PIECES = ["p", "q", "x_1", "neg", "and", "imp", "bot", "le", "lt",
                   "box", "(", ")", ",", "&", "|", "->", "<=", "<", "=>",
                   "-", "=", ">", " ", "  ", "\t", "\n", "%", "$", "1", "é",
                   "and(p)", "neg(p,q)"]
# a phrase of each ParseError message
POSITION_KINDS = {"unknown token", "expected a formula", "expected an infix",
                  "expected ')'", "unknown connective", "without arguments",
                  "arguments, got", "trailing input"}


def test_error_positions_point_at_what_the_message_names():
    """On seeded random token strings, every ParseError's position is where
    its message's token or connective starts, or the end for ``''``."""
    rng = random.Random("parse-error-positions")
    seen = set()
    for _ in range(3_000):
        text = "".join(rng.choice(POSITION_PIECES)
                       for _ in range(rng.randint(0, 10)))
        for sig in POSITION_SIGS:
            try:
                parse_formula(text, sig)
            except ParseError as e:
                message, pos = str(e), e.position
                assert message.endswith(f" (at position {pos})")
                # the token after "found", else the first quoted name
                named = (re.search(r"found '([^']*)' \(at", message) or
                         re.search(r"'([^']*)'", message))[1]
                seen.update(k for k in POSITION_KINDS if k in message)
                if message.startswith("unknown token"):
                    assert text[pos] == named, message
                elif named:
                    assert text.startswith(named, pos), (text, message)
                else:
                    assert pos == len(text), (text, message)
    assert seen == POSITION_KINDS


class TestPrint:
    def test_prefix_canonical(self):
        assert str(imp(p, q)) == "imp(p,q)"
        assert str(neg(conj(p, q))) == "neg(and(p,q))"

    def test_round_trip_examples(self):
        for text in ["p", "neg(p)", "cons(neg(cons(p)))", "and(or(p,q),r)"]:
            f = parse_formula(text, SIG)
            assert parse_formula(str(f), SIG) == f


class TestSubstitute:
    def test_single_replacement(self):
        assert substitute(neg(p), {"p": disj(q, r)}) == neg(disj(q, r))

    def test_identity(self):
        f = imp(p, q)
        assert substitute(f, {}) == f

    def test_hand_expanded(self):
        assert substitute(cons(p), {"p": neg(cons(p))}) == cons(neg(cons(p)))

    def test_simultaneous(self):
        f = imp(p, q)
        got = substitute(f, {"p": q, "q": p})
        assert got == imp(q, p)


class TestSubformulas:
    def test_variable(self):
        assert subformulas(p) == {p}

    def test_binary_under_negation(self):
        f = neg(disj(q, r))
        assert subformulas(f) == {q, r, disj(q, r), f}

    def test_hand_unfolded(self):
        f = cons(neg(cons(p)))
        assert subformulas(f) == {p, cons(p), neg(cons(p)), f}

    def test_sequence_is_post_order(self):
        seq = subformula_sequence([cons(neg(cons(p)))])
        assert seq == (p, cons(p), neg(cons(p)), cons(neg(cons(p))))

    def test_sequence_dedups_across_inputs(self):
        seq = subformula_sequence([neg(p), conj(neg(p), q)])
        assert seq == (p, neg(p), q, conj(neg(p), q))


class TestStructure:
    def test_variables_first_occurrence_order(self):
        assert variables(imp(conj(q, neg(p)), disj(r, q))) == ("q", "p", "r")

    def test_depth_and_size(self):
        bottom = App("bottom", ())
        assert (depth(p), size(p)) == (0, 1)
        assert (depth(bottom), size(bottom)) == (1, 1)
        assert (depth(conj(neg(bottom), p)), size(conj(neg(bottom), p))) \
            == (3, 4)

    def test_deep_formula_without_recursion(self):
        f = p
        for i in range(5_000):
            f = conj(neg(f), Var(f"x{i % 3}"))
        assert depth(f) == 10_000
        assert size(f) == 15_001
        assert variables(f) == ("p", "x0", "x1", "x2")
        assert parse_formula(str(f), SIG) == f

    def test_shared_subformulas_are_not_unfolded(self):
        # 65 distinct subformulas spell a tree of 2^65 - 1 nodes
        f = p
        for _ in range(64):
            f = conj(f, f)
        assert depth(f) == 64
        assert size(f) == 2 ** 65 - 1

    def test_deep_formula_prints_without_recursion(self):
        f = p
        for _ in range(10_000):
            f = neg(f)
        assert str(f) == "neg(" * 10_000 + "p" + ")" * 10_000
        assert str(conj(f, App("bot", ()))).endswith("p" + ")" * 10_000
                                                      + ",bot)")

    def test_deep_chain_hash_substitute_subformulas(self):
        f = p
        for _ in range(10_000):
            f = neg(f)
        assert f in {f} and f.args[0] not in {f}
        g = substitute(f, {"p": q})
        assert hash(g) != hash(f) and variables(g) == ("q",)
        assert depth(g) == 10_000 and g.args[0].args[0].conn == "neg"
        subs = subformulas(f)
        assert len(subs) == 10_001 and p in subs and f in subs
        assert len(gen_subformulas({p, cons(p)}, [f])) == 20_002

    def test_deep_chains_compare_without_recursion(self):
        f, g, h = p, p, q
        for _ in range(10_000):
            f, g, h = neg(f), neg(g), neg(h)
        assert f is g and f == g and not f != g
        assert g in {f} and {f: 1}[g] == 1
        assert f != h and h not in {f}
        assert f != neg(g) and f.args[0] == g.args[0]

    def test_hash_is_the_identity_hash(self):
        for f in (App("bot", ()), neg(p), imp(conj(p, q), cons(r))):
            assert type(f).__hash__ is object.__hash__
        assert hash(neg(p)) == hash(neg(Var("p")))
        assert repr(neg(p)) == "App('neg', (Var('p'),))"
        for v in (p, Var("x_1")):
            assert type(v).__hash__ is object.__hash__ and v == Var(v.name)
        assert repr(p) == "Var('p')" and p != Var("q")

    def test_unpickled_formula_hashes_in_this_process(self):
        # a pickle carries structure, not identity: unpickling rebuilds
        # through the constructor and finds this process's formula
        code = ("import pickle, sys; from ndlogic import App, Var; "
                "sys.stdout.buffer.write(pickle.dumps("
                "App('imp', (App('neg', (Var('p'),)), Var('q')))))")
        env = dict(os.environ, PYTHONHASHSEED="1",
                   PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
        got = pickle.loads(subprocess.run([sys.executable, "-c", code],
                                          env=env, capture_output=True,
                                          check=True, timeout=60).stdout)
        assert got == imp(neg(p), q) and hash(got) == hash(imp(neg(p), q))
        assert got in {imp(neg(p), q)} and got is imp(neg(p), q)

    def test_unpickled_variable_hashes_in_this_process(self):
        code = ("import pickle, sys; from ndlogic import Var; "
                "sys.stdout.buffer.write(pickle.dumps("
                "(Var('q'), {Var('p'): 1})))")
        env = dict(os.environ, PYTHONHASHSEED="1",
                   PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
        got, table = pickle.loads(subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            check=True, timeout=60).stdout)
        assert got == q and hash(got) == hash(q) and got in {q}
        assert table[p] == 1 and hash(next(iter(table))) == hash(p)
        assert got is q and next(iter(table)) is p


class TestInterning:
    def test_one_object_per_formula(self):
        f = imp(neg(p), conj(q, App("bot", ())))
        assert parse_formula("neg(p)") is App("neg", (Var("p"),))
        assert parse_formula("(neg(p) -> (q & r))", SIG) is \
            imp(neg(p), conj(q, r))
        assert substitute(imp(neg(r), q), {"r": p}) is imp(neg(p), q)
        assert copy.deepcopy(f) is f and copy.copy(f) is f
        assert pickle.loads(pickle.dumps(f)) is f
        assert copy.deepcopy({f: [p]})[f][0] is p

    def test_constant_and_variable_stay_distinct(self):
        assert App("bot", ()) is not Var("bot")
        assert App("bot", ()) != Var("bot")
        assert App("bot", ()) is App("bot") and Var("bot") is Var("bot")

    def test_fields_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.name = "q"
        with pytest.raises(dataclasses.FrozenInstanceError):
            neg(p).args = ()
        assert p.name == "p" and neg(p).args == (p,)

    def test_table_is_weak(self):
        gc.collect()
        before = len(language._interned)
        held = [neg(Var(f"_weak{i}")) for i in range(100_000)]
        assert len(language._interned) == before + 200_000
        del held
        gc.collect()
        assert len(language._interned) == before

    def test_rebuilt_formula_is_live_with_one_entry(self):
        x = Var("_rebuilt")
        key = ("neg", (x,))
        gc.collect()
        before = len(language._interned)
        f = neg(x)
        dead = language._interned[key]
        del f
        gc.collect()
        assert dead() is None and len(language._interned) == before
        f = neg(x)
        entry = language._interned[key]
        assert entry is not dead and entry() is f
        assert len(language._interned) == before + 1
        assert [k for k, w in language._interned.items() if w() is f] == [key]
        # a late callback of the dead reference leaves the new entry
        language._forget(language._interned, key, dead)
        assert language._interned[key] is entry and neg(x) is f

    def test_exit_with_live_formulas_is_silent(self):
        # the removal callbacks run while the interpreter tears its
        # modules down, and must not report "Exception ignored"
        code = ("from ndlogic import App, Var; "
                "held = [App('neg', (Var(f'_x{i}'),)) for i in range(100_000)]")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
        run = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, check=True, timeout=60)
        assert run.stderr == b"" and run.stdout == b""

    def test_deep_formula_repr_and_deepcopy_without_recursion(self):
        f = p
        for _ in range(10_000):
            f = neg(f)
        assert repr(f) == ("App('neg', (" * 10_000 + "Var('p')"
                           + ",))" * 10_000)
        assert copy.deepcopy(f) is f and copy.deepcopy([f])[0] is f

    def test_deep_formula_pickles_without_recursion(self):
        f = p
        for _ in range(10_000):
            f = neg(f)
        assert pickle.loads(pickle.dumps(f)) is f
        assert pickle.loads(pickle.dumps([f, neg(p)]))[1] is neg(p)

    def test_shared_subformulas_pickle_once(self):
        # and(x,x) nested 40 deep: 41 distinct subformulas, 2**40 leaves
        f = q
        for _ in range(40):
            f = conj(f, f)
        data = pickle.dumps(f)
        assert len(data) < 1_000 and pickle.loads(data) is f


class TestThetaSet:
    def test_requires_p(self):
        with pytest.raises(LanguageError):
            theta_set([neg(p)])

    def test_normalizes_variable_name(self):
        assert theta_set([q, neg(q)]) == frozenset({p, neg(p)})

    def test_rejects_two_variables(self):
        with pytest.raises(LanguageError):
            theta_set([p, conj(p, q)])


class TestGenSubformulas:
    def test_neg_theta(self):
        f = neg(disj(q, r))
        got = gen_subformulas(theta_set([p, neg(p)]), [f])
        plain = {q, r, disj(q, r), f}
        assert got == plain | {neg(q), neg(r), neg(f)} | {neg(disj(q, r))}

    def test_theta_p_is_plain(self):
        f = imp(conj(p, q), r)
        assert gen_subformulas(theta_set([p]), [f]) == subformulas(f)

    def test_cons_theta(self):
        f = neg(cons(p))
        got = gen_subformulas(theta_set([p, cons(p)]), [f])
        assert got == {p, cons(p), f} | {cons(cons(p)), cons(f)}

    def test_ground_member_passes_through(self):
        s = Signature({"bottom": 0})
        bot = App("bottom", ())
        got = gen_subformulas(frozenset({p, bot}), [q])
        assert got == {q, bot}

    def test_equals_the_definition(self):
        # theta members whose first leaf is a constant, with a repeated
        # variable, nested, ground, and seeded random ones over p
        bot = App("bot", ())
        special = [conj(bot, p), conj(p, p), neg(cons(p)), neg(bot)]
        conns = [("neg", 1), ("cons", 1), ("and", 2), ("or", 2), ("bot", 0)]
        rng = random.Random("gen-subformulas")

        def formula(depth, leaves):
            if depth == 0 or rng.random() < 0.3:
                return Var(rng.choice(leaves))
            name, k = rng.choice(conns)
            return App(name, tuple(formula(depth - 1, leaves)
                                   for _ in range(k)))

        for _ in range(60):
            theta = {p, *rng.sample(special, rng.randint(0, 4)),
                     *(formula(2, "p") for _ in range(rng.randint(0, 2)))}
            fs = [formula(3, "pqr") for _ in range(rng.randint(0, 3))]
            want = set()
            for th in theta:
                vs = variables(th)
                want |= ({substitute(th, {vs[0]: g})
                          for g in subformula_sequence(fs)} if vs else {th})
            assert gen_subformulas(theta, fs) == want
            # the closure: no repeats, each formula after its arguments,
            # and exactly the subformulas of the generalized ones
            gen, closure = language._gen_closure(theta, fs)
            at = {f: i for i, f in enumerate(closure)}
            assert len(at) == len(closure) and all(
                at[a] < i for i, f in enumerate(closure)
                for a in getattr(f, "args", ())) and \
                at.keys() == {g for f in gen for g in subformulas(f)}


class TestEnumerate:
    def test_depth_zero(self):
        assert enumerate_unary_formulas(SIG, 0) == [p]

    def test_depth_one_order(self):
        # depth-major, then lexicographic by connective name
        assert enumerate_unary_formulas(SIG, 1) == [
            p, conj(p, p), cons(p), imp(p, p), neg(p), disj(p, p)]

    def test_two_unary_connectives_depth_two(self):
        sig = Signature({"g": 1, "h": 1})
        g = lambda x: App("g", (x,))
        h = lambda x: App("h", (x,))
        assert enumerate_unary_formulas(sig, 2) == [
            p, g(p), h(p), g(g(p)), g(h(p)), h(g(p)), h(h(p))]

    def test_counts_grow_as_expected(self):
        # level sizes for the five-connective signature: 1, 6, 121, 44166
        assert len(enumerate_unary_formulas(SIG, 2)) == 121
        assert len(enumerate_unary_formulas(SIG, 3)) == 44166

    def test_duplicate_free(self):
        fs = enumerate_unary_formulas(SIG, 2)
        assert len(fs) == len(set(fs))

    def test_level_sizes_are_known_up_front(self):
        # a level's size comes from the sizes below it, so the depth-4
        # pool of about 5.85e9 formulas is counted without being built
        assert [size for *_, size in _pool_levels(SIG, 4)] == \
            [1, 5, 115, 44045, 5851950835]
        sig = Signature({"c": 0, "g": 1, "k": 2})
        sizes = [size for *_, size in _pool_levels(sig, 3)]
        assert sizes == [1, 3, 18, 486]
        for depth in range(4):
            assert len(enumerate_unary_formulas(sig, depth)) == \
                sum(sizes[:depth + 1])
        with pytest.raises(LanguageError):
            enumerate_unary_formulas(sig, -1)


# ---------------------------------------------------------------------------
# property tests

formula_st = st.recursive(
    st.sampled_from([p, q, r]),
    lambda inner: st.one_of(
        st.builds(lambda a: neg(a), inner),
        st.builds(lambda a: cons(a), inner),
        st.builds(conj, inner, inner),
        st.builds(disj, inner, inner),
        st.builds(imp, inner, inner),
    ),
    max_leaves=8,
)

subst_st = st.dictionaries(st.sampled_from(["p", "q", "r"]), formula_st,
                           max_size=3)


@settings(max_examples=100, derandomize=True)
@given(formula_st)
def test_print_parse_round_trip(f):
    assert parse_formula(str(f), SIG) == f


@settings(max_examples=100, derandomize=True)
@given(formula_st)
def test_gen_subformulas_degenerates(f):
    assert gen_subformulas(frozenset({p}), [f]) == subformulas(f)


@settings(max_examples=100, derandomize=True)
@given(formula_st)
def test_subformula_closure(f):
    fs = subformulas(f)
    for g in fs:
        assert subformulas(g) <= fs


def _post_order(fs):
    """The recursive definition of ``subformula_sequence``."""
    out = []

    def go(g):
        if g not in out:
            for a in getattr(g, "args", ()):
                go(a)
            out.append(g)

    for f in fs:
        go(f)
    return tuple(out)


def _substituted(f, s):
    """The recursive definition of ``substitute``."""
    if isinstance(f, Var):
        return s.get(f.name, f)
    return App(f.conn, tuple(_substituted(a, s) for a in f.args))


@settings(max_examples=100, derandomize=True)
@given(st.lists(formula_st, max_size=3), subst_st)
def test_iterative_walks_match_recursive_definitions(fs, s):
    assert subformula_sequence(fs) == _post_order(fs)
    for f in fs:
        assert substitute(f, s) == _substituted(f, s)


@settings(max_examples=100, derandomize=True)
@given(formula_st, formula_st)
def test_equality_is_syntactic(f, g):
    copy = substitute(f, {})  # equal, with fresh compound nodes
    assert copy == f and hash(copy) == hash(f)
    assert (f == g) == (copy == g) == (str(f) == str(g))
    assert (f != g) == (str(f) != str(g))


@settings(max_examples=50, derandomize=True)
@given(formula_st)
def test_size_depth_sane(f):
    assert size(f) >= depth(f) + (0 if isinstance(f, Var) else 1)
    assert variables(f)
