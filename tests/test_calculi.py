"""Calculi layer tests: rule instantiation, deterministic instance
ordering, derivation checking against hand-built trees, and saturation
proof search with frozen outcomes and renderings."""

import copy
import pickle
import random
from itertools import product

import pytest

from ndlogic.calculi import (STAR, Calculus, Label, LimitExceeded, Node,
                             Proved, RuleSchema, Saturated, _Fence,
                             _instance_pool, applicable_instances,
                             check_derivation, check_proof, instantiate_rule,
                             lift_calculus, prove, render_tree_dot,
                             render_tree_text)
from ndlogic.errors import CalculiError, LanguageError
from ndlogic.language import (App, Signature, Var, gen_subformulas,
                              parse_formula, size, subformulas, substitute,
                              theta_set)
from ndlogic.logics import (_hmci2d_rules, cpl_pos, example1_rules, example2,
                            hmci_axioms, mci_artifacts)
from ndlogic.semantics import BStatement, Statement1D

p = Var("p")
q = Var("q")

GH = Signature({"g": 1, "h": 1})


def fgh(text):
    return parse_formula(text, GH)


R1 = RuleSchema("r1", 2, acc={p}, rej={p})
R2 = RuleSchema("r2", 2, nacc={fgh("g(p)"), p}, nrej={p})
R3 = RuleSchema("r3", 2, rej={p}, nrej={fgh("h(p)")})
GH_CALC = Calculus("gh", 2, (R1, R2, R3), theta={p})

IMP = Signature({"imp": 2}, {"imp": "->"})


def fi(text):
    return parse_formula(text, IMP)


AX_K = RuleSchema("K", 1, nacc={fi("(p -> (q -> p))")})
MP = RuleSchema("mp", 1, acc={p, fi("(p -> q)")}, nacc={q})
HILBERT = Calculus("mini-hilbert", 1, (AX_K, MP))


# ---------------------------------------------------------------------------
# schemas and calculi


class TestSchemas:
    def test_dim1_aliases(self):
        r = RuleSchema("x", 1, acc={p}, nacc={q})
        assert r.antecedent == frozenset({p})
        assert r.succedent == frozenset({q})

    def test_dim1_rejects_rej_side(self):
        with pytest.raises(CalculiError):
            RuleSchema("x", 1, acc={p}, nrej={p})

    @pytest.mark.parametrize("dimension", [3, True, 1.0])
    def test_dimension_range(self, dimension):
        with pytest.raises(CalculiError):
            RuleSchema("x", dimension, acc={p})

    def test_schema_variables_sorted(self):
        r = RuleSchema("x", 2, acc={fgh("g(q)")}, nrej={p})
        assert r.schema_variables() == ("p", "q")

    def test_instantiate(self):
        inst = instantiate_rule(R2, {"p": fgh("h(q)")})
        assert inst.nacc == frozenset({fgh("g(h(q))"), fgh("h(q)")})
        assert inst.nrej == frozenset({fgh("h(q)")})
        assert inst.subst == (("p", fgh("h(q)")),)
        assert inst.branches == 3 and not inst.closing

    def test_instantiate_partial_is_identity(self):
        inst = instantiate_rule(R1, {})
        assert inst.acc == frozenset({p}) and inst.closing

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(CalculiError):
            Calculus("c", 2, (R1, RuleSchema("r1", 2, acc={p})))

    def test_mixed_dimension_rejected(self):
        with pytest.raises(CalculiError):
            Calculus("c", 2, (R1, AX_K))

    @pytest.mark.parametrize("dimension", [3, True, 1.0])
    def test_calculus_dimension_range(self, dimension):
        with pytest.raises(CalculiError):
            Calculus("c", dimension, ())

    def test_rule_named(self):
        assert GH_CALC.rule_named("r2") is R2
        with pytest.raises(CalculiError):
            GH_CALC.rule_named("nope")

    def test_calculus_theta_validated(self):
        with pytest.raises(LanguageError):
            Calculus("c", 2, (R1,), theta={fgh("g(p)")})

    def test_lift(self):
        lifted = lift_calculus(HILBERT)
        assert lifted.dimension == 2
        assert all(r.dimension == 2 and not r.rej and not r.nrej
                   for r in lifted.rules)
        with pytest.raises(CalculiError):
            lift_calculus(lifted)

    def test_lifted_rules_get_their_own_plans(self):
        for r, lifted in zip(HILBERT.rules, lift_calculus(HILBERT).rules):
            assert lifted is not r and lifted._steps == r._steps
            assert lifted.schema_variables() == r.schema_variables()
        assert MP._steps == (("match", fi("(p -> q)"), ("p", "q"), 0b1),
                             ("var", p, "p", 0b1), ("var", q, "q", 0b100))

    def test_match_plan_leaves_equality_alone(self):
        pairs = list(zip(_hmci2d_rules(), _hmci2d_rules()))
        pairs.append((R2, RuleSchema("r2", 2, nacc={fgh("g(p)"), Var("p")},
                                     nrej={Var("p")})))
        for a, b in pairs:
            assert a is not b and a == b and hash(a) == hash(b)
            assert repr(a) == repr(b) and "_steps" not in repr(a)


# ---------------------------------------------------------------------------
# instance generation


class TestApplicableInstances:
    def test_order_and_skip(self):
        fence = [p, fgh("g(p)"), fgh("h(p)")]
        label = Label({p}, {p})
        insts = applicable_instances(GH_CALC, label, fence)
        # r2 at p is satisfied (p already accepted); closing r1 leads
        assert [(i.rule, dict(i.subst)["p"]) for i in insts] == \
            [("r1", p), ("r3", p)]

    def test_fence_bounds_substitution(self):
        insts = applicable_instances(GH_CALC, Label(), [p, fgh("g(p)")])
        assert [(i.rule, str(dict(i.subst)["p"])) for i in insts] == \
            [("r2", "p")]

    def test_two_variable_rule(self):
        r = RuleSchema("pair", 2, acc={p}, nacc={q})
        c = Calculus("c", 2, (r,))
        insts = applicable_instances(c, Label({p}), [p, fgh("g(p)")])
        assert [dict(i.subst) for i in insts] == \
            [{"p": p, "q": fgh("g(p)")}]

    def test_empty_label_no_antecedent_rules(self):
        insts = applicable_instances(HILBERT, Label(), [p])
        assert insts == []


def fence_order(fence):
    """The fence without repeats, by size and then printed form."""
    return sorted(dict.fromkeys(fence), key=lambda f: (size(f), str(f)))


def instance_pool(c, fence):
    """The pool's rows as RuleInstances; each row's key must hold the fence
    masks of its instance's acc, rej, nacc and nrej, n bits each."""
    fence = _Fence(fence)
    n = len(fence.formulas)
    out = []
    for _, ri, subst, key in _instance_pool(c, fence):
        rule = c.rules[ri]
        inst = instantiate_rule(rule, dict(zip(
            rule._vars, map(fence.formulas.__getitem__, subst))))
        sides = (inst.acc, inst.rej, inst.nacc, inst.nrej)
        assert key == sum(fence.mask(fs) << a * n
                          for a, fs in enumerate(sides)), inst
        out.append(inst)
    return out


def reference_pool(c, fence):
    """The brute-force pool: every rule at every tuple of fence formulas,
    filtered to the fence, first of equal instances kept, stably sorted by
    (branches, rule index)."""
    fence_list = fence_order(fence)
    fence_set = frozenset(fence_list)
    out = []
    seen = set()
    for ri, rule in enumerate(c.rules):
        schema_vars = rule.schema_variables()
        for combo in product(fence_list, repeat=len(schema_vars)):
            inst = instantiate_rule(rule, dict(zip(schema_vars, combo)))
            if not (inst.acc <= fence_set and inst.nacc <= fence_set
                    and inst.rej <= fence_set and inst.nrej <= fence_set):
                continue
            key = (ri, inst.acc, inst.nacc, inst.rej, inst.nrej)
            if key in seen:
                continue
            seen.add(key)
            out.append((inst.branches, ri, inst))
    out.sort(key=lambda t: (t[0], t[1]))
    return [inst for _, _, inst in out]


BOT, TOP = App("bot"), App("top")
# a zero-variable rule, a rule with no formulas at all, two-variable rules
# whose variables sit in different schema formulas, a symmetric rule
# whose swapped substitutions give one instance, and a rule whose second
# matched formula shares a variable with the first
MIXED = Calculus("mixed", 2, (
    RuleSchema("const", 2, acc={BOT}, nrej={TOP}),
    # its closed formula is planned before the open one
    RuleSchema("efq", 2, acc={BOT}, nacc={p}),
    RuleSchema("none", 2),
    RuleSchema("sym", 2, acc={p, q}),
    RuleSchema("split", 2, acc={fgh("g(p)")}, nrej={fgh("h(q)")}),
    RuleSchema("bare", 2, rej={p}, nacc={q, fgh("g(q)")}),
    RuleSchema("shared", 2, acc={fgh("g(g(p))")}, nrej={App("k", (p, q))}),
    R1, R2, R3))

POOL_CALCULI = {
    "hmci2d": mci_artifacts().hmci2d,
    "ex2-calc": example2()[1],
    "cplpos": cpl_pos(),
    "hmci:0": hmci_axioms(0),
    "hmci:2": hmci_axioms(2),
    "ex1-rules:0": example1_rules(0),
    "ex1-rules:3": example1_rules(3),
    "lifted-cplpos": lift_calculus(cpl_pos()),
    "mixed": MIXED,
}


def random_fence(c, rng, cap):
    """Generalized subformulas, under the calculus theta or {p}, of random
    formulas over the rules' connectives and of random rule instances;
    sometimes thinned to a set that is not subformula-closed, sometimes
    listed with repeats."""
    schema = [f for r in c.rules for f in r.acc | r.nacc | r.rej | r.nrej]
    conns = sorted({(g.conn, len(g.args)) for f in schema
                    for g in subformulas(f) if isinstance(g, App)})

    def formula(depth):
        if not conns or depth == 0 or rng.random() < 0.3:
            return Var(rng.choice("pq"))
        name, k = rng.choice(conns)
        return App(name, tuple(formula(depth - 1) for _ in range(k)))

    seeds = [formula(2) for _ in range(rng.randint(0, 2))]
    for _ in range(rng.randint(0, 2)):
        if schema:
            f = rng.choice(schema)
            seeds.append(substitute(f, {v: formula(1) for v in "pqr"}))
    fence = fence_order(gen_subformulas(c.theta or {p}, seeds))
    if len(fence) > cap or rng.random() < 0.3:
        fence = rng.sample(fence, min(cap, rng.randint(0, len(fence))))
    if fence and rng.random() < 0.2:
        fence += rng.sample(fence, 1)
    return fence


class TestInstancePool:
    @pytest.mark.parametrize("name", sorted(POOL_CALCULI))
    def test_equals_brute_force(self, name):
        c = POOL_CALCULI[name]
        most = max(len(r.schema_variables()) for r in c.rules)
        cap = {0: 40, 1: 40, 2: 20}.get(most, 10)
        rng = random.Random(f"pool-{name}")
        kept = 0
        for _ in range(25):
            fence = random_fence(c, rng, cap)
            got = instance_pool(c, fence)
            assert got == reference_pool(c, fence), [str(f) for f in fence]
            for inst in got:
                rule = c.rule_named(inst.rule)
                assert inst == instantiate_rule(rule, dict(inst.subst))
            kept += len(got)
        assert kept > 0

    def test_pattern_in_two_attitudes_gets_one_image(self):
        c = mci_artifacts().hmci2d
        neg3 = c.rule_named("neg3")
        assert p in neg3.acc and neg3.nrej == {p}
        fence = fence_order(gen_subformulas(c.theta, [
            parse_formula("neg(and(p,neg(q)))"), parse_formula("neg(q)")]))
        insts = [i for i in instance_pool(c, fence) if i.rule == "neg3"]
        assert len(insts) == 2
        for inst in insts:
            image = dict(inst.subst)["p"]
            assert inst.nrej == {image}
            assert inst.acc == {image, App("neg", (image,))}

    def test_mixed_rules_instantiate(self):
        fence = [p, q, BOT, TOP, fgh("g(p)"), fgh("h(q)"), fgh("g(q)")]
        pool = instance_pool(MIXED, fence)
        assert pool == reference_pool(MIXED, fence)
        substs = [(inst.rule, dict(inst.subst)) for inst in pool]
        assert ("const", {}) in substs and ("none", {}) in substs
        sym = [(inst.acc, dict(inst.subst)) for inst in pool
               if inst.rule == "sym"]
        assert len(sym) == len({acc for acc, _ in sym})
        assert (frozenset({p, q}), {"p": p, "q": q}) in sym
        assert [s for rule, s in substs if rule == "split"] == \
            [{"p": p, "q": q}, {"p": q, "q": q}]


    def test_closed_formula_planned_first_keeps_its_image(self):
        efq = MIXED.rule_named("efq")
        assert [step[0] for step in efq._steps] == ["find", "match"]
        c = Calculus("efq", 2, (efq,))
        nbot = App("neg", (BOT,))
        insts = applicable_instances(c, Label({BOT}), [p, q, BOT, nbot])
        assert [(inst.acc, inst.nacc) for inst in insts] == [
            (frozenset({BOT}), frozenset({f})) for f in (p, q, nbot)]
        assert applicable_instances(c, Label({nbot}), [p, q, BOT, nbot]) == []
        s = BStatement(acc={nbot}, nacc={q})
        assert isinstance(prove(c, s, {p}), Saturated)

    def test_second_match_agrees_with_the_first(self):
        # "shared" matches g(g(p)) first, then k(p, q) with p bound
        def k(a, b):
            return App("k", (a, b))

        def gg(a):
            return App("g", (App("g", (a,)),))

        fence = [p, q, gg(p), gg(q), k(p, q), k(q, p), k(q, q)]
        pool = instance_pool(MIXED, fence)
        assert pool == reference_pool(MIXED, fence)
        shared = [(inst.acc, inst.nrej) for inst in pool
                  if inst.rule == "shared"]
        assert len(shared) == 3 and set(shared) == {
            (frozenset({gg(p)}), frozenset({k(p, q)})),
            (frozenset({gg(q)}), frozenset({k(q, p)})),
            (frozenset({gg(q)}), frozenset({k(q, q)}))}


def reference_prove(c, s, theta, max_nodes=10 ** 6, max_depth=None):
    """Greedy saturation written out directly: the brute-force pool,
    frozenset applicability and recursion over the tree."""
    if isinstance(s, Statement1D):
        ant, suc = Label(s.antecedent), Label(s.succedent)
    else:
        ant, suc = Label(s.acc, s.rej), Label(s.nacc, s.nrej)
    fence = gen_subformulas(theta_set(theta), s.formulas())
    pool = reference_pool(c, fence)
    count = {"nodes": 0, "deepest": 0}

    class Stop(Exception):
        pass

    def applies(inst, label):
        return (inst.acc <= label.acc and inst.rej <= label.rej
                and not inst.nacc & label.acc and not inst.nrej & label.rej)

    def expand(label, depth):
        count["nodes"] += 1
        count["deepest"] = max(count["deepest"], depth)
        if count["nodes"] > max_nodes:
            raise Stop("max_nodes")
        if label.acc & suc.acc or label.rej & suc.rej:
            return Node(label)
        inst = next((i for i in pool if applies(i, label)), None)
        if inst is None:
            raise Stop(Saturated(label))
        if max_depth is not None and depth >= max_depth:
            raise Stop("max_depth")
        if inst.closing:
            count["nodes"] += 1
            if count["nodes"] > max_nodes:
                raise Stop("max_nodes")
            return Node(label, inst.rule, inst.subst, (Node(STAR),))
        kids = [expand(Label(label.acc | {f}, label.rej), depth + 1)
                for f in sorted(inst.nacc, key=str)]
        kids += [expand(Label(label.acc, label.rej | {f}), depth + 1)
                 for f in sorted(inst.nrej, key=str)]
        return Node(label, inst.rule, inst.subst, kids)

    try:
        return Proved(expand(ant, 0))
    except Stop as stop:
        what = stop.args[0]
        if isinstance(what, Saturated):
            return what
        return LimitExceeded(what, count["nodes"], count["deepest"],
                             max_nodes, max_depth)


def random_statement(c, rng, depth):
    """A statement of the calculus's dimension with 0-2 random formulas,
    over p and q and the rules' connectives, in each component."""
    schema = [f for r in c.rules for f in r.acc | r.nacc | r.rej | r.nrej]
    conns = sorted({(g.conn, len(g.args)) for f in schema
                    for g in subformulas(f) if isinstance(g, App)})

    def formula(d):
        if not conns or d == 0 or rng.random() < 0.3:
            return Var(rng.choice("pq"))
        name, k = rng.choice(conns)
        return App(name, tuple(formula(d - 1) for _ in range(k)))

    def some():
        return {formula(depth) for _ in range(rng.randint(0, 2))}

    if c.dimension == 1:
        return Statement1D(some(), some())
    return BStatement(acc=some(), nacc=some(), rej=some(), nrej=some())


class TestProveDifferential:
    CALCULI = {
        "hmci2d": (mci_artifacts().hmci2d, 1, 30),
        "ex2-calc": (example2()[1], 3, 60),
        "lifted-cplpos": (lift_calculus(cpl_pos()), 2, 30),
        "ex1-rules:3": (example1_rules(3), 4, 60),
        "mixed": (MIXED, 2, 30),
        "mixed-open": (Calculus("mixed-open", 2, tuple(
            r for r in MIXED.rules if r.name != "none")), 2, 60),
    }
    LIMITS = ({}, {"max_nodes": 4}, {"max_depth": 1},
              {"max_nodes": 12, "max_depth": 3})

    @pytest.mark.parametrize("name", sorted(CALCULI))
    def test_equals_reference(self, name):
        c, depth, count = self.CALCULI[name]
        theta = c.theta or {p}
        rng = random.Random(f"prove-{name}")
        kinds = set()
        for k in range(count):
            s = random_statement(c, rng, depth)
            limits = self.LIMITS[k % len(self.LIMITS)]
            got = prove(c, s, theta, **limits)
            assert got == reference_prove(c, s, theta, **limits), s
            kinds.add(getattr(got, "limit", type(got).__name__))
        if name != "mixed":
            assert {"Proved", "Saturated"} <= kinds, kinds
        if name in ("hmci2d", "ex2-calc"):
            assert {"max_nodes", "max_depth"} <= kinds, kinds


# ---------------------------------------------------------------------------
# derivation checking


def proof_r2():
    """Hand-built derivation: expand the empty label with r2 at p."""
    return Node(Label(), "r2", (("p", p),), (
        Node(Label({fgh("g(p)")})),
        Node(Label({p})),
        Node(Label(rej={p})),
    ))


class TestCheckDerivation:
    def test_correct_tree(self):
        assert check_derivation(GH_CALC, proof_r2())

    def test_closing_rule_star_child(self):
        t = Node(Label({p}, {p}), "r1", (("p", p),), (Node(STAR),))
        assert check_derivation(GH_CALC, t)

    def test_star_must_be_leaf(self):
        t = Node(STAR, None, None, (Node(STAR),))
        assert not check_derivation(GH_CALC, t)

    def test_leaf_with_rule_rejected(self):
        assert not check_derivation(GH_CALC, Node(Label(), "r2", (("p", p),)))

    def test_inner_node_without_rule_rejected(self):
        t = Node(Label(), None, None, (Node(Label({p})),))
        assert not check_derivation(GH_CALC, t)

    def test_unknown_rule_raises(self):
        t = Node(Label(), "zz", (("p", p),), (Node(Label({p})),))
        with pytest.raises(CalculiError):
            check_derivation(GH_CALC, t)

    def test_antecedent_not_contained(self):
        t = Node(Label(), "r1", (("p", p),), (Node(STAR),))
        assert not check_derivation(GH_CALC, t)

    def test_missing_child(self):
        t = proof_r2()
        broken = Node(t.label, t.rule, t.subst, t.children[:2])
        assert not check_derivation(GH_CALC, broken)

    def test_duplicated_child_fails_multiset(self):
        t = proof_r2()
        broken = Node(t.label, t.rule, t.subst,
                      (t.children[0], t.children[0], t.children[2]))
        assert not check_derivation(GH_CALC, broken)

    def test_wrong_child_label(self):
        t = proof_r2()
        broken = Node(t.label, t.rule, t.subst,
                      (Node(Label({fgh("h(p)")})), t.children[1],
                       t.children[2]))
        assert not check_derivation(GH_CALC, broken)

    def test_star_child_under_branching_rule(self):
        t = proof_r2()
        broken = Node(t.label, t.rule, t.subst,
                      (Node(STAR), t.children[1], t.children[2]))
        assert not check_derivation(GH_CALC, broken)

    def test_nonstar_child_under_closing_rule(self):
        t = Node(Label({p}, {p}), "r1", (("p", p),), (Node(Label({p})),))
        assert not check_derivation(GH_CALC, t)


class TestCheckProof:
    S_R2 = BStatement(nacc={fgh("g(p)"), p}, nrej={p})

    def test_accepts(self):
        assert check_proof(GH_CALC, self.S_R2, proof_r2())

    def test_root_outside_antecedent(self):
        assert not check_proof(GH_CALC, self.S_R2, Node(Label({fgh("g(p)")})))

    def test_open_leaf(self):
        assert not check_proof(GH_CALC, self.S_R2, Node(Label()))

    def test_star_root_rejected(self):
        assert not check_proof(GH_CALC, self.S_R2, Node(STAR))

    def test_star_leaves_always_close(self):
        s = BStatement(acc={p}, rej={p}, nacc={fgh("g(p)")})
        t = Node(Label({p}, {p}), "r1", (("p", p),), (Node(STAR),))
        assert check_proof(GH_CALC, s, t)

    def test_dimension_mismatch(self):
        with pytest.raises(CalculiError):
            check_proof(GH_CALC, Statement1D({p}, {p}), Node(Label({p})))
        with pytest.raises(CalculiError):
            check_proof(HILBERT, self.S_R2, Node(Label()))

    def test_not_a_statement(self):
        with pytest.raises(CalculiError, match="not a statement: 'x'"):
            check_proof(GH_CALC, "x", Node(Label()))


# ---------------------------------------------------------------------------
# proof search


class TestProve:
    def test_branching_proof(self):
        out = prove(GH_CALC, TestCheckProof.S_R2, {p})
        assert isinstance(out, Proved)
        assert check_proof(GH_CALC, TestCheckProof.S_R2, out.tree)
        assert render_tree_text(out.tree) == (
            "acc{} | rej{}  -- r2 {p := p}\n"
            "  acc{g(p)} | rej{}\n"
            "  acc{p} | rej{}\n"
            "  acc{} | rej{p}")

    def test_rejection_side_proof(self):
        s = BStatement(rej={p}, nrej={fgh("h(p)")})
        out = prove(GH_CALC, s, {p})
        assert isinstance(out, Proved)
        assert render_tree_text(out.tree) == (
            "acc{} | rej{p}  -- r3 {p := p}\n"
            "  acc{} | rej{h(p), p}")

    def test_discontinuation_proof(self):
        s = BStatement(acc={p}, rej={p}, nacc={fgh("g(p)")})
        out = prove(GH_CALC, s, {p})
        assert isinstance(out, Proved)
        assert render_tree_text(out.tree) == (
            "acc{p} | rej{p}  -- r1 {p := p}\n"
            "  *")

    def test_immediate_overlap(self):
        s = BStatement(acc={p}, nacc={p})
        out = prove(GH_CALC, s, {p})
        assert isinstance(out, Proved)
        assert out.tree == Node(Label({p}))

    def test_saturation(self):
        s = BStatement(acc={p}, nacc={fgh("g(p)")})
        out = prove(GH_CALC, s, {p})
        assert isinstance(out, Saturated)
        assert out.label == Label({p})

    def test_node_limit(self):
        out = prove(GH_CALC, TestCheckProof.S_R2, {p}, max_nodes=1)
        assert isinstance(out, LimitExceeded)
        assert out.limit == "max_nodes" and out.nodes == 2

    def test_star_counts_toward_the_node_limit(self):
        # the star under r1 is the third of five nodes in preorder
        s = BStatement(nacc={fgh("h(p)"), q}, rej={fgh("g(q)")}, nrej={q})
        out = prove(GH_CALC, s, {p}, max_nodes=5)
        assert isinstance(out, Proved)
        assert render_tree_text(out.tree).splitlines()[2] == "    *"
        assert prove(GH_CALC, s, {p}, max_nodes=4) == \
            LimitExceeded("max_nodes", 5, 1, 4, None)

    def test_closing_star_is_checked_against_the_node_limit(self):
        r1 = RuleSchema("r1", 2, acc={p}, rej={p})
        c = Calculus("c", 2, (r1,))
        s = BStatement(acc={p}, rej={p})
        assert isinstance(prove(c, s, {p}, max_nodes=2), Proved)
        assert prove(c, s, {p}, max_nodes=1) == \
            LimitExceeded("max_nodes", 2, 0, 1, None)

    def test_depth_limit(self):
        out = prove(GH_CALC, TestCheckProof.S_R2, {p}, max_depth=0)
        assert isinstance(out, LimitExceeded)
        assert out.limit == "max_depth"

    @pytest.mark.parametrize("limits", [
        {"max_nodes": 0}, {"max_nodes": -1}, {"max_depth": -1},
        {"max_depth": -3}])
    def test_empty_budget_is_an_error(self, limits):
        with pytest.raises(CalculiError, match="must be >="):
            prove(GH_CALC, TestCheckProof.S_R2, {p}, **limits)

    def test_empty_statement_saturates(self):
        # the fence is empty; the root label has no applicable instance,
        # which is a verdict, not a limit
        c = mci_artifacts().hmci2d
        assert prove(c, BStatement(), c.theta) == Saturated(Label())

    def test_empty_fence_needs_no_depth_limit(self):
        # a rule with no formulas closes the empty label at depth 0
        c = Calculus("c", 2, (RuleSchema("r", 2),), theta={p})
        out = prove(c, BStatement(), {p})
        assert out == Proved(Node(Label(), "r", (), (Node(STAR),)))
        assert prove(c, BStatement(), {p}, max_depth=0) == \
            LimitExceeded("max_depth", 1, 0, 10 ** 6, 0)

    def test_theta_must_contain_p(self):
        with pytest.raises(LanguageError):
            prove(GH_CALC, TestCheckProof.S_R2, {fgh("g(p)")})

    def test_dimension_mismatch(self):
        with pytest.raises(CalculiError):
            prove(GH_CALC, Statement1D({p}, {p}), {p})

    def test_deterministic(self):
        a = prove(GH_CALC, TestCheckProof.S_R2, {p})
        b = prove(GH_CALC, TestCheckProof.S_R2, {p})
        assert a == b

    def test_hilbert_axiom(self):
        goal = fi("(p -> (q -> p))")
        out = prove(HILBERT, Statement1D(set(), {goal}), {p})
        assert isinstance(out, Proved)
        assert check_proof(HILBERT, Statement1D(set(), {goal}), out.tree)
        assert render_tree_text(out.tree, dim=1) == (
            "{}  -- K {p := p, q := q}\n"
            "  {imp(p,imp(q,p))}")

    def test_hilbert_detachment(self):
        # from x and x -> y the search reaches y via mp
        x, y = Var("x"), Var("y")
        s = Statement1D({x, fi("(x -> y)")}, {y})
        out = prove(HILBERT, s, {p})
        assert isinstance(out, Proved)
        assert check_proof(HILBERT, s, out.tree)

    def test_hilbert_unprovable_saturates(self):
        s = Statement1D(set(), {p})
        out = prove(HILBERT, s, {p})
        assert isinstance(out, Saturated)

    def test_dim1_embeds_into_dim2(self):
        lifted = lift_calculus(HILBERT)
        goal = fi("(p -> (q -> p))")
        out1 = prove(HILBERT, Statement1D(set(), {goal}), {p})
        out2 = prove(lifted, BStatement(nacc={goal}), {p})
        assert isinstance(out1, Proved) and isinstance(out2, Proved)
        assert render_tree_text(out2.tree) == (
            "acc{} | rej{}  -- K {p := p, q := q}\n"
            "  acc{imp(p,imp(q,p))} | rej{}")

    def test_sibling_order_left_to_right(self):
        out = prove(GH_CALC, TestCheckProof.S_R2, {p})
        kids = out.tree.children
        assert [k.label for k in kids] == \
            [Label({fgh("g(p)")}), Label({p}), Label(rej={p})]

    def test_deep_statement_gets_a_verdict(self):
        # the search does not recurse once per tree level
        c = mci_artifacts().hmci2d
        f = p
        for _ in range(200):
            f = App("neg", (f,))
        out = prove(c, BStatement(acc={f}, nrej={q}), c.theta)
        assert isinstance(out, (Proved, Saturated))

    def test_deep_proof_renders_and_checks(self):
        # modus ponens along a chain of 400 implications: a 401-node path
        c = mci_artifacts().hmci2d
        xs = [Var(f"x{i}") for i in range(401)]
        s = BStatement(acc={xs[0]} | {App("imp", (a, b))
                                      for a, b in zip(xs, xs[1:])},
                       nacc={xs[-1]})
        out = prove(c, s, c.theta)
        assert isinstance(out, Proved)
        assert check_proof(c, s, out.tree)
        lines = render_tree_text(out.tree).splitlines()
        assert len(lines) == 401
        assert lines[-1].startswith(" " * 800 + "acc{imp(x0,x1)")
        assert "x400" in lines[-1] and "-- imp3 {p := x399, q := x400}" \
            in lines[-2]
        dot = render_tree_dot(out.tree).splitlines()
        assert dot[-2] == '  n0 -> n1 [label="imp3"];'
        assert len(dot) == 3 + 401 + 400


# ---------------------------------------------------------------------------
# rendering


class TestRendering:
    def test_dot_output(self):
        out = prove(GH_CALC, TestCheckProof.S_R2, {p})
        dot = render_tree_dot(out.tree)
        assert dot.startswith("digraph proof {")
        assert dot.endswith("}")
        assert '[label="acc{} | rej{}"]' in dot
        assert '[label="r2"]' in dot
        assert "n0 -> n1" in dot

    def test_dot_star_box(self):
        s = BStatement(acc={p}, rej={p}, nacc={fgh("g(p)")})
        out = prove(GH_CALC, s, {p})
        assert '[label="*", shape=box];' in render_tree_dot(out.tree)

    def test_star_repr_copy_and_pickle(self):
        assert repr(Node(STAR)) == \
            "Node(label=Star, rule=None, subst=None, children=())"
        for copied in (copy.copy(STAR), copy.deepcopy(Node(STAR)).label,
                       pickle.loads(pickle.dumps(Node(STAR))).label):
            assert copied is STAR

    def test_dim1_rendering_hides_rejection(self):
        t = Node(Label({p}))
        assert render_tree_text(t, dim=1) == "{p}"
