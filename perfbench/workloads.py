"""The benchmark's workloads: seeded inputs, the timed operation, the
correctness check of its output, and the probes a traced run adds.

An operation is what one CLI call does (for separators, two calls): load
the input, run the library call, render the text the CLI would print.
Correctness checks and probes run after the operation, outside its
timing.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from typing import Iterator, NamedTuple

import oracle
from spans import wrap_calls

from ndlogic import (Label, LimitExceeded, Proved, Saturated, Var,
                     applicable_instances, b_entails, check_proof,
                     entails_1d, enumerate_unary_formulas,
                     expressiveness_report, gen_subformulas, prove,
                     render_tree_text, subformula_sequence)
from ndlogic import serialize

CONNECTIVES = tuple(oracle.ARITY.items())


class Item(NamedTuple):
    kind: str   # which matrix or calculus the operation uses
    text: str   # the input as the CLI receives it
    data: object  # the same input for the oracle


class Done(NamedTuple):
    output: str   # the rendered text
    parsed: object  # the loaded statement, or the signature (separators)
    result: object  # the library call's return value


class Failure(NamedTuple):
    wrong: bool   # an incorrect answer, not just a missing one
    message: str


def _random_formula(rng: random.Random, depth: int, atoms: str) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    conn, arity = rng.choice(CONNECTIVES)
    args = ",".join(_random_formula(rng, depth - 1, atoms)
                    for _ in range(arity))
    return f"{conn}({args})"


def _formulas(rng, max_size, depth, atoms) -> list[str]:
    return [_random_formula(rng, depth, atoms)
            for _ in range(rng.randint(0, max_size))]


def _item(kind: str, statement: dict) -> Item:
    return Item(kind, json.dumps(statement), statement)


def stratified(rng: random.Random, quota: tuple, draw) -> Iterator[Item]:
    """Endless shuffled blocks of ``sum(quota)`` statements from ``draw(rng,
    position in block)``, holding ``quota[n]`` whose subformula closure has
    n formulas.  The quotas are the generator's own shares, rounded, so a
    block holds what the generator draws, less the rare large closures
    whose share rounds to zero.  Costs grow exponentially with the closure,
    and fixing how many large ones a block holds keeps them from swinging
    one seed's run against another's."""
    while True:
        left = list(quota)
        block = []
        while len(block) < sum(quota):
            item = draw(rng, len(block))
            size = len(oracle.closure(f for fs in item.data.values()
                                      for f in fs))
            if size < len(left) and left[size]:
                left[size] -= 1
                block.append(item)
        rng.shuffle(block)
        yield from block


# ---------------------------------------------------------------------------
# check-mix

# check-mix statements per block with closure size 0, 1, ..., 17 (shares
# measured over 200,000 draws).  Sizes 18 and 19 come 2 times in 10,000
# draws, and one such statement can take 3 s.
CHECK_QUOTA = (62, 44, 33, 50, 85, 96, 103, 108, 113, 91, 77, 55, 37, 23,
               13, 6, 3, 1)


def _check_statement(rng: random.Random, kind: str) -> dict:
    ant = _formulas(rng, 3, 2, "pqr")
    suc = _formulas(rng, 3, 2, "pqr")
    if kind == "mci5":
        return {"antecedent": ant, "succedent": suc}
    out = {"acc": [], "nacc": [], "rej": [], "nrej": []}
    for f in ant:
        out[rng.choice(("acc", "rej"))].append(f)
    for f in suc:
        out[rng.choice(("nacc", "nrej"))].append(f)
    return out


def _render_verdict(verdict) -> str:
    if verdict.valid:
        return "valid\n"
    lines = "".join(f"  {line}\n" for line in verdict.countermodel.lines())
    return "invalid; countermodel:\n" + lines


class Workload:
    name: str
    fixed_ops: int  # operations per block; the digest covers the first

    def __init__(self, arts):
        self.arts = arts

    def traced(self, tr):
        """Context in which a traced operation runs."""
        return nullcontext()


class CheckMix(Workload):
    """Half Statement1D on mci5 (entails_1d), half BStatement on mci-b
    (b_entails); formulas over p, q, r of depth <= 2, sides of 0-3."""

    name = "check-mix"
    fixed_ops = 1000

    def inputs(self, seed: int) -> Iterator[Item]:
        def draw(rng, position):
            kind = ("mci5", "mci-b")[position % 2]
            return _item(kind, _check_statement(rng, kind))

        return stratified(random.Random(seed), CHECK_QUOTA, draw)

    def run(self, item: Item, tr) -> Done:
        with tr.span("serialize.load"):
            s = serialize.statement_from_data(serialize.loads(item.text),
                                              self.arts.sigma_mci)
        with tr.span("semantics.search") as sp:
            if item.kind == "mci5":
                verdict = entails_1d(self.arts.m5, s)
            else:
                verdict = b_entails(self.arts.b5, s)
            sp[0] = ("semantics.search_valid" if verdict.valid
                     else "semantics.search_invalid")
        with tr.span("cli.render"):
            out = _render_verdict(verdict)
        return Done(out, s, verdict)

    def check(self, item: Item, done: Done, tr) -> Failure | None:
        verdict = done.result
        if verdict.valid:
            cm = oracle.find_countermodel(item.data)
            if cm is not None:
                return Failure(True, f"said valid, but {cm} refutes "
                                     f"{item.text}")
            return None
        got = {str(f): v for f, v in verdict.countermodel.assignment.items()}
        problem = oracle.countermodel_problem(item.data, got)
        return Failure(True, f"{item.text}: {problem}") if problem else None

    def probe(self, item: Item, done: Done, tr):
        with tr.span("language.closure"):
            seq = subformula_sequence(done.parsed.formulas())
        tr.count("language.closure_size", len(seq))
        tr.count("semantics.verdicts_valid", int(done.result.valid))
        matrix = self.arts.m5 if item.kind == "mci5" else self.arts.b5
        tr.count("semantics.valuations_visited",
                 valuations_visited(matrix.algebra, done.parsed, done.result))


def valuations_visited(alg, statement, verdict) -> int:
    """Coherent valuations the library's enumeration order reaches up to
    the first countermodel, or all of them for a valid statement; counted
    without building them."""
    seq = subformula_sequence(statement.formulas())
    order = [f for f in seq if isinstance(f, Var)] + \
            [f for f in seq if not isinstance(f, Var)]
    rank = {v: i for i, v in enumerate(alg.values)}
    target = None if verdict.valid else \
        [verdict.countermodel.assignment[f] for f in order]
    vals: dict = {}
    seen = 0

    def search(i: int) -> bool:
        nonlocal seen
        if i == len(order):
            seen += 1
            return target is not None and \
                all(vals[f] == v for f, v in zip(order, target))
        f = order[i]
        if isinstance(f, Var):
            cands = alg.values
        else:
            cell = alg.interpretation[f.conn][tuple(vals[a] for a in f.args)]
            cands = sorted(cell, key=rank.__getitem__)
        for c in cands:
            vals[f] = c
            if search(i + 1):
                return True
        return False

    search(0)
    return seen


# ---------------------------------------------------------------------------
# prove-hmci2d

# prove-hmci2d statements per block with closure size 0, 1, ..., 8 (shares
# measured over 200,000 draws).  Size 0 is the empty statement; sizes 9 and
# 10 come 16 times in 10,000 draws.
PROVE_QUOTA = (1, 2, 7, 14, 26, 27, 16, 6, 1)


def _render_outcome(outcome) -> str:
    if isinstance(outcome, Proved):
        return render_tree_text(outcome.tree, 2) + "\n"
    if isinstance(outcome, Saturated):
        return ("not proved: saturated at open label "
                + outcome.label.render(2) + "\n")
    return (f"not proved: {outcome.limit} limit reached "
            f"({outcome.nodes} nodes, depth {outcome.depth})\n")


def _tree_nodes(node) -> int:
    return 1 + sum(_tree_nodes(ch) for ch in node.children)


class ProveHmci2d(Workload):
    """BStatements over p, q of depth <= 1, 0-2 formulas per attitude,
    searched in the 28-rule calculus within its theta fence."""

    name = "prove-hmci2d"
    fixed_ops = 100

    def inputs(self, seed: int) -> Iterator[Item]:
        def draw(rng, position):
            return _item("hmci2d", {att: _formulas(rng, 2, 1, "pq") for att
                                    in ("acc", "nacc", "rej", "nrej")})

        return stratified(random.Random(seed), PROVE_QUOTA, draw)

    def run(self, item: Item, tr) -> Done:
        c = self.arts.hmci2d
        with tr.span("serialize.load"):
            s = serialize.statement_from_data(serialize.loads(item.text))
        with tr.span("calculi.prove"):
            outcome = prove(c, s, c.theta)
        with tr.span("cli.render"):
            out = _render_outcome(outcome)
        return Done(out, s, outcome)

    def check(self, item: Item, done: Done, tr) -> Failure | None:
        outcome, s = done.result, done.parsed
        with tr.span("semantics.search") as sp:
            verdict = b_entails(self.arts.b5, s)
            sp[0] = ("semantics.search_valid" if verdict.valid
                     else "semantics.search_invalid")
        tr.count("semantics.verdicts_valid", int(verdict.valid))
        if isinstance(outcome, LimitExceeded):
            what = "empty statement" if not s.formulas() else item.text
            return Failure(False, f"{what}: prove gave up with "
                                  f"LimitExceeded({outcome.limit}, max_depth="
                                  f"{outcome.max_depth}) where b_entails says "
                                  f"{'valid' if verdict.valid else 'invalid'}")
        if isinstance(outcome, Proved):
            if not check_proof(self.arts.hmci2d, s, outcome.tree):
                return Failure(True, f"{item.text}: proof rejected by "
                                     f"check_proof")
            if not verdict.valid:
                return Failure(True, f"{item.text}: proved, but b_entails "
                                     f"gives countermodel {verdict.countermodel}")
        elif verdict.valid:
            return Failure(True, f"{item.text}: saturated, but b_entails "
                                 f"says valid")
        return None

    def probe(self, item: Item, done: Done, tr):
        c, s, outcome = self.arts.hmci2d, done.parsed, done.result
        with tr.span("language.closure"):
            seq = subformula_sequence(s.formulas())
        tr.count("language.closure_size", len(seq))
        with tr.span("language.fence"):
            fence = gen_subformulas(c.theta, s.formulas())
        tr.count("language.fence_size", len(fence))
        with tr.span("calculi.pool"):
            applicable_instances(c, Label(s.acc, s.rej), fence)
        tr.count("calculi.instances_tried",
                 sum(len(fence) ** len(r.schema_variables()) for r in c.rules))
        if isinstance(outcome, Proved):
            tr.count("calculi.proved")
            tr.count("calculi.tree_nodes", _tree_nodes(outcome.tree))
        elif isinstance(outcome, Saturated):
            tr.count("calculi.saturated")
        else:
            tr.count("calculi.limit")


# ---------------------------------------------------------------------------
# separators

class Separators(Workload):
    """The expressiveness reports ``ndlogic separators`` prints for mci-b
    and then mci5, both at depth 3, as one operation: as two, a run's
    median would sit between two unlike reports and move with how many of
    each it made.  The input is fixed; the seed does not change it."""

    name = "separators"
    fixed_ops = 1
    depth = 3
    kinds = ("mci-b", "mci5")

    def inputs(self, seed: int) -> Iterator[Item]:
        text = " ".join(f"builtin:{kind}" for kind in self.kinds)
        while True:
            yield Item("separators", f"{text} --depth {self.depth}", None)

    def run(self, item: Item, tr) -> Done:
        reports, out = [], ""
        for kind in self.kinds:
            matrix = self.arts.b5 if kind == "mci-b" else self.arts.m5
            with tr.span("semantics.report"):
                report = expressiveness_report(matrix, self.depth)
            with tr.span("cli.render"):
                out += "".join(line + "\n" for line in report.lines())
            reports.append(report)
        return Done(out, self.arts.sigma_mci, reports)

    def check(self, item: Item, done: Done, tr) -> Failure | None:
        for kind, report in zip(self.kinds, done.result):
            known = oracle.KNOWN_REPORTS[kind]
            got = {(e.x, e.y): None if e.separator is None
                   else (str(e.separator), e.via, e.into)
                   for e in report.entries}
            if got != known:
                diff = {k: v for k, v in got.items()
                        if known.get(k, "-") != v}
                return Failure(True, f"{kind}: entries differ from the "
                                     f"known table: {diff}")
            if report.sufficiently_expressive != all(known.values()):
                return Failure(True, f"{kind}: wrong overall verdict")
            for (x, y), entry in got.items():
                problem = entry and oracle.separation_problem(
                    entry[0], x, y, *entry[1:])
                if problem:
                    return Failure(True, f"{kind}: {problem}")
        return None

    def probe(self, item: Item, done: Done, tr):
        order = enumerate_unary_formulas(done.parsed, self.depth)
        index = {f: i for i, f in enumerate(order)}
        tr.count("semantics.formulas_scanned",
                 sum(len(order) if e.separator is None
                     else index[e.separator] + 1
                     for report in done.result for e in report.entries))

    def traced(self, tr):
        """Records the enumeration calls made inside each report."""

        def counted(formulas):
            tr.count("language.enumerate_calls")
            tr.count("language.formulas_enumerated", len(formulas))

        return wrap_calls(tr, enumerate_unary_formulas, "language.enumerate",
                          counted)


WORKLOADS = {w.name: w for w in (CheckMix, ProveHmci2d, Separators)}
