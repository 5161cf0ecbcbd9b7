"""Golden renderings of proof-search outcomes: seeded statements for
ex2-calc, the lifted positive classical base and hmci2d, searched with
``max_nodes=50``, and every fourth with ``max_depth=3`` as well, so that
some of the searches end at a limit.

Each outcome is rendered as ``ndlogic prove`` prints it: a proof as
``render_tree_text`` and as ``render_tree_dot``, a saturated search as its
open label line, a limit as its limit line.  The sha256 of each rendering
is stored in ``golden/prove_render.json``.  Running this file as a script
prints the digests of the code at hand in that file's format:

    PYTHONPATH=src python tests/test_prove_render_golden.py > tests/golden/prove_render.json
"""

import hashlib
import json
import random
from pathlib import Path

from ndlogic.calculi import (LimitExceeded, Proved, Saturated, lift_calculus,
                             prove, render_tree_dot, render_tree_text)
from ndlogic.language import App, Var, parse_formula
from ndlogic.logics import SIGMA_MCI, cpl_pos, example2, mci_artifacts
from ndlogic.semantics import BStatement

GOLDEN = Path(__file__).parent / "golden" / "prove_render.json"
SEED = 9
COUNT = 60
MAX_NODES = 50
MAX_DEPTH = 3
ATTITUDES = ("acc", "nacc", "rej", "nrej")
CPL_AXIOMS = ("(p -> (q -> p))", "((p -> q) -> p)", "(and(p,q) -> q)",
              "(p -> or(q,p))", "((p -> (q -> p)) -> ((p -> q) -> (p -> p)))")


def calculi():
    """(name, calculus, theta, connectives, atoms, depth, seed formulas)"""
    hmci2d = mci_artifacts().hmci2d
    return (
        ("ex2-calc", example2()[1], {Var("p")}, (("g", 1), ("h", 1)), "pq",
         3, ()),
        ("lifted-cplpos", lift_calculus(cpl_pos()), {Var("p")},
         (("imp", 2), ("and", 2), ("or", 2)), "pq", 3,
         tuple(parse_formula(t, SIGMA_MCI) for t in CPL_AXIOMS)),
        ("hmci2d", hmci2d, hmci2d.theta,
         (("neg", 1), ("cons", 1), ("and", 2), ("or", 2), ("imp", 2)), "pq",
         2, ()),
    )


def _formula(rng, conns, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice(atoms))
    conn, k = rng.choice(conns)
    return App(conn, tuple(_formula(rng, conns, atoms, depth - 1)
                           for _ in range(k)))


def statements(conns, atoms, depth, seeds, rng, count=COUNT):
    """``count`` BStatements with 0-2 formulas per attitude, each a random
    formula or, now and then, one of ``seeds``."""
    def pick():
        if seeds and rng.random() < 0.25:
            return rng.choice(seeds)
        return _formula(rng, conns, atoms, depth)

    return [BStatement(**{att: {pick() for _ in range(rng.randint(0, 2))}
                          for att in ATTITUDES})
            for _ in range(count)]


def _statement_text(s):
    return " ; ".join(att + "{" + ", ".join(sorted(map(str, getattr(s, att))))
                      + "}" for att in ATTITUDES)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def rows():
    rng = random.Random(SEED)
    for name, c, theta, conns, atoms, depth, seeds in calculi():
        for i, s in enumerate(statements(conns, atoms, depth, seeds, rng)):
            limits = {"max_depth": MAX_DEPTH} if i % 4 == 3 else {}
            out = prove(c, s, theta, max_nodes=MAX_NODES, **limits)
            if isinstance(out, Proved):
                kind = "proved"
                text = render_tree_text(out.tree, 2)
                dot = render_tree_dot(out.tree, 2)
            elif isinstance(out, Saturated):
                kind = "saturated"
                text = dot = ("not proved: saturated at open label "
                              + out.label.render(2))
            else:
                assert isinstance(out, LimitExceeded)
                kind = "limit"
                text = dot = (f"not proved: {out.limit} limit reached "
                              f"({out.nodes} nodes, depth {out.depth})")
            yield {"calculus": name, "statement": _statement_text(s),
                   "outcome": kind, "text": _digest(text),
                   "dot": _digest(dot)}


def test_renderings_match_golden():
    got = list(rows())
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == 3 * COUNT
    for row, want in zip(got, golden):
        assert row == want
    for name in ("ex2-calc", "lifted-cplpos", "hmci2d"):
        kinds = {row["outcome"] for row in got if row["calculus"] == name}
        assert {"proved", "saturated"} <= kinds, name
    limits = [row["text"] for row in got if row["outcome"] == "limit"]
    assert len(limits) >= 10


if __name__ == "__main__":
    print(json.dumps(list(rows()), indent=1))
