"""Golden proof outputs: a seeded batch of hmci2d statements whose rendered
``prove`` outcomes must stay byte-identical.

Each outcome is rendered as ``render_tree_text`` for ``Proved`` and as the
open label for ``Saturated``, and stored as its sha256 in
``golden/prove_hmci2d.json``.  Running this file as a script prints the
digests of the code at hand in that file's format:

    PYTHONPATH=src python tests/test_prove_golden.py > tests/golden/prove_hmci2d.json
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from ndlogic.calculi import (Proved, Saturated, check_proof, prove,
                             render_tree_text)
from ndlogic.language import App, Var
from ndlogic.logics import mci_artifacts
from ndlogic.semantics import BStatement, b_entails

GOLDEN = Path(__file__).parent / "golden" / "prove_hmci2d.json"
SEED = 20221
COUNT = 200
CONNECTIVES = (("neg", 1), ("cons", 1), ("and", 2), ("or", 2), ("imp", 2))
ATTITUDES = ("acc", "nacc", "rej", "nrej")


def _formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.choice("pq"))
    conn, k = rng.choice(CONNECTIVES)
    return App(conn, tuple(_formula(rng, depth - 1) for _ in range(k)))


def statements(seed=SEED, count=COUNT):
    """``count`` BStatements over p and q of depth <= 1, with 0-2 formulas
    per attitude."""
    rng = random.Random(seed)
    return [BStatement(**{att: {_formula(rng, 1)
                                for _ in range(rng.randint(0, 2))}
                          for att in ATTITUDES})
            for _ in range(count)]


def _statement_text(s):
    return " ; ".join(att + "{" + ", ".join(sorted(map(str, getattr(s, att))))
                      + "}" for att in ATTITUDES)


def outcomes(c, batch):
    """(statement text, outcome kind, sha256 of the rendered outcome, the
    outcome itself) for each statement of ``batch``."""
    for s in batch:
        out = prove(c, s, c.theta)
        if isinstance(out, Proved):
            kind, text = "proved", render_tree_text(out.tree, 2)
        elif isinstance(out, Saturated):
            kind, text = "saturated", out.label.render(2)
        else:
            raise AssertionError(f"{_statement_text(s)}: {out}")
        yield (_statement_text(s), kind,
               hashlib.sha256(text.encode()).hexdigest(), out)


def _table(rows):
    return [{"statement": text, "outcome": kind, "sha256": digest}
            for text, kind, digest, _ in rows]


@pytest.fixture(scope="module")
def hmci2d():
    return mci_artifacts().hmci2d


def test_outcomes_match_golden(hmci2d):
    batch = statements()
    rows = list(outcomes(hmci2d, batch))
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == COUNT
    for got, want in zip(_table(rows), golden):
        assert got == want
    kinds = {kind for _, kind, _, _ in rows}
    assert kinds == {"proved", "saturated"}
    b5 = mci_artifacts().b5
    for s, (_, kind, _, out) in zip(batch, rows):
        if kind == "proved":
            assert check_proof(hmci2d, s, out.tree), _statement_text(s)
        # the calculus is sound and complete for mci-b
        assert (kind == "proved") == b_entails(b5, s).valid, \
            _statement_text(s)


if __name__ == "__main__":
    rows = outcomes(mci_artifacts().hmci2d, statements())
    print(json.dumps(_table(rows), indent=1))
