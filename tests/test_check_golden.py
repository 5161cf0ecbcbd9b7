"""Golden consequence verdicts: the verdicts and first countermodels of
seeded statements, aspects, rule validations and valuation lists, rendered
as the CLI prints them.

``golden/check_verdicts.json`` maps each case group to its number of
cases, its number of invalid verdicts and the sha256 of its rendered
text.  Running this file as a script prints the groups of the code at hand
in that file's format:

    PYTHONPATH=src python tests/test_check_golden.py > tests/golden/check_verdicts.json
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from ndlogic.language import App, Var
from ndlogic.logics import (example1, example2, hmci_axioms, mci_artifacts,
                            mk_matrix)
from ndlogic.semantics import (BStatement, Statement1D, aspect_entails,
                               b_entails, coherent_valuations, entails_1d,
                               validate_rule)

GOLDEN = Path(__file__).parent / "golden" / "check_verdicts.json"
SEED = 1022
CASES = 120
VARS = (Var("p"), Var("q"), Var("r"))


def _formula(rng, sig, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(VARS)
    conn = rng.choice(sorted(sig.connectives))
    return App(conn, tuple(_formula(rng, sig, depth - 1)
                           for _ in range(sig.connectives[conn])))


def _side(rng, sig, depth, most):
    return frozenset(_formula(rng, sig, depth)
                     for _ in range(rng.randint(0, most)))


def _render_check(verdict):
    """The output of ``ndlogic check``."""
    if verdict.valid:
        return "valid\n"
    return "invalid; countermodel:\n" + "".join(
        f"  {line}\n" for line in verdict.countermodel.lines())


def _render_rule(name, verdict):
    """A rule line of ``ndlogic validate-calculus``."""
    if verdict.valid:
        return f"ok   {name}\n"
    return f"BAD  {name}; countermodel: {verdict.countermodel}\n"


def _statements(rng, matrix, depth, sides):
    """``CASES`` tuples of ``sides`` random formula sets; a one-dimensional
    side holds up to three formulas, a two-dimensional one up to two."""
    sig = matrix.algebra.signature
    most = 3 if sides == 2 else 2
    return [tuple(_side(rng, sig, depth, most) for _ in range(sides))
            for _ in range(CASES)]


def groups():
    """(name, rendered verdicts) for every case group, in order."""
    arts = mci_artifacts()
    rng = random.Random(SEED)
    for name, m, depth in (("mci5", arts.m5, 2),
                           ("mk:1", mk_matrix(1).matrix, 2),
                           ("ex1", example1()[0], 3)):
        yield f"entails_1d {name}", [
            _render_check(entails_1d(m, Statement1D(*s)))
            for s in _statements(rng, m, depth, 2)]
    for name, b, depth in (("mci-b", arts.b5, 2),
                           ("ex2", example2()[0], 2)):
        yield f"b_entails {name}", [
            _render_check(b_entails(b, BStatement(*s)))
            for s in _statements(rng, b, depth, 4)]
    for aspect in ("t", "f"):
        yield f"aspect_entails {aspect} mci-b", [
            _render_check(aspect_entails(arts.b5, aspect, Statement1D(*s)))
            for s in _statements(rng, arts.b5, 2, 2)]
    for name, m, calc in (("hmci2d mci-b", arts.b5, arts.hmci2d),
                          ("hmci:3 mk:2", mk_matrix(2).matrix,
                           hmci_axioms(3).calculus)):
        yield f"validate_rule {name}", [
            _render_rule(r.name, validate_rule(m, r)) for r in calc.rules]
    for name, alg in (("mci5", arts.m5.algebra),
                      ("gh", example1()[0].algebra)):
        lists = []
        for _ in range(CASES // 4):
            fs = [_formula(rng, alg.signature, 2)
                  for _ in range(rng.randint(1, 2))]
            lists.append("".join(f"{v}\n" for v in
                                 coherent_valuations(alg, fs)) + "--\n")
        yield f"coherent_valuations {name}", lists


def digests():
    return {name: {"cases": len(texts),
                   "invalid": sum(t.startswith(("invalid", "BAD"))
                                  for t in texts),
                   "sha256": hashlib.sha256(
                       "".join(texts).encode()).hexdigest()}
            for name, texts in groups()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_verdicts_match_golden(golden):
    got = digests()
    assert list(got) == list(golden)
    for name, digest in got.items():
        assert digest == golden[name], name


def test_golden_covers_both_verdicts(golden):
    # a group of only valid or only invalid verdicts pins no countermodel
    # order, or no exhaustive search; the calculi are sound, so their
    # rules are all valid
    for name, digest in golden.items():
        if name.startswith(("entails_1d", "b_entails", "aspect_entails")):
            assert 0 < digest["invalid"] < digest["cases"], name


if __name__ == "__main__":
    print(json.dumps(digests(), indent=1))
