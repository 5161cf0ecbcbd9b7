"""Golden separator reports: the rendered ``expressiveness_report`` lines at
depth 3 for every builtin matrix and for seeded random 3-valued matrices.

The reports are stored in ``golden/separators_depth3.json`` as a mapping
from matrix name to report lines.  Running this file as a script prints
the reports of the code at hand in that file's format:

    PYTHONPATH=src python tests/test_separators_golden.py > tests/golden/separators_depth3.json
"""

import json
import random
from pathlib import Path

import pytest

from ndlogic.language import Signature
from ndlogic.logics import example1, example2, mci_artifacts, mk_matrix
from ndlogic.semantics import (BMatrix, NdAlgebra, NdMatrix,
                               expressiveness_report)

GOLDEN = Path(__file__).parent / "golden" / "separators_depth3.json"
DEPTH = 3
SEED = 2021
RANDOM_COUNT = 10
SIG = Signature({"c": 0, "g": 1, "k": 2})
VALUES = ("a", "b", "d")


def _random_matrix(rng):
    """A constant, a unary and a binary connective whose cells are mostly
    single values, so that separators lie deep, and one designated
    value; about half of the matrices are B-matrices."""

    def cell():
        return set(rng.sample(VALUES, rng.choice((1, 1, 1, 1, 2, 3))))

    def distinguished():
        return frozenset(rng.sample(VALUES, 1))

    alg = NdAlgebra(SIG, VALUES, {
        "c": {(): cell()},
        "g": {(x,): cell() for x in VALUES},
        "k": {(x, y): cell() for x in VALUES for y in VALUES}})
    if rng.random() < 0.5:
        return NdMatrix(alg, distinguished())
    return BMatrix(alg, distinguished(), distinguished())


def matrices():
    """(name, matrix) for every builtin matrix, then the random ones."""
    arts = mci_artifacts()
    yield "mci5", arts.m5
    yield "mci5-rej", arts.m5_rej
    yield "mci-b", arts.b5
    yield "ex1", example1()[0]
    yield "ex2", example2()[0]
    for k in (2, 3, 4):
        yield f"mk:{k}", mk_matrix(k)
    rng = random.Random(SEED)
    for i in range(RANDOM_COUNT):
        yield f"random:{i}", _random_matrix(rng)


def reports():
    return {name: expressiveness_report(m, DEPTH).lines()
            for name, m in matrices()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_reports_match_golden(golden):
    got = reports()
    assert list(got) == list(golden)
    for name, lines in got.items():
        assert lines == golden[name], name


def test_golden_covers_deep_separators(golden):
    # the table is only a check of the scan if some separators lie deep
    # and some pairs stay unseparated
    lines = [line for report in golden.values() for line in report]
    assert any(": none up to depth 3" in line for line in lines)
    assert any(line.count("(") >= 3 and "inside" in line for line in lines)


if __name__ == "__main__":
    print(json.dumps(reports(), indent=1))
