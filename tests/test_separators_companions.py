"""Golden companion reports: the rendered ``expressiveness_report`` lines at
depth 3 of the B-matrix that pairs mci5's algebra and designated set with
each of the 32 antidesignated sets, the candidates for mci5's second
dimension.

The reports are stored in ``golden/separators_companions.json`` as a
mapping from the antidesignated set, written ``{v,...}`` in the algebra's
value order, to report lines; the sets come in the order of their bit
masks over that value order.  Running this file as a script prints the
reports of the code at hand in that file's format:

    PYTHONPATH=src python tests/test_separators_companions.py > tests/golden/separators_companions.json
"""

import json
from pathlib import Path

import pytest

from ndlogic.logics import mci_artifacts
from ndlogic.semantics import BMatrix, expressiveness_report

GOLDEN = Path(__file__).parent / "golden" / "separators_companions.json"
DEPTH = 3


def companions():
    """(name, B-matrix) for every antidesignated set over mci5's algebra."""
    m5 = mci_artifacts().m5
    values = m5.algebra.values
    for mask in range(1 << len(values)):
        anti = [v for i, v in enumerate(values) if mask >> i & 1]
        yield "{" + ",".join(anti) + "}", BMatrix(m5.algebra, m5.designated,
                                                  anti)


def reports():
    return {name: expressiveness_report(b, DEPTH).lines()
            for name, b in companions()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_reports_match_golden(golden):
    got = reports()
    assert list(got) == list(golden)
    for name, lines in got.items():
        assert lines == golden[name], name


def test_golden_holds_the_papers_pairing(golden):
    # the paper's antidesignated set {f,I,T} separates every pair, while
    # the empty set leaves mci5's two pairs open
    assert len(golden) == 32
    assert golden["{f,I,T}"][-1] == "  => sufficiently expressive (up to bound)"
    assert golden["{}"][-1] == "  => not separated within bound"
    assert "  <f,F>: none up to depth 3" in golden["{}"]
    assert "  <T,t>: none up to depth 3" in golden["{}"]


if __name__ == "__main__":
    print(json.dumps(reports(), indent=1))
