"""The demo scripts run to completion and print something.

``verification_suite.py`` is left out: it runs the whole battery twice
(about 5 s on a 2-core machine), and ``tests/test_logics.py`` and
``tests/test_cli.py`` already run the battery, on clean and corrupted
artifacts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ndlogic

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["consequence_basics.py", "families.py",
                                  "proof_search.py", "two_dimensional.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
    res = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
