"""The demo scripts run to completion and print something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ndlogic

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["consequence_basics.py", "families.py",
                                  "proof_search.py", "two_dimensional.py",
                                  "verification_suite.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(Path(ndlogic.__file__).parents[1]))
    res = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
