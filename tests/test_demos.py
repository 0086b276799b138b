"""Every demo script runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_scenarios_cli import SRC_ENV

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    res = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=SRC_ENV, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
