"""Every demo script runs to completion against this checkout."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script, tmp_path):
    res = subprocess.run([sys.executable, str(script)], cwd=str(tmp_path), env=child_env(),
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
