"""Every demo script, and the README's library tour, runs to completion
against this checkout."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_clean(script, tmp_path):
    res = subprocess.run([sys.executable, str(script)], cwd=str(tmp_path), env=child_env(),
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


def test_readme_tour_runs_clean(tmp_path):
    # the README's python blocks, in order, as one script
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    res = subprocess.run([sys.executable, "-c", "\n".join(blocks)], cwd=str(tmp_path),
                         env=child_env(), capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
