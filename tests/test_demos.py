"""Smoke test: every script in demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import advlab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) == 3


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(advlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         cwd=tmp_path, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
