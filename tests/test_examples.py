"""Every script under ``examples/`` runs to exit 0. An example counts as a
caller under the reachability rule (DESIGN.md §3) only because this runs it."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.name)
def test_example_exits_zero(script, tmp_path):
    done = subprocess.run(
        [sys.executable, str(script)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
