"""The sanitizer drill: the C boundary under AddressSanitizer and UBSan.

A child process preloads gcc's ``libasan.so`` and ``libubsan.so``, builds
the four C files with ``-fsanitize=address,undefined`` into its own cache
and runs ``tests/_sanitizer_child.py``: every TABLE entry of
``utils/native.py`` on valid inputs, empty inputs, one part or machine, a
capacity-1 cache, ids at ``n``, -1 and 2**31 - 1 and row offsets outside
their ids, then the engines end to end and corrupted shards. It must exit cleanly with no sanitizer report within 60 s. The
test skips only when gcc reports no ``libasan.so``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _runtime(name: str) -> str | None:
    """The runtime library gcc links for ``name``, if it has one."""
    if shutil.which("gcc") is None:
        return None
    path = subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                          text=True).stdout.strip()
    return path if os.path.isabs(path) and os.path.isfile(path) else None


def test_the_c_boundary_is_clean_under_the_sanitizers(tmp_path):
    asan, ubsan = _runtime("libasan.so"), _runtime("libubsan.so")
    if asan is None:
        pytest.skip("gcc reports no libasan.so")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "REPRO_CACHE_DIR": str(tmp_path),
           "LD_PRELOAD": " ".join(p for p in (asan, ubsan) if p),
           "ASAN_OPTIONS": "detect_leaks=0"}
    start = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "tests._sanitizer_child"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    elapsed = time.monotonic() - start
    report = run.stderr[-4000:]
    assert "Sanitizer" not in run.stderr and "runtime error" not in run.stderr, report
    assert run.returncode == 0, report
    assert run.stdout.strip().endswith("cells"), run.stdout
    assert elapsed <= 60, f"the drill took {elapsed:.1f} s"
