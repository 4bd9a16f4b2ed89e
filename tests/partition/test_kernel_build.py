"""Building and loading the compiled Fennel resolver (``kernels/_fennel.c``).

The library is compiled on first use into ``$REPRO_CACHE_DIR/kernels/``
and loaded once per process; these tests drive that path with fresh
caches, child processes and a compiler that is missing or fails.
"""

from __future__ import annotations

import os
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import main
from repro.errors import ConfigurationError
from repro.partition.kernels import buffered

SRC = str(Path(__file__).resolve().parents[2] / "src")

# Loads the library with telemetry on and prints the build span's `cached` arg.
# With --no-compiler any attempt to run the compiler fails.
CHILD = """
import subprocess, sys
from repro import telemetry
from repro.partition.kernels.buffered import _library
if "--no-compiler" in sys.argv:
    subprocess.run = None
telemetry.set_enabled(True)
_library()
print(telemetry.registry().spans[0]["args"]["cached"])
"""


def _child(cache: Path, *args: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": SRC, "REPRO_CACHE_DIR": str(cache)}
    return subprocess.Popen([sys.executable, "-c", CHILD, *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _finish(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return out.strip()


@pytest.fixture
def fresh_library():
    """``_library`` with its per-process memo cleared before and after."""
    buffered._library.cache_clear()
    yield buffered._library
    buffered._library.cache_clear()


@pytest.fixture
def compiler(monkeypatch, fresh_library):
    """Replace the interpreter's ``CC`` with the given command line."""
    def use(command: str) -> None:
        monkeypatch.setattr(sysconfig, "get_config_var", lambda name: command)
    return use


def test_cold_build_into_an_empty_cache(fresh_library, tmp_path, monkeypatch):
    cache = tmp_path / "empty"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    telemetry.set_enabled(True)
    lib = fresh_library()
    assert fresh_library() is lib  # memoised: one build span, one handle
    built = list((cache / "kernels").iterdir())
    assert len(built) == 1 and built[0].name.startswith("fennel-") and built[0].suffix == ".so"
    spans = [(s["name"], s["args"]) for s in telemetry.registry().spans]
    assert spans == [("partition.kernels.build", {"cached": False})]


def test_second_process_loads_without_the_compiler(tmp_path):
    assert _finish(_child(tmp_path)) == "False"
    assert _finish(_child(tmp_path, "--no-compiler")) == "True"


def test_concurrent_builds_both_succeed(tmp_path):
    procs = [_child(tmp_path) for _ in range(2)]
    assert all(_finish(p) in ("True", "False") for p in procs)
    assert len(list((tmp_path / "kernels").iterdir())) == 1  # no temp file left behind


def test_missing_compiler_is_a_configuration_error(compiler):
    compiler("/nonexistent/cc")
    with pytest.raises(ConfigurationError, match="/nonexistent/cc"):
        buffered._library()


def test_failed_build_names_the_command_and_first_stderr_line(compiler):
    compiler("sh -c 'echo first >&2; echo second >&2; exit 1'")
    with pytest.raises(ConfigurationError) as exc:
        buffered._library()
    message = str(exc.value)
    assert message.startswith("cannot build the buffered kernel with `sh -c")
    assert message.endswith(": first") and "\n" not in message


def test_cli_reports_a_missing_compiler_in_one_line(compiler, capsys):
    compiler("/nonexistent/cc")
    argv = ["partition", "--dataset", "livejournal", "--scale", "0.02", "--algo", "fennel"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot build the buffered kernel")
