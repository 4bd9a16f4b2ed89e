"""Building and loading the compiled libraries: the Fennel resolver
(``partition/kernels/_fennel.c``), the serving batch step
(``serving/_serve.c``), the generators' sampler (``graph/_sample.c``)
and the engines' superstep kernel (``engines/_superstep.c``).

All are declared in one table, ``utils/native.py``, and built by one
helper: compiled on first use into ``$REPRO_CACHE_DIR/kernels/`` and
loaded once per process.
These tests drive that path for each library with fresh caches, child
processes and a compiler that is missing or fails.
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
from repro.graph import ring_graph, write_edge_list
from repro.graph.datasets import clear_dataset_cache
from repro.utils import native

SRC = str(Path(__file__).resolve().parents[2] / "src")

# Loads every library of the table with telemetry on and prints each build span's
# `cached` arg. With --no-compiler any attempt to run the compiler fails.
CHILD = """
import subprocess, sys
from repro import telemetry
from repro.utils import native
if "--no-compiler" in sys.argv:
    subprocess.run = None
telemetry.set_enabled(True)
for key in native.LIBRARIES:
    native.library(key)
print(*(span["args"]["cached"] for span in telemetry.registry().spans))
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
def fresh_libraries():
    """The table's per-process memos, and the dataset cache built with
    them, cleared before and after."""
    def clear():
        native.library.cache_clear()
        native._checked.cache_clear()
        clear_dataset_cache()
    clear()
    yield
    clear()


@pytest.fixture
def compiler(monkeypatch, fresh_libraries):
    """Replace the interpreter's ``CC`` with the given command line."""
    def use(command: str) -> None:
        monkeypatch.setattr(sysconfig, "get_config_var", lambda name: command)
    return use


def test_cold_build_into_an_empty_cache(fresh_libraries, tmp_path, monkeypatch):
    cache = tmp_path / "empty"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    telemetry.set_enabled(True)
    for key in native.LIBRARIES:
        lib = native.library(key)
        assert native.library(key) is lib  # memoised: one build span, one handle
    built = sorted(p.name for p in (cache / "kernels").iterdir())
    assert [b.split("-")[0] for b in built] == ["fennel", "sample", "serve", "superstep"]
    assert all(b.endswith(".so") for b in built)
    spans = [(s["name"], s["args"]) for s in telemetry.registry().spans]
    assert spans == [(span, {"cached": False}) for _, span, _ in native.LIBRARIES.values()]


def test_second_process_loads_without_the_compiler(tmp_path):
    assert _finish(_child(tmp_path)) == "False False False False"
    assert _finish(_child(tmp_path, "--no-compiler")) == "True True True True"


def test_concurrent_builds_both_succeed(tmp_path):
    procs = [_child(tmp_path) for _ in range(2)]
    for proc in procs:
        assert set(_finish(proc).split()) <= {"True", "False"}
    assert len(list((tmp_path / "kernels").iterdir())) == 4  # no temp file left behind


def test_missing_compiler_is_a_configuration_error(compiler):
    compiler("/nonexistent/cc")
    for key in native.LIBRARIES:
        with pytest.raises(ConfigurationError, match="/nonexistent/cc"):
            native.library(key)


def test_failed_build_names_the_command_and_first_stderr_line(compiler):
    compiler("sh -c 'echo first >&2; echo second >&2; exit 1'")
    for key, (_, _, what) in native.LIBRARIES.items():
        with pytest.raises(ConfigurationError) as exc:
            native.library(key)
        message = str(exc.value)
        assert message.startswith(f"cannot build the {what} with `sh -c")
        assert message.endswith(": first") and "\n" not in message


def test_cli_reports_a_missing_compiler_in_one_line(compiler, capsys):
    compiler("/nonexistent/cc")
    argv = ["partition", "--dataset", "livejournal", "--scale", "0.02", "--algo", "fennel"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()  # generating the graph fails first
    assert len(err) == 1 and err[0].startswith("error: cannot build the graph sampler")


def test_cli_on_an_edge_list_reports_the_buffered_kernel(compiler, capsys, tmp_path):
    write_edge_list(ring_graph(64), tmp_path / "ring.txt")
    compiler("/nonexistent/cc")
    assert main(["partition", "--graph", str(tmp_path / "ring.txt"), "--algo", "fennel"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot build the buffered kernel")


def test_serve_reports_a_missing_compiler_in_one_line(compiler, capsys):
    compiler("/nonexistent/cc")
    argv = ["serve", "--dataset", "livejournal", "--scale", "0.02", "--algos", "hash",
            "--duration", "0.01"]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot build the graph sampler")
