"""Graph persistence: edge-list text.

The one file format: the whitespace-separated ``u v`` lines of
SNAP/KONECT dumps (the paper's datasets are distributed that way),
which is what ``--graph`` hands to :func:`read_edge_list`;
:func:`write_edge_list` is its inverse.

Real-world edge streams are multi-GB and messy, so the reader takes an
``on_error`` recovery mode instead of failing the whole ingestion on
line one:

- ``"raise"`` (default) — :class:`~repro.errors.GraphFormatError` with
  ``path:lineno`` on the first malformed line;
- ``"skip"`` — drop malformed lines, counting them under the
  ``graph.io.malformed_lines`` telemetry counter;
- ``"collect"`` — like ``skip``, but additionally append a
  :class:`ParseIssue` per problem to the caller-supplied ``errors``
  list, so ingestion reports *what* was dropped.

Truncated input (e.g. a cut-short ``.gz`` download) follows the same
modes: fatal under ``"raise"``, a recorded issue plus a graph built
from the readable prefix otherwise.
"""

from __future__ import annotations

import gzip
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

from repro import telemetry
from repro.errors import ConfigurationError, GraphFormatError
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph

__all__ = [
    "ParseIssue",
    "open_text",
    "read_edge_list",
    "write_edge_list",
]

_ON_ERROR_MODES = ("raise", "skip", "collect")


@dataclass(frozen=True)
class ParseIssue:
    """One recoverable problem found while reading a graph file."""

    path: str
    lineno: int
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.lineno}: {self.message}"


def _check_mode(on_error: str, errors: list | None) -> None:
    if on_error not in _ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {_ON_ERROR_MODES}, got {on_error!r}"
        )
    if on_error == "collect" and errors is None:
        raise ConfigurationError("on_error='collect' needs an errors=[] list to fill")


def _handle(
    on_error: str, errors: list | None, path, lineno: int, message: str
) -> None:
    """Dispatch one malformed-input event per the recovery mode."""
    if on_error == "raise":
        raise GraphFormatError(f"{path}:{lineno}: {message}")
    if telemetry.enabled():
        telemetry.active().counter("graph.io.malformed_lines", mode=on_error).inc()
    if on_error == "collect":
        errors.append(ParseIssue(str(path), lineno, message))


def open_text(path: str | os.PathLike, mode: str = "r") -> IO[str]:
    """Open a text file, transparently un/compressing ``.gz`` paths.

    SNAP/KONECT distribute their edge lists gzipped; every text reader
    and writer here routes through this helper so ``graph.txt.gz`` works
    anywhere ``graph.txt`` does.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _read_lines(fh, path, on_error: str, errors: list | None):
    """Yield ``(lineno, line)``, converting mid-stream I/O failures
    (truncated gzip, disk errors) into the recovery mode's behaviour."""
    lineno = 0
    while True:
        try:
            line = fh.readline()
        except (EOFError, OSError, UnicodeDecodeError) as exc:
            _handle(on_error, errors, path, lineno + 1, f"unreadable input: {exc}")
            return
        if not line:
            return
        lineno += 1
        yield lineno, line


def _parse_edge_lines(fh, path, comments, on_error, errors):
    """Yield ``(u, v)`` pairs from an open edge-list file, applying the
    recovery mode per malformed line."""
    for lineno, line in _read_lines(fh, path, on_error, errors):
        line = line.strip()
        if not line or line.startswith(comments):
            continue
        parts = line.split()
        if len(parts) < 2:
            _handle(on_error, errors, path, lineno, f"expected 'u v', got {line!r}")
            continue
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            _handle(on_error, errors, path, lineno, "non-integer vertex id")
            continue
        if u < 0 or v < 0:
            _handle(on_error, errors, path, lineno, f"negative vertex id in {line!r}")
            continue
        yield u, v


def read_edge_list(
    path: str | os.PathLike,
    *,
    directed: bool = False,
    comments: str = "#",
    num_vertices: int | None = None,
    on_error: str = "raise",
    errors: list | None = None,
) -> CSRGraph:
    """Read a whitespace-separated ``u v`` edge list.

    Lines starting with ``comments`` (default ``#``, SNAP convention) and
    blank lines are skipped. Vertex ids must be non-negative integers;
    anything else follows the ``on_error`` recovery mode (see module
    docstring).
    """
    _check_mode(on_error, errors)
    src: list[int] = []
    dst: list[int] = []
    with open_text(path) as fh:
        for u, v in _parse_edge_lines(fh, path, comments, on_error, errors):
            src.append(u)
            dst.append(v)
    return from_edges(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_vertices,
        directed=directed,
    )


def write_edge_list(graph, path: str | os.PathLike) -> None:
    """Write every arc (undirected graphs: each edge once, ``u < v``)."""
    with open_text(path, "w") as fh:
        fh.write(f"# repro edge list: n={graph.num_vertices} directed={graph.directed}\n")
        for start, stop, local, idx in graph.iter_blocks():
            src = np.repeat(np.arange(start, stop, dtype=np.int64), np.diff(local))
            dst = idx.astype(np.int64, copy=False)
            if not graph.directed:
                keep = src < dst
                src, dst = src[keep], dst[keep]
            if src.size:
                np.savetxt(fh, np.column_stack([src, dst]), fmt="%d")
