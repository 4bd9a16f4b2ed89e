"""Graph persistence: edge-list text.

The one file format: the whitespace-separated ``u v`` lines of
SNAP/KONECT dumps (the paper's datasets are distributed that way),
which is what ``--graph`` hands to :func:`read_edge_list`;
:func:`write_edge_list` is its inverse. A malformed line, or input
that cannot be read to its end (a cut-short ``.gz`` download), is a
:class:`~repro.errors.GraphFormatError` naming ``path:lineno``.
"""

from __future__ import annotations

import gzip
import os
from typing import IO

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph

__all__ = [
    "open_text",
    "read_edge_list",
    "write_edge_list",
]


def open_text(path: str | os.PathLike, mode: str = "r") -> IO[str]:
    """Open a text file, transparently un/compressing ``.gz`` paths.

    SNAP/KONECT distribute their edge lists gzipped; every text reader
    and writer here routes through this helper so ``graph.txt.gz`` works
    anywhere ``graph.txt`` does.
    """
    if str(path).endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def _read_lines(fh, path):
    """Yield ``(lineno, line)``; a mid-stream I/O failure (truncated gzip,
    disk errors) is a :class:`GraphFormatError` at the line it hit."""
    lineno = 0
    while True:
        try:
            line = fh.readline()
        except (EOFError, OSError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"{path}:{lineno + 1}: unreadable input: {exc}") from exc
        if not line:
            return
        lineno += 1
        yield lineno, line


def _parse_edge_lines(fh, path):
    """Yield ``(u, v)`` pairs from an open edge-list file."""
    for lineno, line in _read_lines(fh, path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: non-integer vertex id") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"{path}:{lineno}: negative vertex id in {line!r}")
        yield u, v


def read_edge_list(path: str | os.PathLike) -> CSRGraph:
    """Read a whitespace-separated ``u v`` edge list as an undirected graph.

    Lines starting with ``#`` (SNAP convention) and blank lines are
    skipped. Vertex ids must be non-negative integers; the graph has
    ``max id + 1`` vertices.
    """
    src: list[int] = []
    dst: list[int] = []
    with open_text(path) as fh:
        for u, v in _parse_edge_lines(fh, path):
            src.append(u)
            dst.append(v)
    return from_edges(np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))


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
