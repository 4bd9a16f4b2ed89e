"""Gemini's cut census and the sorted-row arc test over ``_superstep.c`` (the
walker engine calls its other loops itself), each C pass through
:func:`repro.utils.native.call`, whose table holds its contract.
"""

from __future__ import annotations

import numpy as np

from repro.utils import native


def arcs_sorted(indptr: np.ndarray, indices: np.ndarray, src: np.ndarray, tgt: np.ndarray,
                start: int = 0):
    """Whether row ``src[i]`` of a CSR with ascending rows (from row ``start`` on) holds ``tgt[i]``."""
    hit = np.empty(src.size, dtype=bool)
    native.call("arcs_sorted", start, indptr, _wide(indices), src, tgt, hit)
    return hit


def _wide(ids: np.ndarray) -> np.ndarray:  # another integer width (a shard's) as int64
    return ids if ids.dtype in (np.int32, np.int64) or ids.dtype.kind not in "iu" else ids.astype("i8")


def census_build(graph, parts: np.ndarray, m: int) -> dict:
    """Gemini's cut arcs grouped by (source machine, target vertex), groups
    in ascending order: two passes of an LSD counting sort over
    ``graph.iter_blocks()``, O(n + m + cut) time and O(n) memory besides
    the output. ``cut_src`` and ``cut_pair`` (``src_machine * m +
    dst_machine``) are per arc, ``group_starts`` and ``group_pair`` per group."""
    n, at = graph.num_vertices, np.zeros(graph.num_vertices, dtype=np.int64)

    def scan(by_target):
        for start, _, local, ids in graph.iter_blocks():
            native.call("census_scan", start, local, _wide(ids), parts, at, by_target)

    scan(None)
    cut_src, cut_pair, starts, group_pair = (np.empty(int(at.sum()), np.int64) for _ in range(4))
    at[:] = np.cumsum(at) - at  # each target's first slot; its run's end after the scan
    scan(group_pair)  # the first pass's output, read by census_group before it is overwritten
    groups = native.call("census_group", parts, m, at, group_pair, cut_src, cut_pair, starts,
                         group_pair)
    return {"n": n, "cut_src": cut_src, "cut_pair": cut_pair,
            "group_starts": starts[:groups].copy(), "group_pair": group_pair[:groups].copy()}


def census_push(census: dict, active: np.ndarray, aggregate: bool, m: int) -> np.ndarray:
    """One push superstep's ``m × m`` message counts: one per cut arc with an
    active source, or, ``aggregate``, one per group with any."""
    counts = np.zeros(m * m, dtype=np.int64)
    native.call("census_push", census["n"], np.ascontiguousarray(active, dtype=bool),
                census["cut_src"], census["cut_pair"], census["group_starts"],
                census["group_pair"], aggregate, counts)
    return counts.reshape(m, m)
