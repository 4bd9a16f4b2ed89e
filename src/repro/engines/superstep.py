"""Gemini's cut census and the sorted-row arc test over ``_superstep.c`` (the
walker engine calls its other loops itself), each C pass through
:func:`repro.utils.native.call`, whose table holds its contract.
"""

from __future__ import annotations

import numpy as np

from repro.utils import native


def arcs_sorted(graph, src: np.ndarray, tgt: np.ndarray):
    """Whether row ``src[i]`` of ``graph``, whose rows ascend, holds ``tgt[i]``."""
    hit = np.empty(src.size, dtype=bool)
    native.call("arcs_sorted", graph.table, src, tgt, hit)
    return hit


def census_build(graph, parts: np.ndarray, m: int) -> dict:
    """Gemini's cut arcs grouped by (source machine, target vertex), groups
    in ascending order: two passes of an LSD counting sort over the
    graph's rows, O(n + m + cut) time and O(n) memory besides
    the output. ``cut_src`` and ``cut_pair`` (``src_machine * m +
    dst_machine``) are per arc, ``group_starts`` and ``group_pair`` per group."""
    n, at = graph.num_vertices, np.zeros(graph.num_vertices, dtype=np.int64)
    native.call("census_scan", graph.table, parts, at, None)
    cut_src, cut_pair, starts, group_pair = (np.empty(int(at.sum()), np.int64) for _ in range(4))
    at[:] = np.cumsum(at) - at  # each target's first slot; its run's end after the scan
    # the first pass's output, read by census_group before it is overwritten
    native.call("census_scan", graph.table, parts, at, group_pair)
    groups = native.call("census_group", parts, m, at, group_pair, cut_src, cut_pair, starts,
                         group_pair)
    return {"n": n, "cut_src": cut_src, "cut_pair": cut_pair,
            "group_starts": starts[:groups].copy(), "group_pair": group_pair[:groups].copy()}


def census_push(census: dict, active: np.ndarray, m: int) -> np.ndarray:
    """One push superstep's ``m × m`` message counts: one per group with
    an active source."""
    counts = np.zeros(m * m, dtype=np.int64)
    native.call("census_push", census["n"], np.ascontiguousarray(active, dtype=bool),
                census["cut_src"], census["group_starts"], census["group_pair"], counts)
    return counts.reshape(m, m)
