"""The sanitizer drill's child: every TABLE entry of ``utils/native.py`` on
valid and adversarial inputs, with the four C files built under
AddressSanitizer and UBSan. ``tests/test_sanitizer_drill.py`` runs it; by hand,
from the repository root::

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 REPRO_CACHE_DIR="$(mktemp -d)" PYTHONPATH=src \\
    python -m tests._sanitizer_child

A memory or undefined-behaviour error aborts the process with a report on
stderr; a refused id that does not raise fails an assertion. It prints
the number of cells run.
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro.utils import native

# the only change to the package: its build flags (no option in src/)
native._FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                 "-shared", "-fPIC", "-ffp-contract=off")

from repro.cluster import BSPCluster  # noqa: E402 - after the flags
from repro.engines import superstep  # noqa: E402
from repro.engines.gemini import GeminiEngine, PageRank  # noqa: E402
from repro.engines.knightking import DeepWalk, Node2Vec, WalkEngine  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.graph import chung_lu, from_edges, ring_graph, spill_csr  # noqa: E402
from repro.partition import PartitionAssignment, get_partitioner  # noqa: E402
from repro.serving import PartitionAwareCache  # noqa: E402
from repro.engines.knightking import arcs_exist  # noqa: E402
from tests._native_cases import (  # noqa: E402
    CASES, OFFSETS, OUTSIDE, _fennel_chunk, _serve_reads, _walk_apply)

CELLS = 0


def cell(name, *args, refused=False):
    """One checked call; ``refused``: it must raise the C loop's refusal."""
    global CELLS
    CELLS += 1
    try:
        native.call(name, *args)
    except (ReproError, ValueError) as exc:
        assert refused and not str(exc).startswith(f"{name}:"), (name, exc)
        return
    assert not refused, f"{name} took an id outside its range"


def refused(run):
    global CELLS
    CELLS += 1
    try:
        run()
    except (ReproError, ValueError):
        return
    raise AssertionError(f"{run} was not refused")


def empty(dtype, n=0):
    return np.zeros(n, dtype)


i8, f8, b1 = np.int64, np.float64, bool
EMPTY = {  # every entry with no work to do
    "sample_cdf": (np.ones(1), empty(i8, 3), empty(f8), empty(i8)),
    "fennel_chunk": (empty(i8), empty(i8), empty(i8), np.full(2, -1, np.int32), np.zeros(1),
                     np.ones(2), 0.5, 0.5, 1.0, empty(f8, 1), empty(i8, 1)),
    "walk_live": (empty(b1), empty(i8), empty(i8), empty(i8), empty(i8), empty(i8)),
    "walk_apply": (empty(i8), empty(i8), empty(b1), empty(i8, 1), empty(f8, 1), 1, empty(i8),
                   empty(i8), empty(i8), empty(b1), empty(i8, 1), None, None, None),
    "uniform_slots": (np.zeros(1, i8), empty(i8), empty(f8), empty(i8), empty(b1)),
    "arcs_sorted": (0, np.zeros(1, i8), empty(np.int32), empty(i8), empty(i8), empty(b1)),
    "census_scan": (0, np.zeros(1, i8), empty(np.int32), empty(i8), empty(i8), None),
    "census_group": (empty(i8), 1, empty(i8), empty(i8), empty(i8), empty(i8), empty(i8),
                     empty(i8)),
    "census_push": (0, empty(b1), empty(i8), empty(i8), empty(i8), empty(i8), 1, empty(i8, 1)),
}


def main() -> None:
    for name, case in CASES.items():
        cell(name, *case())
        if name in EMPTY:
            cell(name, *EMPTY[name])
    cell("serve_reads", _serve_reads()[0], 0, empty(i8), None, None)
    for name, bounds in OUTSIDE.items():  # ids at n, -1 and 2**31 - 1
        for i, n in bounds.items():
            for value in (n, -1, 2**31 - 1):
                args = list(CASES[name]())
                ids = np.array(args[i])
                ids[0] = value
                cell(name, *args[:i], ids, *args[i + 1:], refused=True)
    for name, i in OFFSETS.items():  # row offsets below 0 and past the ids
        for at, value in ((0, -1), (-1, None), (-1, 2**31 - 1)):
            args = list(CASES[name]())
            args[i] = args[i].copy()
            args[i][at] = args[i + 1].size + 1 if value is None else value
            cell(name, *args, refused=True)
    cell("fennel_chunk", *_fennel_chunk(k=1))  # one part
    cell("walk_apply", *_walk_apply(m=1))
    args = _serve_reads(machines=1)
    cell("serve_reads", *args[:1], 1, *args[2:], refused=True)  # a machine past the last

    # One machine, capacity 1 and 2: every hit, miss and eviction path of the LRU.
    rng = np.random.default_rng(7)
    for capacity in (1, 2):
        cache = PartitionAwareCache(1, block_size=1, capacity=capacity)
        for _ in range(300):
            cache.touch(0, rng.integers(0, 6, rng.integers(1, 5)))
            if rng.random() < 0.05:
                cache.flush(0)
        refused(lambda: cache.touch(0, np.array([-1])))

    # The engines end to end, plus their refusals: a walker on another graph's
    # assignment and a shard id outside [0, n).
    g = chung_lu(200, 6.0, rng=3)
    for k in (1, 3):
        assignment = PartitionAssignment(g, np.arange(g.num_vertices) % k, k)
        for app in (DeepWalk(), Node2Vec()):
            for mode in ("step_sync", "greedy"):
                WalkEngine(BSPCluster(k), mode=mode).run(g, assignment, app, max_steps=3)
        GeminiEngine(BSPCluster(k)).run(g, assignment, PageRank(3))
        get_partitioner("bpart").partition(g, k)
    # walkers start past the other assignment's 32 vertices, stepping to ids below 32
    down = from_edges(np.arange(32, 64), np.arange(32), num_vertices=64, directed=True)
    other = PartitionAssignment(ring_graph(32), np.arange(32) % 2, 2)
    refused(lambda: WalkEngine(BSPCluster(2)).run(down, other, DeepWalk(),
                                                 start_vertices=np.arange(32, 64)))
    with tempfile.TemporaryDirectory() as spill:
        sharded = spill_csr(g, spill, shard_size=64)
        ids = np.load(f"{spill}/shard-00001.indices.npy", mmap_mode="r+")
        for value in (g.num_vertices, -1, np.iinfo(ids.dtype).max):
            ids[3] = value
            ids.flush()
            parts = np.arange(g.num_vertices) % 2
            refused(lambda: superstep.census_build(sharded, parts, 2))
            refused(lambda: get_partitioner("fennel").partition(sharded, 2))
        del ids
        # a shard whose row offsets run past its ids: the arc test and a node2vec walk
        sharded = spill_csr(g, f"{spill}/offsets", shard_size=64)
        offsets = np.load(f"{spill}/offsets/shard-00001.indptr.npy", mmap_mode="r+")
        offsets[5] = offsets[-1] + 1
        offsets.flush()
        every = np.arange(g.num_vertices)
        refused(lambda: arcs_exist(sharded, every, every))
        assignment = PartitionAssignment(sharded, every % 2, 2)
        refused(lambda: WalkEngine(BSPCluster(2)).run(sharded, assignment, Node2Vec(),
                                                      max_steps=3))
        del offsets
    print(CELLS, "cells")


if __name__ == "__main__":
    main()
