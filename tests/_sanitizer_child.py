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

import json
import tempfile
from array import array
from pathlib import Path

import numpy as np

from repro.utils import native

# the only change to the package: its build flags (no option in src/)
native._FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
                 "-shared", "-fPIC", "-ffp-contract=off")

from repro.cluster import BSPCluster  # noqa: E402 - after the flags
from repro.engines import superstep  # noqa: E402
from repro.engines.gemini import GeminiEngine, PageRank  # noqa: E402
from repro.engines.knightking import DeepWalk, Node2Vec, WalkEngine  # noqa: E402
from repro.errors import GraphFormatError, ReproError  # noqa: E402
from repro.graph import (  # noqa: E402
    ShardedCSRBuilder, chung_lu, extract_subgraph, from_edges, open_sharded, ring_graph, spill_csr)
from repro.partition import PartitionAssignment, get_partitioner  # noqa: E402
from repro.serving import (  # noqa: E402
    PartitionAwareCache, ServingConfig, ServingSimulator, WorkloadSpec)
from repro.engines.knightking import arcs_exist  # noqa: E402
from repro.graph.csr import gather_rows  # noqa: E402
from repro.graph.stream import vertex_stream  # noqa: E402
from repro.partition.kernels.buffered import ldg_buffered  # noqa: E402
from tests._native_cases import (  # noqa: E402
    CASES, OFFSETS, OUTSIDE, _bucket_arcs, _fennel_rows, _i8, _induce_rows, _scatter_rows,
    _serve_reads, _walk_apply, serve_cache, serve_graph, with_id, with_offset)

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


def refused(run, error=(ReproError, ValueError)):
    global CELLS
    CELLS += 1
    try:
        run()
    except error:
        return
    raise AssertionError(f"{run} was not refused")


def empty(dtype, n=0):
    return np.zeros(n, dtype)


i8, f8, b1 = np.int64, np.float64, bool
NONE = [(np.zeros(1, i8), empty(np.int32))]  # a graph of no rows
EMPTY = {  # every entry with no work to do
    "sample_cdf": (np.ones(1), empty(i8, 3), empty(f8), empty(i8)),
    "fennel_rows": (NONE, empty(i8), np.full(2, -1, np.int32), np.zeros(1), np.ones(2), 0.5, 0.5,
                    1.0, empty(f8, 1), empty(i8, 1)),
    "bucket_arcs": (empty(i8), empty(i8), 1, empty(i8, 2), empty(i8), empty(i8)),
    "scatter_rows": (empty(i8), 0, 0, empty(i8), empty(i8), 0, empty(np.int32)),
    "walk_live": (empty(b1), empty(i8), empty(i8), empty(i8), empty(i8), empty(i8)),
    "walk_apply": (empty(i8), empty(i8), empty(b1), empty(i8, 1), empty(f8, 1), 1, empty(i8),
                   empty(i8), empty(i8), empty(b1), empty(i8, 1), None, None, None),
    "uniform_step": (NONE, 0, empty(i8), empty(f8), empty(i8), empty(b1)),
    "arcs_sorted": (NONE, empty(i8), empty(i8), empty(b1)),
    "census_scan": (NONE, empty(i8), empty(i8), None),
    "induce_rows": (NONE, empty(i8), empty(i8), empty(i8), empty(np.int32)),
    "gather_rows": ([], empty(i8), 0, empty(i8)),
    "census_group": (empty(i8), 1, empty(i8), empty(i8), empty(i8), empty(i8), empty(i8),
                     empty(i8)),
    "census_push": (0, empty(b1), empty(i8), empty(i8), empty(i8), empty(i8, 1)),
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
                cell(name, *with_id(CASES[name](), i, value), refused=True)
    for name, i in OFFSETS.items():  # row offsets below 0 and past the ids
        for at, value in ((0, -1), (-1, None), (-1, 2**31 - 1)):
            cell(name, *with_offset(CASES[name](), i, at, value), refused=True)
    cell("fennel_rows", *_fennel_rows(k=1))  # one part
    cell("fennel_rows", *_fennel_rows(k=0), refused=True)  # no part to place a vertex in
    [(ptr, ids)], *args = _fennel_rows()
    cell("fennel_rows", [(ptr[:-1].copy(), ids)], *args, refused=True)  # a vertex with no row
    two = [(ptr[:3].copy(), ids[:3].copy()), (ptr[2:] - 3, ids[3:].astype(i8))]
    cell("fennel_rows", two, *args)  # rows 0, 1 in one block, 2 in the next
    cell("fennel_rows", two[1:], *args, refused=True)  # a table of the last block alone
    last = native.Table(two[1:], first=2)  # one shard's block, as a natural-order stream reads it
    cell("fennel_rows", last, _i8(2), *args[1:])
    cell("fennel_rows", last, *args, refused=True)  # rows 0 and 1 lie in no block of it
    args = list(_bucket_arcs())
    cell("bucket_arcs", *args[:3], np.empty(4, i8), *args[4:], refused=True)  # past bucket 1
    cell("bucket_arcs", *args[:2], 0, *args[3:], refused=True)  # no bucket size
    args = list(_scatter_rows())
    cell("scatter_rows", *args[:3], _i8(0, 1, 4), *args[4:], refused=True)  # source 4 full
    cell("scatter_rows", *args[:4], _i8(1, 3, 5), *args[5:], refused=True)  # past the output
    induce = _induce_rows()
    cell("induce_rows", *induce[:-1], np.empty(6, i8))  # int64 local ids
    cell("induce_rows", *induce[:-1], np.empty(3, np.int32), refused=True)  # no room for 4 arcs
    cell("walk_apply", *_walk_apply(m=1))
    args = _serve_reads(machines=1)
    cell("serve_reads", *args[:1], 1, *args[2:], refused=True)  # a machine past the last
    ctx = serve_cache(steps=5).context  # room for two walkers of five steps
    cell("serve_batch", ctx, 0, 0, empty(i8))
    cell("serve_batch", ctx, 1, 0, array("q", [2, 0]))
    ring = [(np.arange(9), (np.arange(8) + 1) % 8)]  # no walker dies on it
    ctx.set(graph=ring)
    cell("serve_batch", ctx, 1, 0, array("q", [2, 0]))  # two walkers fill the buffer
    ctx.set(graph=serve_graph())
    cell("serve_batch", ctx, 0, 0, array("q", [2, 0, 0]), refused=True)  # three do not fit
    cell("serve_batch", ctx, 2, 0, array("q", [0]), refused=True)  # a machine past the last
    cell("serve_batch", ctx, 0, 1, array("q", [0]), refused=True)  # past the seed table
    cell("serve_batch", ctx, 0, -1, array("q", [0]), refused=True)
    cell("serve_batch", ctx, 0, 1, array("q", [1]))  # no walker draws no seed
    ctx.set(vertex=_i8(3, 5, 2))  # 3 is a sink, 2 steps into it
    cell("serve_batch", ctx, 0, 0, array("q", [0, 2]))
    (ptr, ids), (ptr1, ids1) = serve_graph()
    ctx.set(graph=[(ptr, ids), (ptr1[:4].copy(), ids1[:4].copy())], vertex=_i8(7, 5, 7))
    cell("serve_batch", ctx, 0, 0, array("q", [0]), refused=True)  # 7 past the last block
    for at, value in ((1, -1), (2, 5), (4, 99)):  # a row's offsets outside its ids
        bad = ptr.copy()
        bad[at] = value
        ctx.set(graph=[(bad, ids), (ptr1, ids1)], vertex=_i8(1, 5, 2))
        cell("serve_batch", ctx, 0, 0, array("q", [0, 2]), refused=True)
    cell("walk_draws", ctx.fields["seeds"][0, 0], empty(f8))

    # Full batches end to end: 32 walkers of 16 steps; then a walker reaching a shard id
    # outside [0, n) is a GraphFormatError.
    g = chung_lu(400, 6.0, rng=5)
    trace = WorkloadSpec(duration=0.004, rate=1200000.0, walk_frac=1.0, walk_steps=16,
                         seed=2).generate(g)
    config = ServingConfig(batch_max=32, queue_limit=128)
    ServingSimulator(PartitionAssignment(g, np.arange(400) % 3, 3), config).run(trace)
    with tempfile.TemporaryDirectory() as spill:
        sharded = spill_csr(g, spill, shard_size=64)
        ids = np.load(f"{spill}/shard-00002.indices.npy", mmap_mode="r+")
        assignment = PartitionAssignment(sharded, np.arange(400) % 3, 3)
        for value in (g.num_vertices, -1, np.iinfo(ids.dtype).max):
            ids[:] = value
            ids.flush()
            refused(lambda: ServingSimulator(assignment, config).run(trace), GraphFormatError)
        del ids

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
    with tempfile.TemporaryDirectory() as spill:  # shards in place in any order, extraction
        sharded = spill_csr(g, spill, shard_size=64)
        get_partitioner("bpart").partition(sharded, 3)
        get_partitioner("fennel", order="random", seed=1).partition(sharded, 3)
        get_partitioner("ldg").partition(sharded, 3)
        ldg_buffered(sharded, vertex_stream(sharded, "random", rng=1),  # LDG's loop off order
                     np.full(g.num_vertices, -1, np.int32), np.zeros(3), capacity=1e9)
        refused(lambda: gather_rows(sharded, np.array([3, g.num_vertices])))
        refused(lambda: gather_rows(sharded, np.array([-1])))
        table = sharded.table  # a reader through a table whose graph was closed
        sharded.close()
        parts = np.arange(g.num_vertices) % 3
        cell("census_scan", table, parts, np.zeros(g.num_vertices, i8), None)
        cell("fennel_rows", table, np.arange(g.num_vertices), np.full(g.num_vertices, -1, np.int32),
             np.zeros(2), np.ones(g.num_vertices), 0.5, 0.5, 1e9, empty(f8, 2), empty(i8, 2))
        del table
        for path in Path(spill).glob("*.indices.npy"):  # narrow ids, widened by the table
            np.save(path, np.load(path).astype(np.int16))
        meta = json.loads((Path(spill) / "meta.json").read_text())
        (Path(spill) / "meta.json").write_text(json.dumps({**meta, "index_dtype": "int16"}))
        narrow = open_sharded(spill)
        assert (superstep.census_build(narrow, parts, 3)["cut_src"] ==
                superstep.census_build(g, parts, 3)["cut_src"]).all()
        get_partitioner("fennel").partition(narrow, 3)  # a shard at a time, each widened
        cell("gather_rows", narrow.table, np.arange(g.num_vertices), g.num_vertices,
             np.empty(g.num_edges, i8))
        narrow.close()
    with tempfile.TemporaryDirectory() as spill:  # the builder: its buckets, then a foreign arc
        src, dst = g.indptr.size - 2 - np.arange(g.num_edges) % 7, g.indices
        builder = ShardedCSRBuilder(spill, shard_size=48)
        builder.add_edges(src, dst)
        assert builder.finalize() == from_edges(src, dst)
        builder = ShardedCSRBuilder(spill, num_vertices=g.num_vertices, shard_size=48)
        builder.add_edges(src, dst)
        builder._buckets[4].write(np.array([3, 0], i8).tobytes())  # source 3, in bucket 4
        builder._counts[199] += 1
        refused(builder.finalize)
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
            refused(lambda: extract_subgraph(sharded, np.arange(g.num_vertices) > 0))
        del ids
        # a shard whose row offsets run past its ids: the arc test, extraction, a node2vec walk
        sharded = spill_csr(g, f"{spill}/offsets", shard_size=64)
        offsets = np.load(f"{spill}/offsets/shard-00001.indptr.npy", mmap_mode="r+")
        offsets[5] = offsets[-1] + 1
        offsets.flush()
        every = np.arange(g.num_vertices)
        refused(lambda: arcs_exist(sharded, every, every))
        refused(lambda: extract_subgraph(sharded, every > 0))
        assignment = PartitionAssignment(sharded, every % 2, 2)
        refused(lambda: WalkEngine(BSPCluster(2)).run(sharded, assignment, Node2Vec(),
                                                      max_steps=3))
        del offsets
    print(CELLS, "cells")


if __name__ == "__main__":
    main()
