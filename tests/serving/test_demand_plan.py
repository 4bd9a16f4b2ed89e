"""The k-hop demand plan against the per-query loop it replaced.

``_plan_demand`` computes every query's edge work, remote reads and
cache-block footprint once, vectorised; ``serve_batch`` only sums rows.
The loop that used to do this per query inside ``serve_batch`` lives on
here as the reference oracle: each table row must equal it exactly, and
a whole run over the planned table must equal a run whose batches are
served by the oracle. The compiled batch step that consumes the table
(``serving/_serve.c``) must equal the Python merge it replaced, fed to
the ``OrderedDict`` model of the cache.
"""

from __future__ import annotations

from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines.knightking.transition import uniform_neighbor
from repro.errors import ConfigurationError
from repro.graph import chung_lu, from_edges, spill_csr
from repro.partition.assignment import PartitionAssignment
from repro.serving import PartitionAwareCache, ServingConfig, ServingSimulator, WorkloadSpec
from repro.serving import simulator as simulator_module
from repro.serving.cache import FETCHED, READS, WORK
from repro.serving.simulator import _PLAN_CHUNK, _SALT_WALK, _plan_demand, _Run
from repro.serving.workload import KIND_KHOP, KIND_WALK, QueryTrace
from repro.utils import native
from repro.utils.rng import derive_rng
from tests.serving._cache_model import COUNTERS, ModelCache, lru_order


# -- the deleted per-query loop, kept as the oracle ----------------------
def oracle_khop(assignment, spec, v, home):
    """(edge work, remote reads, touched neighbours) of one k-hop query."""
    graph, parts = assignment.graph, assignment.parts
    deg = int(graph.degrees[v])
    edge_work = float(deg)
    if deg == 0:
        return edge_work, 0, np.empty(0, dtype=np.int64)
    span = min(deg, spec.khop_cap)
    start = int(graph.indptr[v])
    nbrs = graph.take_arcs(np.arange(start, start + span, dtype=np.int64)).astype(np.int64)
    remote = int(np.count_nonzero(parts[nbrs] != home))
    if spec.khop == 2:
        edge_work += float(graph.degrees[nbrs].sum())
    return edge_work, remote, nbrs


def oracle_row(assignment, trace, block_size, qi):
    """One demand-table row: (edge work, remote reads, sorted block pairs)."""
    v = int(trace.vertex[qi])
    edge_work, remote, nbrs = 0.0, 0, np.empty(0, dtype=np.int64)
    if trace.kind[qi] == KIND_KHOP:
        edge_work, remote, nbrs = oracle_khop(
            assignment, trace.spec, v, int(assignment.parts[v])
        )
    blocks, counts = np.unique(np.append(nbrs, v) // block_size, return_counts=True)
    return edge_work, remote, list(zip(blocks.tolist(), counts.tolist()))


def oracle_serve_batch(self, m, batch):
    """``_Run.serve_batch`` as it was before the plan (chaos sites aside)."""
    cfg, res, trace = self.cfg, self.result, self.trace
    graph, parts = self.assignment.graph, self.assignment.parts
    batch_id = self.batches[m]
    idx = np.asarray(batch, dtype=np.int64)
    homes, verts, kinds = self.part_of_query[idx], trace.vertex[idx], trace.kind[idx]
    touched = [verts]
    edge_work = step_work = 0.0
    remote = 0
    khop = kinds == KIND_KHOP
    for v, home in zip(verts[khop].tolist(), homes[khop].tolist()):
        work, reads, nbrs = oracle_khop(self.assignment, trace.spec, v, home)
        edge_work += work
        remote += reads
        touched.append(nbrs)
    walk = kinds == KIND_WALK
    if walk.any():
        wrng = derive_rng(self.seed, _SALT_WALK, m, batch_id)
        positions, walk_homes = verts[walk].copy(), homes[walk].copy()
        for _ in range(trace.spec.walk_steps):
            targets, dead = uniform_neighbor(graph, positions, wrng)
            alive = ~dead
            if not alive.any():
                break
            positions, walk_homes = targets[alive], walk_homes[alive]
            step_work += float(positions.size)
            remote += int(np.count_nonzero(parts[positions] != walk_homes))
            touched.append(positions)
    fetched = self.cache.touch(m, np.concatenate(touched))
    self.messages[m] += remote
    work = cfg.cost.compute_seconds(steps=step_work, edges=edge_work, vertices=float(len(batch)))
    svc = float(work[m]) if np.ndim(work) else float(work)
    if remote:
        svc += cfg.network.request_cost(remote)
    if fetched:
        svc += cfg.network.request_cost(fetched, cfg.block_bytes)
    return svc


# -- generated cases ------------------------------------------------------
@st.composite
def cases(draw):
    """A small graph (isolated vertices included), a k-way assignment and
    a hand-built trace over it."""
    n = draw(st.integers(2, 40))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120)
    )
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    graph = from_edges(src, dst, num_vertices=n, directed=draw(st.booleans()))
    k = draw(st.integers(2, 4))
    parts = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    q = draw(st.integers(0, 30))
    spec = WorkloadSpec(
        khop=draw(st.sampled_from([1, 2])),
        khop_cap=draw(st.sampled_from([1, 2, 3, 64])),
        walk_steps=draw(st.integers(1, 6)),
        duration=1.0,
    )
    trace = QueryTrace(
        spec=spec,
        times=np.sort(np.array(draw(st.lists(
            st.floats(0.0, 0.001), min_size=q, max_size=q)), dtype=np.float64)),
        user=np.zeros(q, dtype=np.int64),
        vertex=np.array(draw(st.lists(
            st.integers(0, n - 1), min_size=q, max_size=q)), dtype=np.int64),
        kind=np.array(draw(st.lists(
            st.sampled_from([KIND_KHOP, KIND_WALK]), min_size=q, max_size=q)), dtype=np.uint8),
    )
    block_size = draw(st.sampled_from([1, 2, 7, 64]))
    return PartitionAssignment(graph, parts, k), trace, block_size


def table_rows(table):
    edges, remote, ptr, block, count = table
    return [
        (
            float(edges[i]),
            int(remote[i]),
            list(zip(block[ptr[i] : ptr[i + 1]].tolist(), count[ptr[i] : ptr[i + 1]].tolist())),
        )
        for i in range(edges.size)
    ]


class TestPlanEqualsThePerQueryLoop:
    @given(case=cases(), chunk=st.sampled_from([1, 3, 1024]))
    @settings(max_examples=150, deadline=None)
    def test_every_row(self, case, chunk):
        assignment, trace, block_size = case
        table = _plan_demand(assignment, trace, block_size, chunk)
        assert table_rows(table) == [
            oracle_row(assignment, trace, block_size, qi) for qi in range(trace.num_queries)
        ]
        # compact columns, and a chunk boundary anywhere leaves them alone
        assert table[3].dtype == table[4].dtype == np.int32
        for ours, whole in zip(table, _plan_demand(assignment, trace, block_size)):
            assert ours.dtype == whole.dtype and np.array_equal(ours, whole)

    @given(
        case=cases(),
        factor=st.sampled_from([1, 2]),
        batch_max=st.sampled_from([1, 8]),
        cache_blocks=st.sampled_from([2, 256]),
    )
    @settings(max_examples=60, deadline=None)
    def test_whole_run(self, case, factor, batch_max, cache_blocks):
        assignment, trace, block_size = case
        config = ServingConfig(
            replication_factor=factor,
            batch_max=batch_max,
            cache_blocks=cache_blocks,
            cache_block_size=block_size,
            queue_limit=4,
        )
        planned = ServingSimulator(assignment, config, seed=3).run(trace)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Run, "serve_batch", oracle_serve_batch)
            oracle = ServingSimulator(assignment, config, seed=3).run(trace)
        assert planned.summary() == oracle.summary()
        assert planned.cache_stats == oracle.cache_stats
        for name in ("latency", "shed", "machine_of_query", "busy_seconds", "messages", "batches"):
            np.testing.assert_array_equal(getattr(planned, name), getattr(oracle, name))

    def test_zero_degree_targets_touch_only_themselves(self):
        graph = from_edges(np.array([0]), np.array([1]), num_vertices=5, directed=True)
        assignment = PartitionAssignment(graph, np.array([0, 1, 0, 1, 0]), 2)
        trace = _khop_trace(np.array([0, 1, 4]), khop=2)
        assert table_rows(_plan_demand(assignment, trace, 2)) == [
            (1.0, 1, [(0, 2)]),  # 0 -> 1: one remote read, both in block 0
            (0.0, 0, [(0, 1)]),
            (0.0, 0, [(2, 1)]),
        ]

    def test_edgeless_graph_and_empty_trace(self):
        graph = from_edges(np.empty(0, np.int64), np.empty(0, np.int64), num_vertices=3)
        assignment = PartitionAssignment(graph, np.array([0, 1, 0]), 2)
        rows = table_rows(_plan_demand(assignment, _khop_trace(np.array([2, 0])), 2))
        assert rows == [(0.0, 0, [(1, 1)]), (0.0, 0, [(0, 1)])]
        empty = _plan_demand(assignment, _khop_trace(np.empty(0, np.int64)), 2)
        assert [col.size for col in empty] == [0, 0, 1, 0, 0]

    def test_planner_runs_on_shards(self, tmp_path):
        # ShardedCSRGraph raises on `.indices`; the planner may only use
        # degrees / indptr / take_arcs.
        graph = chung_lu(3000, 8.0, 2.2, rng=3)
        spilled = spill_csr(graph, tmp_path, shard_size=256)
        parts = np.arange(3000) % 4
        spec = WorkloadSpec(duration=0.05, rate=20000.0, seed=2)
        trace = spec.generate(graph)
        dense = _plan_demand(PartitionAssignment(graph, parts, 4), trace, 64)
        shard = _plan_demand(PartitionAssignment(spilled, parts, 4), trace, 64, chunk=100)
        for a, b in zip(dense, shard):
            np.testing.assert_array_equal(a, b)

    def test_whole_run_on_shards(self, tmp_path):
        # The walk stepper keeps to the planner's contract (degrees /
        # indptr / take_arcs), so the loop runs on shards unchanged.
        graph = chung_lu(3000, 8.0, 2.2, rng=3)
        spilled = spill_csr(graph, tmp_path, shard_size=256)
        parts = np.arange(3000) % 4
        trace = WorkloadSpec(duration=0.02, rate=120000.0, walk_frac=0.5, seed=2).generate(graph)
        config = ServingConfig(cache_blocks=16)
        dense, shard = (
            ServingSimulator(PartitionAssignment(g, parts, 4), config, seed=3).run(trace)
            for g in (graph, spilled)
        )
        assert dense.queries.sum() > 2 * dense.batches.sum()  # multi-walker batches
        assert dense.summary() == shard.summary()
        np.testing.assert_array_equal(dense.latency, shard.latency)
        np.testing.assert_array_equal(dense.messages, shard.messages)

    def test_loop_gathers_no_arcs_for_walkers(self, monkeypatch):
        # Walkers step in _serve.c, on the graph's blocks: with walks on, the
        # only take_arcs calls of a run are still the planner's, one per chunk.
        # The oracle run shows the trace's walkers moving, and some steps
        # finding every walker at a sink.
        graph = from_edges(*np.random.default_rng(5).integers(0, 400, (2, 900)), directed=True)
        assignment = PartitionAssignment(graph, np.arange(graph.num_vertices) % 4, 4)
        trace = WorkloadSpec(duration=0.02, rate=120000.0, walk_frac=0.7, seed=1).generate(graph)
        assert not hasattr(simulator_module, "uniform_neighbor")
        moved, step = [], uniform_neighbor

        def counting(graph, positions, rng):
            targets, dead = step(graph, positions, rng)
            moved.append(not dead.all())
            return targets, dead

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_Run, "serve_batch", oracle_serve_batch)
            patch.setitem(globals(), "uniform_neighbor", counting)
            ServingSimulator(assignment, seed=0).run(trace)
        assert 0 < sum(moved) < len(moved)  # some steps found every walker at a sink
        calls, real = [], type(graph).take_arcs
        monkeypatch.setattr(
            type(graph), "take_arcs", lambda self, slots: calls.append(1) or real(self, slots)
        )
        ServingSimulator(assignment, seed=0).run(trace)
        assert len(calls) == -(-trace.num_queries // _PLAN_CHUNK)

    def test_loop_never_reads_the_graph_for_khop(self, monkeypatch):
        # The per-query k-hop path is gone: with walks off, the only
        # take_arcs calls of a run are the planner's, one per chunk.
        graph = chung_lu(500, 8.0, 2.2, rng=1)
        assignment = PartitionAssignment(graph, np.arange(500) % 4, 4)
        trace = WorkloadSpec(duration=0.1, rate=20000.0, walk_frac=0.0, seed=1).generate(graph)
        calls, real = [], type(graph).take_arcs
        monkeypatch.setattr(
            type(graph), "take_arcs", lambda self, slots: calls.append(1) or real(self, slots)
        )
        result = ServingSimulator(assignment, seed=0).run(trace)
        assert result.completed == trace.num_queries > _PLAN_CHUNK
        assert len(calls) == -(-trace.num_queries // _PLAN_CHUNK)


def _khop_trace(vertices, **spec):
    q = vertices.size
    return QueryTrace(
        spec=WorkloadSpec(**spec),
        times=np.arange(q, dtype=np.float64),
        user=np.zeros(q, dtype=np.int64),
        vertex=vertices.astype(np.int64),
        kind=np.full(q, KIND_KHOP, dtype=np.uint8),
    )


# -- the compiled batch step == the Python merge + the OrderedDict model ---
def python_batch_step(model, table, parts, block_size, m, batch, visits):
    """What ``serve_batch`` did in Python before ``_serve.c``: sum the
    batch's demand rows, add the walkers' visits, merge per block, and
    hand the sorted pairs to ``touch_blocks``."""
    edges, remote_reads, ptr, block, count = table
    edge_work, remote, touched = 0.0, 0, {}
    for qi in batch:
        edge_work += edges.item(qi)
        remote += remote_reads.item(qi)
        row = slice(ptr.item(qi), ptr.item(qi + 1))
        for b, c in zip(block[row].tolist(), count[row].tolist()):
            touched[b] = touched.get(b, 0) + c
    for pos, home in visits:
        remote += parts.item(pos) != home
        touched[pos // block_size] = touched.get(pos // block_size, 0) + 1
    return model.touch_blocks(m, sorted(touched.items())), edge_work, remote


def compiled_batch_step(cache, m, batch, visits):
    """One ``serve_reads`` call, as ``serve_batch`` makes it."""
    pos, homes = (array("q", column) for column in zip(*visits)) if visits else (None, None)
    native.call("serve_reads", cache.context, m, array("q", batch), pos, homes)
    slots = cache.context.slots
    return int(slots[FETCHED]), slots.view(np.float64)[WORK], int(slots[READS])


@st.composite
def batch_streams(draw):
    """A planned demand table and a stream of batches on two machines:
    query ids (repeats allowed) plus walker visits ``(vertex, home)``,
    interleaved with flushes and resets."""
    assignment, trace, block_size = draw(cases())
    n, q = assignment.graph.num_vertices, trace.num_queries
    step = st.tuples(
        st.integers(0, 1),
        st.lists(st.integers(0, q - 1), max_size=8) if q else st.just([]),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 3)), max_size=24),
    )
    stream = draw(st.lists(st.one_of(step, st.sampled_from(["flush", "reset"])), max_size=25))
    return assignment, trace, block_size, draw(st.sampled_from([1, 3, 64])), stream


class TestTouchBlocks:
    @given(case=batch_streams())
    @settings(max_examples=150, deadline=None)
    def test_equals_touch(self, case):
        assignment, trace, block_size, capacity, stream = case
        table = _plan_demand(assignment, trace, block_size)
        model = ModelCache(2, block_size=block_size, capacity=capacity)
        cache = PartitionAwareCache(2, block_size=block_size, capacity=capacity)
        cache.attach(table, assignment.parts)
        for i, step in enumerate(stream):
            if isinstance(step, str):  # a chaos flush or a recovery reset of machine i % 2
                assert getattr(cache, step)(i % 2) == getattr(model, step)(i % 2)
                continue
            m, batch, visits = step
            assert compiled_batch_step(cache, m, batch, visits) == python_batch_step(
                model, table, assignment.parts, block_size, m, batch, visits
            )
            assert lru_order(cache, m) == model.order(m)
        for name in COUNTERS:
            assert getattr(cache, name).tolist() == getattr(model, name)

    def test_evictions_are_counted(self):
        cache = PartitionAwareCache(1, block_size=1, capacity=2)
        assert cache.touch(0, np.array([0, 1, 1, 2, 3, 3, 3, 3, 3])) == 4
        assert (cache.evictions[0], cache.misses[0], lru_order(cache, 0)) == (2, 9, [2, 3])
        assert cache.touch(0, np.array([2, 2, 2, 3])) == 0 and cache.hits[0] == 4
        assert cache.touch(0, np.array([], dtype=np.int64)) == 0


# -- satellites -----------------------------------------------------------
class TestTraceVertexRange:
    @pytest.mark.parametrize("bad", [-1, 8])
    def test_out_of_range_target_is_rejected(self, bad):
        graph = from_edges(np.arange(7), np.arange(1, 8), num_vertices=8)
        assignment = PartitionAssignment(graph, np.arange(8) % 2, 2)
        with pytest.raises(ConfigurationError, match="outside the assigned graph"):
            ServingSimulator(assignment, seed=0).run(_khop_trace(np.array([3, bad, 0])))


class TestChaosPlanIsReadOncePerRun:
    def test_batch_sites_are_skipped_without_a_rule(self, monkeypatch):
        graph = chung_lu(300, 6.0, 2.2, rng=2)
        assignment = PartitionAssignment(graph, np.arange(300) % 3, 3)
        trace = WorkloadSpec(duration=0.05, rate=10000.0, seed=4).generate(graph)
        looked_up = []
        monkeypatch.setattr(
            simulator_module, "maybe_inject", lambda site, key: looked_up.append(site)
        )
        result = ServingSimulator(assignment, seed=0).run(trace)
        assert result.batches.sum() > 0 and not looked_up
