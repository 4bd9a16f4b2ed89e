"""``engines/_superstep.c`` against the NumPy it replaced (``_engine_model``).

Every kernel is compared with its model on random small graphs: 1 to 300
vertices with isolated ones, 4- and 8-byte neighbour ids, 1 to 16
machines (so no cut arcs at all, too), empty walker sets and random
alive, active and local masks.
"""

from __future__ import annotations

import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BSPCluster
from repro.engines import superstep
from repro.engines.knightking import PPR, RWD, RWJ, DeepWalk, Node2Vec, WalkEngine
from repro.engines.knightking.walker import WalkerBatch
from repro.errors import GraphFormatError
from repro.graph import CSRGraph, ShardedCSRGraph, from_edges, spill_csr
from repro.partition import PartitionAssignment
from repro.utils import native
from tests.engines import _engine_model as model


def _rng(draw):
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


@st.composite
def graphs(draw, max_n=300):
    """A graph of 1 to ``max_n`` vertices (isolated ones included, ids
    biased to the ends), with int32 or int64 neighbour ids."""
    n = draw(st.integers(1, max_n) | st.sampled_from([1, 2, max_n]))
    rng = _rng(draw)
    src, dst = rng.integers(0, n, (2, draw(st.integers(0, 3 * n))))
    ends = rng.random(src.shape) < 0.1
    src[ends] = rng.choice([0, n - 1], size=int(ends.sum()))
    g = from_edges(src, dst, num_vertices=n, directed=draw(st.booleans()))
    if draw(st.booleans()):
        g = CSRGraph(g.indptr, g.indices.astype(np.int64))
    return g


def _parts(draw, n):
    k = draw(st.integers(1, 16))
    return _rng(draw).integers(0, k, size=n), k


def _mask(draw, size):
    return _rng(draw).random(size) < draw(st.sampled_from([0.0, 0.3, 0.8, 1.0]))


# ----------------------------------------------------------------------
# Walkers
# ----------------------------------------------------------------------
@st.composite
def walk_rounds(draw):
    """One round's state: walkers with steps below the cap, live and local
    masks (local within live), and a step result for the masked ones."""
    n = draw(st.integers(1, 300))
    parts, k = _parts(draw, n)
    nw = draw(st.integers(0, 60))
    max_steps = draw(st.integers(1, 6))
    rng = _rng(draw)
    batch = WalkerBatch(pos=rng.integers(0, n, nw), prev=rng.integers(-1, n, nw),
                        steps=rng.integers(0, max_steps, nw), alive=_mask(draw, nw))
    local = batch.alive & _mask(draw, nw) if draw(st.booleans()) else None
    live = int(np.count_nonzero(batch.alive if local is None else local))
    targets, terminated = rng.integers(0, n, live), _mask(draw, live)
    return n, parts, k, batch, local, max_steps, targets, terminated


def _copy(batch):
    return WalkerBatch(batch.pos.copy(), batch.prev.copy(), batch.steps.copy(),
                       batch.alive.copy())


@given(case=walk_rounds(), record=st.booleans())
@settings(max_examples=200, deadline=None)
def test_walk_round_matches_the_model(case, record):
    n, parts, k, batch, local, max_steps, targets, terminated = case
    twin, twin_local = _copy(batch), None if local is None else local.copy()
    paths = np.full((batch.num_walkers, max_steps + 1), -1, dtype=np.int64) if record else None
    visits = np.zeros(n, dtype=np.int64) if record else None
    twin_paths = None if paths is None else paths.copy()
    twin_visits = None if visits is None else visits.copy()

    mask = batch.alive if local is None else local
    idx, cur, prv = (np.empty(np.count_nonzero(mask), dtype=np.int64) for _ in range(3))
    native.call("walk_live", mask, batch.pos, batch.prev, idx, cur, prv)
    want_idx = np.flatnonzero(batch.alive if local is None else local)
    assert idx.tolist() == want_idx.tolist()
    assert cur.tolist() == batch.pos[idx].tolist() and prv.tolist() == batch.prev[idx].tolist()
    load, counts = np.zeros(k), np.zeros(k * k, dtype=np.int64)
    native.call("walk_apply", idx, targets, terminated, parts, load, max_steps, batch.pos,
                batch.prev, batch.steps, batch.alive, counts, paths, visits, local)

    home = parts[twin.pos[want_idx]]
    moved = model.apply_step(twin, want_idx, targets, terminated, max_steps, twin_paths,
                             twin_visits)
    want_counts = np.zeros(k * k, dtype=np.int64)
    want_load = model.account(parts, k, twin, want_idx, home, moved, want_counts, twin_local)
    for got, want in [(batch.pos, twin.pos), (batch.prev, twin.prev), (batch.steps, twin.steps),
                      (batch.alive, twin.alive), (local, twin_local), (paths, twin_paths),
                      (visits, twin_visits), (load, want_load.astype(float)),
                      (counts, want_counts)]:
        np.testing.assert_array_equal(got, want)


APPS = [DeepWalk, lambda: Node2Vec(2.0, 0.5), lambda: PPR(0.3), lambda: RWJ(0.2), RWD]


@given(g=graphs(max_n=120), data=st.data(), app=st.sampled_from(APPS),
       mode=st.sampled_from(["step_sync", "greedy"]), record=st.booleans(),
       visits=st.booleans(), max_steps=st.integers(1, 6))
@settings(max_examples=120, deadline=None)
def test_walk_runs_match_the_model_engine(g, data, app, mode, record, visits, max_steps):
    parts, k = _parts(data.draw, g.num_vertices)
    a = PartitionAssignment(g, parts, k)
    runs = [engine(BSPCluster(k), mode=mode, seed=3, record_paths=record,
                   track_visits=visits).run(g, a, app(), walkers_per_vertex=2,
                                            max_steps=max_steps)
            for engine in (WalkEngine, model.ModelWalkEngine)]
    got, want = runs
    assert got.ledger.to_json() == want.ledger.to_json()
    for name in ("steps_matrix", "final_positions", "paths", "visit_counts"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


# ----------------------------------------------------------------------
# The uniform step and the arc test
# ----------------------------------------------------------------------
@given(g=graphs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_uniform_slots_match_the_model(g, data):
    rng = _rng(data.draw)
    size = data.draw(st.integers(0, 50))
    pos = rng.integers(0, g.num_vertices, size)
    u = rng.random(size)
    u[rng.random(size) < 0.2] = np.nextafter(1.0, 0.0)  # the cap at deg - 1
    u[rng.random(size) < 0.1] = 0.0
    slots, dead = np.empty(size, dtype=np.int64), np.empty(size, dtype=bool)
    native.call("uniform_slots", g.indptr, pos, u, slots, dead)
    want_slots, want_dead = model.uniform_slots(g.indptr, pos, u)
    np.testing.assert_array_equal(slots, want_slots)
    np.testing.assert_array_equal(dead, want_dead)


@given(g=graphs(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_sorted_arc_test_matches_the_model(g, data):
    rng = _rng(data.draw)
    size = data.draw(st.integers(0, 60))
    src, tgt = rng.integers(0, g.num_vertices, (2, size))
    if g.num_edges:  # about half the queries are arcs
        arcs = np.flatnonzero(rng.random(size) < 0.5)
        slots = rng.integers(0, g.num_edges, arcs.size)
        src[arcs] = np.searchsorted(g.indptr, slots, side="right") - 1
        tgt[arcs] = g.indices[slots]
    hit = superstep.arcs_sorted(g.indptr, g.indices, src, tgt)
    np.testing.assert_array_equal(hit, model.arcs_exist_dense(g, src, tgt))
    assert hit.tolist() == [g.has_edge(int(u), int(v)) for u, v in zip(src, tgt)]


# ----------------------------------------------------------------------
# Gemini's census
# ----------------------------------------------------------------------
@given(g=graphs(), data=st.data(), spilled=st.booleans())
@settings(max_examples=150, deadline=None)
def test_census_matches_the_model(g, data, spilled):
    parts, k = _parts(data.draw, g.num_vertices)
    want = model.build_census(g, parts, k)
    with tempfile.TemporaryDirectory() as spill:
        source = spill_csr(g, spill, shard_size=data.draw(st.integers(1, 64))) if spilled else g
        got = superstep.census_build(source, parts, k)
    # The same groups, in the same order: equal starts and pairs, and in each
    # group the same arcs (sources, all of them adjacent to the group's target).
    np.testing.assert_array_equal(got["group_starts"], want["group_starts"])
    np.testing.assert_array_equal(got["group_pair"], want["group_pair"])
    ends = [*want["group_starts"][1:], want["cut_src"].size]
    for start, end, key in zip(want["group_starts"], ends, want["group_key"]):
        sources = got["cut_src"][start:end]
        assert sorted(sources) == sorted(want["cut_src"][start:end])
        assert (got["cut_pair"][start:end] == want["cut_pair"][start]).all()
        assert all(parts[s] == key // g.num_vertices for s in sources)
        assert all(g.has_edge(int(s), int(key % g.num_vertices)) for s in sources)
    for _ in range(3):
        active = _mask(data.draw, g.num_vertices)
        for aggregate in (True, False):
            np.testing.assert_array_equal(superstep.census_push(got, active, aggregate, k),
                                          model.push_counts(want, active, aggregate, k))


def _ring_shards(directory, n=40):
    ring = from_edges(np.arange(n), (np.arange(n) + 1) % n, num_vertices=n)
    spill_csr(ring, directory, shard_size=16)
    return ring


# A sharded graph's neighbour ids are file contents, which the shard headers
# do not vouch for: the census scan checks them before its C pass reads them.
@pytest.mark.parametrize("bad", [-1, 40, 2**31 - 1])
def test_census_rejects_a_shard_id_outside_the_graph(tmp_path, bad):
    _ring_shards(tmp_path)
    ids = np.load(tmp_path / "shard-00001.indices.npy", mmap_mode="r+")
    ids[3] = bad
    ids.flush()
    del ids
    with pytest.raises(GraphFormatError, match=r"rows \[16, 32\)"):
        superstep.census_build(ShardedCSRGraph(tmp_path), np.arange(40) % 2, 2)


def test_census_reads_shards_of_any_integer_width(tmp_path):
    ring = _ring_shards(tmp_path)
    for path in tmp_path.glob("*.indices.npy"):
        np.save(path, np.load(path).astype(np.int16))
    meta = json.loads((tmp_path / "meta.json").read_text())
    (tmp_path / "meta.json").write_text(json.dumps({**meta, "index_dtype": "int16"}))
    parts = np.arange(40) % 3
    got = superstep.census_build(ShardedCSRGraph(tmp_path), parts, 3)
    want = superstep.census_build(ring, parts, 3)
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_array_equal(got[key], want[key])
