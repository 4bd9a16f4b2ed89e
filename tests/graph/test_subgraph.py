"""Unit tests for subgraph extraction."""

from __future__ import annotations

import functools
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph import (
    CSRGraph,
    chung_lu,
    extract_subgraph,
    from_edges,
    open_sharded,
    social_graph,
    spill_csr,
)
from repro.partition import get_partitioner
from tests.graph._subgraph_model import induced


class TestExtract:
    def test_triangle_pair(self, triangle):
        sub = extract_subgraph(triangle, np.array([0, 1]))
        assert sub.num_vertices == 2
        assert sub.graph.num_undirected_edges == 1
        # each kept vertex loses one arc to vertex 2
        assert sub.num_cut_arcs == 2
        assert sub.num_total_arcs == 4

    def test_mask_and_ids_agree(self, grid8x8):
        ids = np.arange(0, 32)
        mask = np.zeros(64, dtype=bool)
        mask[ids] = True
        a = extract_subgraph(grid8x8, ids)
        b = extract_subgraph(grid8x8, mask)
        assert a.graph == b.graph
        assert a.num_cut_arcs == b.num_cut_arcs

    def test_relabelling_maps_back(self, grid8x8):
        ids = np.array([9, 10, 17, 18])  # 2x2 block
        sub = extract_subgraph(grid8x8, ids)
        assert np.array_equal(sub.global_ids, ids)
        for local, g in enumerate(ids):
            assert sub.local_of[g] == local
        # block has 4 internal undirected edges
        assert sub.graph.num_undirected_edges == 4

    def test_degrees_conserved(self, powerlaw_small):
        members = np.arange(0, powerlaw_small.num_vertices, 2)
        sub = extract_subgraph(powerlaw_small, members)
        assert (
            sub.graph.num_edges + sub.num_cut_arcs == sub.num_total_arcs
        )
        assert sub.num_total_arcs == int(powerlaw_small.degrees[members].sum())

    def test_empty_membership(self, triangle):
        sub = extract_subgraph(triangle, np.array([], dtype=np.int64))
        assert sub.num_vertices == 0
        assert sub.num_total_arcs == 0

    def test_out_of_range_ids(self, triangle):
        with pytest.raises(PartitionError):
            extract_subgraph(triangle, np.array([5]))

    def test_bad_mask_length(self, triangle):
        with pytest.raises(PartitionError):
            extract_subgraph(triangle, np.zeros(2, dtype=bool))


# ----------------------------------------------------------------------
# Parity with the lexsort construction extract_subgraph used to run on
# every call. It now sorts only when the gathered rows fail an O(arcs)
# order check (and returns the input itself when every vertex is a
# member), so the old construction stays here as the oracle.
# ----------------------------------------------------------------------
def lexsort_oracle(graph, members) -> dict:
    n = graph.num_vertices
    members = np.asarray(members)
    ids = np.nonzero(members)[0] if members.dtype == bool else np.unique(members)
    ids = ids.astype(np.int64)
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    local_of = np.full(n, -1, dtype=np.int64)
    local_of[ids] = np.arange(ids.size)
    src = np.repeat(np.arange(n), np.diff(graph.indptr))
    dst = np.asarray(graph.indices, dtype=np.int64)
    leaving = mask[src]
    kept = leaving & mask[dst]
    kept_src, kept_dst = local_of[src[kept]], local_of[dst[kept]]
    indptr = np.zeros(ids.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(kept_src, minlength=ids.size), out=indptr[1:])
    return {
        "indptr": indptr,
        "indices": kept_dst[np.lexsort((kept_dst, kept_src))],
        "global_ids": ids,
        "local_of": local_of,
        "num_cut_arcs": int(leaving.sum() - kept.sum()),
        "num_total_arcs": int(leaving.sum()),
    }


def assert_matches_oracle(sub, graph, members) -> None:
    want = lexsort_oracle(graph, members)
    # A sharded identity extraction has no global indices array to read;
    # fold its blocks (the contract every consumer uses) instead.
    blocks = list(sub.graph.iter_blocks())
    indices = np.concatenate([idx for *_, idx in blocks]) if blocks else np.empty(0)
    assert np.array_equal(sub.graph.indptr, want["indptr"])
    assert np.array_equal(indices, want["indices"])
    assert np.array_equal(sub.global_ids, want["global_ids"])
    assert np.array_equal(sub.local_of, want["local_of"])
    assert sub.num_cut_arcs == want["num_cut_arcs"]
    assert sub.num_total_arcs == want["num_total_arcs"]
    assert sub.graph.directed == graph.directed


def _with_reversed_rows(graph) -> CSRGraph:
    """Hand-assembled twin of ``graph`` whose rows descend."""
    rows = [graph.neighbors(v)[::-1] for v in range(graph.num_vertices)]
    return CSRGraph(graph.indptr, np.concatenate(rows), directed=graph.directed)


@functools.cache  # graphs are immutable; hypothesis asks for them per example
def _parity_graph(kind: str) -> CSRGraph:
    if kind == "sorted":
        return social_graph(300, 8.0, 2.3, rng=4)
    if kind == "unsorted":
        return _with_reversed_rows(social_graph(300, 8.0, 2.3, rng=4))
    rng = np.random.default_rng(7)
    src, dst = rng.integers(0, 200, 1500), rng.integers(0, 200, 1500)
    return from_edges(src, dst, num_vertices=200, directed=True)


def _parity_members(kind: str, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    if kind == "single":
        mask[n // 3] = True
    elif kind == "all":
        mask[:] = True
    elif kind == "random":
        mask[np.random.default_rng(11).random(n) < 0.4] = True
    return mask


GRAPH_KINDS = ["sorted", "unsorted", "directed"]
MEMBER_KINDS = ["empty", "single", "all", "random"]


class TestLexsortParity:
    @pytest.mark.parametrize("members", MEMBER_KINDS)
    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_mask_matches_oracle(self, kind, members):
        g = _parity_graph(kind)
        mask = _parity_members(members, g.num_vertices)
        assert_matches_oracle(extract_subgraph(g, mask), g, mask)

    @pytest.mark.parametrize("kind", GRAPH_KINDS)
    def test_id_array_matches_mask_and_oracle(self, kind):
        g = _parity_graph(kind)
        mask = _parity_members("random", g.num_vertices)
        ids = np.nonzero(mask)[0]
        shuffled = np.concatenate((ids[::-1], ids[:5]))  # unsorted, with repeats
        sub = extract_subgraph(g, shuffled)
        assert_matches_oracle(sub, g, shuffled)
        assert sub.graph == extract_subgraph(g, mask).graph

    def test_unsorted_rows_take_the_sort_branch(self):
        g = _parity_graph("unsorted")
        assert not g.rows_sorted
        for members in ("random", "all"):
            sub = extract_subgraph(g, _parity_members(members, g.num_vertices))
            assert sub.graph is not g
            assert sub.graph.rows_sorted

    @pytest.mark.parametrize("kind", ["sorted", "directed"])
    def test_all_members_of_a_sorted_dense_graph_is_the_input(self, kind):
        g = _parity_graph(kind)
        assert g.rows_sorted
        sub = extract_subgraph(g, np.ones(g.num_vertices, dtype=bool))
        assert sub.graph is g
        assert_matches_oracle(sub, g, np.arange(g.num_vertices))

    @pytest.mark.parametrize("members", MEMBER_KINDS)
    def test_sharded_matches_dense_and_oracle(self, tmp_path, members):
        dense = _parity_graph("sorted")
        mask = _parity_members(members, dense.num_vertices)
        sharded = spill_csr(dense, tmp_path / "shards", shard_size=64)
        try:
            sub = extract_subgraph(sharded, mask)
            assert_matches_oracle(sub, dense, mask)
            if members == "all":
                assert sub.graph is sharded
        finally:
            sharded.close()

    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(GRAPH_KINDS),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 1.0),
    )
    def test_random_masks_match_oracle(self, kind, seed, density):
        g = _parity_graph(kind)
        mask = np.random.default_rng(seed).random(g.num_vertices) < density
        assert_matches_oracle(extract_subgraph(g, mask), g, mask)


class TestCompiledRowsMatchTheModel:
    """``induce_rows`` (``graph/_sample.c``) against the NumPy block loop it
    replaced (``tests/graph/_subgraph_model.py``), over random graphs, masks,
    index widths, row orders and shard sizes."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 120),
        arcs=st.integers(0, 600),
        directed=st.booleans(),
        wide=st.booleans(),
        unsorted=st.booleans(),
        shard_size=st.none() | st.integers(1, 130),
        seed=st.integers(0, 2**32 - 1),
        density=st.floats(0.0, 1.0),
    )
    def test_compiled_rows_match_the_model(self, n, arcs, directed, wide, unsorted, shard_size,
                                           seed, density):
        rng = np.random.default_rng(seed)
        g = from_edges(rng.integers(0, n, arcs), rng.integers(0, n, arcs), num_vertices=n,
                       directed=directed)
        rows = [g.neighbors(v)[::-1] if unsorted else g.neighbors(v) for v in range(n)]
        indices = np.concatenate(rows) if arcs else g.indices
        g = CSRGraph(g.indptr, indices.astype(np.int64 if wide else np.int32), directed=directed)
        mask = rng.random(n) < density
        mask[rng.integers(0, n)] = False  # the identity shortcut is not the loop under test
        want = induced(g, mask)
        with tempfile.TemporaryDirectory() as spill:
            graph = g if shard_size is None else spill_csr(g, spill, shard_size=shard_size)
            sub = extract_subgraph(graph, mask)
            if shard_size is not None:
                graph.close()
        assert np.array_equal(sub.graph.indptr, want["indptr"])
        assert sub.graph.indices.dtype == want["indices"].dtype
        assert np.array_equal(sub.graph.indices, want["indices"])
        for key in ("global_ids", "local_of", "num_cut_arcs", "num_total_arcs"):
            assert np.array_equal(getattr(sub, key), want[key]), key


@pytest.mark.parametrize("dtype", ["int16", "uint32"])
def test_shards_of_any_integer_width(tmp_path, dtype):
    # shard ids of another width reach the C loops as int64: extraction and
    # the streaming kernel (Fennel, and BPart's later layers) read them as the
    # dense twin's
    dense = chung_lu(3000, 8.0, rng=2)
    spill_csr(dense, tmp_path, shard_size=700).close()
    for path in tmp_path.glob("*.indices.npy"):
        np.save(path, np.load(path).astype(dtype))
    meta = json.loads((tmp_path / "meta.json").read_text())
    (tmp_path / "meta.json").write_text(json.dumps({**meta, "index_dtype": dtype}))
    sharded = open_sharded(tmp_path)
    try:
        mask = np.arange(3000) % 3 > 0
        assert_matches_oracle(extract_subgraph(sharded, mask), dense, mask)
        for algo in ("fennel", "bpart"):
            got = get_partitioner(algo).partition(sharded, 4).assignment.parts
            assert np.array_equal(got, get_partitioner(algo).partition(dense, 4).assignment.parts)
    finally:
        sharded.close()
