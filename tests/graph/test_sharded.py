"""Out-of-core sharded CSR: builder round-trips, representation parity,
torn-shard recovery, and the blockwise iteration contract."""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import GraphFormatError
from repro.graph import (
    chung_lu,
    from_edges,
    open_sharded,
    social_edge_batches,
    social_graph,
    spill_csr,
)
from repro.graph import sharded as sharded_mod
from repro.graph.csr import gather_rows
from repro.graph.sharded import META_NAME, ShardedCSRBuilder, _shard_paths
from repro.cluster import BSPCluster
from repro.engines.knightking import Node2Vec, WalkEngine
from repro.partition import PartitionAssignment, available_kernels, get_partitioner
from repro.partition._streamcore import default_alpha, stream_partition

ALGOS = ("fennel", "bpart", "ldg", "hash", "chunk-v")


@pytest.fixture
def dense():
    return social_graph(1500, 9.0, 2.3, rng=7)


@pytest.fixture
def sharded(dense, tmp_path):
    return spill_csr(dense, tmp_path / "shards", shard_size=256)


def _data_bytes(directory):
    """The shard arrays' bytes on disk: each ``.npy`` file past its header."""
    return sum(np.load(path, mmap_mode="r").nbytes for path in Path(directory).glob("shard-*.npy"))


def _random_edges(rng, n, m):
    r = np.random.default_rng(rng)
    return r.integers(0, n, size=m), r.integers(0, n, size=m)


# ----------------------------------------------------------------------
# Builder round-trip
# ----------------------------------------------------------------------
class TestBuilder:
    def test_batched_build_matches_from_edges(self, tmp_path):
        n, m = 3000, 40000
        src, dst = _random_edges(3, n, m)
        reference = from_edges(src, dst, n)
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=n, shard_size=400)
        for lo in range(0, m, 1111):  # deliberately awkward batch size
            builder.add_edges(src[lo : lo + 1111], dst[lo : lo + 1111])
        graph = builder.finalize()
        assert graph.fingerprint() == reference.fingerprint()
        assert graph.num_edges == reference.num_edges
        assert graph == reference and reference == graph
        assert np.array_equal(graph.degrees, reference.degrees)
        # no bucket temp files survive finalize
        assert not list((tmp_path / "b").glob("bucket-*.tmp"))

    def test_self_loops_and_duplicates_dropped(self, tmp_path):
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=4, shard_size=2)
        builder.add_edge(0, 1)
        builder.add_edge(1, 0)  # duplicate after symmetrisation
        builder.add_edge(2, 2)  # self loop
        builder.add_edge(2, 3)
        graph = builder.finalize()
        assert graph == from_edges([0, 1, 2, 2], [1, 0, 2, 3], 4)
        assert graph.num_edges == 4  # (0,1),(1,0),(2,3),(3,2)

    def test_inferred_num_vertices(self, tmp_path):
        builder = ShardedCSRBuilder(tmp_path / "b", shard_size=4)
        builder.add_edge(0, 9)
        graph = builder.finalize()
        assert graph.num_vertices == 10

    def test_rejects_bad_input(self, tmp_path):
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=5)
        with pytest.raises(GraphFormatError):
            builder.add_edges([0, 1], [2])
        with pytest.raises(GraphFormatError):
            builder.add_edges([-1], [2])
        with pytest.raises(GraphFormatError):
            builder.add_edges([0], [5])  # id >= num_vertices
        builder.finalize()
        with pytest.raises(GraphFormatError):
            builder.add_edge(0, 1)
        with pytest.raises(GraphFormatError):
            builder.finalize()

    def test_abort_removes_buckets(self, tmp_path):
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=100, shard_size=10)
        builder.add_edges(*_random_edges(1, 100, 500))
        assert list((tmp_path / "b").glob("bucket-*.tmp"))
        builder.abort()
        assert not list((tmp_path / "b").glob("bucket-*.tmp"))

    def test_retry_does_not_merge_a_crashed_builds_arcs(self, tmp_path):
        crashed = ShardedCSRBuilder(tmp_path / "b", num_vertices=8, shard_size=4)
        crashed.add_edge(5, 6)  # bucket 1 written, then the build dies
        for fh in crashed._buckets.values():
            fh.close()
        retry = ShardedCSRBuilder(tmp_path / "b", num_vertices=8, shard_size=4)
        retry.add_edge(0, 1)  # touches bucket 0 only
        graph = retry.finalize()
        assert graph == from_edges([0], [1], 8) and graph.num_edges == 2

    def test_construction_removes_a_stale_meta(self, tmp_path):
        spill_csr(from_edges([0, 2], [1, 3], 4), tmp_path / "b", shard_size=2)
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=4, shard_size=2)
        # A rebuild in progress must not be openable as the old graph.
        with pytest.raises(GraphFormatError, match="missing"):
            open_sharded(tmp_path / "b")
        builder.add_edge(0, 3)
        assert builder.finalize() == from_edges([0], [3], 4)

    def test_sort_key_overflow_is_a_named_error(self, tmp_path):
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=2**40, shard_size=2**30)
        with pytest.raises(GraphFormatError, match="sort key"):
            builder.finalize()

    def test_empty_graph(self, tmp_path):
        graph = ShardedCSRBuilder(tmp_path / "b", num_vertices=0).finalize()
        assert graph.num_vertices == 0 and graph.num_edges == 0
        assert list(graph.iter_blocks()) == []


# ----------------------------------------------------------------------
# The bytes the builder writes (pinned on the commit before the write
# path was rewritten: "sorted unique destinations per source" has one
# encoding, so no rewrite may move them)
# ----------------------------------------------------------------------
def _dir_digest(directory) -> str:
    """sha256 over (file name, file bytes) of a whole shard directory."""
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}:{len(data)}:".encode())
        h.update(data)
    return h.hexdigest()


def _dir_files(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


class TestBytesDidNotMove:
    def test_benchmark_stream_shape(self, tmp_path):
        # partition_sharded's stream at 1/8 size: 8 shards, 5 batches.
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=2**14, shard_size=2**11)
        for src, dst in social_edge_batches(2**14, 16.0, 2.3, rng=1, batch_size=1 << 15):
            builder.add_edges(src, dst)
        graph = builder.finalize()
        assert (graph.num_shards, graph.num_edges) == (8, 273188)
        assert _dir_digest(tmp_path / "b") == (
            "3fb3369c4ab676431d5874e98f8e3a86f91385c4b26e6b5f4740fd3c7b665a1b"
        )

    def test_adversarial_stream(self, tmp_path, monkeypatch):
        # One hub whose 40 arcs (duplicates included) exceed the chunk
        # budget five times over, an empty shard (vertices 8..11), self
        # loops, num_vertices inferred, a last shard of 2 vertices.
        monkeypatch.setattr(sharded_mod, "_BUCKET_CHUNK_ARCS", 8)
        builder = ShardedCSRBuilder(tmp_path / "b", shard_size=4)
        hub_dst = np.r_[
            np.arange(2, 8), np.arange(12, 22), np.arange(12, 22),
            np.arange(2, 8), np.arange(12, 20),
        ]
        builder.add_edges(np.full(hub_dst.size, 1), hub_dst)
        builder.add_edges([3, 3, 5, 21, 0], [3, 2, 5, 20, 7])
        builder.add_edges([6, 6, 6], [5, 5, 4])
        graph = builder.finalize()
        assert (graph.num_vertices, graph.num_shards) == (22, 6)
        assert graph.degree(1) == 16 and graph.degrees[8:12].sum() == 0
        assert _dir_digest(tmp_path / "b") == (
            "555d54db6346c36a4b8b22b94bfb5c72915daf47466d66a2384c30a27b4ed7df"
        )

    @given(
        n=st.integers(1, 40),
        edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
        batch=st.integers(1, 50),
        shard_size=st.integers(1, 48),
        chunk=st.sampled_from([1, 3, 64]),
        infer=st.booleans(),
        directed=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_builder_directory_equals_spilled_dense_build(
        self, n, edges, batch, shard_size, chunk, infer, directed
    ):
        # chunk=1 makes every multi-arc source its own over-budget block
        # and every scatter multi-chunk; 3 mixes block shapes; 64 is the
        # everything-fits case.
        src = np.array([u % n for u, _ in edges], dtype=np.int64)
        dst = np.array([v % n for _, v in edges], dtype=np.int64)
        num_vertices = None if infer else n
        dense = from_edges(src, dst, num_vertices, directed=directed)
        # Dense and sharded share the rows routine, so neither is an
        # oracle for the other: plain Python is.
        arcs = [(int(u), int(v)) for u, v in zip(src, dst) if u != v]
        if not directed:
            arcs += [(v, u) for u, v in arcs]
        inferred = 1 + max(max(u % n, v % n) for u, v in edges) if edges else 0
        rows = [[] for _ in range(inferred if infer else n)]
        for u, v in arcs:
            rows[u].append(v)
        rows = [sorted(set(row)) for row in rows]
        assert [dense.neighbors(v).tolist() for v in range(dense.num_vertices)] == rows
        assert dense.directed == directed and dense.indices.dtype == np.int32
        budget = mock.patch.object(sharded_mod, "_BUCKET_CHUNK_ARCS", chunk)
        with budget, tempfile.TemporaryDirectory() as tmp:
            builder = ShardedCSRBuilder(
                Path(tmp, "built"), num_vertices=num_vertices,
                shard_size=shard_size, directed=directed,
            )
            for lo in range(0, src.size, batch):
                builder.add_edges(src[lo : lo + batch], dst[lo : lo + batch])
            built = builder.finalize()
            assert [built.neighbors(v).tolist() for v in range(built.num_vertices)] == rows
            spill_csr(dense, Path(tmp, "spilled"), shard_size=shard_size)
            assert _dir_files(Path(tmp, "built")) == _dir_files(Path(tmp, "spilled"))


# ----------------------------------------------------------------------
# Read-API parity with the dense twin
# ----------------------------------------------------------------------
class TestReadParity:
    def test_fingerprint_and_equality(self, dense, sharded):
        assert sharded.fingerprint() == dense.fingerprint()
        assert sharded == dense and dense == sharded

    def test_structure(self, dense, sharded):
        assert sharded.num_vertices == dense.num_vertices
        assert sharded.num_edges == dense.num_edges
        assert sharded.num_undirected_edges == dense.num_undirected_edges
        assert np.array_equal(sharded.degrees, dense.degrees)
        assert np.array_equal(sharded.indptr, dense.indptr)

    def test_neighbors_and_has_edge(self, dense, sharded):
        for v in (0, 255, 256, 511, 1499):
            assert np.array_equal(sharded.neighbors(v), dense.neighbors(v))
        u = int(np.argmax(dense.degrees))
        w = int(dense.neighbors(u)[0])
        assert sharded.has_edge(u, w) and not sharded.has_edge(u, u)
        with pytest.raises(IndexError):
            sharded.neighbors(1500)

    def test_indices_property_raises(self, sharded):
        with pytest.raises(GraphFormatError):
            _ = sharded.indices

    def test_iter_blocks_contract(self, dense, sharded):
        covered = 0
        chunks = []
        for start, stop, local, idx in sharded.iter_blocks():
            assert start == covered and stop > start
            assert local[0] == 0 and local[-1] == idx.size
            # shard-aligned: a block never spans a shard boundary
            assert start // 256 == (stop - 1) // 256
            expect = dense.indices[dense.indptr[start] : dense.indptr[stop]]
            assert np.array_equal(idx, expect)
            chunks.append(idx)
            covered = stop
        assert covered == sharded.num_vertices
        assert np.array_equal(np.concatenate(chunks), dense.indices)

    def test_gather_rows(self, dense, sharded):
        rng = np.random.default_rng(11)
        chunk = rng.permutation(1500)[:600]  # arbitrary order, cross-shard
        lens, nbrs = gather_rows(sharded, chunk)
        assert np.array_equal(gather_rows(dense, chunk)[1], nbrs)
        assert np.array_equal(lens, dense.degrees[chunk])
        expect = np.concatenate([dense.neighbors(int(v)) for v in chunk])
        assert np.array_equal(nbrs, expect)

    def test_take_arcs(self, dense, sharded):
        rng = np.random.default_rng(12)
        slots = rng.integers(0, dense.num_edges, size=(7, 33))
        assert np.array_equal(sharded.take_arcs(slots), dense.indices[slots])

    def test_take_arcs_outside_the_arcs_names_the_global_slot(self, dense, sharded):
        m = dense.num_edges
        for slot in (-1, -m, m, m + 5):
            with pytest.raises(IndexError, match=rf"^arc slot {slot} outside \[0, {m}\)$"):
                sharded.take_arcs(np.array([0, slot, 1]))
        assert sharded.take_arcs(np.empty((2, 0), np.int64)).shape == (2, 0)

    @given(data=st.data(), shard_size=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_take_arcs_equals_the_dense_twin_on_every_slot(self, data, shard_size):
        dense = social_graph(data.draw(st.integers(1, 60)), 3.0, 2.3, rng=data.draw(st.integers(0, 9)))
        with tempfile.TemporaryDirectory() as tmp:
            sharded = spill_csr(dense, tmp, shard_size=shard_size)
            slots = np.arange(dense.num_edges)
            assert np.array_equal(sharded.take_arcs(slots), dense.indices[slots])
            assert np.array_equal(sharded.take_arcs(slots[::-1]), dense.indices[slots[::-1]])
            sharded.close()

    def test_iter_edges(self, tmp_path):
        dense = social_graph(64, 4.0, 2.3, rng=2)
        sharded = spill_csr(dense, tmp_path / "tiny", shard_size=16)
        assert list(sharded.iter_edges()) == list(dense.iter_edges())


# ----------------------------------------------------------------------
# Kernel + partitioner parity (the acceptance bit-identity requirement)
# ----------------------------------------------------------------------
class TestPartitionParity:
    def test_all_registered_kernels(self, dense, sharded):
        weights = np.ones(dense.num_vertices)
        alpha = default_alpha(dense, 6)
        for kernel in available_kernels():
            a = stream_partition(
                dense, 6, vertex_weights=weights, alpha=alpha, kernel=kernel
            )
            b = stream_partition(
                sharded, 6, vertex_weights=weights, alpha=alpha, kernel=kernel
            )
            assert np.array_equal(a, b), f"kernel {kernel!r} diverged"

    @pytest.mark.parametrize("algo", ALGOS)
    def test_all_partitioners(self, algo, dense, sharded):
        # Direct calls, not cached_partition: the representations share
        # fingerprints, so the cache would serve one result for both and
        # hide any divergence.
        a = get_partitioner(algo, seed=3).partition(dense, 6)
        b = get_partitioner(algo, seed=3).partition(sharded, 6)
        assert np.array_equal(a.assignment.parts, b.assignment.parts)

    def test_metrics_parity(self, dense, sharded):
        from repro.partition.metrics import connectivity_matrix, edge_cut_ratio

        parts = get_partitioner("fennel", seed=3).partition(dense, 6).assignment.parts
        assert edge_cut_ratio(sharded, parts) == edge_cut_ratio(dense, parts)
        assert np.array_equal(
            connectivity_matrix(sharded, parts, 6),
            connectivity_matrix(dense, parts, 6),
        )


# ----------------------------------------------------------------------
# Torn-shard detection and recovery
# ----------------------------------------------------------------------
class TestTornShards:
    def test_corrupt_shard_file_detected(self, sharded, tmp_path):
        _, indices_path = _shard_paths(sharded.spill_dir, 2)
        indices_path.write_bytes(b"this is not an npz archive")
        with pytest.raises(GraphFormatError, match="shard"):
            open_sharded(sharded.spill_dir)

    def test_truncated_shard_file_detected(self, sharded):
        _, indices_path = _shard_paths(sharded.spill_dir, 1)
        data = indices_path.read_bytes()
        indices_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(GraphFormatError, match="truncated|torn"):
            open_sharded(sharded.spill_dir)

    def test_missing_meta_is_not_a_graph(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(GraphFormatError, match="missing"):
            open_sharded(tmp_path / "empty")

    def test_corrupt_meta_detected(self, sharded):
        (sharded.spill_dir / META_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(GraphFormatError, match="metadata"):
            open_sharded(sharded.spill_dir)

    def test_interrupted_build_leaves_no_meta(self, tmp_path):
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=50, shard_size=10)
        builder.add_edges(*_random_edges(4, 50, 200))
        # simulated crash before finalize: no meta.json was ever written
        assert not (tmp_path / "b" / META_NAME).exists()
        with pytest.raises(GraphFormatError):
            open_sharded(tmp_path / "b")

    def test_dataset_autorebuild_after_torn_spill(self, tmp_path, monkeypatch):
        from repro.graph.datasets import DATASETS

        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "1000")
        spec = DATASETS["livejournal"]
        graph = spec.generate(scale=0.05, seed=1)
        assert graph.num_vertices > 0
        fp = graph.fingerprint()
        # tear a shard, then reload: the spec detects the damage and rebuilds
        _, indices_path = _shard_paths(graph.spill_dir, 0)
        indices_path.write_bytes(b"this is not an npz archive")
        rebuilt = spec.generate(scale=0.05, seed=1)
        rebuilt.validate()
        assert rebuilt.fingerprint() == fp


# ----------------------------------------------------------------------
# Auto-spill + streaming loaders
# ----------------------------------------------------------------------
class TestAutoSpillAndIO:
    def test_dataset_spills_over_threshold(self, tmp_path, monkeypatch):
        from repro.graph.datasets import DATASETS
        from repro.graph.sharded import ShardedCSRGraph

        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill"))
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "1000")
        graph = DATASETS["livejournal"].generate(scale=0.05, seed=2)
        assert isinstance(graph, ShardedCSRGraph)
        # reopening reuses the existing spill directory
        again = DATASETS["livejournal"].generate(scale=0.05, seed=2)
        assert again.spill_dir == graph.spill_dir
        assert again.fingerprint() == graph.fingerprint()

    def test_dataset_stays_dense_below_threshold(self, tmp_path, monkeypatch):
        from repro.graph.csr import CSRGraph
        from repro.graph.datasets import DATASETS

        monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "0")  # disables auto-spill
        graph = DATASETS["livejournal"].generate(scale=0.05, seed=2)
        assert isinstance(graph, CSRGraph)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
class TestShardedTelemetry:
    def test_counters_recorded_when_enabled(self, dense, tmp_path):
        telemetry.set_enabled(True)
        telemetry.reset()
        sharded = spill_csr(dense, tmp_path / "t", shard_size=256)
        for _ in sharded.iter_blocks():
            pass
        snap = telemetry.registry().snapshot()
        counters = snap["counters"]
        assert counters["graph.sharded.spill_writes"] > 0
        assert counters["graph.sharded.bytes_mapped"] > 0
        assert counters["graph.sharded.block_reads"] == sharded.num_shards

    def test_metric_names_of_one_build(self, tmp_path):
        telemetry.set_enabled(True)
        telemetry.reset()
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=40, shard_size=16)
        builder.add_edges([0, 1, 20, 7], [17, 1, 39, 8])  # one self loop dropped
        builder.add_edges([], [])
        builder.finalize()
        reg = telemetry.registry()
        assert {m.key for m in reg.metrics()} == {"graph.sharded.spill_writes"}
        # 3 buckets flushed once each + 2 files for each of the 3 shards
        assert reg.snapshot()["counters"]["graph.sharded.spill_writes"] == 3 + 2 * 3
        assert [(s["name"], s["args"]) for s in reg.spans] == [
            ("graph.sharded.add_edges", {"arcs": 6}),
            ("graph.sharded.finalize", {"shards": 3}),
        ]

    def test_one_stream_span_per_call_and_in_place_block_reads(self, dense, tmp_path):
        # every stream order reads the shards in place: natural order a shard at a time
        # through the LRU, which holds all 6 here, and random order through the table, built
        # from the open maps; each shard is mapped once, and no Python reader serves a block
        sharded = spill_csr(dense, tmp_path / "t", shard_size=256)
        telemetry.set_enabled(True)
        telemetry.reset()
        w = np.ones(dense.num_vertices)
        stream_partition(sharded, 4, vertex_weights=w, alpha=1.0, passes=2)
        stream_partition(sharded, 4, vertex_weights=w, alpha=1.0, order="random", rng=3)
        stream_partition(dense, 4, vertex_weights=w, alpha=1.0, kernel="scalar")
        counters = telemetry.registry().snapshot()["counters"]
        assert "graph.sharded.block_reads" not in counters
        assert counters["graph.sharded.bytes_mapped"] == _data_bytes(tmp_path / "t")
        assert [s["args"] for s in telemetry.registry().spans if s["name"] == "partition.stream"] == [
            {"kernel": "buffered"}, {"kernel": "buffered"}, {"kernel": "scalar"}]

    def test_the_stream_label_costs_nothing_when_disabled(self, dense, tmp_path):
        assert not telemetry.enabled()
        sharded = spill_csr(dense, tmp_path / "t", shard_size=256)
        stream_partition(sharded, 4, vertex_weights=np.ones(dense.num_vertices), alpha=1.0)
        assert telemetry.registry().metrics() == [] and telemetry.registry().spans == []

    def test_silent_when_disabled(self, dense, tmp_path):
        assert not telemetry.enabled()
        sharded = spill_csr(dense, tmp_path / "t", shard_size=256)
        for _ in sharded.iter_blocks():
            pass
        gather_rows(sharded, np.arange(100))
        assert telemetry.registry().metrics() == []


# ----------------------------------------------------------------------
# Torn input at finalize (the class name predates the removal of the
# finalize(jobs=) fan-out; the floor list knows the test by it)
# ----------------------------------------------------------------------
class TestParallelFinalize:
    def test_torn_bucket_surfaces_real_error(self, tmp_path):
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=60, shard_size=16)
        builder.add_edges(*_random_edges(4, 60, 300))
        for fh in builder._buckets.values():
            fh.flush()
        bucket = next((tmp_path / "b").glob("bucket-*.tmp"))
        bucket.write_bytes(b"\x00" * 12)  # not a whole int64 pair
        with pytest.raises(GraphFormatError, match="torn"):
            builder.finalize()
        # the bucket is still there: nothing was unlinked before the check
        assert bucket.exists() and not (tmp_path / "b" / META_NAME).exists()

    @pytest.mark.parametrize("failing", range(4))
    def test_a_retried_finalize_equals_the_clean_build(self, tmp_path, monkeypatch, failing):
        src, dst = _random_edges(5, 64, 90)
        clean = from_edges(src, dst, 64)
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=64, shard_size=16)
        builder.add_edges(src, dst)
        write = sharded_mod._write_shard

        def flaky(directory, shard, *args):
            if shard == failing:
                monkeypatch.setattr(sharded_mod, "_write_shard", write)  # once only
                raise OSError("disk full")
            return write(directory, shard, *args)

        monkeypatch.setattr(sharded_mod, "_write_shard", flaky)
        with pytest.raises(OSError, match="disk full"):
            builder.finalize()
        with pytest.raises(GraphFormatError, match="finalized"):
            builder.add_edges([0], [1])  # sealed by the first finalize
        graph = builder.finalize()
        assert graph.num_edges == clean.num_edges == 174
        assert graph.fingerprint() == clean.fingerprint()
        assert not list((tmp_path / "b").glob("bucket-*.tmp"))

    @pytest.mark.parametrize("arc, why", [
        ((3, 5), "an arc outside sources"),  # below bucket 1's sources [16, 32)
        ((40, 5), "an arc outside sources"),  # above them
        ((20, 70), "targets"),  # a target past the vertices
        (None, "add_edges counted"),  # an extra arc
    ])
    def test_a_foreign_arc_in_a_bucket_is_a_format_error(self, tmp_path, arc, why):
        builder = ShardedCSRBuilder(tmp_path / "b", num_vertices=64, shard_size=16)
        builder.add_edges(*_random_edges(6, 64, 90))
        for fh in builder._buckets.values():
            fh.flush()
        bucket = tmp_path / "b" / "bucket-0000001.tmp"
        pairs = np.fromfile(bucket, np.int64)
        if arc is None:
            pairs = np.r_[pairs, 20, 5]
        else:
            pairs[2:4] = arc
        pairs.tofile(bucket)
        why = "outside sources" if why.startswith("an arc") else why
        with pytest.raises(GraphFormatError, match=rf"bucket-0000001\.tmp: .*{why}"):
            builder.finalize()

    def test_jobs_argument_is_gone(self, tmp_path):
        with pytest.raises(TypeError):
            ShardedCSRBuilder(tmp_path / "b", num_vertices=4).finalize(jobs=2)


# ----------------------------------------------------------------------
# The C readers' block table
# ----------------------------------------------------------------------
class TestShardTable:
    def test_held_past_the_lru_until_close(self, dense, tmp_path):
        spill_csr(dense, tmp_path / "t", shard_size=128)
        sharded = open_sharded(tmp_path / "t", max_open_shards=2)
        telemetry.set_enabled(True)
        telemetry.reset()
        table = sharded.table
        assert table is sharded.table and table.size == sharded.num_shards
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["graph.sharded.bytes_mapped"] == _data_bytes(tmp_path / "t")
        assert "graph.sharded.evictions" not in counters  # built past the LRU, not through it
        for v in range(0, dense.num_vertices, 7):  # Python readers read the held shards
            assert np.array_equal(sharded.neighbors(v), dense.neighbors(v))
        assert sharded.fingerprint() == dense.fingerprint()
        assert telemetry.registry().snapshot()["counters"]["graph.sharded.bytes_mapped"] == (
            _data_bytes(tmp_path / "t"))
        sharded.close()
        assert sharded.table is not table  # rebuilt by the next reader
        rows = np.arange(dense.num_vertices)
        assert np.array_equal(gather_rows(sharded, rows)[1], dense.indices)

    def test_a_natural_order_stream_keeps_within_the_lru(self, dense, tmp_path):
        # the out-of-core partition: each pass maps every shard again through an LRU of 2,
        # and the table of every shard is never built
        spill_csr(dense, tmp_path, shard_size=128).close()
        sharded = open_sharded(tmp_path, max_open_shards=2)
        telemetry.set_enabled(True)
        telemetry.reset()
        w = np.ones(dense.num_vertices)
        got = stream_partition(sharded, 4, vertex_weights=w, alpha=1.0, passes=2)
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["graph.sharded.bytes_mapped"] == 2 * _data_bytes(tmp_path)
        assert counters["graph.sharded.evictions"] == 2 * sharded.num_shards - 2
        want = stream_partition(dense, 4, vertex_weights=w, alpha=1.0, passes=2, kernel="scalar")
        assert np.array_equal(got, want)

    def test_a_narrow_id_shard_is_widened_once(self, dense, tmp_path):
        spill_csr(dense, tmp_path, shard_size=256).close()
        for path in tmp_path.glob("*.indices.npy"):
            np.save(path, np.load(path).astype(np.int16))
        meta = json.loads((tmp_path / META_NAME).read_text())
        (tmp_path / META_NAME).write_text(json.dumps({**meta, "index_dtype": "int16"}))
        sharded = open_sharded(tmp_path)
        assert {ids.dtype for _, ids in sharded.table.blocks} == {np.dtype(np.int64)}
        assert sharded.table is sharded.table
        assert sharded.neighbors(5).dtype == np.int16  # Python readers keep the file's ids
        chunk = np.random.default_rng(2).permutation(dense.num_vertices)[:300]
        assert np.array_equal(gather_rows(sharded, chunk)[1], gather_rows(dense, chunk)[1])

    def test_a_walk_maps_each_shard_once(self, tmp_path):
        # node2vec on 157 shards with an LRU of 8: the walk reads every shard through the
        # table, so each is mapped once, whatever order the walkers visit them in
        graph = chung_lu(20000, 8, rng=1)
        spill_csr(graph, tmp_path, shard_size=128).close()
        telemetry.set_enabled(True)
        telemetry.reset()
        sharded = open_sharded(tmp_path, max_open_shards=8)
        assert sharded.num_shards == 157
        assignment = PartitionAssignment(sharded, np.arange(20000) % 4, 4)
        got = WalkEngine(BSPCluster(4)).run(sharded, assignment, Node2Vec(), max_steps=5)
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["graph.sharded.bytes_mapped"] == _data_bytes(tmp_path)
        telemetry.set_enabled(False)
        want = WalkEngine(BSPCluster(4)).run(graph, PartitionAssignment(graph, np.arange(20000) % 4,
                                                                        4), Node2Vec(), max_steps=5)
        assert got.ledger.to_json() == want.ledger.to_json()


# ----------------------------------------------------------------------
# LRU / evictions
# ----------------------------------------------------------------------
class TestShardLRU:
    def test_evictions_counted_and_bounded(self, dense, tmp_path):
        telemetry.set_enabled(True)
        telemetry.reset()
        spill_csr(dense, tmp_path / "lru", shard_size=128)
        sharded = open_sharded(tmp_path / "lru", max_open_shards=3)
        rng = np.random.default_rng(0)
        for _ in range(40):
            for v in rng.integers(0, dense.num_vertices, 64):
                sharded.neighbors(v)
            assert len(sharded._open) <= 3
        counters = telemetry.registry().snapshot()["counters"]
        assert counters["graph.sharded.evictions"] > 0
        # Every shard load is either still mapped or was evicted.
        loads = counters["graph.sharded.bytes_mapped"]
        assert loads > 0

    def test_lru_bound_survives_interleaved_access(self, dense, tmp_path):
        spill_csr(dense, tmp_path / "lru2", shard_size=128)
        sharded = open_sharded(tmp_path / "lru2", max_open_shards=2)
        for block in sharded.iter_blocks():
            sharded.neighbors(dense.num_vertices - 1)
            sharded.take_arcs(np.arange(0, sharded.num_edges, 97))
            assert len(sharded._open) <= 2
        # results still correct after heavy eviction churn
        assert sharded.fingerprint() == dense.fingerprint()

    def test_evictions_silent_when_disabled(self, dense, tmp_path):
        assert not telemetry.enabled()
        spill_csr(dense, tmp_path / "lru3", shard_size=128)
        sharded = open_sharded(tmp_path / "lru3", max_open_shards=1)
        for _ in sharded.iter_blocks():
            pass
        assert telemetry.registry().metrics() == []
