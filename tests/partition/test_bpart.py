"""Unit tests for BPart — the paper's contribution."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.errors import ConfigurationError
from repro.graph import load_dataset, social_graph, spill_csr
from repro.partition import (
    BPartPartitioner,
    ChunkEPartitioner,
    ChunkVPartitioner,
    bias,
    edge_cut_ratio,
    jains_fairness,
)
from repro.partition.base import available_partitioners, get_partitioner
from repro.partition.bpart import bpart_vertex_weights, weighted_stream_partition


@pytest.fixture(scope="module")
def g():
    return social_graph(4000, 18.0, 2.1, rng=10)


class TestVertexWeights:
    def test_sum_equals_n(self, powerlaw_small):
        for c in (0.0, 0.3, 0.5, 1.0):
            w = bpart_vertex_weights(powerlaw_small, c)
            assert w.sum() == pytest.approx(powerlaw_small.num_vertices)

    def test_c_one_is_uniform(self, powerlaw_small):
        w = bpart_vertex_weights(powerlaw_small, 1.0)
        assert np.allclose(w, 1.0)

    def test_c_zero_proportional_to_degree(self, powerlaw_small):
        w = bpart_vertex_weights(powerlaw_small, 0.0)
        expected = powerlaw_small.degrees / powerlaw_small.avg_degree
        assert np.allclose(w, expected)

    def test_edgeless_graph(self):
        from repro.graph import from_edges

        g0 = from_edges([], [], num_vertices=5)
        assert np.allclose(bpart_vertex_weights(g0, 0.5), 1.0)


class TestPhase1:
    def test_inverse_proportionality(self, g):
        pieces = weighted_stream_partition(g, 16, c=0.5)
        vc = np.bincount(pieces, minlength=16)
        ec = np.bincount(pieces, weights=g.degrees, minlength=16)
        corr = np.corrcoef(vc, ec)[0, 1]
        assert corr < -0.5  # the Figure-8 property

    def test_skew_reduced_vs_chunking(self, g):
        pieces = weighted_stream_partition(g, 16, c=0.5)
        ec_w = np.bincount(pieces, weights=g.degrees, minlength=16)
        chunkv = ChunkVPartitioner().partition(g, 16).assignment
        assert bias(ec_w) < bias(chunkv.edge_counts)

    def test_invalid_c(self, g):
        with pytest.raises(ConfigurationError):
            weighted_stream_partition(g, 8, c=1.5)


class TestBPartFull:
    @pytest.mark.parametrize("k", [2, 4, 8, 16])
    def test_two_dimensional_balance(self, g, k):
        a = BPartPartitioner(seed=1).partition(g, k).assignment
        assert bias(a.vertex_counts) < 0.1, f"vertex bias at k={k}"
        assert bias(a.edge_counts) < 0.1, f"edge bias at k={k}"

    def test_fairness_close_to_one(self, g):
        a = BPartPartitioner(seed=1).partition(g, 8).assignment
        assert jains_fairness(a.vertex_counts) > 0.99
        assert jains_fairness(a.edge_counts) > 0.99

    def test_beats_chunkers_in_other_dimension(self, g):
        bp = BPartPartitioner(seed=1).partition(g, 8).assignment
        cv = ChunkVPartitioner().partition(g, 8).assignment
        ce = ChunkEPartitioner().partition(g, 8).assignment
        assert bias(bp.edge_counts) < bias(cv.edge_counts)
        assert bias(bp.vertex_counts) < bias(ce.vertex_counts)

    def test_cut_below_hash(self, g):
        from repro.partition import HashPartitioner

        bp = BPartPartitioner(seed=1).partition(g, 8).assignment
        h = HashPartitioner().partition(g, 8).assignment
        assert edge_cut_ratio(g, bp.parts) < edge_cut_ratio(g, h.parts)

    def test_non_power_of_two_parts(self, g):
        a = BPartPartitioner(seed=1).partition(g, 6).assignment
        assert len(np.unique(a.parts)) == 6
        assert bias(a.vertex_counts) < 0.15
        assert bias(a.edge_counts) < 0.15

    def test_metadata_trace(self, g):
        res = BPartPartitioner(seed=1).partition(g, 8)
        assert res.metadata["c"] == 0.5
        layers = res.metadata["layers"]
        assert 1 <= len(layers) <= 3
        assert layers[0]["pieces"] >= 8

    def test_clock_breakdown(self, g):
        """``elapsed`` is the whole run; the breakdown lives in spans."""
        telemetry.set_enabled(True)
        res = BPartPartitioner(seed=1).partition(g, 8)
        spans = {s["name"]: s["dur"] for s in telemetry.registry().spans}
        assert {"partition", "partition.combine.extract", "partition.combine.stream"} <= set(spans)
        assert "partition.phase" not in spans  # BPart's phases are the combine spans
        assert 0.0 < spans["partition.combine.stream"] <= spans["partition"] <= res.elapsed

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BPartPartitioner(c=-0.1)
        with pytest.raises(ConfigurationError):
            BPartPartitioner(max_layers=0)

    def test_deterministic(self, g):
        a = BPartPartitioner(seed=2).partition(g, 8).assignment
        b = BPartPartitioner(seed=2).partition(g, 8).assignment
        assert np.array_equal(a.parts, b.parts)

    def test_c_extremes_degenerate(self, g):
        # c=1 behaves Fennel-like: vertices balanced; edge balance comes
        # only from the combining phase, so compare phase-1 behaviour.
        pieces_v = weighted_stream_partition(g, 16, c=1.0)
        vc = np.bincount(pieces_v, minlength=16)
        assert bias(vc) < 0.15
        pieces_e = weighted_stream_partition(g, 16, c=0.0)
        ec = np.bincount(pieces_e, weights=g.degrees, minlength=16)
        assert bias(ec) < 0.25


# Digests captured on the commit before the sort-free / zero-copy combine
# and the auto → buffered default (PR 12): a speed-up must not move bytes.
TWITTER_K8_DIGESTS = {
    1: "0d5d2a74ff6020a15b870038231c4fc5c6904adf9b840de84700e8bf14f17edb",
    2: "05676d02edec3d9188802f6b6110197f61dcb477233489ca3d8e3070589cd225",
    3: "e00f2ac2ccdaabd33f0da4219d1bd92d25917e8e1794d324e3d602992cdb7e09",
}


@pytest.mark.parametrize("seed", sorted(TWITTER_K8_DIGESTS))
class TestBytesDidNotMove:
    @pytest.mark.parametrize("kernel", ["scalar", "incremental", "buffered", "auto"])
    def test_dense_digest_pinned(self, seed, kernel):
        g = load_dataset("twitter", 0.25, seed)
        result = BPartPartitioner(kernel=kernel).partition(g, 8)
        assert result.assignment.fingerprint() == TWITTER_K8_DIGESTS[seed]

    def test_sharded_digest_pinned(self, seed, tmp_path):
        g = load_dataset("twitter", 0.25, seed)
        sharded = spill_csr(g, tmp_path / "shards", shard_size=g.num_vertices // 8)
        try:
            result = BPartPartitioner().partition(sharded, 8)
        finally:
            sharded.close()
        assert result.assignment.fingerprint() == TWITTER_K8_DIGESTS[seed]


class TestLayerThatFinalisesNothing:
    """twitter 0.1 / seed 3 / k=4 runs the schedule (16, 2) (16, 0) (32, 2):
    layer 2 finalises no part, so layer 3 streams layer 2's subgraph again, and
    the ``partition.combine.finalized{layer}`` gauge reads 0 for it."""

    DIGEST = "6d67b28d16c29d4d4170e2adde43746636cbffdf64a973c90698e4d2586061cc"

    def test_digest_pinned_and_subgraph_reused(self):
        g = load_dataset("twitter", 0.1, 3)
        telemetry.set_enabled(True)
        result = BPartPartitioner().partition(g, 4)
        layers = result.metadata["layers"]
        assert [(t["pieces"], len(t["finalized"])) for t in layers] == [(16, 2), (16, 0), (32, 2)]
        assert result.assignment.fingerprint() == self.DIGEST
        spans = [
            (s["name"], s["args"]["layer"])
            for s in telemetry.registry().spans
            if s["name"].startswith("partition.combine.")
        ]
        assert spans == [
            ("partition.combine.extract", 1),
            ("partition.combine.stream", 1),
            ("partition.combine.extract", 2),
            ("partition.combine.stream", 2),
            ("partition.combine.stream", 3),
        ]

    def test_finalized_gauge_shows_the_empty_layer(self):
        g = load_dataset("twitter", 0.1, 3)
        telemetry.set_enabled(True)
        BPartPartitioner().partition(g, 4)
        gauges = telemetry.registry().snapshot()["gauges"]
        finalized = {k: v for k, v in gauges.items() if k.startswith("partition.combine.finalized")}
        assert finalized == {f'partition.combine.finalized{{layer="{layer}"}}': count
                             for layer, count in ((1, 2), (2, 0), (3, 2))}

    def test_finalized_gauge_is_free_when_telemetry_is_off(self):
        BPartPartitioner().partition(load_dataset("twitter", 0.1, 3), 4)
        assert telemetry.registry().snapshot()["gauges"] == {}

    def test_stream_spans_carry_the_schedule(self):
        # pieces and vertices streamed per layer: the zero-yield middle layer
        # re-streams the whole remainder, visible without editing code.
        g = load_dataset("twitter", 0.1, 3)
        telemetry.set_enabled(True)
        layers = BPartPartitioner().partition(g, 4).metadata["layers"]
        args = [s["args"] for s in telemetry.registry().spans
                if s["name"] == "partition.combine.stream"]
        assert [a["pieces"] for a in args] == [t["pieces"] for t in layers]
        vertices = [a["vertices"] for a in args]
        assert vertices[0] == g.num_vertices > vertices[1] == vertices[2]


#: every registered partitioner → the ``partition.phase`` spans one run records.
PHASES = {
    "bpart": [],
    "chunk-e": [],
    "chunk-v": [],
    "fennel": ["stream"],
    "gd": ["bisect"],
    "hash": [],
    "ldg": ["stream"],
    "multilevel": ["coarsen", "initial", "refine"],
}


class TestPhaseSpans:
    def test_every_partitioner_is_listed(self):
        assert sorted(PHASES) == available_partitioners()

    @pytest.mark.parametrize("name", sorted(PHASES))
    def test_phase_span_list_pinned(self, g, name):
        telemetry.set_enabled(True)
        get_partitioner(name).partition(g, 4)
        spans = telemetry.registry().spans
        phases = [s["args"] for s in spans if s["name"] == "partition.phase"]
        assert phases == [{"algo": name, "phase": p} for p in PHASES[name]]
        assert [s["args"] for s in spans if s["name"] == "partition"] == [{"algo": name, "k": 4}]

    def test_free_when_telemetry_is_off(self, g):
        result = get_partitioner("multilevel").partition(g, 4)
        assert telemetry.registry().spans == [] and result.elapsed > 0.0
