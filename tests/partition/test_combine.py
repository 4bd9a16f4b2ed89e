"""Unit tests for the combining phase (pairing + multi-layer driver)."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import ConfigurationError, PartitionError
from repro.graph import social_graph
from repro.partition.bpart import weighted_stream_partition
from repro.partition.combine import (
    combine_assignment,
    multi_layer_combine,
    pair_by_vertex_count,
)
from repro.partition.metrics import bias


class TestPairing:
    def test_min_pairs_with_max(self):
        plan = pair_by_vertex_count(np.array([10, 40, 20, 30]))
        # 10 (idx0) with 40 (idx1); 20 (idx2) with 30 (idx3)
        assert plan.num_merged == 2
        assert plan.mapping[0] == plan.mapping[1]
        assert plan.mapping[2] == plan.mapping[3]
        assert plan.mapping[0] != plan.mapping[2]

    def test_odd_piece_count(self):
        plan = pair_by_vertex_count(np.array([1, 2, 3]))
        assert plan.num_merged == 2
        # median piece (value 2, index 1) stays alone
        assert plan.mapping[1] not in (plan.mapping[0], plan.mapping[2])
        assert plan.mapping[0] == plan.mapping[2]

    def test_single_piece(self):
        plan = pair_by_vertex_count(np.array([5]))
        assert plan.num_merged == 1

    def test_empty_raises(self):
        with pytest.raises(PartitionError):
            pair_by_vertex_count(np.array([]))

    def test_combine_assignment(self):
        plan = pair_by_vertex_count(np.array([10, 40, 20, 30]))
        parts = np.array([0, 1, 2, 3, 0])
        merged = combine_assignment(parts, plan)
        assert merged[0] == merged[1]
        assert merged[0] == merged[4]

    def test_pairing_improves_balance(self):
        # inversely-proportional synthetic counts: pairing fixes both dims
        vc = np.array([10, 20, 30, 40])
        plan = pair_by_vertex_count(vc)
        merged_v = np.bincount(plan.mapping, weights=vc)
        assert bias(merged_v) < bias(vc)


class TestMultiLayer:
    def _phase1(self, c=0.5):
        def fn(sub, pieces):
            return weighted_stream_partition(sub, pieces, c=c)

        return fn

    def test_balanced_output(self):
        g = social_graph(3000, 16.0, 2.1, rng=1)
        parts, traces = multi_layer_combine(g, self._phase1(), 8)
        assert parts.min() >= 0 and parts.max() < 8
        vc = np.bincount(parts, minlength=8)
        ec = np.bincount(parts, weights=g.degrees, minlength=8)
        assert bias(vc) < 0.1
        assert bias(ec) < 0.1
        assert 1 <= len(traces) <= 3

    def test_every_vertex_assigned(self):
        g = social_graph(1000, 8.0, rng=2)
        parts, _ = multi_layer_combine(g, self._phase1(), 4)
        assert (parts >= 0).all()
        assert np.bincount(parts, minlength=4).sum() == g.num_vertices

    def test_trace_reports_layers(self):
        g = social_graph(2000, 12.0, rng=3)
        _, traces = multi_layer_combine(g, self._phase1(), 8, max_layers=2)
        for i, t in enumerate(traces):
            assert t.layer == i + 1
            assert t.num_pieces >= t.num_targets

    def test_too_many_parts(self, triangle):
        with pytest.raises(PartitionError):
            multi_layer_combine(triangle, self._phase1(), 10)

    def test_single_part(self):
        g = social_graph(500, 6.0, rng=4)
        parts, _ = multi_layer_combine(g, self._phase1(), 1)
        assert (parts == 0).all()

    def test_max_layers_one_finalizes_everything(self):
        g = social_graph(2000, 12.0, rng=5)
        parts, traces = multi_layer_combine(g, self._phase1(), 8, max_layers=1)
        assert len(traces) == 1
        assert (parts >= 0).all()
        assert len(np.unique(parts)) == 8

    def test_wrong_length_partition_fn(self):
        g = social_graph(500, 6.0, rng=6)

        def bad(sub, pieces):
            return np.zeros(3, dtype=np.int32)

        with pytest.raises(PartitionError):
            multi_layer_combine(g, bad, 4)

    def test_more_rounds_tighter_balance(self):
        g = social_graph(4000, 16.0, 2.1, rng=7)
        biases = []
        for rounds in (1, 3):
            parts, _ = multi_layer_combine(
                g, self._phase1(), 8, base_rounds=rounds, max_layers=1
            )
            ec = np.bincount(parts, weights=g.degrees, minlength=8)
            biases.append(bias(ec))
        assert biases[1] <= biases[0]


class TestNonPositivePartCounts:
    """A part count below 1 is a ConfigurationError at entry, as
    ``Partitioner.partition`` makes it: before, -3 put every vertex in part
    -4, 0 divided by zero, and the streaming pass warned and then failed in C."""

    @pytest.mark.parametrize("k", [-3, 0])
    def test_multi_layer_combine(self, k):
        g = social_graph(200, 6.0, 2.3, rng=1)
        with pytest.raises(ConfigurationError, match=f"num_parts must be positive, got {k}"):
            multi_layer_combine(g, lambda sub, pieces: weighted_stream_partition(sub, pieces), k)

    def test_weighted_stream_partition(self):
        g = social_graph(200, 6.0, 2.3, rng=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no divide-by-zero warning on the way
            with pytest.raises(ConfigurationError, match="num_parts must be positive, got 0"):
                weighted_stream_partition(g, 0)
