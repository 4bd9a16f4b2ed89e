"""Unit tests for TrafficMatrix and BSPCluster."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import BSPCluster, CostModel, NetworkModel, TrafficMatrix
from repro.errors import SimulationError


class TestTrafficMatrix:
    def test_from_counts_drops_local(self):
        counts = np.array([[4, 1, 0], [0, 7, 1], [0, 0, 2]])
        tm = TrafficMatrix.from_counts(counts)
        assert tm.total == 2
        assert tm.counts[0, 1] == 1
        assert tm.counts[1, 2] == 1
        assert tm.counts[0, 0] == 0
        assert counts[0, 0] == 4  # the caller's matrix is copied, not zeroed

    def test_sent_received(self):
        tm = TrafficMatrix.from_counts(np.array([[0, 1, 1], [0, 0, 0], [0, 1, 0]]))
        assert list(tm.sent) == [2, 0, 1]
        assert list(tm.received) == [0, 2, 1]

    def test_counts_must_be_square(self):
        with pytest.raises(SimulationError):
            TrafficMatrix.from_counts(np.zeros((2, 3)))
        with pytest.raises(SimulationError):
            TrafficMatrix.from_counts(np.zeros(4))


class TestBSPCluster:
    def test_superstep_accounting(self):
        cl = BSPCluster(
            2,
            cost_model=CostModel(step_cost=1e-6, cores=1, edge_cost=0, vertex_cost=0),
            network=NetworkModel(bandwidth=1e6, latency=0.0, message_bytes=1),
        )
        cl.begin_run()
        tm = TrafficMatrix.from_counts(np.array([[0, 1], [0, 0]]))
        cl.superstep(steps=np.array([100.0, 50.0]), traffic=tm)
        ledger = cl.ledger
        assert ledger.num_iterations == 1
        assert ledger.compute_matrix[0, 0] == pytest.approx(100e-6)
        assert cl.total_messages == 1

    def test_requires_begin_run(self):
        cl = BSPCluster(2)
        with pytest.raises(SimulationError):
            cl.superstep()
        with pytest.raises(SimulationError):
            _ = cl.ledger

    def test_begin_run_resets(self):
        cl = BSPCluster(2)
        cl.begin_run()
        cl.superstep(steps=np.ones(2))
        cl.begin_run()
        assert cl.ledger.num_iterations == 0
        assert cl.total_messages == 0

    def test_traffic_size_check(self):
        cl = BSPCluster(2)
        cl.begin_run()
        with pytest.raises(SimulationError):
            cl.superstep(traffic=TrafficMatrix(3))

    def test_invalid_machine_count(self):
        with pytest.raises(SimulationError):
            BSPCluster(0)

    def test_silent_superstep_pays_latency(self):
        cl = BSPCluster(2, network=NetworkModel(latency=1e-3))
        cl.begin_run()
        cl.superstep()
        assert cl.ledger.total_runtime == pytest.approx(1e-3)
