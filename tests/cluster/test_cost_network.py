"""Unit tests for cost and network models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import CostModel, NetworkModel
from repro.errors import ConfigurationError


class TestCostModel:
    def test_scalar_arithmetic(self):
        cm = CostModel(step_cost=1e-6, edge_cost=2e-6, vertex_cost=3e-6, cores=2)
        t = cm.compute_seconds(steps=10, edges=5, vertices=1)
        assert t == pytest.approx((10e-6 + 10e-6 + 3e-6) / 2)

    @pytest.mark.parametrize("cores", [48, 7, (48, 24, 7)])
    def test_python_scalars_equal_the_array_path_bit_for_bit(self, cores):
        # int/float arguments take the array path: the same IEEE bits.
        cm = CostModel(step_cost=5e-8 / 3, edge_cost=2e-8 / 7, vertex_cost=1e-8 / 11, cores=cores)
        for counts in [(0, 0.0, 1), (32, 71886.0, 8), (4.0, 2**53 + 1, 3), (1, 2, 3)]:
            steps, edges, vertices = counts
            fast = cm.compute_seconds(steps=steps, edges=edges, vertices=vertices)
            wide = [np.full(3, c, dtype=np.float64) for c in counts]
            slow = cm.compute_seconds(steps=wide[0], edges=wide[1], vertices=wide[2])
            if isinstance(cores, tuple):
                assert fast.tolist() == slow.tolist()
            else:
                assert isinstance(fast, float) and [float(fast)] * 3 == slow.tolist()

    @pytest.mark.parametrize("cores", [(8, 8, 8), (8, 8, 8, 8, 8)])
    def test_a_cores_tuple_must_fit_the_cluster(self, cores):
        from repro.cluster import BSPCluster

        with pytest.raises(ConfigurationError, match=rf"^cores has {len(cores)} entries for 4 "):
            BSPCluster(4, cost_model=CostModel(cores=cores))
        assert CostModel(cores=cores).cores_for(len(cores)).tolist() == [8.0] * len(cores)

    def test_array_broadcast(self):
        cm = CostModel(step_cost=1e-6, cores=1, edge_cost=0, vertex_cost=0)
        t = cm.compute_seconds(steps=np.array([1.0, 2.0, 0.0]))
        assert np.allclose(t, [1e-6, 2e-6, 0.0])

    def test_defaults_physical(self):
        cm = CostModel()
        # a billion walker-steps on one machine ~ a second of work
        assert 0.1 < cm.compute_seconds(steps=1e9) < 10

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CostModel(step_cost=-1)
        with pytest.raises(ConfigurationError):
            CostModel(cores=0)


class TestNetworkModel:
    def test_latency_floor(self):
        nm = NetworkModel(latency=1e-3)
        t = nm.comm_seconds(np.zeros(4), np.zeros(4))
        assert np.allclose(t, 1e-3)

    def test_bandwidth_term(self):
        nm = NetworkModel(bandwidth=1e6, latency=0.0, message_bytes=100)
        t = nm.comm_seconds(np.array([1000.0]), np.array([0.0]))
        assert t[0] == pytest.approx(1000 * 100 / 1e6)

    def test_full_duplex_max(self):
        nm = NetworkModel(bandwidth=1e6, latency=0.0, message_bytes=1)
        t = nm.comm_seconds(np.array([10.0]), np.array([500.0]))
        assert t[0] == pytest.approx(500 / 1e6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkModel(bandwidth=0)
        with pytest.raises(ConfigurationError):
            NetworkModel(message_bytes=0)
