"""NetworkModel.request_cost — the shared wire-cost formula."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.network import NetworkModel
from repro.errors import ConfigurationError


@pytest.fixture
def net():
    return NetworkModel(bandwidth=1e9, latency=1e-4, message_bytes=100)


def test_scalar_formula(net):
    assert net.request_cost(10) == pytest.approx(1e-4 + 10 * 100 / 1e9)
    assert isinstance(net.request_cost(10), float)


def test_zero_messages_still_pays_latency(net):
    # Documented: callers that send nothing must skip the call.
    assert net.request_cost(0) == pytest.approx(net.latency)


def test_bytes_each_override(net):
    assert net.request_cost(4, 4096) == pytest.approx(1e-4 + 4 * 4096 / 1e9)


def test_array_input(net):
    n = np.array([0.0, 5.0, 50.0])
    out = net.request_cost(n)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, 1e-4 + n * 100 / 1e9)


def test_latency_amortised_by_batching(net):
    # One batched request of 10 messages beats 10 single requests —
    # the economics the serving layer's coalescing relies on.
    assert net.request_cost(10) < 10 * net.request_cost(1)


def test_negative_messages_rejected(net):
    with pytest.raises(ConfigurationError):
        net.request_cost(-1)
    with pytest.raises(ConfigurationError):
        net.request_cost(np.array([3.0, -2.0]))


@pytest.mark.parametrize("bytes_each", [None, 4096, 0.3])
def test_python_scalars_equal_the_array_path_bit_for_bit(bytes_each):
    # int/float arguments come back as a float with the array path's IEEE bits.
    net = NetworkModel(bandwidth=5e9 / 3, latency=50e-6 / 7, message_bytes=13)
    for n in [0, 1, 7, 718860, 2**53 + 1, 0.1, 1e-3, 12345.678]:
        fast = net.request_cost(n, bytes_each)
        slow = net.request_cost(np.array([n], dtype=type(n)), bytes_each)
        assert type(fast) is float and fast == slow[0]
        assert fast == net.request_cost(np.float64(n), bytes_each)
    with pytest.raises(ConfigurationError):
        net.request_cost(-0.5)


def test_bad_bytes_each_rejected(net):
    with pytest.raises(ConfigurationError):
        net.request_cost(1, 0)
    with pytest.raises(ConfigurationError):
        net.request_cost(1, -16)


def test_comm_seconds_shares_the_formula(net):
    sent = np.array([10.0, 0.0, 3.0])
    received = np.array([2.0, 7.0, 3.0])
    np.testing.assert_allclose(
        net.comm_seconds(sent, received),
        net.request_cost(np.maximum(sent, received)),
    )
