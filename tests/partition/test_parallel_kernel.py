"""Serial-vs-parallel bit-parity for the streaming partition layer.

The parallel backend's contract is stronger than "same quality": with
the window-masking protocol every fan-out must reproduce the buffered
(and therefore scalar) assignment *bit for bit*, for any worker count,
on dense and sharded graphs alike — and a crashed worker degrades to
the serial path with the identical result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.graph import social_graph, spill_csr
from repro.parallel import shm_available
from repro.partition import get_partitioner
from repro.partition._streamcore import default_alpha, stream_partition
from repro.partition.bpart import bpart_vertex_weights
from repro.partition.kernels import get_kernel, resolve_kernel_name

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory on this host"
)

ALGOS = ("fennel", "bpart", "hash", "chunk-v")


@pytest.fixture(scope="module")
def dense():
    return social_graph(1200, 8.0, 2.3, rng=11)


@pytest.fixture(scope="module")
def sharded(dense, tmp_path_factory):
    return spill_csr(dense, tmp_path_factory.mktemp("shards"), shard_size=256)


def _stream(g, *, kernel, jobs=None, passes=1, weighted=False):
    w = bpart_vertex_weights(g, 0.5) if weighted else np.ones(g.num_vertices)
    return stream_partition(
        g,
        6,
        vertex_weights=w,
        alpha=default_alpha(g, 6),
        passes=passes,
        kernel=kernel,
        jobs=jobs,
    )


class TestKernelNameResolution:
    def test_auto_promotes_only_with_jobs(self):
        assert resolve_kernel_name("auto", 4) == "parallel"
        assert resolve_kernel_name("auto", 1) != "parallel"
        assert resolve_kernel_name("auto", None) != "parallel"

    def test_explicit_kernel_is_respected(self):
        for name in ("scalar", "incremental", "buffered"):
            assert resolve_kernel_name(name, 4) == name
        assert resolve_kernel_name("parallel", None) == "parallel"


class TestStreamParity:
    @pytest.mark.parametrize("jobs", [2, 4])
    @pytest.mark.parametrize("passes", [1, 3])
    def test_dense_matches_buffered(self, dense, jobs, passes):
        base = _stream(dense, kernel="buffered", passes=passes)
        par = _stream(dense, kernel="parallel", jobs=jobs, passes=passes)
        np.testing.assert_array_equal(base, par)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_sharded_matches_buffered(self, sharded, jobs):
        base = _stream(sharded, kernel="buffered")
        par = _stream(sharded, kernel="parallel", jobs=jobs)
        np.testing.assert_array_equal(base, par)

    def test_weighted_stream_matches(self, dense):
        base = _stream(dense, kernel="scalar", weighted=True)
        par = _stream(dense, kernel="parallel", jobs=3, weighted=True)
        np.testing.assert_array_equal(base, par)

    def test_jobs_one_is_plain_serial(self, dense):
        # kernel="parallel" with jobs=1 must not spawn anything and
        # still produce the reference assignment.
        telemetry.set_enabled(True)
        telemetry.reset()
        base = _stream(dense, kernel="scalar")
        par = _stream(dense, kernel="parallel", jobs=1)
        np.testing.assert_array_equal(base, par)
        counters = telemetry.registry().snapshot()["counters"]
        assert counters.get("parallel.workers_spawned", 0) == 0

    def test_jobs_one_degrades_before_the_parallel_path(self, dense):
        # Regression: an explicit kernel="parallel" resolving to one
        # effective worker used to enter the multiprocessing path and
        # degrade *inside* it silently, mislabelling the stream timer
        # "parallel". It must degrade up front, tick the fallback
        # counter at site=kernel.jobs, and run the buffered kernel.
        telemetry.set_enabled(True)
        telemetry.reset()
        base = _stream(dense, kernel="buffered")
        par = _stream(dense, kernel="parallel", jobs=1)
        np.testing.assert_array_equal(base, par)
        counters = telemetry.registry().snapshot()["counters"]
        assert counters.get('parallel.fallbacks{site="kernel.jobs"}', 0) >= 1
        # the stream telemetry labels the kernel that actually ran
        assert counters.get('partition.stream.vertices{kernel="buffered"}', 0) > 0

    def test_jobs_above_one_does_not_tick_jobs_fallback(self, dense):
        telemetry.set_enabled(True)
        telemetry.reset()
        _stream(dense, kernel="parallel", jobs=2)
        counters = telemetry.registry().snapshot()["counters"]
        assert counters.get('parallel.fallbacks{site="kernel.jobs"}', 0) == 0


class TestPartitionerParity:
    """jobs>1 through the public constructors is invisible in output."""

    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("kind", ["dense", "sharded"])
    def test_partitioners_bit_identical(self, algo, kind, dense, sharded, request):
        g = dense if kind == "dense" else sharded
        serial = get_partitioner(algo, seed=3).partition(g, 5)
        kwargs = {} if algo in ("hash", "chunk-v") else {"jobs": 2}
        parallel = get_partitioner(algo, seed=3, **kwargs).partition(g, 5)
        np.testing.assert_array_equal(serial.assignment, parallel.assignment)

    @pytest.mark.parametrize("algo", ["fennel", "bpart"])
    def test_jobs_selects_parallel_kernel(self, algo, dense):
        assert get_partitioner(algo, seed=3, jobs=2)._kernel == "parallel"


class TestCrashFallback:
    def test_crashed_worker_degrades_to_serial(self, dense, monkeypatch):
        # Point the score task at a worker-killing function: every
        # dispatch dies, the backend must fall back and still return
        # the exact serial assignment, counting the fallback.
        from repro.partition.kernels import parallel_backend

        telemetry.set_enabled(True)
        telemetry.reset()
        monkeypatch.setattr(
            parallel_backend, "_SCORE_TASK", "tests.parallel._tasks:crash"
        )
        base = _stream(dense, kernel="buffered")
        par = _stream(dense, kernel="parallel", jobs=2)
        np.testing.assert_array_equal(base, par)
        counters = telemetry.registry().snapshot()["counters"]
        assert counters.get('parallel.fallbacks{site="kernel.crash"}', 0) >= 1
        assert counters.get("parallel.worker_crashes", 0) >= 1

    def test_the_registered_signature_scores_dense_arrays_in_process(self, dense, monkeypatch):
        # KernelBackend.fennel(indptr, indices, ...) with no graph: after the workers die,
        # the chunks are scored in process from the arrays themselves
        from repro.partition.kernels import parallel_backend

        monkeypatch.setattr(parallel_backend, "_SCORE_TASK", "tests.parallel._tasks:crash")
        base = _stream(dense, kernel="buffered")
        parts, loads, w = np.full(dense.num_vertices, -1, np.int32), np.zeros(6), np.ones(
            dense.num_vertices)
        get_kernel("parallel").fennel(
            dense.indptr, dense.indices, np.arange(dense.num_vertices), parts, loads, w,
            alpha=default_alpha(dense, 6), gamma=1.5, capacity=1.1 * dense.num_vertices / 6,
            passes=1, jobs=2)
        np.testing.assert_array_equal(base, parts)
