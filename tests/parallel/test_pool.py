"""The parallel substrate: shared segments, the worker pool's ordering
and failure contracts, and the ``jobs=`` resolution policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.parallel import (
    SharedArrayPool,
    WorkerCrash,
    WorkerPool,
    WorkerTaskError,
    attach_array,
    resolve_jobs,
    shm_available,
)

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no usable shared memory on this host"
)

TASKS = "tests.parallel._tasks"


# ----------------------------------------------------------------------
# resolve_jobs policy
# ----------------------------------------------------------------------
class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1
        assert resolve_jobs(None) == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) == 7

    def test_nonpositive_means_all_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-1) == resolve_jobs(0)

    def test_garbage_env_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        assert resolve_jobs() == 1

    def test_child_guard_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_CHILD", "1")
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(4) == 1

    def test_child_guard_applies_inside_real_worker(self):
        with WorkerPool(1) as pool:
            assert pool.map_ordered(f"{TASKS}:report_jobs", [None]) == [1]


# ----------------------------------------------------------------------
# Shared segments
# ----------------------------------------------------------------------
class TestSharedArrays:
    def test_round_trip_through_worker(self):
        data = np.arange(1000, dtype=np.float64)
        with SharedArrayPool() as shm, WorkerPool(2) as pool:
            token = shm.share("data", data)
            payloads = [
                {"token": token, "lo": 0, "hi": 500},
                {"token": token, "lo": 500, "hi": 1000},
            ]
            sums = pool.map_ordered(f"{TASKS}:shm_sum", payloads)
        assert sums == [float(data[:500].sum()), float(data[500:].sum())]

    def test_share_copies_and_tokens_describe(self):
        data = np.arange(12, dtype=np.int32).reshape(3, 4)
        with SharedArrayPool() as shm:
            token = shm.share("m", data)
            assert token.shape == (3, 4) and np.dtype(token.dtype) == np.int32
            view = shm.array("m")
            np.testing.assert_array_equal(view, data)
            data[0, 0] = 99  # the segment holds its own copy
            assert view[0, 0] == 0
            assert shm.token("m") == token

    def test_attach_caches_segment(self):
        data = np.ones(8)
        cache: dict = {}
        with SharedArrayPool() as shm:
            token = shm.share("x", data)
            a = attach_array(token, cache)
            b = attach_array(token, cache)
            assert a.base is b.base  # one mapping, two views
            assert len(cache["_shm_segments"]) == 1
            for seg in cache["_shm_segments"].values():
                seg.close()

    def test_bytes_shared_counter(self):
        telemetry.set_enabled(True)
        telemetry.reset()
        with SharedArrayPool() as shm:
            shm.share("x", np.zeros(1024, dtype=np.int64))
        snap = telemetry.registry().snapshot()
        assert snap["counters"]["parallel.bytes_shared"] >= 8192


# ----------------------------------------------------------------------
# WorkerPool contracts
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_map_ordered_routes_and_orders(self):
        payloads = list(range(23))
        with WorkerPool(3) as pool:
            out = pool.map_ordered(f"{TASKS}:square", payloads)
        values = [v for v, _, _ in out]
        assert values == [p * p for p in payloads]
        # Task i runs on worker i % jobs: each worker's per-task call
        # counter climbs 1, 2, 3, ... in submission order.
        by_pid: dict = {}
        for _, calls, pid in out:
            assert calls == by_pid.get(pid, 0) + 1
            by_pid[pid] = calls
        assert len(by_pid) == 3

    def test_worker_state_persists_across_tasks(self):
        with WorkerPool(1) as pool:
            out = pool.map_ordered(f"{TASKS}:square", [1, 2, 3])
        assert [calls for _, calls, _ in out] == [1, 2, 3]

    def test_dead_worker_raises_crash(self):
        telemetry.set_enabled(True)
        telemetry.reset()
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerCrash):
                pool.map_ordered(f"{TASKS}:crash", [None, None])
        snap = telemetry.registry().snapshot()
        assert snap["counters"]["parallel.worker_crashes"] >= 1

    def test_task_exception_raises_task_error(self):
        with WorkerPool(1) as pool:
            with pytest.raises(WorkerTaskError, match="bad payload 'p0'"):
                pool.map_ordered(f"{TASKS}:boom", ["p0"])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.map_ordered(f"{TASKS}:square", [1, 2])
        pool.close()
        pool.close()
