"""Shared-memory multi-core execution layer.

One reusable substrate behind every ``jobs=`` knob in the library:

- :class:`~repro.parallel.shm.SharedArrayPool` — parent-owned POSIX
  shared-memory segments carrying the big read-mostly arrays (CSR
  adjacency, stream order, part vector) to workers zero-copy;
- :class:`~repro.parallel.pool.WorkerPool` — persistent spawn workers
  with deterministic task→worker routing and ordered reduction, so
  every parallel result is bit-identical to its serial counterpart;
- :func:`~repro.parallel.pool.resolve_jobs` — the single policy point
  for ``jobs=`` / ``$REPRO_JOBS`` (explicit beats env beats 1; never
  nests inside a pool worker).

Consumer: the ``parallel`` streaming kernel
(:mod:`repro.partition.kernels.parallel_backend`).  It degrades to its
serial path — with a ``parallel.fallbacks`` telemetry increment — when
``jobs == 1``, shared memory is unavailable, or a worker dies.

Telemetry (aggregate-only, off by default): ``parallel.tasks``,
``parallel.bytes_shared``, ``parallel.workers_spawned``,
``parallel.worker_crashes``, ``parallel.fallbacks``.
"""

from repro.parallel.pool import WorkerCrash, WorkerPool, WorkerTaskError, resolve_jobs
from repro.parallel.shm import (
    SharedArrayPool,
    SharedArrayToken,
    attach_array,
    shm_available,
)

__all__ = [
    "SharedArrayPool",
    "SharedArrayToken",
    "WorkerCrash",
    "WorkerPool",
    "WorkerTaskError",
    "attach_array",
    "note_fallback",
    "resolve_jobs",
    "shm_available",
]

from repro import telemetry


def note_fallback(site: str) -> None:
    """Count one parallel→serial degradation (crash, no shm, spawn
    failure) at ``site`` in ``parallel.fallbacks``."""
    if telemetry.enabled():
        telemetry.active().counter("parallel.fallbacks", site=site).inc()
