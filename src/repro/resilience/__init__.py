"""Resilient-execution policy layer for the real pipeline.

The BSP *simulator* models cluster faults (:mod:`repro.cluster.faults`);
this package is about the faults the repository's **own** execution
paths hit: worker processes that die or hang under the suite runner,
artifact-store I/O that fails or returns corrupted files, and multi-GB
edge streams with malformed lines. Three building blocks:

- :mod:`repro.resilience.policy` — :class:`RetryPolicy` (exponential
  backoff with *seeded, deterministic* jitter) and a
  :class:`CircuitBreaker` that converts "the pool keeps dying" into a
  deliberate degradation to serial execution.
- :mod:`repro.resilience.chaos` — a deterministic fault-injection
  harness. A seeded :class:`ChaosPlan` decides purely from
  ``(seed, site, key, attempt)`` whether to kill the worker, raise, fail
  I/O, corrupt a file, or hang — independent of scheduling order, so
  chaos runs are exactly reproducible and CI can assert result parity
  with a clean run.
- :mod:`repro.resilience.journal` — a crash-safe append-only JSONL
  journal (``flush`` + ``fsync`` per record, torn trailing lines
  tolerated on read) backing ``repro-bench all --resume``.

Everything reports through :mod:`repro.telemetry` (``resilience.*`` and
``chaos.*`` counters) and costs nothing when unused: no plan installed
means one dict lookup per potential injection site.
"""

from __future__ import annotations

from repro.resilience.chaos import (
    ChaosError,
    ChaosPlan,
    ChaosRule,
    active_plan,
    install_plan,
    known_sites,
    maybe_inject,
    register_site,
)
from repro.resilience.journal import JsonlJournal
from repro.resilience.policy import (
    CircuitBreaker,
    RetryPolicy,
    call_with_retry,
    hash_unit,
)

__all__ = [
    "RetryPolicy",
    "CircuitBreaker",
    "call_with_retry",
    "hash_unit",
    "ChaosError",
    "ChaosPlan",
    "ChaosRule",
    "active_plan",
    "install_plan",
    "known_sites",
    "maybe_inject",
    "register_site",
    "JsonlJournal",
]
