"""Partitioner interface and registry.

Every partitioner implements :meth:`Partitioner.partition` and returns a
:class:`PartitionResult` carrying the assignment, the run's wall-clock
seconds (Table 2 measures this), and algorithm-specific metadata such as
BPart's layer trace. The registry lets the bench harness and CLI look up
partitioners by the names the paper uses ("chunk-v", "fennel", …).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import telemetry
from repro.errors import ConfigurationError, PartitionError
from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.utils import native

__all__ = ["Partitioner", "PartitionResult", "register_partitioner", "get_partitioner", "available_partitioners"]


@dataclass
class PartitionResult:
    """Outcome of one partitioning run.

    Attributes
    ----------
    assignment: the vertex → part mapping with cached stats.
    elapsed:    wall-clock seconds of the whole run (Table 2's metric).
    metadata:   algorithm-specific extras (BPart: per-layer trace).
    """

    assignment: PartitionAssignment
    elapsed: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)


class Partitioner(abc.ABC):
    """Base class: validates arguments, times the run, delegates to
    :meth:`_partition`."""

    #: registry name; subclasses set this (e.g. ``"bpart"``).
    name: str = "base"
    #: the compiled libraries (:data:`repro.utils.native.LIBRARIES` keys) a run
    #: calls, loaded before its clock starts so a cold build is not timed.
    libraries: tuple[str, ...] = ()

    def partition(self, graph: CSRGraph, num_parts: int) -> PartitionResult:
        """Partition ``graph`` into ``num_parts`` parts.

        Raises :class:`PartitionError` for impossible requests (more
        parts than vertices) so downstream balance math never divides by
        an empty part set.
        """
        if num_parts <= 0:
            raise ConfigurationError(f"num_parts must be positive, got {num_parts}")
        if num_parts > max(graph.num_vertices, 1):
            raise PartitionError(
                f"cannot split {graph.num_vertices} vertices into {num_parts} parts"
            )
        for key in self.libraries:
            native.library(key)
        reg = telemetry.active()
        start = time.perf_counter()
        with reg.span("partition", algo=self.name, k=int(num_parts)):
            assignment, metadata = self._partition(graph, int(num_parts))
        elapsed = time.perf_counter() - start
        reg.counter("partition.runs", algo=self.name).inc()
        reg.counter("partition.vertices", algo=self.name).inc(graph.num_vertices)
        return PartitionResult(assignment=assignment, elapsed=elapsed, metadata=metadata)

    def _phase(self, phase: str):
        """The ``partition.phase{algo,phase}`` span around one step of
        :meth:`_partition` (free while telemetry is off)."""
        return telemetry.active().span("partition.phase", algo=self.name, phase=phase)

    @abc.abstractmethod
    def _partition(
        self, graph: CSRGraph, num_parts: int
    ) -> tuple[PartitionAssignment, dict[str, Any]]:
        """Produce the assignment and its metadata."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, Callable[..., Partitioner]] = {}


def register_partitioner(name: str, factory: Callable[..., Partitioner]) -> None:
    """Register a partitioner factory under ``name`` (lowercase)."""
    _REGISTRY[name.lower()] = factory


def get_partitioner(name: str, **kwargs) -> Partitioner:
    """Instantiate a registered partitioner by paper name.

    >>> get_partitioner("chunk-v").name
    'chunk-v'
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown partitioner {name!r}; available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[key](**kwargs)


def available_partitioners() -> list[str]:
    """Sorted registry names."""
    return sorted(_REGISTRY)
