"""The Gemini-like BSP execution engine.

Runs a :class:`~repro.engines.gemini.vertex_program.VertexProgram` over a
partitioned graph, charging each superstep to the cluster:

- **compute** — each machine processes the out-edges and vertex updates
  of its *active local* vertices (Gemini's computation phase);
- **communication** — every cut arc whose source is active carries one
  update, and Gemini's sender-side mirror aggregation merges the updates
  from one machine to one target vertex into one message.

Every superstep runs in Gemini's push (sparse) mode: compute is charged
for the out-arcs and vertices of the active set only.

Each superstep's census is one in-process pass: the cut arcs are grouped
by (source machine, target vertex) once per assignment
(:func:`repro.engines.superstep.census_build`, a linear counting sort in
C), so a push iteration is one C pass over the groups
(:func:`~repro.engines.superstep.census_push`).

The numerical result is exact: the program's transition runs on global
arrays, so the partition affects only the timing ledger — exactly the
property the paper exploits when comparing partitioners on one system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.cluster.bsp import BSPCluster
from repro.cluster.ledger import TimingLedger
from repro.cluster.messages import TrafficMatrix
from repro.engines import superstep
from repro.engines.gemini.vertex_program import VertexProgram
from repro.errors import SimulationError
from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment

__all__ = ["GeminiEngine", "GeminiResult"]


@dataclass
class GeminiResult:
    """Outcome of one engine run."""

    values: np.ndarray
    iterations: int
    ledger: TimingLedger
    total_messages: int

    @property
    def runtime(self) -> float:
        """Simulated makespan in seconds."""
        return self.ledger.total_runtime


class GeminiEngine:
    """Iteration-based vertex-centric engine over a simulated cluster.

    Parameters
    ----------
    cluster:
        The BSP cluster; its machine count must equal the assignment's
        part count at :meth:`run` time. A cluster built with a
        :class:`~repro.cluster.faults.FaultPlan` injects
        crashes/stragglers without engine changes.
    """

    def __init__(self, cluster: BSPCluster) -> None:
        self._cluster = cluster

    def run(
        self,
        graph: CSRGraph,
        assignment: PartitionAssignment,
        program: VertexProgram,
    ) -> GeminiResult:
        """Execute ``program`` to completion and return its result."""
        if assignment.num_parts != self._cluster.num_machines:
            raise SimulationError(
                f"assignment has {assignment.num_parts} parts but cluster has "
                f"{self._cluster.num_machines} machines"
            )
        if assignment.graph is not graph and assignment.graph != graph:
            raise SimulationError("assignment was computed for a different graph")
        if graph.num_vertices == 0:
            raise SimulationError("cannot run a vertex program on an empty graph")

        m = self._cluster.num_machines
        reg = telemetry.active()
        # The census structures are pure functions of the (immutable)
        # assignment, so they are built once and memoised on it —
        # multi-app experiments run several programs over one partition.
        structs = assignment.derived_cache().get("gemini")
        if structs is None:
            with reg.span("engine.gemini.census.build", machines=m):
                parts = assignment.parts.astype(np.int64)
                structs = {"parts": parts, **superstep.census_build(graph, parts, m)}
            assignment.derived_cache()["gemini"] = structs
        with reg.span("engine.gemini.run", program=program.name, machines=m):
            return self._run(graph, structs, program)

    def _run(self, graph: CSRGraph, structs: dict, program: VertexProgram) -> GeminiResult:
        m = self._cluster.num_machines
        degrees = graph.degrees
        parts = structs["parts"]
        total_arcs = max(graph.num_edges, 1)
        self._cluster.begin_run()
        state, active = program.initialize(graph)
        iterations = 0
        emit = telemetry.enabled()  # hoisted: one flag read per run
        reg = telemetry.active()
        for it in range(program.max_iterations):
            if not active.any():
                break
            iterations += 1
            active_vertices = np.nonzero(active)[0]
            active_degrees = degrees[active_vertices].astype(np.float64)
            if emit:
                reg.counter("engine.gemini.iterations").inc()
                reg.counter("engine.gemini.active_vertices").inc(int(active_vertices.size))
                reg.histogram(
                    "engine.gemini.active_arc_fraction",
                    buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
                ).observe(float(active_degrees.sum()) / total_arcs)
            active_parts = parts[active_vertices]
            # from_counts copies: clusters may consume the matrix they get.
            self._cluster.superstep(
                edges=np.bincount(active_parts, weights=active_degrees, minlength=m),
                vertices=np.bincount(active_parts, minlength=m).astype(np.float64),
                traffic=TrafficMatrix.from_counts(superstep.census_push(structs, active, m)),
            )
            state, active = program.iterate(graph, state, active, it)

        if emit:
            reg.counter("engine.gemini.runs").inc()
            reg.counter("engine.gemini.messages").inc(self._cluster.total_messages)
        return GeminiResult(
            values=state,
            iterations=iterations,
            ledger=self._cluster.ledger,
            total_messages=self._cluster.total_messages,
        )
