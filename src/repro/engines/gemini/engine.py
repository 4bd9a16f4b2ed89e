"""The Gemini-like BSP execution engine.

Runs a :class:`~repro.engines.gemini.vertex_program.VertexProgram` over a
partitioned graph, charging each superstep to the cluster:

- **compute** — each machine processes the out-edges and vertex updates
  of its *active local* vertices (Gemini's computation phase);
- **communication** — every cut arc whose source is active carries one
  update message. With ``aggregate_messages=True`` (Gemini's sender-side
  mirror aggregation) duplicate updates from one machine to one target
  vertex count once.

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

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.cluster.bsp import BSPCluster
from repro.cluster.ledger import TimingLedger
from repro.cluster.messages import TrafficMatrix
from repro.engines import superstep
from repro.engines.gemini.vertex_program import VertexProgram
from repro.errors import ConfigurationError, SimulationError
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
    #: execution mode chosen in each iteration ("push"/"pull").
    modes: list[str] = field(default_factory=list)

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
    aggregate_messages:
        Model Gemini's sender-side aggregation: multiple updates from
        machine ``a`` to the same target vertex merge into one message.
    mode:
        Gemini's dual execution modes:

        ``"push"`` (sparse) — only *active* vertices do work: compute ∝
        out-arcs of active vertices, messages ∝ active cut arcs. Cheap
        for small frontiers (BFS rings, late CC iterations).

        ``"pull"`` (dense) — every vertex gathers from all neighbours:
        compute ∝ all local arcs, and each machine fetches every remote
        neighbour value once — a *fixed* per-iteration mirror traffic,
        independent of the frontier. Cheap when almost everything is
        active (PageRank).

        ``"adaptive"`` (Gemini's default) — per iteration pick push when
        the active arc fraction is below ``dense_threshold``, else pull.
    dense_threshold:
        Active-arc fraction above which adaptive mode switches to pull
        (Gemini's heuristic uses |E_active| > |E| / 20).
    """

    def __init__(
        self,
        cluster: BSPCluster,
        *,
        aggregate_messages: bool = True,
        mode: str = "push",
        dense_threshold: float = 0.05,
    ) -> None:
        if mode not in ("push", "pull", "adaptive"):
            raise ConfigurationError(f"mode must be push|pull|adaptive, got {mode!r}")
        if not (0.0 < dense_threshold <= 1.0):
            raise ConfigurationError(
                f"dense_threshold must be in (0, 1], got {dense_threshold}"
            )
        self._cluster = cluster
        self._aggregate = bool(aggregate_messages)
        self._mode = mode
        self._dense_threshold = float(dense_threshold)

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
                structs = _build_census(graph, assignment.parts.astype(np.int64), m)
            assignment.derived_cache()["gemini"] = structs
        with reg.span("engine.gemini.run", program=program.name, machines=m):
            return self._run(graph, structs, program)

    def _run(self, graph: CSRGraph, structs: dict, program: VertexProgram) -> GeminiResult:
        m = self._cluster.num_machines
        degrees = graph.degrees
        parts, n = structs["parts"], graph.num_vertices
        total_arcs = max(graph.num_edges, 1)
        self._cluster.begin_run()
        state, active = program.initialize(graph)
        iterations = 0
        modes: list[str] = []
        emit = telemetry.enabled()  # hoisted: one flag read per run
        reg = telemetry.active()
        for it in range(program.max_iterations):
            if not active.any():
                break
            iterations += 1
            active_vertices = np.nonzero(active)[0]
            active_degrees = degrees[active_vertices].astype(np.float64)
            active_arc_fraction = float(active_degrees.sum()) / total_arcs
            if self._mode == "adaptive":
                mode = "pull" if active_arc_fraction > self._dense_threshold else "push"
            else:
                mode = self._mode
            modes.append(mode)
            if emit:
                reg.counter("engine.gemini.iterations", mode=mode).inc()
                reg.counter("engine.gemini.active_vertices").inc(int(active_vertices.size))
                reg.histogram(
                    "engine.gemini.active_arc_fraction",
                    buckets=(0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0),
                ).observe(active_arc_fraction)

            if mode == "pull":
                # Compute covers every local arc; the traffic is the
                # fixed mirror set, independent of the frontier.
                edges_per_m = structs["all_edges_per_m"]
                vertices_per_m = structs["all_vertices_per_m"]
                counts = structs.get("pull_counts")
                if counts is None:
                    counts = structs["pull_counts"] = _pull_counts(structs, m)
            else:
                active_parts = parts[active_vertices]
                edges_per_m = np.bincount(active_parts, weights=active_degrees, minlength=m)
                vertices_per_m = np.bincount(active_parts, minlength=m).astype(np.float64)
                if active.shape != parts.shape:  # census_push reads it at every cut source
                    raise SimulationError(f"{program.name}: {active.size} active flags, n={n}")
                counts = superstep.census_push(structs, active, self._aggregate, m)

            # from_counts copies: clusters may consume the matrix they get.
            self._cluster.superstep(
                edges=edges_per_m,
                vertices=vertices_per_m,
                traffic=TrafficMatrix.from_counts(counts),
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
            modes=modes,
        )


def _build_census(graph: CSRGraph, parts: np.ndarray, m: int) -> dict:
    """Per-assignment census structures: the grouped cut arcs of
    :func:`~repro.engines.superstep.census_build` plus the pull-mode loads."""
    return {
        "parts": parts,
        **superstep.census_build(graph, parts, m),
        "all_edges_per_m": np.bincount(
            parts, weights=graph.degrees.astype(np.float64), minlength=m
        ),
        "all_vertices_per_m": np.bincount(parts, minlength=m).astype(np.float64),
    }


def _pull_counts(structs: dict, m: int) -> np.ndarray:
    """Pull-mode traffic: one fetch per distinct (remote neighbour
    vertex, consumer machine) mirror per iteration, sent by the owner."""
    consumer = structs["cut_pair"] % m
    mirrors = np.unique(structs["cut_src"] * m + consumer)
    pairs = structs["parts"][mirrors // m] * m + mirrors % m
    return np.bincount(pairs, minlength=m * m).reshape(m, m)
