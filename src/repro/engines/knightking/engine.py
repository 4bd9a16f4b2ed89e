"""The KnightKing-like walker BSP engine.

Model (mirrors §2.1 and KnightKing's execution):

- Every walker lives on the machine hosting its current vertex.
- Per superstep, machines advance their local walkers; each executed
  *walker step* is one unit of compute charged to that machine (the
  paper characterises computing load exactly this way — Figure 4).
- A walker whose next vertex is on another machine is serialised into a
  message (a "message walk", Figure 5b's metric) and delivered at the
  next superstep.

Two synchronisation modes:

- ``step_sync`` (default) — one walk step per superstep, matching the
  paper's setting where 4-step walks take 4 iterations (Figures 4/12).
- ``greedy`` — a machine keeps advancing a walker until it terminates
  or leaves the machine (the "compute until no updates can be made"
  strategy of §2.1); supersteps then correspond to communication
  rounds.

Numerical semantics are exact: walks follow real edges with the app's
transition law, so traces are valid regardless of the partition — only
the *timing* depends on it. A superstep round is one call pair into
``engines/_superstep.c`` around the app's NumPy draw:
:func:`~repro.engines.superstep.walk_live` picks the walkers to advance
and :func:`~repro.engines.superstep.walk_apply` moves them and does the
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.cluster.bsp import BSPCluster
from repro.cluster.ledger import TimingLedger
from repro.cluster.messages import TrafficMatrix
from repro.engines import superstep
from repro.engines.knightking.walker import WalkerBatch
from repro.errors import ConfigurationError, SimulationError
from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.utils.rng import as_rng
from repro.utils.validation import check_count, check_vertex_ids

__all__ = ["WalkEngine", "WalkResult"]

_MAX_SUPERSTEPS = 100_000


@dataclass
class WalkResult:
    """Outcome of one random-walk job."""

    ledger: TimingLedger
    total_steps: int
    total_messages: int
    steps_matrix: np.ndarray  # supersteps × machines walker-steps executed
    final_positions: np.ndarray
    paths: np.ndarray | None = field(default=None, repr=False)
    visit_counts: np.ndarray | None = field(default=None, repr=False)

    @property
    def runtime(self) -> float:
        """Simulated makespan in seconds."""
        return self.ledger.total_runtime

    @property
    def num_supersteps(self) -> int:
        return self.ledger.num_iterations


class WalkEngine:
    """Walker-centric BSP engine over a simulated cluster.

    Parameters
    ----------
    cluster:
        Machine count must equal the assignment's part count. A cluster
        built with a :class:`~repro.cluster.faults.FaultPlan` runs the
        job under faults — engines never see them.
    mode:
        ``"step_sync"`` or ``"greedy"`` (see module docstring).
    record_paths:
        Store the full trace (walkers × steps+1 vertex ids, −1 padding).
        For tests and embeddings examples; memory scales with
        walkers × max_steps.
    track_visits:
        Accumulate a per-vertex visit counter (start vertices count as
        one visit). O(n) memory; the Monte-Carlo PPR estimation example
        is built on this.
    """

    def __init__(
        self,
        cluster: BSPCluster,
        *,
        mode: str = "step_sync",
        record_paths: bool = False,
        track_visits: bool = False,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if mode not in ("step_sync", "greedy"):
            raise ConfigurationError(f"mode must be step_sync|greedy, got {mode!r}")
        self._cluster = cluster
        self._mode = mode
        self._record = bool(record_paths)
        self._track_visits = bool(track_visits)
        self._visits: np.ndarray | None = None
        self._seed = seed

    # ------------------------------------------------------------------
    def run(
        self,
        graph: CSRGraph,
        assignment: PartitionAssignment,
        app,
        *,
        start_vertices: np.ndarray | None = None,
        walkers_per_vertex: int = 1,
        max_steps: int = 4,
    ) -> WalkResult:
        """Run ``app``'s walks to completion.

        Parameters
        ----------
        app:
            A :class:`~repro.engines.knightking.apps.base.WalkApp`.
        start_vertices:
            Explicit walker start vertices; default is
            ``walkers_per_vertex`` walkers on every vertex (the paper
            starts ``|V|`` or ``5·|V|`` walks).
        max_steps:
            Step cap per walker (the paper's fixed-length walks use 4).
        """
        if assignment.num_parts != self._cluster.num_machines:
            raise SimulationError(
                f"assignment has {assignment.num_parts} parts but cluster has "
                f"{self._cluster.num_machines} machines"
            )
        if assignment.graph is not graph and assignment.graph != graph:
            raise SimulationError("assignment was computed for a different graph")
        check_count("max_steps", max_steps)
        rng = as_rng(self._seed)
        n = graph.num_vertices
        if n == 0:
            raise SimulationError("cannot run walks on an empty graph")
        if start_vertices is None:
            check_count("walkers_per_vertex", walkers_per_vertex)
            start_vertices = np.tile(np.arange(n, dtype=np.int64), walkers_per_vertex)
        elif np.asarray(start_vertices).size == 0:
            raise SimulationError("no walkers to run: start_vertices is empty")
        batch = WalkerBatch.start_at(check_vertex_ids("start_vertices", start_vertices, n))
        parts = assignment.parts.astype(np.int64)
        m = self._cluster.num_machines

        paths = None
        if self._record:
            paths = np.full((batch.num_walkers, max_steps + 1), -1, dtype=np.int64)
            paths[:, 0] = batch.pos
        self._visits = (
            np.bincount(batch.pos, minlength=n).astype(np.int64)
            if self._track_visits
            else None
        )

        self._cluster.begin_run()
        steps_rows: list[np.ndarray] = []
        supersteps = 0
        with telemetry.active().span("engine.walk.run", app=app.name, machines=m):
            while batch.alive.any():
                supersteps += 1
                if supersteps > _MAX_SUPERSTEPS:  # pragma: no cover - defensive
                    raise SimulationError("walk did not terminate (superstep cap hit)")
                steps_per_m, traffic = self._superstep(graph, parts, m, batch, app, rng,
                                                       max_steps, paths)
                steps_rows.append(steps_per_m)
                self._cluster.superstep(steps=steps_per_m, traffic=traffic)

        steps_matrix = (
            np.stack(steps_rows) if steps_rows else np.zeros((0, m))
        )
        if telemetry.enabled():
            reg = telemetry.active()
            reg.counter("engine.walk.runs").inc()
            reg.counter("engine.walk.walkers").inc(batch.num_walkers)
            reg.counter("engine.walk.steps").inc(batch.total_steps)
            reg.counter("engine.walk.supersteps").inc(supersteps)
            reg.counter("engine.walk.messages").inc(self._cluster.total_messages)
            hist = reg.histogram(
                "engine.walk.steps_per_superstep",
                buckets=(1, 10, 100, 1_000, 10_000, 100_000, 1_000_000),
            )
            for row in steps_rows:
                hist.observe(float(row.sum()))
        return WalkResult(
            ledger=self._cluster.ledger,
            total_steps=batch.total_steps,
            total_messages=self._cluster.total_messages,
            steps_matrix=steps_matrix,
            final_positions=batch.pos.copy(),
            paths=paths,
            visit_counts=self._visits,
        )

    # ------------------------------------------------------------------
    def _superstep(self, graph, parts, m, batch, app, rng, max_steps, paths):
        """One superstep: step_sync moves every live walker once, greedy
        repeats that over the walkers still on their machine until none is.
        A move is charged to the machine it leaves and sent when it lands
        elsewhere, the final step included (the walker state lives with its
        last vertex's host); walkers that stop in place execute no step."""
        load, counts = np.zeros(m), np.zeros(m * m, dtype=np.int64)
        local = batch.alive.copy() if self._mode == "greedy" else None
        while True:  # the first round always has walkers: run() checks alive.any()
            idx, cur, prv = superstep.walk_live(
                batch.alive if local is None else local, batch.pos, batch.prev)
            targets, terminated = app.advance(graph, cur, prv, rng)
            superstep.walk_apply(batch, idx, targets, terminated, parts, max_steps, load, counts,
                                 paths=paths, visits=self._visits, local=local)
            if local is None or not local.any():
                break
        return load, TrafficMatrix.from_counts(counts.reshape(m, m))
