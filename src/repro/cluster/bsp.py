"""The BSP cluster.

:class:`BSPCluster` binds a machine count, a :class:`CostModel`, a
:class:`NetworkModel` and a :class:`FaultPlan` (empty by default), and
owns the run's :class:`TimingLedger` plus the cumulative message count.
Engines drive it superstep by superstep::

    cluster = BSPCluster(num_machines=8)
    cluster.begin_run()
    for each superstep:
        cluster.superstep(steps=..., edges=..., vertices=..., traffic=tm)
    ledger = cluster.ledger

Machine ``i`` hosts the vertices of part ``i`` — partitions and
machines are in one-to-one correspondence as in Gemini/KnightKing —
until a ``redistribute`` recovery moves state. Per engine superstep the
cluster:

1. remaps each *logical* part's reported work onto the *physical*
   machines currently hosting it (identity until a redistribute);
2. applies active straggler multipliers to per-machine compute;
3. prices communication through the network model, with per-pair
   degraded-link scaling;
4. records the superstep in the :class:`TimingLedger`;
5. fires scheduled crashes — inserting a *recovery superstep* whose
   cost is checkpoint restore + replay of the work lost since the last
   checkpoint, concentrated on the replacement (``restart``) or spread
   over survivors by their recovered share (``redistribute``);
6. inserts checkpoint supersteps on the plan's cadence, priced from
   per-machine ``|V_i|``/``|E_i|`` state by the
   :class:`~repro.cluster.faults.checkpoint.CheckpointCostModel`.

With the empty plan only steps 1 (identity), 3 and 4 do anything.
Everything is deterministic: the same plan, seed, and job always produce
byte-identical ledgers and recovery assignments.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from repro.cluster.cost import CostModel
from repro.cluster.faults.checkpoint import CheckpointCostModel
from repro.cluster.faults.plan import FaultPlan
from repro.cluster.faults.recovery import plan_redistribute, plan_restart
from repro.cluster.ledger import TimingLedger
from repro.cluster.messages import TrafficMatrix
from repro.cluster.network import NetworkModel
from repro.errors import ConfigurationError, SimulationError
from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.metrics import bias

__all__ = ["BSPCluster", "FaultReport"]


@dataclass
class FaultReport:
    """Post-run summary of what the plan did to the schedule."""

    num_machines: int
    runtime: float
    waiting_ratio: float
    #: waiting ratio over the iterations at/after the first crash
    #: (equals ``waiting_ratio`` when nothing crashed).
    degraded_waiting_ratio: float
    recovery_seconds: float
    checkpoint_seconds: float
    num_checkpoints: int
    crashes: list[dict] = field(default_factory=list)
    alive: list[bool] = field(default_factory=list)
    survivor_vertex_bias: float = 0.0
    survivor_edge_bias: float = 0.0
    survivor_vertex_max_dev: float = 0.0
    survivor_edge_max_dev: float = 0.0
    total_messages: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _max_dev(values: np.ndarray) -> float:
    """``max |x − mean| / mean`` — the symmetric balance deviation."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        return 0.0
    mean = x.mean()
    if mean == 0:
        return 0.0
    return float(np.abs(x - mean).max() / mean)


class BSPCluster:
    """A simulated cluster of ``num_machines`` identical machines.

    Parameters
    ----------
    num_machines:
        Cluster size — must equal the driving assignment's part count.
    plan:
        The fault schedule (``None`` = the empty :class:`FaultPlan`).
    graph, assignment:
        The job's graph and partition. Required whenever the plan
        crashes machines or takes checkpoints (state sizes and the
        redistribute recovery need them); optional otherwise.
    checkpoint_cost:
        Pricing of checkpoint/restore I/O.
    """

    def __init__(
        self,
        num_machines: int,
        plan: FaultPlan | None = None,
        *,
        graph: CSRGraph | None = None,
        assignment: PartitionAssignment | None = None,
        cost_model: CostModel | None = None,
        network: NetworkModel | None = None,
        overlap: bool = False,
        checkpoint_cost: CheckpointCostModel | None = None,
    ) -> None:
        if num_machines <= 0:
            raise SimulationError(f"num_machines must be positive, got {num_machines}")
        self._num_machines = int(num_machines)
        self._plan = plan if plan is not None else FaultPlan()
        self._plan.validate_for(self._num_machines)
        self._cost = cost_model if cost_model is not None else CostModel()
        self._cost.cores_for(self._num_machines)  # a per-machine cores tuple fits the machines
        self._network = network if network is not None else NetworkModel()
        self._overlap = bool(overlap)
        self._ckpt = checkpoint_cost if checkpoint_cost is not None else CheckpointCostModel()
        if assignment is not None and assignment.num_parts != self._num_machines:
            raise SimulationError(
                f"assignment has {assignment.num_parts} parts but cluster has "
                f"{self._num_machines} machines"
            )
        if self._plan.needs_state and (graph is None or assignment is None):
            raise ConfigurationError(
                "plans with crashes or checkpoints need graph= and assignment= "
                "(state sizes drive checkpoint and recovery cost)"
            )
        self._graph = graph
        self._assignment = assignment
        self._crash_at: dict[int, list[int]] = {}
        for c in self._plan.crashes:
            self._crash_at.setdefault(c.superstep, []).append(c.machine)
        self._ledger: TimingLedger | None = None
        self._reset_run_state()

    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self._num_machines

    @property
    def cost_model(self) -> CostModel:
        return self._cost

    @property
    def network(self) -> NetworkModel:
        return self._network

    @property
    def ledger(self) -> TimingLedger:
        """The current (or last) run's ledger."""
        if self._ledger is None:
            raise SimulationError("no run started; call begin_run() first")
        return self._ledger

    @property
    def total_messages(self) -> int:
        """Cross-machine messages accumulated this run (Figure 5b): an
        exact sum until a redistribute spreads a part's traffic over
        several machines, rounded after."""
        return round(self._messages)

    # ------------------------------------------------------------------
    def begin_run(self) -> TimingLedger:
        """Reset all run state (ledger, message count, liveness, hosting)."""
        self._ledger = TimingLedger(self._num_machines, overlap=self._overlap)
        self._reset_run_state()
        return self._ledger

    def _reset_run_state(self) -> None:
        m = self._num_machines
        self._messages: int | float = 0
        self._t = 0
        self._alive = np.ones(m, dtype=bool)
        self._share_v: np.ndarray | None = None  # None = identity
        self._share_e: np.ndarray | None = None
        self._since_ckpt: list[np.ndarray] = []
        self._num_checkpoints = 0
        self._checkpoint_seconds = 0.0
        self._recovery_seconds = 0.0
        self._crash_records: list[dict] = []
        self._first_crash_iter: int | None = None
        self._straggler_announced: set[int] = set()
        self._link_announced: set[int] = set()
        if self._assignment is not None:
            self._hosting = self._assignment.parts.astype(np.int64).copy()
            self._state_v = self._assignment.vertex_counts.astype(np.float64).copy()
            self._state_e = self._assignment.edge_counts.astype(np.float64).copy()
        else:
            self._hosting = None
            self._state_v = np.zeros(m)
            self._state_e = np.zeros(m)

    # ------------------------------------------------------------------
    def superstep(
        self,
        *,
        steps: np.ndarray | None = None,
        edges: np.ndarray | None = None,
        vertices: np.ndarray | None = None,
        traffic: TrafficMatrix | None = None,
    ) -> None:
        """Record one engine superstep, applying the plan at time ``t``.

        Parameters
        ----------
        steps, edges, vertices:
            Per-machine work counts (length-``M`` arrays; ``None`` = 0).
        traffic:
            Cross-machine messages of this superstep (``None`` = silent
            superstep, only barrier latency).
        """
        if self._ledger is None:
            raise SimulationError("no run started; call begin_run() first")
        if not self._alive.any():
            raise SimulationError(
                "superstep requested but every machine has crashed "
                "(redistribute recovery left no survivors)"
            )
        m = self._num_machines
        t = self._t
        zero = np.zeros(m)
        if traffic is None:
            traffic = TrafficMatrix(m)
        elif traffic.num_machines != m:
            raise SimulationError("traffic matrix size != cluster size")

        identity = self._share_v is None
        if identity:
            compute = self._cost.compute_seconds(
                steps=zero if steps is None else steps,
                edges=zero if edges is None else edges,
                vertices=zero if vertices is None else vertices,
            )
            compute = np.asarray(compute, dtype=np.float64)
        else:
            # Logical part i's work lands on the machines hosting its
            # vertices/edges: walker steps and vertex updates follow the
            # vertex share, edge work follows the edge share.
            sv, se = self._share_v, self._share_e
            steps_p = zero if steps is None else sv.T @ np.asarray(steps, dtype=np.float64)
            verts_p = zero if vertices is None else sv.T @ np.asarray(vertices, dtype=np.float64)
            edges_p = zero if edges is None else se.T @ np.asarray(edges, dtype=np.float64)
            compute = np.asarray(
                self._cost.compute_seconds(steps=steps_p, edges=edges_p, vertices=verts_p),
                dtype=np.float64,
            )
            compute[~self._alive] = 0.0

        # Transient stragglers.
        for s in self._plan.stragglers:
            if s.active_at(t) and self._alive[s.machine]:
                compute[s.machine] *= s.factor
                if id(s) not in self._straggler_announced:
                    self._straggler_announced.add(id(s))
                    self._ledger.add_event(
                        "straggler",
                        superstep=self._ledger.num_iterations,
                        machine=s.machine,
                        factor=s.factor,
                        duration=s.duration,
                        engine_superstep=t,
                    )

        comm, cross_messages = self._comm_seconds(traffic, t, identity)
        if not identity:
            comm = np.where(self._alive, comm, 0.0)

        mask = None if bool(self._alive.all()) else self._alive.copy()
        self._ledger.record(compute, comm, active=mask)
        self._messages += cross_messages
        if self._crash_at:  # replay material for a crash still to come
            self._since_ckpt.append(compute)

        # Scheduled crashes fire at the barrier of their superstep.
        for machine in self._crash_at.get(t, ()):  # deterministic plan order
            if self._alive[machine]:
                self._handle_crash(machine, t)

        if self._plan.checkpoint.due_after(t):
            self._take_checkpoint(t)
        self._t += 1

    # ------------------------------------------------------------------
    def _comm_seconds(
        self, traffic: TrafficMatrix, t: int, identity: bool
    ) -> tuple[np.ndarray, int | float]:
        """Per-machine comm seconds + cross-machine message count."""
        links = [l for l in self._plan.degraded_links if l.active_at(t)]
        if identity:
            sent = traffic.sent
            received = traffic.received
            counts: np.ndarray | None = traffic.counts if links else None
            cross: int | float = traffic.total
        else:
            sv = self._share_v
            counts = sv.T @ traffic.counts.astype(np.float64) @ sv
            sent = counts.sum(axis=1)
            received = counts.sum(axis=0)
            cross = float(counts.sum() - np.trace(counts))
        if not links:
            return np.asarray(self._network.comm_seconds(sent, received), dtype=np.float64), cross

        # Traffic crossing a degraded pair pays the slowdown on both
        # endpoints: model it as extra effective messages at nominal
        # bandwidth, then scale the endpoints' barrier latency.
        extra_sent = np.zeros(self._num_machines)
        extra_recv = np.zeros(self._num_machines)
        lat_scale = np.ones(self._num_machines)
        for l in links:
            if id(l) not in self._link_announced:
                self._link_announced.add(id(l))
                self._ledger.add_event(
                    "degraded-link",
                    superstep=self._ledger.num_iterations,
                    machine=l.src,
                    dst=l.dst,
                    bandwidth_scale=l.bandwidth_scale,
                    latency_scale=l.latency_scale,
                    engine_superstep=t,
                )
            pair = float(counts[l.src, l.dst])
            extra = pair * (1.0 / l.bandwidth_scale - 1.0)
            extra_sent[l.src] += extra
            extra_recv[l.dst] += extra
            lat_scale[l.src] = max(lat_scale[l.src], l.latency_scale)
            lat_scale[l.dst] = max(lat_scale[l.dst], l.latency_scale)
        comm = np.asarray(
            self._network.comm_seconds(
                np.asarray(sent, dtype=np.float64) + extra_sent,
                np.asarray(received, dtype=np.float64) + extra_recv,
            ),
            dtype=np.float64,
        )
        return comm + (lat_scale - 1.0) * self._network.latency, cross

    # ------------------------------------------------------------------
    def _handle_crash(self, machine: int, t: int) -> None:
        """Insert the recovery superstep for a crash at engine step ``t``."""
        m = self._num_machines
        self._ledger.add_event(
            "crash",
            superstep=self._ledger.num_iterations - 1,
            machine=machine,
            engine_superstep=t,
            strategy=self._plan.recovery,
        )
        if self._first_crash_iter is None:
            self._first_crash_iter = self._ledger.num_iterations - 1
        # Work lost since the last checkpoint (including superstep t):
        # it is re-executed by whoever inherits the state.
        replay = float(sum(row[machine] for row in self._since_ckpt))
        lost_v = float(self._state_v[machine])
        lost_e = float(self._state_e[machine])

        recovery = np.zeros(m)
        if self._plan.recovery == "restart":
            outcome = plan_restart(m, machine)
            recovery[machine] = (
                float(self._ckpt.restore_seconds(lost_v, lost_e)) + replay
            )
        else:
            outcome = plan_redistribute(
                self._graph,
                self._hosting,
                m,
                machine,
                self._alive,
                seed=self._plan.seed,
            )
            self._alive[machine] = False
            self._hosting = outcome.hosting
            taken = outcome.share_v > 0
            restore = np.zeros(m)
            restore[taken] = np.asarray(
                self._ckpt.restore_seconds(
                    outcome.share_v[taken] * lost_v, outcome.share_e[taken] * lost_e
                ),
                dtype=np.float64,
            )
            recovery = restore + outcome.share_v * replay
            recovery[machine] = 0.0
            self._rebuild_state_and_shares()

        mask = None if bool(self._alive.all()) else self._alive.copy()
        it = self._ledger.record(recovery, np.zeros(m), active=mask)
        self._recovery_seconds += it.duration
        self._ledger.add_event(
            "recovery",
            superstep=self._ledger.num_iterations - 1,
            machine=machine,
            seconds=it.duration,
            strategy=outcome.strategy,
            replay_seconds=replay,
            engine_superstep=t,
        )
        self._crash_records.append(
            {
                "machine": int(machine),
                "engine_superstep": int(t),
                "strategy": outcome.strategy,
                "replay_seconds": replay,
                "recovery_seconds": float(it.duration),
            }
        )

    def _rebuild_state_and_shares(self) -> None:
        """Recompute hosted state and logical→physical work shares from
        the current hosting vector."""
        m = self._num_machines
        degrees = self._graph.degrees.astype(np.float64)
        self._state_v = np.bincount(self._hosting, minlength=m).astype(np.float64)
        self._state_e = np.bincount(self._hosting, weights=degrees, minlength=m)
        logical = self._assignment.parts.astype(np.int64)
        key = logical * m + self._hosting
        sv = np.bincount(key, minlength=m * m).astype(np.float64).reshape(m, m)
        se = np.bincount(key, weights=degrees, minlength=m * m).reshape(m, m)
        for share in (sv, se):
            totals = share.sum(axis=1)
            empty = totals == 0
            share[empty] = 0.0
            share[empty, np.flatnonzero(empty)] = 1.0  # no work ⇒ mapping moot
            totals[empty] = 1.0
            share /= totals[:, None]
        self._share_v = sv
        self._share_e = se

    def _take_checkpoint(self, t: int) -> None:
        m = self._num_machines
        ck = np.asarray(
            self._ckpt.checkpoint_seconds(self._state_v, self._state_e), dtype=np.float64
        )
        ck = np.where(self._alive, ck, 0.0)
        mask = None if bool(self._alive.all()) else self._alive.copy()
        it = self._ledger.record(ck, np.zeros(m), active=mask)
        self._checkpoint_seconds += it.duration
        self._num_checkpoints += 1
        self._ledger.add_event(
            "checkpoint",
            superstep=self._ledger.num_iterations - 1,
            seconds=it.duration,
            engine_superstep=t,
        )
        self._since_ckpt = []

    # ------------------------------------------------------------------
    def report(self) -> FaultReport:
        """Summarise the completed (or in-progress) run."""
        ledger = self.ledger
        alive = self._alive
        if self._first_crash_iter is not None:
            degraded = ledger.waiting_ratio_from(self._first_crash_iter)
        else:
            degraded = ledger.waiting_ratio
        surv_v = self._state_v[alive]
        surv_e = self._state_e[alive]
        has_state = self._assignment is not None
        return FaultReport(
            num_machines=self._num_machines,
            runtime=ledger.total_runtime,
            waiting_ratio=ledger.waiting_ratio,
            degraded_waiting_ratio=degraded,
            recovery_seconds=self._recovery_seconds,
            checkpoint_seconds=self._checkpoint_seconds,
            num_checkpoints=self._num_checkpoints,
            crashes=list(self._crash_records),
            alive=[bool(a) for a in alive],
            survivor_vertex_bias=bias(surv_v) if has_state and surv_v.size else 0.0,
            survivor_edge_bias=bias(surv_e) if has_state and surv_e.size else 0.0,
            survivor_vertex_max_dev=_max_dev(surv_v) if has_state else 0.0,
            survivor_edge_max_dev=_max_dev(surv_e) if has_state else 0.0,
            total_messages=self.total_messages,
        )

    def __repr__(self) -> str:
        return f"BSPCluster(machines={self._num_machines})"
