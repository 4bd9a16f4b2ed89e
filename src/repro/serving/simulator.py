"""Discrete-event query-serving simulator over a partitioned cluster.

Drives a :class:`~repro.serving.workload.QueryTrace` against the
machines of a :class:`~repro.partition.assignment.PartitionAssignment`
on a virtual clock. Each query is routed to a machine holding its
target vertex's partition; machines serve FIFO in coalesced batches, so
a batch pays the network latency once over all its remote reads — the
batching economics real serving systems rely on. Service time per
batch is costed with the same :class:`~repro.cluster.cost.CostModel`
and :class:`~repro.cluster.network.NetworkModel` the BSP engines use
(via :meth:`NetworkModel.request_cost`), which is what makes serving
SLOs comparable across partitioners: a hub-heavy part means longer
per-batch work, more remote reads across the cut, and a colder cache —
all three show up in the tail. A batch's reads (its demand-table rows
and its walkers' visits) are merged and applied to the machine's
:class:`~repro.serving.cache.PartitionAwareCache` in one compiled call.

Admission control is a bounded per-machine queue with deterministic
shedding: an arrival finding the queue full is dropped and counted,
never retried (open-loop users do not back off).

Determinism contract: the event heap orders by ``(time, seq)`` where
arrival events take seqs ``0..q-1`` in trace order and every other
event draws from a counter starting at ``q`` — no float tie ever
decides an ordering. A walk batch's draws are the ones ``derive_rng``
gives for ``(seed, salt, machine, batch)``, seeded from a per-machine
table that :func:`~repro.utils.rng.seed_states` computes 1 024 batches
at a time. Same (assignment, trace, config, seed, chaos plan) ⇒
identical :class:`ServingResult`.

**Replication**: each partition's blocks are placed on
``replication_factor`` (K) machines by :func:`~repro.serving.replication.
plan_replicas` (anti-affinity + 2D balance); the router prefers the
least-loaded *healthy* replica, machine health is tracked by the
heartbeat state machine of :mod:`~repro.serving.health`, queries
stranded on a dying machine are re-dispatched to surviving replicas,
and an optional hedge duplicates a slow query onto a second replica
after ``hedge_after`` seconds (first response wins, the loser is
cancelled at batch-build time). A dead machine re-enters through a
recovery plan: its replicas are re-fetched heaviest partition first,
costed as wire bytes.
K=1 is the degenerate case of the same event loop: every partition has
a single holder, so the router has one candidate and nothing is hedged
or re-dispatched. Only the *report* differs — with K=1, no hedging and
no chaos rule at the replication sites, ``ServingResult.replicated`` is
false and the summary omits its replication block, so such reports keep
the bytes they had before replication existed.

Chaos sites (see :mod:`repro.resilience.chaos`):

- ``serving.machine`` — an injected fault (``exception``/``ioerror``)
  degrades that batch by ``slowdown_factor`` (a straggling replica).
- ``serving.cache`` — an injected fault flushes the machine's block
  cache (cache-node restart / corruption), so subsequent batches pay
  cold-start fetches.
- ``serving.replica.crash`` — keyed ``m{machine}:h{tick}``: the
  machine fails silently at that heartbeat tick; detection, drain, and
  recovery all happen through the health state machine.
- ``serving.heartbeat.drop`` — keyed ``m{machine}:h{tick}``: that
  heartbeat is lost in transit; enough consecutive drops walk a
  perfectly healthy machine into ``suspect``/``dead`` (false-positive
  fencing), which the simulation then repairs like any real crash.

Batch keys are ``"m{machine}:b{batch}"``; rate-based rules therefore
select a deterministic subset of batches (or of machine×tick pairs for
the replication sites). Crash/drop rules only fire while the arrival
window is open, so every run terminates. Direct ``hang``/``kill``
kinds at these sites act on the *host* process (real sleep / exit) —
plans aimed at the serving layer should use ``exception`` or
``ioerror``.
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from repro import telemetry
from repro.cluster.cost import CostModel
from repro.cluster.network import NetworkModel
from repro.errors import ConfigurationError
from repro.partition.assignment import PartitionAssignment
from repro.resilience.chaos import ChaosError, active_plan, maybe_inject, register_site
from repro.serving.cache import FETCHED, READS, WORK, PartitionAwareCache
from repro.serving.health import (
    DEAD,
    HEALTHY,
    RECOVERING,
    SUSPECT,
    HealthMonitor,
)
from repro.serving.replication import plan_replicas
from repro.serving.workload import KIND_KHOP, KIND_WALK, QueryTrace
from repro.utils import canon, native
from repro.utils.rng import rng_from_state, seed_states
from repro.utils.validation import check_count, check_nonnegative, check_positive

__all__ = ["ServingConfig", "ServingSimulator", "ServingResult"]

SERVING_SCHEMA = "serving/v1"

SITE_MACHINE = register_site("serving.machine")
SITE_CACHE = register_site("serving.cache")
SITE_REPLICA_CRASH = register_site("serving.replica.crash")
SITE_HEARTBEAT_DROP = register_site("serving.heartbeat.drop")

_SALT_WALK = 0x5EAF

#: the knobs of the ``replication`` block of a ``serving/v1`` document;
#: every other ``ServingConfig`` field is a top-level key.
_REPLICATION_KNOBS = (
    "replication_factor",
    "heartbeat_interval",
    "suspect_after",
    "dead_after",
    "restart_delay",
    "replica_slack",
    "hedge_after",
    "slo_seconds",
    "replica_vertex_bytes",
    "replica_edge_bytes",
)


def _nearest_rank(lat: np.ndarray, q: float) -> float:
    """Nearest-rank quantile of sorted ``lat`` (NaN if empty)."""
    if lat.size == 0:
        return float("nan")
    return float(lat[max(0, int(np.ceil(q * lat.size)) - 1)])


@dataclass(frozen=True)
class ServingConfig:
    """Serving-cluster knobs (the workload lives in ``WorkloadSpec``).

    Attributes
    ----------
    queue_limit:      max queries waiting per machine; beyond it,
                      arrivals are shed.
    batch_max:        max queries coalesced into one service batch.
    cache_blocks:     block capacity of each machine's LRU cache.
    cache_block_size: vertices per cache block.
    block_bytes:      wire size of one block fetch from storage.
    slowdown_factor:  service-time multiplier a ``serving.machine``
                      chaos hit applies to the afflicted batch.
    cost:             per-machine computation cost model.
    network:          latency/bandwidth wire model.

    Replication/health knobs (all defaulted so that a K=1 config
    serialises, digests, and behaves exactly as before replication):

    replication_factor:  copies of each partition's blocks (K).
    heartbeat_interval:  seconds between heartbeat ticks.
    suspect_after:       missed heartbeats before a machine is drained.
    dead_after:          missed heartbeats before it is fenced.
    restart_delay:       seconds from ``dead`` to ``recovering``.
    replica_slack:       balance slack passed to the replica placer.
    hedge_after:         seconds before a waiting query is hedged onto
                         a second replica (0 disables hedging).
    slo_seconds:         latency budget defining availability.
    replica_vertex_bytes / replica_edge_bytes:
                         wire bytes per vertex/arc for re-replication.
    """

    queue_limit: int = 64
    batch_max: int = 8
    cache_blocks: int = 256
    cache_block_size: int = 64
    block_bytes: int = 4096
    slowdown_factor: float = 4.0
    cost: CostModel = field(default_factory=CostModel)
    network: NetworkModel = field(default_factory=NetworkModel)
    replication_factor: int = 1
    heartbeat_interval: float = 0.02
    suspect_after: int = 2
    dead_after: int = 4
    restart_delay: float = 0.1
    replica_slack: float = 0.5
    hedge_after: float = 0.0
    slo_seconds: float = 0.05
    replica_vertex_bytes: int = 16
    replica_edge_bytes: int = 8

    def __post_init__(self) -> None:
        for name in _COUNT_KNOBS:
            check_count(name, getattr(self, name))
        if self.slowdown_factor < 1.0:
            raise ConfigurationError(
                f"slowdown_factor must be >= 1, got {self.slowdown_factor!r}"
            )
        check_positive("heartbeat_interval", self.heartbeat_interval)
        check_positive("restart_delay", self.restart_delay)
        check_positive("slo_seconds", self.slo_seconds)
        check_nonnegative("hedge_after", self.hedge_after)
        check_nonnegative("replica_slack", self.replica_slack)
        if not (1 <= self.suspect_after < self.dead_after):
            raise ConfigurationError(
                f"need 1 <= suspect_after < dead_after, got "
                f"{self.suspect_after}/{self.dead_after}"
            )

    def replication_dict(self) -> dict:
        """The replication knobs as a JSON-ready block."""
        return {
            name: type(default)(getattr(self, name))
            for name, default in _REPLICATION_DEFAULTS.items()
        }

    def to_dict(self) -> dict:
        """JSON-ready form, cost/network knobs inlined.

        The ``replication`` block is emitted only when some knob in it
        left its default, so pre-replication configs — and their
        digests, report bytes, and servetrace cache keys — are
        reproduced exactly.
        """
        cores = self.cost.cores
        doc = {
            "schema": SERVING_SCHEMA,
            "queue_limit": int(self.queue_limit),
            "batch_max": int(self.batch_max),
            "cache_blocks": int(self.cache_blocks),
            "cache_block_size": int(self.cache_block_size),
            "block_bytes": int(self.block_bytes),
            "slowdown_factor": float(self.slowdown_factor),
            "cost": {
                "step_cost": float(self.cost.step_cost),
                "edge_cost": float(self.cost.edge_cost),
                "vertex_cost": float(self.cost.vertex_cost),
                "cores": list(cores) if isinstance(cores, tuple) else int(cores),
            },
            "network": {
                "bandwidth": float(self.network.bandwidth),
                "latency": float(self.network.latency),
                "message_bytes": int(self.network.message_bytes),
            },
        }
        replication = self.replication_dict()
        if any(replication[k] != v for k, v in _REPLICATION_DEFAULTS.items()):
            doc["replication"] = replication
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ServingConfig":
        """Rebuild a config from :meth:`to_dict` output — and only that.

        A wrong ``schema`` tag, an unknown or missing key, and a
        replication knob outside the ``replication`` block all raise
        :class:`~repro.errors.ConfigurationError` naming the key.
        """
        canon.check_tag(doc, "schema", SERVING_SCHEMA, "serving config")
        canon.check_keys(doc, "serving config", ("schema", *_TOP_LEVEL_KEYS), ("replication",))
        doc = {k: v for k, v in doc.items() if k != "schema"}
        replication = doc.pop("replication", _REPLICATION_DEFAULTS)
        canon.check_keys(replication, "serving config 'replication'", _REPLICATION_DEFAULTS)
        for block, model in (("cost", CostModel), ("network", NetworkModel)):
            canon.check_keys(
                doc[block], f"serving config {block!r}", [f.name for f in fields(model)]
            )
            doc[block] = model(**doc[block])  # CostModel turns a cores list into a tuple
        return cls(**doc, **replication)

    def digest(self) -> str:
        """SHA-256 of the canonical ``serving/v1`` JSON."""
        return canon.digest(self.to_dict())


#: replication knobs at their defaults serialise to nothing at all, so
#: a replication_factor=1 config keeps its pre-replication digest. Read
#: off the dataclass: a default restated here could silently diverge.
_REPLICATION_DEFAULTS = {
    f.name: f.default for f in fields(ServingConfig) if f.name in _REPLICATION_KNOBS
}
_TOP_LEVEL_KEYS = tuple(
    f.name for f in fields(ServingConfig) if f.name not in _REPLICATION_KNOBS
)
#: every ``int`` field is a count: a positive ``int``, never a float or bool.
_COUNT_KNOBS = tuple(f.name for f in fields(ServingConfig) if f.type == "int")


@dataclass
class ServingResult:
    """Outcome of one serving run.

    Per-query arrays align with the trace; ``latency`` is NaN for shed
    queries. Per-machine arrays have one entry per cluster machine.
    ``machine_of_query`` records the machine that completed the query
    (the owner for shed queries). The replication fields are always
    filled in; ``replicated`` only decides whether :meth:`summary`,
    telemetry and the ``servetrace`` artifact report them.
    """

    num_machines: int
    duration: float
    latency: np.ndarray  # float64 seconds, NaN = shed
    shed: np.ndarray  # bool
    kind: np.ndarray  # uint8, copied from the trace
    machine_of_query: np.ndarray  # int64
    queries: np.ndarray  # int64 per machine (admitted)
    shed_per_machine: np.ndarray  # int64
    batches: np.ndarray  # int64
    degraded_batches: np.ndarray  # int64 (serving.machine chaos hits)
    cache_flushes: np.ndarray  # int64 (serving.cache chaos hits)
    busy_seconds: np.ndarray  # float64
    messages: np.ndarray  # int64 remote reads issued per machine
    cache_stats: dict
    makespan: float
    replicated: bool = False
    replication_factor: int = 1
    plan_digest: str = ""
    slo_seconds: float = 0.0
    crashes: int = 0
    redispatched: int = 0
    unavailable_shed: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    heartbeat_drops: int = 0
    rereplication_bytes: int = 0
    rereplication_transfers: int = 0
    health_ledger: list = field(default_factory=list)  # [time, m, old, new, cause]
    health_transitions: dict = field(default_factory=dict)
    recovery_seconds: list = field(default_factory=list)
    state_seconds: list = field(default_factory=list)  # per machine {state: s}
    restored: bool = True

    @property
    def num_queries(self) -> int:
        """Total arrivals (served + shed)."""
        return int(self.latency.size)

    @property
    def completed(self) -> int:
        """Queries that finished service."""
        return int(self.num_queries - self.shed.sum())

    @property
    def shed_rate(self) -> float:
        """Fraction of arrivals dropped by admission control."""
        return float(self.shed.sum() / self.latency.size) if self.latency.size else 0.0

    @property
    def throughput(self) -> float:
        """Completed queries per simulated second (NaN if none completed)."""
        if self.completed == 0:
            return float("nan")
        return self.completed / self.duration if self.duration else 0.0

    def availability(self, slo: float | None = None) -> float:
        """Fraction of *arrivals* answered within the SLO budget.

        Shed queries count against availability; so do completions
        slower than ``slo`` (default: the config's ``slo_seconds``).
        """
        budget = self.slo_seconds if slo is None else float(slo)
        if self.num_queries == 0:
            return 0.0
        with np.errstate(invalid="ignore"):
            ok = np.count_nonzero(self.latency <= budget)
        return float(ok / self.num_queries)

    def completed_latencies(self) -> np.ndarray:
        """Sorted latencies of completed queries."""
        lat = self.latency[~self.shed]
        return np.sort(lat)

    def latency_quantile(self, q: float) -> float:
        """Nearest-rank quantile of completed latencies (NaN if none).

        A total-shed drill completes nothing; the NaN sentinel (rather
        than a raise or a fake 0.0) serialises as ``null`` in the
        canonical report.
        """
        if not (0.0 < q <= 1.0):
            raise ConfigurationError(f"quantile must be in (0, 1], got {q!r}")
        return _nearest_rank(self.completed_latencies(), q)

    def summary(self) -> dict:
        """JSON-ready SLO summary (deterministic, byte-stable).

        All-shed runs serialise their undefined latency/throughput
        fields as ``null``. An ``availability`` scalar and a
        ``replication`` block are appended when ``replicated`` is set.
        """
        lat = self.completed_latencies()  # sorted once for all five statistics
        doc = {
            "queries": self.num_queries,
            "completed": self.completed,
            "shed": int(self.shed.sum()),
            "shed_rate": self.shed_rate,
            "throughput": canon.null_if_nan(self.throughput),
            "latency_p50": canon.null_if_nan(_nearest_rank(lat, 0.50)),
            "latency_p90": canon.null_if_nan(_nearest_rank(lat, 0.90)),
            "latency_p99": canon.null_if_nan(_nearest_rank(lat, 0.99)),
            "latency_mean": float(lat.mean()) if lat.size else None,
            "latency_max": float(lat[-1]) if lat.size else None,
            "makespan": self.makespan,
            "messages": int(self.messages.sum()),
            "batches": int(self.batches.sum()),
            "degraded_batches": int(self.degraded_batches.sum()),
            "cache_flushes": int(self.cache_flushes.sum()),
            "cache_hit_rate": float(self.cache_stats.get("hit_rate", 0.0)),
            "busy_max": float(self.busy_seconds.max()) if self.num_machines else 0.0,
            "busy_mean": float(self.busy_seconds.mean()) if self.num_machines else 0.0,
        }
        if self.replicated:
            doc["availability"] = self.availability()
            doc["replication"] = {
                "factor": int(self.replication_factor),
                "plan_digest": self.plan_digest,
                "slo_seconds": float(self.slo_seconds),
                "crashes": int(self.crashes),
                "redispatched": int(self.redispatched),
                "unavailable_shed": int(self.unavailable_shed),
                "hedges": int(self.hedges),
                "hedge_wins": int(self.hedge_wins),
                "heartbeat_drops": int(self.heartbeat_drops),
                "rereplication_bytes": int(self.rereplication_bytes),
                "rereplication_transfers": int(self.rereplication_transfers),
                "transitions": dict(self.health_transitions),
                "recovery_seconds": [round(float(s), 9) for s in self.recovery_seconds],
                "restored": bool(self.restored),
            }
        return doc


#: queries per vectorised planning pass; bounds the planner's temporaries
#: at ``_PLAN_CHUNK * khop_cap`` arc slots however long the trace is.
_PLAN_CHUNK = 1024


def _plan_demand(
    assignment: PartitionAssignment, trace: QueryTrace, block_size: int, chunk: int = _PLAN_CHUNK
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What each query's reads cost, whatever the loop does with it.

    Everything here depends only on (trace, assignment, config), never
    on loop state, so it is computed once, vectorised, ``chunk`` queries
    at a time. Returns ``(edges, remote, ptr, block, count)``, one row
    per query: edge work (hop-1 scans the full adjacency, so
    edge-balance shows up as work; hop 2 adds the degrees of a
    deterministic capped prefix of the neighbour list), remote reads
    (prefix neighbours outside the query's home partition), and the
    ``(cache block, vertex count)`` pairs of target + prefix, ascending
    by block, in ``block/count[ptr[i]:ptr[i + 1]]``. A walk query's row
    is its start vertex alone; its steps are drawn in the loop.
    """
    graph, parts, spec = assignment.graph, assignment.parts, trace.spec
    q, verts = trace.num_queries, trace.vertex
    homes = parts[verts]
    deg = np.where(trace.kind == KIND_KHOP, graph.degrees[verts], 0)
    span = np.minimum(deg, spec.khop_cap)
    edges = deg.astype(np.float64)  # integer-valued throughout: sums are exact in any order
    remote = np.zeros(q, dtype=np.int64)
    ptr = np.zeros(q + 1, dtype=np.int64)
    blocks, counts = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    nblocks = graph.num_vertices // block_size + 1
    for lo in range(0, q, chunk):
        part = slice(lo, min(lo + chunk, q))
        width, local = span[part], np.arange(part.stop - lo)
        owner = np.repeat(local, width)  # chunk-local query of each arc slot
        first = graph.indptr[verts[part]] - (np.cumsum(width) - width)
        nbrs = graph.take_arcs(np.arange(owner.size) + np.repeat(first, width)).astype(np.int64)
        remote[part] = np.bincount(owner[parts[nbrs] != homes[part][owner]], minlength=local.size)
        if spec.khop == 2:
            edges[part] += np.bincount(owner, weights=graph.degrees[nbrs], minlength=local.size)
        keys, per_key = np.unique(
            np.concatenate([local, owner]) * nblocks
            + np.concatenate([verts[part], nbrs]) // block_size,
            return_counts=True,
        )
        row, block = np.divmod(keys, nblocks)
        ptr[lo + 1 : part.stop + 1] = np.bincount(row, minlength=local.size)
        blocks.append(block.astype(np.int32))
        counts.append(per_key.astype(np.int32))
    return edges, remote, np.cumsum(ptr), np.concatenate(blocks), np.concatenate(counts)


# Event codes, also the index into ``_Run.run``'s handler tuple. The heap
# orders by (time, seq): arrivals own seqs 0..q-1 in trace order, every
# later event draws from ``next_seq`` — no float tie decides an ordering.
_ARRIVE, _DONE, _TICK, _RESTART, _TRANSFER, _HEDGE = range(6)


class _Run:
    """Mutable state of one serving run and the steps that advance it.

    One handler per event kind (``arrive``, ``batch_done``, ``tick``,
    ``restart``, ``transfer``, ``hedge``) over the shared steps
    ``route`` → ``admit``/``enqueue`` → ``start_batch`` → ``serve_batch``
    and ``drain``; accounting accumulates straight into ``result``, the
    four once-per-event counters via lists copied in when the loop ends.
    A single-holder plan is the degenerate case: ``route`` has one
    candidate, nothing is re-dispatched or hedged, and the heartbeat
    ticks find every machine healthy.
    """

    def __init__(self, sim: "ServingSimulator", trace: QueryTrace) -> None:
        cfg = self.cfg = sim.config
        self.seed = sim.seed
        self.assignment = assignment = sim.assignment
        self.trace = trace
        k = assignment.num_parts
        q = trace.num_queries
        with telemetry.active().span("serving.replication.plan"):
            self.plan = plan_replicas(
                assignment, cfg.replication_factor, slack=cfg.replica_slack
            )
        self.monitor = HealthMonitor(
            k,
            heartbeat_interval=cfg.heartbeat_interval,
            suspect_after=cfg.suspect_after,
            dead_after=cfg.dead_after,
        )
        self.cache = cache = PartitionAwareCache(
            k, block_size=cfg.cache_block_size, capacity=cfg.cache_blocks
        )
        self.part_of_query = assignment.parts[trace.vertex].astype(np.int64)
        self.home = self.part_of_query.tolist()
        with telemetry.active().span("serving.demand.plan", queries=q):
            cache.attach(_plan_demand(assignment, trace, cfg.cache_block_size), assignment.parts)
        # where the batch step leaves the edge work, remote reads and fetched blocks
        self.work_out, self.reads_out = cache.context.slots.view(np.float64), cache.context.slots
        # The chaos plan is read once per run: sites no rule names are
        # never looked up in the loop.
        chaos = active_plan()
        sites = {rule.site for rule in chaos.rules} if chaos is not None else set()
        self.replica_chaos = bool(sites & {SITE_REPLICA_CRASH, SITE_HEARTBEAT_DROP})
        self.batch_chaos = bool(sites & {SITE_CACHE, SITE_MACHINE})
        self.result = ServingResult(
            num_machines=k,
            duration=float(trace.spec.duration),
            latency=np.full(q, np.nan, dtype=np.float64),
            shed=np.zeros(q, dtype=bool),
            kind=trace.kind.copy(),
            machine_of_query=self.part_of_query.copy(),
            queries=np.zeros(k, dtype=np.int64),
            shed_per_machine=np.zeros(k, dtype=np.int64),
            batches=np.zeros(k, dtype=np.int64),
            degraded_batches=np.zeros(k, dtype=np.int64),
            cache_flushes=np.zeros(k, dtype=np.int64),
            busy_seconds=np.zeros(k, dtype=np.float64),
            messages=np.zeros(k, dtype=np.int64),
            cache_stats={},
            makespan=0.0,
            # Not a code path: only whether the replication block is reported.
            replicated=(
                cfg.replication_factor > 1 or cfg.hedge_after > 0.0 or self.replica_chaos
            ),
            replication_factor=int(cfg.replication_factor),
            plan_digest=self.plan.digest(),
            slo_seconds=float(cfg.slo_seconds),
        )

        self.queries, self.batches, self.messages = [0] * k, [0] * k, [0] * k
        self.busy_seconds = [0.0] * k
        self.walk_seeds = [np.empty((0, 4), np.uint64)] * k  # per machine, row = batch id
        self.queue: list[deque] = [deque() for _ in range(k)]  # waiting, FIFO
        self.inflight: list[list[int]] = [[] for _ in range(k)]  # batch in service
        self.epoch = [0] * k  # bumped to fence a lost batch's completion
        self.crashed = [False] * k
        self.transfers_left = [0] * k
        self.hedging = cfg.hedge_after > 0.0 and cfg.replication_factor > 1
        self.copies: dict[int, list[int]] = {}  # machines a hedged query sits on
        self.hedge_machine: dict[int, int] = {}
        self.times = trace.times.tolist()
        self.last_arrival = self.times[-1] if q else 0.0

        self.heap: list[tuple[float, int, int, int, int]] = [
            (t, i, _ARRIVE, i, 0) for i, t in enumerate(self.times)
        ]
        heapq.heapify(self.heap)
        self.next_seq = q

    # -- the loop ------------------------------------------------------
    def run(self) -> ServingResult:
        """Pop events in (time, seq) order until none is left."""
        handlers = (self.arrive, self.batch_done, self.tick, self.restart, self.transfer, self.hedge)
        heap = self.heap
        pop = heapq.heappop
        self.push(self.cfg.heartbeat_interval, _TICK, 1)
        while heap:
            now, _, code, a, b = pop(heap)
            handlers[code](now, a, b)

        res, monitor = self.result, self.monitor
        for name in ("queries", "batches", "messages", "busy_seconds"):
            getattr(res, name)[:] = getattr(self, name)
        end = max(res.makespan, self.last_arrival)
        if monitor.ledger:
            end = max(end, monitor.ledger[-1].time)
        monitor.finish(end)
        res.cache_stats = self.cache.stats()
        res.health_ledger = monitor.ledger_rows()
        res.health_transitions = monitor.transition_counts()
        res.recovery_seconds = monitor.recovery_seconds()
        res.state_seconds = [dict(s) for s in monitor.state_seconds]
        res.restored = monitor.all_healthy()
        return res

    def push(self, time: float, code: int, a: int, b: int = 0) -> None:
        heapq.heappush(self.heap, (time, self.next_seq, code, a, b))
        self.next_seq += 1

    # -- shared steps --------------------------------------------------
    def route(self, p: int, exclude=()) -> list[int]:
        """Healthy holders of ``p`` outside ``exclude``, least-loaded first.

        Ties prefer the primary (its cache is warmest for ``p``), then
        ascending machine id — deterministic either way. A lone
        candidate (single-holder plan, or every other holder down) needs
        no ordering.
        """
        # once per arrival, so monitor.routable(m) is inlined
        holders, state = self.plan.holders[p], self.monitor.state
        live = [m for m in holders if state[m] == HEALTHY and m not in exclude]
        if len(live) > 1:
            primary = holders[0]
            queue, inflight = self.queue, self.inflight
            live.sort(
                key=lambda m: (len(queue[m]) + (1 if inflight[m] else 0), m != primary, m)
            )
        return live

    def enqueue(self, qi: int, now: float, candidates: list[int]) -> int:
        """Queue ``qi`` on the first candidate with room; -1 if none has."""
        limit = self.cfg.queue_limit
        for m in candidates:
            queue = self.queue[m]
            if len(queue) < limit:
                queue.append(qi)
                self.queries[m] += 1
                if self.hedging:
                    self.copies.setdefault(qi, []).append(m)
                if not self.inflight[m]:
                    self.start_batch(m, now)
                return m
        return -1

    def admit(self, qi: int, now: float, exclude=()) -> bool:
        """Enqueue ``qi`` on the best healthy replica; False = shed."""
        res = self.result
        p = self.home[qi]
        candidates = self.route(p, exclude)
        if self.enqueue(qi, now, candidates) >= 0:
            return True
        res.shed[qi] = True
        if candidates:
            res.shed_per_machine[candidates[0]] += 1
        else:
            res.shed_per_machine[p] += 1
            res.unavailable_shed += 1
        return False

    def start_batch(self, m: int, now: float) -> None:
        if self.crashed[m]:
            # A crashed machine answers nothing; arrivals the router
            # still sends it (detection gap) wait in its queue until
            # the drain re-dispatches them.
            return
        res, queue = self.result, self.queue[m]
        latency, batch_max, hedging = res.latency, self.cfg.batch_max, self.hedging
        batch: list[int] = []
        # Hedge losers cancel here: a query another replica already
        # answered is skipped before it costs any service time. Without
        # hedging a query sits in one queue only, so none is answered.
        while queue and len(batch) < batch_max:
            qi = queue.popleft()
            if not hedging or math.isnan(latency[qi]):
                batch.append(qi)
        if not batch:
            return
        svc = self.serve_batch(m, batch)
        self.batches[m] += 1
        self.busy_seconds[m] += svc
        self.inflight[m] = batch
        done = now + svc
        res.makespan = max(res.makespan, done)
        self.push(done, _DONE, m, self.epoch[m])

    def serve_batch(self, m: int, batch: list[int]) -> float:
        """Service seconds for one batch, with side-effect accounting.

        Runs the batch's walkers, then accounts its demand-table rows and
        their visits in one ``serve_reads`` call. Remote reads are counted
        against each query's own home partition (the data the serving
        replica holds locally) — on a single-holder plan that is
        uniformly ``m``, under replication a batch may mix partitions.
        """
        cfg, res, trace = self.cfg, self.result, self.trace
        kind, vertex, home = trace.kind, trace.vertex, self.home
        batch_id = self.batches[m]
        visited, visitor_homes = [], []  # every vertex a walker stepped to, and its home

        # walk queries: KnightKing-style uniform transitions, stepped per
        # walker (a batch holds at most ``batch_max``). The draws are the
        # ones derive_rng gives for (seed, _SALT_WALK, m, batch_id), seeded
        # from the machine's state table (1 024 rows, doubled as batches
        # pass its end), so runs replay bit-identically — they depend on
        # who shares the batch, so they cannot be planned ahead. A step
        # takes one double per live walker: zip pulls ``positions`` first,
        # so the tail that dead-end walkers leave unused is never read.
        walkers = [qi for qi in batch if kind.item(qi) == KIND_WALK]
        if walkers:
            positions, homes = [vertex.item(qi) for qi in walkers], [home[qi] for qi in walkers]
            graph = self.assignment.graph
            degrees, indptr = graph.degrees, graph.indptr
            seeds, walk_steps = self.walk_seeds[m], trace.spec.walk_steps
            if batch_id >= len(seeds):
                rows = 1024 << max(0, batch_id.bit_length() - 10)
                seeds = self.walk_seeds[m] = seed_states(np.arange(rows), self.seed, _SALT_WALK, m)
            wrng = rng_from_state(seeds[batch_id])
            draws = iter(wrng.random(len(positions) * walk_steps).tolist())
            for _ in range(walk_steps):
                slots, moved = [], []
                for pos, h, u in zip(positions, homes, draws):
                    deg = degrees.item(pos)
                    if deg:  # a dead-end walker stops, its draw spent
                        slots.append(indptr.item(pos) + min(int(u * deg), deg - 1))
                        moved.append(h)
                if not slots:
                    break
                positions, homes = graph.take_arcs(slots).tolist(), moved
                visited += positions
                visitor_homes += homes

        # The batch's demand rows and the walkers' visits, merged per cache block and
        # applied to m's LRU: one checked call into _serve.c (None when no walker moved).
        steps = len(visited)
        walked = (array("q", visited), array("q", visitor_homes)) if steps else (None, None)
        native.call("serve_reads", self.cache.context, m, array("q", batch), *walked)
        edge_work, remote = self.work_out.item(WORK), self.reads_out.item(READS)
        fetched = self.reads_out.item(FETCHED)
        self.messages[m] += remote

        work = cfg.cost.compute_seconds(steps=steps, edges=edge_work, vertices=len(batch))
        svc = float(work if isinstance(work, float) else work[m])  # per-machine cores
        if remote:
            svc += cfg.network.request_cost(remote)
        if fetched:
            svc += cfg.network.request_cost(fetched, cfg.block_bytes)

        if self.batch_chaos:
            key = f"m{m}:b{batch_id}"
            try:
                maybe_inject(SITE_CACHE, key)
            except (ChaosError, OSError):
                self.cache.flush(m)
                res.cache_flushes[m] += 1
            try:
                maybe_inject(SITE_MACHINE, key)
            except (ChaosError, OSError):
                svc *= cfg.slowdown_factor
                res.degraded_batches[m] += 1
        return svc

    def drain(self, m: int, now: float) -> None:
        """Suspect/dead: stop routing; move waiting (and, for a
        crashed or fenced machine, in-flight) work to survivors."""
        stranded = list(self.queue[m])
        self.queue[m].clear()
        if self.crashed[m] or self.monitor.state[m] == DEAD:
            # The in-flight batch is lost (crash) or fenced (false
            # positive gone dead): cancel its completion event.
            self.epoch[m] += 1
            stranded = self.inflight[m] + stranded
            self.inflight[m] = []
        res = self.result
        for qi in stranded:
            if math.isnan(res.latency[qi]) and not res.shed[qi]:
                res.redispatched += self.admit(qi, now, (m,))  # False: shed instead

    # -- event handlers: (now, a, b) as popped from the heap -----------
    def arrive(self, now: float, qi: int, _b: int) -> None:
        if self.admit(qi, now) and self.hedging:
            self.push(now + self.cfg.hedge_after, _HEDGE, qi)

    def batch_done(self, now: float, m: int, epoch: int) -> None:
        if epoch != self.epoch[m]:
            return  # cancelled: the machine crashed/was fenced
        res, times = self.result, self.times
        latency, hedging = res.latency, self.hedging
        for qi in self.inflight[m]:
            if not hedging or math.isnan(latency[qi]):
                latency[qi] = now - times[qi]
                res.machine_of_query[qi] = m
                if hedging and self.hedge_machine.get(qi) == m:
                    res.hedge_wins += 1
        self.inflight[m] = []
        if self.queue[m]:
            self.start_batch(m, now)

    def tick(self, now: float, j: int, _b: int) -> None:
        """Heartbeat ``j``: inject crashes/drops, detect, drain, re-arm."""
        cfg, res, monitor, crashed = self.cfg, self.result, self.monitor, self.crashed
        machines = range(res.num_machines)
        # Crash/drop rules only fire while arrivals are still due, so
        # every run terminates; a plan without any skips the lookups.
        in_window = now <= self.last_arrival
        inject = in_window and self.replica_chaos
        for m in machines:
            if monitor.state[m] in (DEAD, RECOVERING):
                continue
            if not crashed[m] and inject:
                try:
                    maybe_inject(SITE_REPLICA_CRASH, f"m{m}:h{j}")
                except (ChaosError, OSError):
                    crashed[m] = True
                    self.epoch[m] += 1
                    res.crashes += 1
            if crashed[m]:
                continue  # a crashed machine emits nothing
            if inject:
                try:
                    maybe_inject(SITE_HEARTBEAT_DROP, f"m{m}:h{j}")
                except (ChaosError, OSError):
                    res.heartbeat_drops += 1
                    continue
            monitor.beat(m, now)
        for m in machines:
            change = monitor.check(m, now)
            if change in (SUSPECT, DEAD):
                self.drain(m, now)
                if change == DEAD:
                    self.push(now + cfg.restart_delay, _RESTART, m)
        pending = any(self.queue[m] or self.inflight[m] for m in machines)
        if in_window or pending or not monitor.all_healthy():
            self.push((j + 1) * cfg.heartbeat_interval, _TICK, j + 1)

    def restart(self, now: float, m: int, _b: int) -> None:
        """dead → recovering: schedule the re-replication chain.

        Heaviest partition first; each transfer is costed as wire bytes
        through the shared request_cost formula and carries them as its
        event payload; the machine is readmitted when the last one lands.
        """
        cfg = self.cfg
        self.monitor.transition(m, now, RECOVERING, "restart")
        part_v = self.assignment.vertex_counts.tolist()
        part_e = self.assignment.edge_counts.tolist()
        owned = sorted(self.plan.partitions_of(m), key=lambda p: (-(part_v[p] + part_e[p]), p))
        t = now
        for p in owned:
            nbytes = part_v[p] * cfg.replica_vertex_bytes + part_e[p] * cfg.replica_edge_bytes
            t += cfg.network.request_cost(nbytes, 1.0)
            self.push(t, _TRANSFER, m, nbytes)
        self.transfers_left[m] = len(owned)

    def transfer(self, now: float, m: int, nbytes: int) -> None:
        res = self.result
        res.rereplication_bytes += nbytes
        res.rereplication_transfers += 1
        res.makespan = max(res.makespan, now)
        self.transfers_left[m] -= 1
        if not self.transfers_left[m]:
            # Re-replication complete: readmit with a cold cache.
            self.cache.reset(m)
            self.crashed[m] = False
            self.monitor.readmit(m, now)

    def hedge(self, now: float, qi: int, _b: int) -> None:
        """Duplicate a still-waiting query onto a replica it is not on."""
        res = self.result
        if not math.isnan(res.latency[qi]) or res.shed[qi]:
            return
        candidates = self.route(self.home[qi], self.copies.get(qi, ()))
        m = self.enqueue(qi, now, candidates)
        if m >= 0:
            self.hedge_machine[qi] = m
            res.hedges += 1


class ServingSimulator:
    """Event-driven serving run over one partition assignment."""

    def __init__(
        self,
        assignment: PartitionAssignment,
        config: ServingConfig | None = None,
        *,
        seed: int = 0,
    ) -> None:
        self.assignment = assignment
        self.config = config if config is not None else ServingConfig()
        self.seed = int(seed)

    def run(self, trace: QueryTrace) -> ServingResult:
        """Serve the whole trace; returns the deterministic result.

        Every run goes through the same event loop. What K > 1, hedging
        or a chaos rule at the replication sites changes is the report:
        only then is ``ServingResult.replicated`` set, which makes
        ``summary()``, telemetry and the ``servetrace`` artifact carry
        the replication block.
        """
        n = self.assignment.graph.num_vertices
        if trace.vertex.size and not (0 <= trace.vertex.min() and trace.vertex.max() < n):
            raise ConfigurationError(
                "trace targets vertices outside the assigned graph"
            )
        state = _Run(self, trace)
        k, q = self.assignment.num_parts, trace.num_queries
        with telemetry.active().span("serving.event_loop", machines=k, queries=q):
            result = state.run()
        self._record_telemetry(result)
        return result

    def _record_telemetry(self, result: ServingResult) -> None:
        """Aggregate metrics, recorded once after the event loop."""
        if not telemetry.enabled():
            return
        reg = telemetry.active()
        reg.counter("serving.queries").inc(result.num_queries)
        reg.counter("serving.shed").inc(int(result.shed.sum()))
        reg.counter("serving.batches").inc(int(result.batches.sum()))
        reg.counter("serving.messages").inc(int(result.messages.sum()))
        reg.counter("serving.degraded_batches").inc(int(result.degraded_batches.sum()))
        reg.counter("serving.cache_flushes").inc(int(result.cache_flushes.sum()))
        reg.counter("serving.cache.hits").inc(result.cache_stats["hits"])
        reg.counter("serving.cache.misses").inc(result.cache_stats["misses"])
        reg.gauge("serving.cache.hit_rate").set(result.cache_stats["hit_rate"])
        hist = reg.bounded_histogram("serving.latency_seconds")
        for value in result.completed_latencies().tolist():
            hist.observe(value)
        if not result.replicated:
            return
        reg.counter("serving.replica.crashes").inc(result.crashes)
        reg.counter("serving.replica.redispatched").inc(result.redispatched)
        reg.counter("serving.replica.unavailable_shed").inc(result.unavailable_shed)
        reg.counter("serving.replica.hedges").inc(result.hedges)
        reg.counter("serving.replica.hedge_wins").inc(result.hedge_wins)
        reg.counter("serving.replica.rereplication_bytes").inc(
            result.rereplication_bytes
        )
        reg.counter("serving.replica.rereplication_transfers").inc(
            result.rereplication_transfers
        )
        reg.counter("serving.health.heartbeat_drops").inc(result.heartbeat_drops)
        for key, count in result.health_transitions.items():
            old, new = key.split("->")
            reg.counter("serving.health.transitions", old=old, new=new).inc(count)
        for per_machine in result.state_seconds:
            for state, seconds in per_machine.items():
                if seconds > 0.0:
                    reg.bounded_histogram(
                        "serving.health.state_seconds", state=state
                    ).observe(seconds)
        reg.gauge("serving.availability").set(result.availability())
