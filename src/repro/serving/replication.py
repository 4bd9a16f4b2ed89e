"""Deterministic k-way replica placement with 2D balance.

Replication is what turns the serving simulator from a demo into a
system: a partition whose single host dies takes its whole traffic
share down, so each partition's blocks are placed on
``replication_factor`` machines and the router fails over between
them. Placement is the same multi-dimensional balance problem the
paper solves for primaries — every machine should carry a fair share
of replica *vertices* and replica *edges* at once, because a
vertex-heavy replica set overflows the block cache while an edge-heavy
one inflates per-batch work (cf. Avdiukhin et al.'s multi-dimensional
balanced partitioning, PAPERS.md).

The placement is a two-pass sweep in the 2PS style (clustering pass
then assignment pass):

1. **Frozen scoring** — per-partition loads ``(|V_p|, |E_p|)`` and the
   per-machine base load from primary ownership are computed once and
   frozen; partitions are ordered by ``(-load, id)`` so the heaviest
   replica sets are placed while the most slack remains.
2. **Greedy assignment** — each replica slot goes to the machine with
   the lowest projected normalised ``|V| + |E|`` load among machines
   not already holding a copy (**anti-affinity**: no two replicas of a
   partition ever share a machine), ties broken by machine id.

The result canonicalises to a ``replica-plan/v1`` JSON document with a
SHA-256 digest, so two runs with the same assignment and factor carry
byte-identical plans, and a plan drift between PRs shows up as a
digest diff. A post-placement slack check
(:func:`ensure_within_slack`) raises
:class:`~repro.errors.PartitionError` when a machine's hosted load
exceeds ``(1 + slack)`` times the worse of 1.0 and the *primary*
max/mean ratio on that axis — primaries are pinned, so the placer is
accountable for the imbalance replication adds, not for imbalance the
partitioner shipped in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ConfigurationError, PartitionError
from repro.partition.assignment import PartitionAssignment
from repro.utils import canon

__all__ = ["ReplicaPlan", "ensure_within_slack", "plan_replicas"]

PLAN_SCHEMA = "replica-plan/v1"


@dataclass(frozen=True)
class ReplicaPlan:
    """Which machines hold each partition's blocks (primary first).

    Attributes
    ----------
    num_machines:        cluster size ``M`` (== partition count).
    replication_factor:  copies per partition, ``1 <= K <= M``.
    holders:             per-partition machine tuples; ``holders[p][0]``
                         is the primary (always machine ``p``).
    hosted_v, hosted_e:  per-machine hosted vertex/arc loads summed
                         over every replica the machine carries.
    """

    num_machines: int
    replication_factor: int
    holders: tuple[tuple[int, ...], ...]
    hosted_v: tuple[int, ...]
    hosted_e: tuple[int, ...]

    def partitions_of(self, machine: int) -> tuple[int, ...]:
        """Partitions whose blocks ``machine`` carries, ascending."""
        return tuple(
            p for p, hs in enumerate(self.holders) if machine in hs
        )

    def balance(self) -> dict:
        """Max/mean hosted-load ratios on both axes (1.0 = perfect)."""
        v = np.asarray(self.hosted_v, dtype=np.float64)
        e = np.asarray(self.hosted_e, dtype=np.float64)
        return {
            "vertex_ratio": float(v.max() / v.mean()) if v.mean() else 1.0,
            "edge_ratio": float(e.max() / e.mean()) if e.mean() else 1.0,
        }

    def to_dict(self) -> dict:
        """JSON-ready canonical form."""
        return {
            "schema": PLAN_SCHEMA,
            "num_machines": int(self.num_machines),
            "replication_factor": int(self.replication_factor),
            "holders": [list(hs) for hs in self.holders],
            "hosted_v": list(self.hosted_v),
            "hosted_e": list(self.hosted_e),
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact separators)."""
        return canon.dumps(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of the canonical JSON — the plan's identity."""
        return canon.digest(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ReplicaPlan":
        """Rehydrate a ``replica-plan/v1`` document."""
        doc = canon.loads(text, "replica plan")
        canon.check_tag(doc, "schema", PLAN_SCHEMA, "replica plan")
        canon.check_keys(doc, "replica plan", ["schema", *(f.name for f in fields(cls))])
        return cls(
            num_machines=int(doc["num_machines"]),
            replication_factor=int(doc["replication_factor"]),
            holders=tuple(tuple(int(m) for m in hs) for hs in doc["holders"]),
            hosted_v=tuple(int(x) for x in doc["hosted_v"]),
            hosted_e=tuple(int(x) for x in doc["hosted_e"]),
        )


def ensure_within_slack(
    plan: ReplicaPlan,
    slack: float,
    *,
    base_vertex_ratio: float = 1.0,
    base_edge_ratio: float = 1.0,
) -> None:
    """Raise :class:`PartitionError` if hosted loads blow the slack.

    Per axis the bound is ``(1 + slack) * max(1.0, base ratio)`` where
    the base ratio is the primary assignment's own max/mean — an
    edge-skewed partitioner (e.g. vertex-chunking) keeps its skew
    through replication without tripping the guard, but the placer may
    not *add* more than ``slack`` relative imbalance of its own.
    """
    ratios = plan.balance()
    limit_v = (1.0 + slack) * max(1.0, float(base_vertex_ratio))
    limit_e = (1.0 + slack) * max(1.0, float(base_edge_ratio))
    if ratios["vertex_ratio"] > limit_v or ratios["edge_ratio"] > limit_e:
        raise PartitionError(
            f"replica placement violates the balance slack: hosted max/mean "
            f"vertex {ratios['vertex_ratio']:.3f} (limit {limit_v:.3f}), "
            f"edge {ratios['edge_ratio']:.3f} (limit {limit_e:.3f})"
        )


def plan_replicas(
    assignment: PartitionAssignment,
    replication_factor: int,
    *,
    slack: float = 0.5,
) -> ReplicaPlan:
    """Place each partition's replicas across the cluster.

    Machine ``p`` is always the primary for partition ``p`` (so
    ``replication_factor=1`` reproduces today's one-owner routing
    exactly); the additional ``K-1`` copies are placed by the two-pass
    sweep described in the module docstring. Pure function of
    (assignment counts, factor) — no randomness.
    """
    k = assignment.num_parts
    if not (1 <= replication_factor <= k):
        raise ConfigurationError(
            f"replication_factor must be in [1, {k}] (anti-affinity needs "
            f"one machine per copy), got {replication_factor}"
        )
    if not (0.0 <= slack):
        raise ConfigurationError(f"slack must be non-negative, got {slack!r}")

    v = assignment.vertex_counts.astype(np.float64)
    e = assignment.edge_counts.astype(np.float64)
    # Normalisers: a dimension that is globally empty (edgeless graph)
    # contributes nothing rather than dividing by zero.
    mv = float(v.mean()) or 1.0
    me = float(e.mean()) or 1.0

    holders: list[list[int]] = [[p] for p in range(k)]
    # Pass 1 — frozen scoring: base loads from primary ownership and
    # the partition order, both fixed before any replica is placed.
    hosted_v = v.copy()
    hosted_e = e.copy()
    order = sorted(range(k), key=lambda p: (-(v[p] / mv + e[p] / me), p))

    # Pass 2 — greedy assignment: one replica ring at a time so every
    # partition reaches factor r before any reaches r+1.
    for _ in range(1, replication_factor):
        for p in order:
            taken = set(holders[p])
            best = min(
                (m for m in range(k) if m not in taken),
                key=lambda m: (
                    (hosted_v[m] + v[p]) / mv + (hosted_e[m] + e[p]) / me,
                    m,
                ),
            )
            holders[p].append(best)
            hosted_v[best] += v[p]
            hosted_e[best] += e[p]

    plan = ReplicaPlan(
        num_machines=k,
        replication_factor=int(replication_factor),
        holders=tuple(tuple(hs) for hs in holders),
        hosted_v=tuple(int(x) for x in hosted_v),
        hosted_e=tuple(int(x) for x in hosted_e),
    )
    ensure_within_slack(
        plan,
        slack,
        base_vertex_ratio=float(v.max() / mv) if v.any() else 1.0,
        base_edge_ratio=float(e.max() / me) if e.any() else 1.0,
    )
    return plan
