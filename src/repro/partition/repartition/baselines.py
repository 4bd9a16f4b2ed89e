"""Baselines the churn experiment scores the daemon against.

Two ends of the migration-cost spectrum:

- **Static hash** — ``splitmix64(id) % k``, the zero-migration lower
  bound. Oblivious to structure; on the contiguous-block planted
  scenarios its ARI is ≈ 0, so any positive daemon ARI is signal.
- **Periodic full BPart** — rerun the paper's two-phase scheme on the
  live snapshot at every epoch boundary and adopt its assignment
  wholesale. The quality upper bound, but each rerun migrates every
  vertex whose label changed — orders of magnitude over the daemon's
  budget. The acceptance bar is the daemon within 10 % of this ARI at
  a small fraction of the migrations.

Both replay the *same* event stream through their own bookkeeping (a
plain adjacency mirror), so the three curves in the experiment are
measured on identical graph states.
"""

from __future__ import annotations

import numpy as np

from repro.graph.builder import from_edges
from repro.partition.bpart import BPartPartitioner
from repro.partition.metrics import adjusted_rand_index
from repro.partition.repartition.scenario import ChurnEvent
from repro.utils.rng import hash_u64

__all__ = ["static_hash_parts", "static_hash_ari", "PeriodicBPartBaseline"]


def static_hash_parts(ids, num_parts: int, *, seed: int = 0) -> np.ndarray:
    """Hash-partition a set of vertex ids (the paper's Hash baseline)."""
    arr = np.asarray(list(ids), dtype=np.int64)
    return (hash_u64(arr, seed) % np.uint64(num_parts)).astype(np.int64)


def static_hash_ari(ids, labels, num_parts: int, *, seed: int = 0) -> float:
    """Recovered-community ARI of the static hash assignment."""
    arr = np.asarray(sorted(ids), dtype=np.int64)
    pred = static_hash_parts(arr, num_parts, seed=seed)
    return adjusted_rand_index(np.asarray(labels)[arr], pred)


class _AdjacencyMirror:
    """Minimal event-stream replayer: live resident set + adjacency."""

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.resident: set[int] = set()

    def apply(self, event: ChurnEvent) -> None:
        kind = event.kind
        if kind == "add_vertex":
            self.resident.add(event.u)
            nbrs = self.adj.setdefault(event.u, set())
            for w in event.neighbors:
                if w != event.u:
                    nbrs.add(w)
                    self.adj.setdefault(w, set()).add(event.u)
        elif kind == "remove_vertex":
            self.resident.discard(event.u)
        elif kind == "add_edge":
            self.adj.setdefault(event.u, set()).add(event.v)
            self.adj.setdefault(event.v, set()).add(event.u)
        elif kind == "remove_edge":
            self.adj.get(event.u, set()).discard(event.v)
            self.adj.get(event.v, set()).discard(event.u)

    def snapshot(self) -> tuple[list[int], np.ndarray, np.ndarray]:
        """Compacted resident↔resident edge list, one per edge."""
        ids = sorted(self.resident)
        local = {v: i for i, v in enumerate(ids)}
        pairs = sorted(
            (min(v, w), max(v, w))
            for v in ids
            for w in self.adj.get(v, ())
            if w in local and w != v
        )
        pairs = sorted(set(pairs))
        src = np.asarray([local[a] for a, _ in pairs], dtype=np.int64)
        dst = np.asarray([local[b] for _, b in pairs], dtype=np.int64)
        return ids, src, dst


class PeriodicBPartBaseline:
    """Full BPart rerun on the live snapshot at every epoch boundary.

    Tracks cumulative migrations (residents whose part changed between
    consecutive reruns) so the experiment can report the cost side of
    the quality-vs-migrations trade-off.
    """

    def __init__(
        self,
        num_parts: int,
        *,
        epoch_events: int = 500,
        seed: int = 0,
        **bpart,
    ) -> None:
        self.num_parts = int(num_parts)
        self.epoch_events = int(epoch_events)
        self.partitioner = BPartPartitioner(seed=seed, **bpart)
        self.mirror = _AdjacencyMirror()
        self.parts: dict[int, int] = {}
        self.migrations = 0
        self.repartitions = 0
        self._since = 0

    def apply(self, event: ChurnEvent) -> None:
        self.mirror.apply(event)
        self._since += 1
        if self.epoch_events and self._since >= self.epoch_events:
            self.repartition()

    def repartition(self) -> None:
        """Run BPart on the snapshot, count changed placements."""
        ids, src, dst = self.mirror.snapshot()
        if not ids:
            self._since = 0
            return
        graph = from_edges(src, dst, len(ids), directed=False)
        result = self.partitioner.partition(graph, self.num_parts)
        assignment = np.asarray(result.assignment.parts)
        for i, v in enumerate(ids):
            new = int(assignment[i])
            old = self.parts.get(v)
            if old is not None and old != new:
                self.migrations += 1
            self.parts[v] = new
        self.repartitions += 1
        self._since = 0

    def drain(self, events) -> None:
        """Apply every event, then repartition once more."""
        for ev in events:
            self.apply(ev)
        self.repartition()

    def ari(self, labels) -> float:
        """Recovered-community ARI over the current residents."""
        ids = sorted(self.mirror.resident)
        true = np.asarray(labels)[np.asarray(ids, dtype=np.int64)]
        pred = [self.parts[v] for v in ids]
        return adjusted_rand_index(true, pred)
