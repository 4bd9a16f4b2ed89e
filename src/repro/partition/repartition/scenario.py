"""Planted-partition churn scenarios for the repartition daemon.

A scenario is a *fully seeded* description of a long-running workload:
a planted-partition base graph (``num_groups`` ground-truth
communities), a shuffled arrival order, and a churn tail of seeded
edge insertions/deletions plus vertex departures/rejoins. Because every
stochastic choice derives from the scenario seed via
:func:`repro.utils.rng.derive_rng` with a distinct salt, two daemons
fed the same scenario see the same event stream byte for byte — the
foundation of the ledger-identity acceptance check.

The churn tail is community-respecting by default (new edges are drawn
inside a ground-truth group), so a good repartitioner should *hold* its
recovered-community quality under churn. With ``drift > 0`` a fraction
of inserts crosses groups, eroding the planted structure — the regime
where periodic full re-partitioning starts to pay.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.graph.generators import planted_partition
from repro.utils import canon
from repro.utils.rng import derive_rng
from repro.utils.validation import check_positive, check_probability

__all__ = ["ChurnEvent", "ChurnScenario"]


@dataclass(frozen=True)
class ChurnEvent:
    """One step of the daemon's input stream.

    ``kind`` is one of ``add_vertex`` (with ``neighbors`` — the full
    adjacency known at arrival time), ``remove_vertex``, ``add_edge``,
    ``remove_edge`` (with ``u``/``v`` endpoints).
    """

    kind: str
    u: int
    v: int = -1
    neighbors: tuple[int, ...] = ()


@dataclass(frozen=True)
class ChurnScenario:
    """Seeded planted-partition workload: arrivals then a churn tail."""

    num_vertices: int = 2000
    num_groups: int = 4
    intra_degree: float = 8.0
    inter_degree: float = 1.0
    churn_events: int = 2000
    delete_frac: float = 0.25
    drift: float = 0.0
    seed: int = 0
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_positive("num_vertices", self.num_vertices)
        check_positive("num_groups", self.num_groups)
        check_probability("delete_frac", self.delete_frac)
        check_probability("drift", self.drift)
        if self.churn_events < 0:
            raise ConfigurationError(
                f"churn_events must be >= 0, got {self.churn_events}"
            )

    # -- ground truth ---------------------------------------------------
    def base(self):
        """``(graph, labels)`` of the planted base (memoised)."""
        if "base" not in self._cache:
            rng = derive_rng(self.seed, 0x5EED)
            self._cache["base"] = planted_partition(
                self.num_vertices,
                self.num_groups,
                intra_degree=self.intra_degree,
                inter_degree=self.inter_degree,
                rng=rng,
            )
        return self._cache["base"]

    def labels(self) -> np.ndarray:
        """Ground-truth community label per vertex id."""
        return self.base()[1]

    def _group_bounds(self, group: int) -> tuple[int, int]:
        """Contiguous id range ``[lo, hi)`` of a ground-truth group."""
        n, g = self.num_vertices, self.num_groups
        lo = int(np.searchsorted(self.labels(), group, side="left"))
        hi = int(np.searchsorted(self.labels(), group, side="right"))
        if lo == hi:  # defensive: labels are (v*g)//n, never empty
            lo, hi = 0, n
        return lo, hi

    # -- event stream ---------------------------------------------------
    def arrival_events(self) -> list[ChurnEvent]:
        """Seeded-shuffled arrival of every base vertex with its full
        base adjacency (streaming-ingest semantics)."""
        graph, _ = self.base()
        rng = derive_rng(self.seed, 0xA44)
        order = rng.permutation(self.num_vertices)
        return [
            ChurnEvent(
                kind="add_vertex",
                u=int(v),
                neighbors=tuple(int(w) for w in graph.neighbors(int(v))),
            )
            for v in order
        ]

    def churn_tail(self) -> list[ChurnEvent]:
        """The seeded churn tail after all arrivals.

        Maintained live against a mutable edge snapshot so deletions
        target edges that actually exist and re-inserts of a departed
        vertex carry its *current* adjacency. Vertex churn removes a
        random resident and rejoins it a few steps later, exercising
        the suspended-stub path of :class:`DynamicPartitioner`.
        """
        graph, labels = self.base()
        rng = derive_rng(self.seed, 0xC0DE)
        n = self.num_vertices
        # live undirected edge list with O(1) swap-delete
        edges: list[tuple[int, int]] = []
        index: dict[tuple[int, int], int] = {}
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u in range(n):
            for w in graph.neighbors(u):
                w = int(w)
                if u < w:
                    index[(u, w)] = len(edges)
                    edges.append((u, w))
                    adj[u].add(w)
                    adj[w].add(u)

        def _drop(u: int, w: int) -> None:
            key = (u, w) if u < w else (w, u)
            pos = index.pop(key)
            last = edges.pop()
            if pos < len(edges):
                edges[pos] = last
                index[last] = pos
            adj[key[0]].discard(key[1])
            adj[key[1]].discard(key[0])

        def _put(u: int, w: int) -> bool:
            key = (u, w) if u < w else (w, u)
            if key in index or u == w:
                return False
            index[key] = len(edges)
            edges.append(key)
            adj[key[0]].add(key[1])
            adj[key[1]].add(key[0])
            return True

        resident = list(range(n))
        resident_pos = {v: i for i, v in enumerate(resident)}
        departed: list[int] = []

        def _leave(v: int) -> None:
            pos = resident_pos.pop(v)
            last = resident.pop()
            if pos < len(resident):
                resident[pos] = last
                resident_pos[last] = pos
            departed.append(v)

        def _rejoin(v: int) -> None:
            departed.remove(v)
            resident_pos[v] = len(resident)
            resident.append(v)

        out: list[ChurnEvent] = []
        for _ in range(self.churn_events):
            roll = rng.random()
            if roll < 0.08 and resident and len(resident) > self.num_groups:
                # vertex departure
                v = resident[int(rng.integers(len(resident)))]
                _leave(v)
                out.append(ChurnEvent(kind="remove_vertex", u=v))
            elif roll < 0.16 and departed:
                # rejoin with the vertex's *current* adjacency
                v = departed[int(rng.integers(len(departed)))]
                _rejoin(v)
                out.append(
                    ChurnEvent(
                        kind="add_vertex",
                        u=v,
                        neighbors=tuple(sorted(adj[v])),
                    )
                )
            elif roll < 0.16 + (1.0 - 0.16) * self.delete_frac and edges:
                # deletions must name two *resident* endpoints, or the
                # daemon could not apply them
                for _attempt in range(16):
                    u, w = edges[int(rng.integers(len(edges)))]
                    if u in resident_pos and w in resident_pos:
                        _drop(u, w)
                        out.append(ChurnEvent(kind="remove_edge", u=u, v=w))
                        break
            else:
                # insert: within-group unless this draw drifts
                for _attempt in range(16):
                    u = resident[int(rng.integers(len(resident)))]
                    if rng.random() < self.drift:
                        w = int(rng.integers(n))
                    else:
                        lo, hi = self._group_bounds(int(labels[u]))
                        w = int(rng.integers(lo, hi))
                    if w != u and w in resident_pos and _put(u, w):
                        out.append(ChurnEvent(kind="add_edge", u=u, v=w))
                        break
        return out

    def events(self) -> list[ChurnEvent]:
        """The full daemon input: arrivals followed by the churn tail."""
        return self.arrival_events() + self.churn_tail()

    # -- identity -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "num_groups": self.num_groups,
            "intra_degree": self.intra_degree,
            "inter_degree": self.inter_degree,
            "churn_events": self.churn_events,
            "delete_frac": self.delete_frac,
            "drift": self.drift,
            "seed": self.seed,
        }

    def digest(self) -> str:
        """SHA-256 of the canonical parameter dict — the scenario id."""
        return canon.digest(self.to_dict())
