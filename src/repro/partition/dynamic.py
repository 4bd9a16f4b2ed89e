"""Online partitioning for growing / churning graphs.

The paper partitions static snapshots; real deployments ingest vertices
continuously. :class:`DynamicPartitioner` maintains a BPart-style
assignment **online**: each arriving vertex is scored with the weighted
indicator (Eq. 1 + 2) against the current loads, exactly like one step
of the streaming phase, and departures release their load. With a fixed
``alpha`` and vertices fed in stream order the result is *identical* to
:func:`repro.partition._streamcore.stream_partition` (tested); with
``alpha=None`` the score constant adapts to the running edge/vertex
counts, which is what an open-ended ingest needs.

Counter accounting is **exact under churn** via reverse-stub tracking:
every adjacency entry ``u → w`` a resident vertex has counted toward
its part's ``|E_i|`` is registered in a reverse *listener* index, so
when ``w`` departs the stubs its surviving neighbours counted are
released too (and restored if ``w`` rejoins). At any point in an
arbitrary add/remove/edge-churn schedule

    ``edge_counts[i] == Σ_{u resident in i} |{w ∈ adj(u) : w live}|``

where a neighbour id is *live* unless it has departed and not returned
— ids that have never arrived still count toward their lister's degree,
exactly as in the offline stream, where every vertex's full degree is
loaded regardless of how much of its neighbourhood has been seen yet.
This is what keeps :meth:`balance`, the adaptive ``alpha``, and the
running ``d̄`` trustworthy in the long-running regime the
:mod:`repro.partition.repartition` service operates in.

This is the natural incremental extension of the paper's scheme —
deliberately without the combining phase, whose all-pieces view doesn't
exist online. Periodic re-partitioning (calling BPart on a snapshot)
remains the way to recover full two-dimensional balance after heavy
churn; :meth:`DynamicPartitioner.balance` tells you when, and the
prioritized-restreaming daemon automates the loop.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.errors import PartitionError
from repro.partition.kernels.incremental import single_incremental
from repro.utils.validation import check_at_least, check_positive, check_probability

__all__ = ["DynamicPartitioner"]


class DynamicPartitioner:
    """Incrementally maintained weighted-score assignment.

    Parameters
    ----------
    num_parts:  number of parts ``k``.
    c:          Eq. 1 weighting factor (default ½).
    alpha:      fixed Eq. 2 constant, or ``None`` to adapt to the
                running graph size.
    gamma, slack: as in the streaming partitioners.
    avg_degree: prior mean degree used for the very first arrivals and
                for converting edge load into indicator units before
                the running average stabilises. With
                ``expected_vertices`` set, this prior is *pinned* (no
                adaptation) — capacity-planning mode.
    expected_vertices:
                provisioned graph size. When given (capacity planning),
                the capacity bound and d̄ are fixed up front, and feeding
                a whole graph in stream order reproduces the offline
                streaming pass — up to floating-point tie-breaks (the
                offline pass accumulates float weights sequentially
                while this class recomputes loads from exact integer
                counters, so scores can differ in the last ulp on exact
                ties). When ``None`` (open-ended ingest), both adapt to
                the running totals.

    The per-arrival decision is ``kernels.incremental.single_incremental``;
    ``kernels.scalar.single_scalar`` is its executable spec.
    """

    def __init__(
        self,
        num_parts: int,
        *,
        c: float = 0.5,
        alpha: float | None = None,
        gamma: float = 1.5,
        slack: float = 1.1,
        avg_degree: float = 10.0,
        expected_vertices: int | None = None,
    ) -> None:
        check_positive("num_parts", num_parts)
        check_probability("c", c)
        check_at_least("gamma", gamma, 1.0)
        check_positive("slack", slack)
        check_positive("avg_degree", avg_degree)
        if expected_vertices is not None:
            check_positive("expected_vertices", expected_vertices)
        self._k = int(num_parts)
        self._c = float(c)
        self._alpha = alpha
        self._gamma = float(gamma)
        self._slack = float(slack)
        self._prior_dbar = float(avg_degree)
        self._expected = int(expected_vertices) if expected_vertices else None

        self._parts: dict[int, int] = {}
        # live counted stubs per resident (|{w in adj(v): w not departed}|)
        self._degrees: dict[int, int] = {}
        # resident vertex -> its deduped adjacency ids (resident or not)
        self._adj: dict[int, set[int]] = {}
        # reverse-stub index: id w -> residents whose adjacency lists w
        self._listeners: dict[int, set[int]] = {}
        # ids that departed and have not (yet) rejoined; stubs pointing
        # at them are suspended, never silently leaked
        self._departed: set[int] = set()
        self._vcounts = np.zeros(self._k, dtype=np.int64)
        self._ecounts = np.zeros(self._k, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def num_parts(self) -> int:
        return self._k

    @property
    def num_vertices(self) -> int:
        return len(self._parts)

    @property
    def c(self) -> float:
        return self._c

    @property
    def gamma(self) -> float:
        return self._gamma

    @property
    def slack(self) -> float:
        return self._slack

    @property
    def vertex_counts(self) -> np.ndarray:
        """Live ``|V_i|`` (copy)."""
        return self._vcounts.copy()

    @property
    def edge_counts(self) -> np.ndarray:
        """Live ``|E_i|`` — counted stubs of the *current* residents per
        part (copy). Exact under churn: departures release their
        neighbours' stubs too (see module docstring)."""
        return self._ecounts.copy()

    def part_of(self, vertex: int) -> int:
        """Current part of ``vertex`` (raises if absent)."""
        try:
            return self._parts[vertex]
        except KeyError:
            raise PartitionError(f"vertex {vertex} is not present") from None

    def __contains__(self, vertex: int) -> bool:
        return vertex in self._parts

    def vertices(self):
        """Iterate over the resident vertex ids (insertion order)."""
        return iter(self._parts)

    def degree_of(self, vertex: int) -> int:
        """Live counted stubs of a resident vertex."""
        try:
            return self._degrees[vertex]
        except KeyError:
            raise PartitionError(f"vertex {vertex} is not present") from None

    def neighbors_of(self, vertex: int) -> set[int]:
        """The resident vertex's adjacency ids (copy; may include absent
        ids — the standard streaming semantics)."""
        try:
            return set(self._adj[vertex])
        except KeyError:
            raise PartitionError(f"vertex {vertex} is not present") from None

    # ------------------------------------------------------------------
    def _dbar(self) -> float:
        if self._expected is not None:
            return self._prior_dbar  # capacity-planning mode: pinned
        n = len(self._parts)
        if n == 0:
            return self._prior_dbar
        return max(self._ecounts.sum() / n, 1e-9)

    def _current_alpha(self) -> float:
        if self._alpha is not None:
            return self._alpha
        n = max(len(self._parts), 1)
        m_undirected = max(self._ecounts.sum() / 2.0, 1.0)
        return float(np.sqrt(self._k) * m_undirected / n**1.5)

    def _loads(self) -> np.ndarray:
        dbar = self._dbar()
        return self._c * self._vcounts + (1.0 - self._c) * self._ecounts / dbar

    # -- public scoring state (used by the repartition service) --------
    def live_loads(self) -> np.ndarray:
        """Current weighted indicator ``W_i`` per part (Eq. 1; copy)."""
        return self._loads()

    def live_alpha(self) -> float:
        """The Eq. 2 constant in force right now (fixed or adaptive)."""
        return self._current_alpha()

    def live_capacity(self) -> float:
        """The capacity bound ``ν·n/k`` a re-scoring pass must respect."""
        provisioned = (
            self._expected
            if self._expected is not None
            else max(len(self._parts), self._k)
        )
        return self._slack * provisioned / self._k

    def load_increment(self, vertex: int) -> float:
        """The resident vertex's contribution to its part's indicator:
        ``c + (1−c)·deg(v)/d̄`` with the live counted degree."""
        return self._c + (1.0 - self._c) * self.degree_of(vertex) / self._dbar()

    def overlap_of(self, vertex: int) -> np.ndarray:
        """``|V_i ∩ N(v)|`` per part over the *resident* neighbours."""
        overlap = np.zeros(self._k, dtype=np.float64)
        for w in self._adj.get(vertex, ()):
            part = self._parts.get(w)
            if part is not None:
                overlap[part] += 1.0
        return overlap

    # ------------------------------------------------------------------
    def _reactivate(self, vertex: int) -> None:
        """Restore the suspended stubs of residents listing a rejoiner."""
        for u in self._listeners.get(vertex, ()):
            self._degrees[u] += 1
            self._ecounts[self._parts[u]] += 1

    def add_vertex(self, vertex: int, neighbors) -> int:
        """Place an arriving vertex; returns its part.

        ``neighbors`` is the vertex's full adjacency (ids not yet
        present are counted toward its degree but contribute no overlap
        signal until they arrive — the standard streaming semantics).
        Duplicate ids and a self-loop are ignored: the offline CSR
        builder dedups parallel edges and drops self-loops at build
        time, so counting them here would inflate both the degree and
        the overlap score relative to :func:`stream_partition`.
        """
        if vertex in self._parts:
            raise PartitionError(f"vertex {vertex} already present")
        nbrs = np.unique(np.asarray(list(neighbors), dtype=np.int64))
        nbrs = nbrs[nbrs != vertex]
        nbr_set = {int(w) for w in nbrs}

        if vertex in self._departed:
            # Rejoin: the survivors' stubs to this id become live again
            # *before* scoring, so the loads the decision sees are the
            # post-arrival truth.
            self._reactivate(vertex)
            self._departed.discard(vertex)
        degree = sum(1 for w in nbr_set if w not in self._departed)

        overlap = np.zeros(self._k, dtype=np.float64)
        present = [self._parts[u] for u in nbr_set if u in self._parts]
        if present:
            overlap = np.bincount(present, minlength=self._k).astype(np.float64)

        loads = self._loads()
        provisioned = (
            self._expected
            if self._expected is not None
            else max(len(self._parts) + 1, self._k)
        )
        capacity = self._slack * provisioned / self._k
        alpha = self._current_alpha()
        choice = single_incremental(
            overlap,
            loads,
            alpha=alpha,
            gamma=self._gamma,
            capacity=float(capacity),
        )
        if telemetry.enabled():
            self._emit_decision(overlap, loads, alpha, float(capacity))

        self._parts[vertex] = choice
        self._degrees[vertex] = degree
        self._adj[vertex] = nbr_set
        for w in nbr_set:
            self._listeners.setdefault(w, set()).add(vertex)
        self._vcounts[choice] += 1
        self._ecounts[choice] += degree
        return choice

    def _emit_decision(
        self,
        overlap: np.ndarray,
        loads: np.ndarray,
        alpha: float,
        capacity: float,
    ) -> None:
        """Record one placement decision (only called when enabled).

        Re-derives the scalar scores the backend evaluated — this does
        not influence the choice, it only measures how contested and
        how saturated the decision was.
        """
        reg = telemetry.active()
        reg.counter("partition.dynamic.adds").inc()
        saturated = int((loads >= capacity).sum())
        if saturated:
            reg.counter("partition.dynamic.capacity_rejections").inc(saturated)
        scores = overlap - alpha * self._gamma * loads ** (self._gamma - 1.0)
        open_mask = loads < capacity
        if open_mask.any():
            best = scores[open_mask].max()
            ties = int((scores[open_mask] == best).sum())
            if ties > 1:
                reg.counter("partition.dynamic.argmax_ties").inc()
        reg.gauge("partition.dynamic.vertices").set(len(self._parts) + 1)

    def remove_vertex(self, vertex: int) -> int:
        """Remove a departing vertex; returns the part it vacated.

        Releases the vertex's own counted stubs *and* every surviving
        neighbour's stub to it (reverse-stub tracking), so the live
        counters never drift under churn. The stubs are restored if the
        same id rejoins later.
        """
        try:
            part = self._parts.pop(vertex)
        except KeyError:
            raise PartitionError(f"vertex {vertex} is not present") from None
        degree = self._degrees.pop(vertex)
        self._vcounts[part] -= 1
        self._ecounts[part] -= degree
        for w in self._adj.pop(vertex):
            listeners = self._listeners.get(w)
            if listeners is not None:
                listeners.discard(vertex)
                if not listeners:
                    del self._listeners[w]
        self._departed.add(vertex)
        released = 0
        for u in self._listeners.get(vertex, ()):
            self._degrees[u] -= 1
            self._ecounts[self._parts[u]] -= 1
            released += 1
        if telemetry.enabled():
            reg = telemetry.active()
            reg.counter("partition.dynamic.removes").inc()
            if released:
                reg.counter("partition.dynamic.stub_releases").inc(released)
            reg.gauge("partition.dynamic.vertices").set(len(self._parts))
        return part

    # ------------------------------------------------------------------
    # Edge-level churn (both endpoints resident)
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int) -> bool:
        """Record a new edge between two resident vertices.

        Returns ``False`` (no-op) for a self-loop or an edge both sides
        already list; a one-sided adjacency (one endpoint listed the
        other at insertion, the reverse stub unknown) is completed
        symmetrically. Counters stay exact either way.
        """
        if u == v:
            return False
        pu, pv = self.part_of(u), self.part_of(v)
        changed = False
        for a, b, pa in ((u, v, pu), (v, u, pv)):
            if b not in self._adj[a]:
                self._adj[a].add(b)
                self._listeners.setdefault(b, set()).add(a)
                # b is resident, hence live: the stub counts immediately.
                self._degrees[a] += 1
                self._ecounts[pa] += 1
                changed = True
        if changed and telemetry.enabled():
            telemetry.active().counter("partition.dynamic.edge_adds").inc()
        return changed

    def remove_edge(self, u: int, v: int) -> bool:
        """Drop an edge between two resident vertices (``False`` if
        neither side listed it)."""
        if u == v:
            return False
        pu, pv = self.part_of(u), self.part_of(v)
        changed = False
        for a, b, pa in ((u, v, pu), (v, u, pv)):
            if b in self._adj[a]:
                self._adj[a].discard(b)
                listeners = self._listeners.get(b)
                if listeners is not None:
                    listeners.discard(a)
                    if not listeners:
                        del self._listeners[b]
                # b is resident, so the stub was live and counted.
                self._degrees[a] -= 1
                self._ecounts[pa] -= 1
                changed = True
        if changed and telemetry.enabled():
            telemetry.active().counter("partition.dynamic.edge_removes").inc()
        return changed

    def move_vertex(self, vertex: int, part: int) -> int:
        """Migrate a resident vertex to ``part``; returns the old part.

        The exact-counter primitive behind restreaming migrations: the
        vertex's unit of ``|V_i|`` and its live counted stubs transfer
        atomically, so loads stay trustworthy mid-epoch.
        """
        if not (0 <= part < self._k):
            raise PartitionError(f"part {part} outside [0, {self._k})")
        old = self.part_of(vertex)
        if part == old:
            return old
        degree = self._degrees[vertex]
        self._parts[vertex] = part
        self._vcounts[old] -= 1
        self._vcounts[part] += 1
        self._ecounts[old] -= degree
        self._ecounts[part] += degree
        if telemetry.enabled():
            telemetry.active().counter("partition.dynamic.moves").inc()
        return old

    # ------------------------------------------------------------------
    def balance(self) -> tuple[float, float]:
        """Current ``(vertex bias, edge bias)`` — the re-partition signal."""
        from repro.partition.metrics import bias

        if len(self._parts) == 0:
            return 0.0, 0.0
        return bias(self._vcounts), bias(self._ecounts)

    def __repr__(self) -> str:
        vb, eb = self.balance()
        return (
            f"DynamicPartitioner(k={self._k}, n={len(self._parts)}, "
            f"bias(V)={vb:.3f}, bias(E)={eb:.3f})"
        )
