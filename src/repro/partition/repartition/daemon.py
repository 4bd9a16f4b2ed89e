"""The long-running repartitioning daemon.

:class:`RepartitionDaemon` owns a :class:`DynamicPartitioner`, feeds it
a :class:`ChurnEvent` stream, and every ``epoch_events`` applied events
runs one prioritized-restreaming epoch (:func:`restream_epoch`) under a
migration budget. Each epoch appends a record to the canonical
``repartition-epoch/v1`` ledger: the moves made, the score gain, and
the balance / edge-cut / recovered-community quality before and after
— the full audit trail of what the daemon did and what it bought.

Everything the daemon does is a deterministic function of the event
stream and its configuration (no RNG, no wall clock), so two same-seed
scenario runs produce **byte-identical** ledgers — exactly what
``tests/test_cli_drills.py::test_churn_ledger_is_byte_identical_per_seed``
asserts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.partition.dynamic import DynamicPartitioner
from repro.partition.metrics import adjusted_rand_index
from repro.partition.repartition.ledger import RepartitionLedger
from repro.partition.repartition.restream import restream_epoch
from repro.partition.repartition.scenario import ChurnEvent, ChurnScenario
from repro.utils.validation import check_positive

__all__ = ["RepartitionDaemon"]


def _r(x: float) -> float:
    """Round a metric for the ledger (stable, compact JSON floats)."""
    return round(float(x), 6)


class RepartitionDaemon:
    """Event-driven incremental partitioner with periodic restreaming.

    Parameters
    ----------
    num_parts:     number of parts ``k``.
    epoch_events:  applied events between automatic restream epochs
                   (0 disables auto-epochs; call :meth:`run_epoch`).
    budget:        migration cap per epoch (hard, never exceeded).
    cut_safe:      gate moves on non-negative overlap delta so the
                   resident edge cut is monotone non-increasing.
    labels:        optional ground-truth community labels (id-indexed);
                   enables the ARI columns of the ledger.
    **partitioner: forwarded to :class:`DynamicPartitioner`
                   (``c``, ``alpha``, ``gamma``, ``slack``, ...).
    """

    def __init__(
        self,
        num_parts: int,
        *,
        epoch_events: int = 500,
        budget: int = 64,
        cut_safe: bool = True,
        labels=None,
        scenario: ChurnScenario | None = None,
        seed: int = 0,
        **partitioner,
    ) -> None:
        check_positive("budget", budget)
        if epoch_events < 0:
            raise ConfigurationError(
                f"epoch_events must be >= 0, got {epoch_events}"
            )
        self.dp = DynamicPartitioner(num_parts, **partitioner)
        self.epoch_events = int(epoch_events)
        self.budget = int(budget)
        self.cut_safe = bool(cut_safe)
        self.labels = None if labels is None else np.asarray(labels)
        self._events_applied = 0
        self._events_since_epoch = 0
        self.ledger = RepartitionLedger(
            num_parts=num_parts,
            seed=seed,
            config={
                "epoch_events": self.epoch_events,
                "budget": self.budget,
                "cut_safe": self.cut_safe,
                **{k: v for k, v in sorted(partitioner.items())},
            },
            scenario=(
                {**scenario.to_dict(), "digest": scenario.digest()}
                if scenario is not None
                else {}
            ),
        )

    # -- event ingestion ------------------------------------------------
    def apply(self, event: ChurnEvent) -> None:
        """Apply one stream event; auto-epoch when the interval elapses."""
        kind = event.kind
        if kind == "add_vertex":
            self.dp.add_vertex(event.u, event.neighbors)
        elif kind == "remove_vertex":
            self.dp.remove_vertex(event.u)
        elif kind == "add_edge":
            self.dp.add_edge(event.u, event.v)
        elif kind == "remove_edge":
            self.dp.remove_edge(event.u, event.v)
        else:
            raise ConfigurationError(f"unknown churn event kind {kind!r}")
        self._events_applied += 1
        self._events_since_epoch += 1
        if self.epoch_events and self._events_since_epoch >= self.epoch_events:
            self.run_epoch()

    def drain(self, events, *, final_epochs: int = 1) -> RepartitionLedger:
        """Apply a whole event stream, then ``final_epochs`` cleanup
        epochs, and return the finished ledger."""
        for ev in events:
            self.apply(ev)
        for _ in range(final_epochs):
            self.run_epoch()
        return self.ledger

    # -- live quality metrics -------------------------------------------
    def live_edge_cut(self) -> float:
        """Fraction of resident→resident stubs crossing parts."""
        total = 0.0
        same = 0.0
        for v in self.dp.vertices():
            overlap = self.dp.overlap_of(v)
            total += float(overlap.sum())
            same += float(overlap[self.dp.part_of(v)])
        if total == 0.0:
            return 0.0
        return 1.0 - same / total

    def ari(self) -> float | None:
        """Recovered-community ARI over the residents (None without
        ground truth)."""
        if self.labels is None:
            return None
        ids = sorted(self.dp.vertices())
        if not ids:
            return None
        true = self.labels[ids]
        pred = [self.dp.part_of(v) for v in ids]
        return adjusted_rand_index(true, pred)

    # -- restreaming ----------------------------------------------------
    def run_epoch(self) -> dict:
        """Run one prioritized-restreaming epoch and ledger it."""
        vb0, eb0 = self.dp.balance()
        cut0 = self.live_edge_cut()
        ari0 = self.ari()
        stats = restream_epoch(
            self.dp, budget=self.budget, cut_safe=self.cut_safe
        )
        vb1, eb1 = self.dp.balance()
        record = {
            "epoch": len(self.ledger.epochs),
            "events": self._events_applied,
            "resident": self.dp.num_vertices,
            "candidates": stats.candidates,
            "migrations": stats.migrations,
            "budget": self.budget,
            "budget_exhausted": stats.budget_exhausted,
            "moves": [[v, frm, to] for v, frm, to in stats.moves],
            "gain": _r(stats.gain),
            "vertex_bias_before": _r(vb0),
            "vertex_bias_after": _r(vb1),
            "edge_bias_before": _r(eb0),
            "edge_bias_after": _r(eb1),
            "edge_cut_before": _r(cut0),
            "edge_cut_after": _r(self.live_edge_cut()),
        }
        ari1 = self.ari()
        if ari0 is not None and ari1 is not None:
            record["ari_before"] = _r(ari0)
            record["ari_after"] = _r(ari1)
        self.ledger.add_epoch(record)
        self._events_since_epoch = 0
        return record

    def __repr__(self) -> str:
        return (
            f"RepartitionDaemon(k={self.dp.num_parts}, "
            f"resident={self.dp.num_vertices}, "
            f"epochs={len(self.ledger.epochs)}, "
            f"migrations={self.ledger.total_migrations})"
        )
