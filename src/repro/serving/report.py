"""Serving SLO reports: canonical JSON + human-readable rendering.

A :class:`ServingReport` collects one :class:`~repro.serving.simulator.
ServingResult` summary per partitioner and serialises to a canonical
``serving-report/v1`` document — sorted keys, compact separators, pure
scalars — so two runs with the same seed produce **byte-identical**
report files. That byte-stability is the acceptance gate of the
serving layer and what lets CI diff two independent runs directly.
"""

from __future__ import annotations

from repro import telemetry
from repro.bench.report import Table
from repro.errors import ConfigurationError
from repro.serving.simulator import ServingConfig, ServingResult
from repro.serving.workload import WorkloadSpec
from repro.utils import canon

__all__ = ["ServingReport"]

REPORT_SCHEMA = "serving-report/v1"

_REPORT_KEYS = (
    "schema", "dataset", "num_parts", "chaos", "workload", "workload_digest",
    "config", "config_digest", "entries",
)
#: what :meth:`ServingResult.summary` writes: always / when replicated / its block.
_ENTRY_KEYS = (
    "queries", "completed", "shed", "shed_rate", "throughput", "latency_p50",
    "latency_p90", "latency_p99", "latency_mean", "latency_max", "makespan",
    "messages", "batches", "degraded_batches", "cache_flushes", "cache_hit_rate",
    "busy_max", "busy_mean",
)
_ENTRY_REPLICATED_KEYS = ("availability", "replication")
_ENTRY_REPLICATION_KEYS = (
    "factor", "plan_digest", "slo_seconds", "crashes", "redispatched",
    "unavailable_shed", "hedges", "hedge_wins", "heartbeat_drops",
    "rereplication_bytes", "rereplication_transfers", "transitions",
    "recovery_seconds", "restored",
)


class ServingReport:
    """SLO comparison across partitioners for one workload."""

    def __init__(
        self,
        spec: WorkloadSpec,
        config: ServingConfig,
        *,
        dataset: str = "",
        num_parts: int = 0,
        chaos: str = "",
    ) -> None:
        self.spec = spec
        self.config = config
        self.dataset = dataset
        self.num_parts = int(num_parts)
        self.chaos = chaos
        self.entries: dict[str, dict] = {}

    def add(self, partitioner: str, result: ServingResult) -> None:
        """Record one partitioner's serving outcome."""
        if partitioner in self.entries:
            raise ConfigurationError(f"duplicate report entry for {partitioner!r}")
        self.entries[partitioner] = result.summary()

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready document (entries keyed by partitioner name)."""
        return {
            "schema": REPORT_SCHEMA,
            "dataset": self.dataset,
            "num_parts": self.num_parts,
            "chaos": self.chaos,
            "workload": self.spec.to_dict(),
            "workload_digest": self.spec.digest(),
            "config": self.config.to_dict(),
            "config_digest": self.config.digest(),
            "entries": self.entries,
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical runs."""
        with telemetry.active().span("serving.report.render"):
            return canon.dumps(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of the canonical JSON."""
        return canon.digest(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ServingReport":
        """Rehydrate a :meth:`to_json` document — and only that."""
        doc = canon.loads(text, "serving report")
        canon.check_tag(doc, "schema", REPORT_SCHEMA, "serving report")
        canon.check_keys(doc, "serving report", _REPORT_KEYS)
        report = cls(
            WorkloadSpec.from_dict(doc["workload"]),
            ServingConfig.from_dict(doc["config"]),
            dataset=doc["dataset"],
            num_parts=doc["num_parts"],
            chaos=doc["chaos"],
        )
        recorded = (doc["workload_digest"], doc["config_digest"])
        if recorded != (report.spec.digest(), report.config.digest()):
            raise ConfigurationError("serving report digest mismatch — corrupted document")
        canon.check_keys(doc["entries"], "serving report 'entries'", (), doc["entries"])
        for name, entry in doc["entries"].items():
            where = f"serving report entry {name!r}"
            canon.check_keys(entry, where, _ENTRY_KEYS, _ENTRY_REPLICATED_KEYS)
            if "replication" in entry:
                canon.check_keys(
                    entry["replication"], f"{where} 'replication'", _ENTRY_REPLICATION_KEYS
                )
            report.entries[name] = dict(entry)
        return report

    # -- rendering -----------------------------------------------------
    def table(self) -> Table:
        """SLO comparison table, rows in insertion order.

        Latency cells render ``-`` when the run completed nothing (the
        report stores ``null`` there); an availability column appears
        when any entry carries one (replicated runs).
        """
        with_avail = any("availability" in e for e in self.entries.values())
        headers = [
            "partitioner",
            "p50 ms",
            "p99 ms",
            "mean ms",
            "qps",
            "shed %",
            "hit %",
            "degraded",
        ]
        if with_avail:
            headers.insert(1, "avail %")
        table = Table(
            title=f"serving SLOs — {self.dataset or 'dataset'} × {self.num_parts} machines",
            headers=tuple(headers),
        )

        def ms(value: float | None) -> str:
            return "-" if value is None else f"{value * 1e3:.3f}"

        for name, e in self.entries.items():
            row = [
                name,
                ms(e["latency_p50"]),
                ms(e["latency_p99"]),
                ms(e["latency_mean"]),
                "-" if e["throughput"] is None else f"{e['throughput']:.0f}",
                f"{e['shed_rate'] * 100:.2f}",
                f"{e['cache_hit_rate'] * 100:.1f}",
                str(e["degraded_batches"] + e["cache_flushes"]),
            ]
            if with_avail:
                avail = e.get("availability")
                row.insert(1, "-" if avail is None else f"{avail * 100:.2f}")
            table.add_row(*row)
        return table

    def render(self) -> str:
        """Human-readable report for the CLI."""
        with telemetry.active().span("serving.report.render"):
            lines = [self.table().render()]
            lines.append(
                f"workload {self.spec.digest()[:12]}  config {self.config.digest()[:12]}"
                + (f"  chaos {self.chaos}" if self.chaos else "")
            )
            return "\n".join(lines)
