"""Canonical ``repartition-epoch/v1`` ledger.

The daemon's auditable output: one JSON document holding the scenario
and daemon configuration plus a record per restreaming epoch (moves,
gain, bias and cut before/after, recovered-community ARI when ground
truth is known). Serialisation follows the servetrace/fault-plan idiom
— sorted keys, compact separators, pure scalars — so two same-seed
daemon runs write **byte-identical** files, which is what lets
``tests/test_cli_drills.py::test_churn_ledger_is_byte_identical_per_seed``
compare two independent runs byte for byte. A SHA-256
digest of the canonical payload is embedded and re-verified on load.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.utils import canon

__all__ = ["LEDGER_SCHEMA", "RepartitionLedger"]

LEDGER_SCHEMA = "repartition-epoch/v1"

_LEDGER_KEYS = (
    "schema", "num_parts", "seed", "config", "scenario", "epochs", "total_migrations", "digest"
)


class RepartitionLedger:
    """Ordered epoch records plus the run's identifying configuration."""

    def __init__(
        self,
        *,
        num_parts: int,
        seed: int = 0,
        config: dict | None = None,
        scenario: dict | None = None,
    ) -> None:
        self.num_parts = int(num_parts)
        self.seed = int(seed)
        self.config = dict(config or {})
        self.scenario = dict(scenario or {})
        self.epochs: list[dict] = []

    def add_epoch(self, record: dict) -> None:
        self.epochs.append(dict(record))

    @property
    def total_migrations(self) -> int:
        return sum(e.get("migrations", 0) for e in self.epochs)

    # -- serialisation -------------------------------------------------
    def _payload(self) -> dict:
        return {
            "schema": LEDGER_SCHEMA,
            "num_parts": self.num_parts,
            "seed": self.seed,
            "config": self.config,
            "scenario": self.scenario,
            "epochs": self.epochs,
            "total_migrations": self.total_migrations,
        }

    def digest(self) -> str:
        """SHA-256 over the canonical payload (digest field excluded)."""
        return canon.digest(self._payload())

    def to_dict(self) -> dict:
        doc = self._payload()
        doc["digest"] = self.digest()
        return doc

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical runs."""
        return canon.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "RepartitionLedger":
        """Rehydrate and verify a ledger document."""
        doc = canon.loads(text, "repartition ledger")
        canon.check_tag(doc, "schema", LEDGER_SCHEMA, "repartition ledger")
        canon.check_keys(doc, "repartition ledger", _LEDGER_KEYS)
        ledger = cls(
            num_parts=doc["num_parts"],
            seed=doc["seed"],
            config=doc["config"],
            scenario=doc["scenario"],
        )
        ledger.epochs = [dict(e) for e in doc["epochs"]]
        if (doc["digest"], doc["total_migrations"]) != (ledger.digest(), ledger.total_migrations):
            raise ConfigurationError("ledger digest mismatch — corrupted document")
        return ledger

    def __repr__(self) -> str:
        return (
            f"RepartitionLedger(k={self.num_parts}, epochs={len(self.epochs)}, "
            f"migrations={self.total_migrations})"
        )
