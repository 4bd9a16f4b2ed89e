"""FaultPlan DSL — a declarative, deterministic description of faults.

A :class:`FaultPlan` lists *what goes wrong and when* during one BSP
job, in engine-superstep coordinates:

- :class:`Crash` — machine ``machine`` fails during superstep
  ``superstep`` (its work that superstep is lost and must be recovered);
- :class:`Straggler` — a transient slowdown: machine ``machine``'s
  compute is multiplied by ``factor`` for supersteps
  ``[start, start + duration)``;
- :class:`DegradedLink` — the directed link ``src → dst`` runs at
  ``bandwidth_scale`` of nominal bandwidth (and ``latency_scale`` of
  nominal latency) for a superstep window;
- :class:`CheckpointPolicy` — checkpoint every ``interval`` supersteps
  (0 = never); the *cost* of each checkpoint is derived from per-machine
  state size by :class:`~repro.cluster.faults.checkpoint.CheckpointCostModel`.

Plans are plain frozen dataclasses with a canonical JSON form
(:meth:`FaultPlan.to_json` / :meth:`FaultPlan.from_json`) and a stable
:meth:`FaultPlan.digest` that the artifact cache folds into experiment
keys — a cached fault-free run can never be replayed for a faulty
config. A window that can never open (negative start, non-positive
duration) is rejected, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import ConfigurationError
from repro.utils import canon

__all__ = [
    "Crash",
    "Straggler",
    "DegradedLink",
    "CheckpointPolicy",
    "FaultPlan",
    "RECOVERY_STRATEGIES",
]

#: recognised recovery strategies (see :mod:`repro.cluster.faults.recovery`).
RECOVERY_STRATEGIES = ("restart", "redistribute")

PLAN_JSON_FORMAT = "fault-plan/v1"


@dataclass(frozen=True)
class Crash:
    """Machine ``machine`` fails during engine superstep ``superstep``."""

    machine: int
    superstep: int

    def to_dict(self) -> dict:
        return {"machine": int(self.machine), "superstep": int(self.superstep)}


@dataclass(frozen=True)
class Straggler:
    """Transient compute slowdown over a superstep window.

    ``factor`` multiplies the machine's compute seconds for supersteps
    ``start <= t < start + duration`` (2.0 = twice as slow).
    """

    machine: int
    start: int
    duration: int = 1
    factor: float = 2.0

    def active_at(self, superstep: int) -> bool:
        return self.start <= superstep < self.start + self.duration

    def to_dict(self) -> dict:
        return {
            "machine": int(self.machine),
            "start": int(self.start),
            "duration": int(self.duration),
            "factor": float(self.factor),
        }


@dataclass(frozen=True)
class DegradedLink:
    """Directed link ``src → dst`` degraded over a superstep window.

    ``duration=None`` means "until the end of the run". Bandwidth on the
    link is scaled by ``bandwidth_scale`` (< 1 = slower); the barrier
    latency paid by the two endpoints is scaled by ``latency_scale``.
    """

    src: int
    dst: int
    start: int = 0
    duration: int | None = None
    bandwidth_scale: float = 0.5
    latency_scale: float = 1.0

    def active_at(self, superstep: int) -> bool:
        if superstep < self.start:
            return False
        return self.duration is None or superstep < self.start + self.duration

    def to_dict(self) -> dict:
        return {
            "src": int(self.src),
            "dst": int(self.dst),
            "start": int(self.start),
            "duration": None if self.duration is None else int(self.duration),
            "bandwidth_scale": float(self.bandwidth_scale),
            "latency_scale": float(self.latency_scale),
        }


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint cadence: every ``interval`` supersteps (0 = never)."""

    interval: int = 0

    def due_after(self, superstep: int) -> bool:
        """Whether a checkpoint follows engine superstep ``superstep``."""
        return self.interval > 0 and (superstep + 1) % self.interval == 0

    def to_dict(self) -> dict:
        return {"interval": int(self.interval)}


@dataclass(frozen=True)
class FaultPlan:
    """The full fault schedule for one run (empty by default)."""

    crashes: tuple[Crash, ...] = ()
    stragglers: tuple[Straggler, ...] = ()
    degraded_links: tuple[DegradedLink, ...] = ()
    checkpoint: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    recovery: str = "redistribute"
    seed: int = 0

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.recovery not in RECOVERY_STRATEGIES:
            raise ConfigurationError(
                f"recovery must be one of {RECOVERY_STRATEGIES}, got {self.recovery!r}"
            )
        if self.checkpoint.interval < 0:
            raise ConfigurationError("checkpoint interval must be >= 0")
        for c in self.crashes:
            if c.superstep < 0:
                raise ConfigurationError(f"crash superstep must be >= 0, got {c.superstep}")
        seen = set()
        for c in self.crashes:
            if c.machine in seen:
                raise ConfigurationError(f"machine {c.machine} crashes more than once")
            seen.add(c.machine)
        # A window that can never open would inject nothing, silently.
        for s in self.stragglers:
            if s.start < 0:
                raise ConfigurationError(f"straggler start must be >= 0, got {s.start}")
            if s.duration <= 0:
                raise ConfigurationError("straggler duration must be positive")
            if s.factor <= 0:
                raise ConfigurationError("straggler factor must be positive")
        for l in self.degraded_links:
            if l.start < 0:
                raise ConfigurationError(f"degraded link start must be >= 0, got {l.start}")
            if l.duration is not None and l.duration <= 0:
                raise ConfigurationError(
                    f"degraded link duration must be positive or null, got {l.duration}"
                )
            if l.bandwidth_scale <= 0 or l.latency_scale <= 0:
                raise ConfigurationError("link scales must be positive")
            if l.src == l.dst:
                raise ConfigurationError("degraded link endpoints must differ")

    # ------------------------------------------------------------------
    @property
    def needs_state(self) -> bool:
        """Whether simulating this plan requires per-machine state sizes
        (crashes or checkpoints ⇒ a graph + assignment must be bound)."""
        return bool(self.crashes) or self.checkpoint.interval > 0

    def validate_for(self, num_machines: int) -> None:
        """Check every referenced machine id against the cluster size."""
        for c in self.crashes:
            if not 0 <= c.machine < num_machines:
                raise ConfigurationError(f"crash machine {c.machine} outside cluster")
        if len(self.crashes) >= num_machines:
            raise ConfigurationError("plan crashes every machine; no survivors")
        for s in self.stragglers:
            if not 0 <= s.machine < num_machines:
                raise ConfigurationError(f"straggler machine {s.machine} outside cluster")
        for l in self.degraded_links:
            if not (0 <= l.src < num_machines and 0 <= l.dst < num_machines):
                raise ConfigurationError(f"degraded link ({l.src},{l.dst}) outside cluster")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": PLAN_JSON_FORMAT,
            "crashes": [c.to_dict() for c in self.crashes],
            "stragglers": [s.to_dict() for s in self.stragglers],
            "degraded_links": [l.to_dict() for l in self.degraded_links],
            "checkpoint": self.checkpoint.to_dict(),
            "recovery": self.recovery,
            "seed": int(self.seed),
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) — digest input."""
        return canon.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Build a plan from a hand-written document: every key may be
        omitted (its default applies), no unknown key is accepted."""
        canon.check_keys(payload, "fault plan", (), ("format", *cls.__dataclass_fields__))
        canon.check_tag(payload, "format", PLAN_JSON_FORMAT, "fault plan")

        def blocks(key: str, item: type) -> list[dict]:
            entries = payload.get(key, [])
            for entry in entries:
                canon.check_keys(entry, f"fault plan {key!r}", *canon.dataclass_keys(item))
            return entries

        checkpoint = payload.get("checkpoint", {})
        canon.check_keys(
            checkpoint, "fault plan 'checkpoint'", *canon.dataclass_keys(CheckpointPolicy)
        )
        return cls(
            crashes=tuple(
                Crash(machine=int(c["machine"]), superstep=int(c["superstep"]))
                for c in blocks("crashes", Crash)
            ),
            stragglers=tuple(
                Straggler(
                    machine=int(s["machine"]),
                    start=int(s["start"]),
                    duration=int(s.get("duration", 1)),
                    factor=float(s.get("factor", 2.0)),
                )
                for s in blocks("stragglers", Straggler)
            ),
            degraded_links=tuple(
                DegradedLink(
                    src=int(l["src"]),
                    dst=int(l["dst"]),
                    start=int(l.get("start", 0)),
                    duration=None if l.get("duration") is None else int(l["duration"]),
                    bandwidth_scale=float(l.get("bandwidth_scale", 0.5)),
                    latency_scale=float(l.get("latency_scale", 1.0)),
                )
                for l in blocks("degraded_links", DegradedLink)
            ),
            checkpoint=CheckpointPolicy(interval=int(checkpoint.get("interval", 0))),
            recovery=str(payload.get("recovery", "redistribute")),
            seed=int(payload.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(canon.loads(text, "fault plan"))

    def digest(self) -> str:
        """SHA-256 over the canonical JSON — the cache-key half of the
        fault spec (folded into experiment digests)."""
        return canon.digest(self.to_dict())

    def with_recovery(self, strategy: str) -> "FaultPlan":
        """The same plan under a different recovery strategy."""
        return replace(self, recovery=strategy)
