"""Per-machine health state machine driven by virtual-clock heartbeats.

Failure *detection* is deliberately separate from failure *injection*:
a chaos-crashed machine does not flip a flag the router can see — it
simply stops emitting heartbeats, and the monitor walks it through

::

    healthy ──missed ≥ suspect_after──▶ suspect ──missed ≥ dead_after──▶ dead
       ▲                                   │                              │
       │◀──────────heartbeat───────────────┘                              │
       │                                                        restart_delay
       └──────────── re-replication complete ◀── recovering ◀─────────────┘

so detection latency, drain, and readmission are all visible in the
latency tail exactly as they would be in a real cluster. ``suspect``
machines are drained (no new routing) but may return to ``healthy`` on
a single heartbeat — which is how a ``serving.heartbeat.drop`` chaos
fire models a network blip without losing work. ``dead`` machines are
fenced: their queues are re-dispatched and they re-enter through
``recovering``, where the recovery planner re-replicates their blocks
before the monitor readmits them.

Everything here is pure bookkeeping on the simulator's virtual clock —
no wall time, no randomness — so the transition ledger is byte-stable
per seed and per-state dwell times are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "HEALTHY",
    "SUSPECT",
    "DEAD",
    "RECOVERING",
    "HealthEvent",
    "HealthMonitor",
]

HEALTHY = "healthy"
SUSPECT = "suspect"
DEAD = "dead"
RECOVERING = "recovering"

_STATES = (HEALTHY, SUSPECT, DEAD, RECOVERING)

#: legal transitions — anything else is a simulator bug, not data.
_ALLOWED = {
    (HEALTHY, SUSPECT),
    (SUSPECT, HEALTHY),
    (SUSPECT, DEAD),
    (DEAD, RECOVERING),
    (RECOVERING, HEALTHY),
}


@dataclass(frozen=True)
class HealthEvent:
    """One ledger row: machine ``machine`` moved ``old → new`` at ``time``."""

    time: float
    machine: int
    old: str
    new: str
    cause: str

    def as_row(self) -> list:
        """JSON-ready ``[time, machine, old, new, cause]`` row."""
        return [round(float(self.time), 9), int(self.machine), self.old, self.new, self.cause]


class HealthMonitor:
    """Heartbeat bookkeeping and the transition ledger for one run."""

    def __init__(
        self,
        num_machines: int,
        *,
        heartbeat_interval: float,
        suspect_after: int,
        dead_after: int,
    ) -> None:
        if num_machines <= 0:
            raise ConfigurationError(f"num_machines must be positive, got {num_machines}")
        if heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be positive, got {heartbeat_interval!r}"
            )
        if not (1 <= suspect_after < dead_after):
            raise ConfigurationError(
                f"need 1 <= suspect_after < dead_after, got "
                f"{suspect_after}/{dead_after}"
            )
        self.num_machines = int(num_machines)
        self.heartbeat_interval = float(heartbeat_interval)
        self.suspect_after = int(suspect_after)
        self.dead_after = int(dead_after)
        self.state = [HEALTHY] * self.num_machines
        self.last_beat = [0.0] * self.num_machines
        self.ledger: list[HealthEvent] = []
        self._entered = [0.0] * self.num_machines
        self.state_seconds = [
            {s: 0.0 for s in _STATES} for _ in range(self.num_machines)
        ]

    # ------------------------------------------------------------------
    def transition(self, machine: int, now: float, new: str, cause: str) -> None:
        """Move ``machine`` to ``new``, closing its current dwell."""
        old = self.state[machine]
        if (old, new) not in _ALLOWED:
            raise SimulationError(
                f"illegal health transition {old} -> {new} on machine {machine}"
            )
        self.state_seconds[machine][old] += now - self._entered[machine]
        self._entered[machine] = now
        self.state[machine] = new
        self.ledger.append(HealthEvent(now, machine, old, new, cause))

    def beat(self, machine: int, now: float) -> None:
        """A heartbeat arrived; a ``suspect`` machine is readmitted."""
        self.last_beat[machine] = now
        if self.state[machine] == SUSPECT:
            self.transition(machine, now, HEALTHY, "heartbeat")

    def readmit(self, machine: int, now: float) -> None:
        """Re-replication finished: ``recovering`` → ``healthy``.

        The heartbeat clock restarts at ``now`` — the machine was silent
        for its whole outage, and must not be re-suspected for it.
        """
        self.last_beat[machine] = now
        self.transition(machine, now, HEALTHY, "rereplicated")

    def check(self, machine: int, now: float) -> str | None:
        """Apply timeout detection; returns the new state on a change.

        Only ``healthy``/``suspect`` machines are timeout-checked —
        ``dead`` and ``recovering`` are owned by the recovery path.
        """
        state = self.state[machine]
        if state not in (HEALTHY, SUSPECT):
            return None
        missed = int(
            (now - self.last_beat[machine]) / self.heartbeat_interval + 1e-9
        )
        changed: str | None = None
        if state == HEALTHY and missed >= self.suspect_after:
            self.transition(machine, now, SUSPECT, "missed_heartbeats")
            changed = SUSPECT
        if self.state[machine] == SUSPECT and missed >= self.dead_after:
            self.transition(machine, now, DEAD, "missed_heartbeats")
            changed = DEAD
        return changed

    # ------------------------------------------------------------------
    def routable(self, machine: int) -> bool:
        """Whether the router may send new work to ``machine``."""
        return self.state[machine] == HEALTHY

    def all_healthy(self) -> bool:
        """True when every machine is serving (nothing in-flight to heal)."""
        return all(s == HEALTHY for s in self.state)

    def finish(self, now: float) -> None:
        """Close every open dwell at the end of the run."""
        for m in range(self.num_machines):
            self.state_seconds[m][self.state[m]] += now - self._entered[m]
            self._entered[m] = now

    # ------------------------------------------------------------------
    def transition_counts(self) -> dict[str, int]:
        """``{"old->new": count}`` over the ledger, key-sorted."""
        counts: dict[str, int] = {}
        for ev in self.ledger:
            key = f"{ev.old}->{ev.new}"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def recovery_seconds(self) -> list[float]:
        """Dead→healthy durations, one per completed recovery, in order."""
        died: dict[int, float] = {}
        out: list[float] = []
        for ev in self.ledger:
            if ev.new == DEAD:
                died[ev.machine] = ev.time
            elif ev.new == HEALTHY and ev.old == RECOVERING and ev.machine in died:
                out.append(ev.time - died.pop(ev.machine))
        return out

    def ledger_rows(self) -> list[list]:
        """The whole ledger as JSON-ready rows (time order)."""
        return [ev.as_row() for ev in self.ledger]
