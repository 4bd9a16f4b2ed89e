"""BSP timing ledger — the accounting heart of the evaluation.

Per superstep the ledger stores each machine's compute and communication
seconds. The BSP barrier means the superstep lasts as long as its
slowest machine, so every other machine *waits* for the difference
(Figure 1's "possible wait"). From these records the ledger derives:

- per-iteration per-machine compute time (Figures 4 & 12),
- total runtime = Σ over iterations of the slowest machine (Figures 14 & 15),
- waiting ratio = Σ wait over machines and iterations divided by
  (machines × total runtime) — the fraction of machine-time spent
  blocked at barriers (Figure 13).

Two extensions support the fault-tolerance subsystem
(:mod:`repro.cluster.faults`) without perturbing fault-free accounting:

- an iteration may carry an ``active`` mask — machines marked inactive
  (crashed, not yet replaced) do no work, set no barrier, and wait for
  nobody; with ``active=None`` (the default everywhere) the arithmetic
  is bit-identical to the original all-machines form;
- the ledger records :class:`LedgerEvent` markers (failures,
  checkpoints, recoveries) alongside the timing rows, and the whole
  ledger round-trips through canonical JSON (:meth:`TimingLedger.to_json`
  / :meth:`TimingLedger.from_json`) so schedules are storable artifacts
  like partitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro import telemetry
from repro.errors import SimulationError
from repro.utils import canon

__all__ = ["IterationTiming", "LedgerEvent", "TimingLedger"]

#: format tag embedded in the JSON form; bump on layout changes.
LEDGER_JSON_FORMAT = "timing-ledger/v1"


@dataclass(frozen=True)
class LedgerEvent:
    """One instantaneous scheduling event attached to a ledger iteration.

    Attributes
    ----------
    kind:      event class — ``"crash"``, ``"checkpoint"``, ``"recovery"``,
               ``"straggler"``, ``"degraded-link"`` (free-form for callers).
    superstep: ledger iteration index the event belongs to.
    machine:   machine id, or ``-1`` for cluster-wide events.
    seconds:   cost attributed to the event (0 for pure markers).
    detail:    JSON-serialisable extra payload (strategy, factor, …).
    """

    kind: str
    superstep: int
    machine: int = -1
    seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "superstep": int(self.superstep),
            "machine": int(self.machine),
            "seconds": float(self.seconds),
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerEvent":
        canon.check_keys(payload, "timing ledger event", [f.name for f in fields(cls)])
        return cls(
            kind=str(payload["kind"]),
            superstep=int(payload["superstep"]),
            machine=int(payload["machine"]),
            seconds=float(payload["seconds"]),
            detail=dict(payload["detail"]),
        )


@dataclass(frozen=True)
class IterationTiming:
    """Timing of one superstep across all machines.

    ``overlap`` models systems that pipeline computation with
    communication (the paper's §2.1 notes both Gemini and KnightKing
    amortise part of the communication this way): a machine's busy time
    is then ``max(compute, comm)`` instead of their sum.

    ``active`` (optional) marks which machines participate in the
    barrier; inactive machines (crashed) contribute neither to the
    superstep duration nor to waiting. ``None`` means all machines.
    """

    compute: np.ndarray  # seconds per machine
    comm: np.ndarray  # seconds per machine
    overlap: bool = False
    active: np.ndarray | None = None

    @property
    def busy(self) -> np.ndarray:
        """Per-machine busy time (sum, or max when overlapped)."""
        if self.overlap:
            return np.maximum(self.compute, self.comm)
        return self.compute + self.comm

    @property
    def num_active(self) -> int:
        """Machines participating in this superstep's barrier."""
        if self.active is None:
            return int(self.compute.size)
        return int(self.active.sum())

    @property
    def duration(self) -> float:
        """Superstep length: the slowest *active* machine's busy time."""
        if self.active is None:
            return float(self.busy.max())
        if not self.active.any():  # pragma: no cover - defensive
            return 0.0
        return float(self.busy[self.active].max())

    @property
    def wait(self) -> np.ndarray:
        """Barrier wait per machine: duration − own busy time.

        Inactive machines wait for nobody (0); the all-active form is
        unchanged.
        """
        if self.active is None:
            return self.duration - self.busy
        return np.where(self.active, self.duration - self.busy, 0.0)


class TimingLedger:
    """Accumulates :class:`IterationTiming` records for one run."""

    def __init__(self, num_machines: int, *, overlap: bool = False) -> None:
        if num_machines <= 0:
            raise SimulationError(f"num_machines must be positive, got {num_machines}")
        self._num_machines = int(num_machines)
        self._overlap = bool(overlap)
        self._iterations: list[IterationTiming] = []
        self._events: list[LedgerEvent] = []

    # ------------------------------------------------------------------
    def record(
        self,
        compute: np.ndarray,
        comm: np.ndarray,
        *,
        active: np.ndarray | None = None,
    ) -> IterationTiming:
        """Append one superstep's per-machine compute/comm seconds."""
        compute = np.asarray(compute, dtype=np.float64)
        comm = np.asarray(comm, dtype=np.float64)
        if compute.shape != (self._num_machines,) or comm.shape != (self._num_machines,):
            raise SimulationError(
                f"expected arrays of shape ({self._num_machines},), "
                f"got {compute.shape} and {comm.shape}"
            )
        if (compute < 0).any() or (comm < 0).any():
            raise SimulationError("negative compute or comm time")
        if active is not None:
            active = np.asarray(active, dtype=bool)
            if active.shape != (self._num_machines,):
                raise SimulationError(
                    f"active mask must have shape ({self._num_machines},)"
                )
            if not active.any():
                raise SimulationError("at least one machine must be active")
        it = IterationTiming(
            compute=compute.copy(),
            comm=comm.copy(),
            overlap=self._overlap,
            active=None if active is None else active.copy(),
        )
        self._iterations.append(it)
        if telemetry.enabled():
            # The ledger *emits into* the registry instead of the
            # registry keeping a second ledger. Simulated seconds are
            # deterministic, so histograms are safe here.
            reg = telemetry.active()
            reg.counter("cluster.supersteps").inc()
            reg.histogram("cluster.superstep_duration").observe(it.duration)
            reg.histogram("cluster.barrier_wait").observe(float(it.wait.sum()))
        return it

    def add_event(
        self,
        kind: str,
        *,
        superstep: int | None = None,
        machine: int = -1,
        seconds: float = 0.0,
        **detail,
    ) -> LedgerEvent:
        """Attach an event marker; default superstep is the latest one."""
        step = len(self._iterations) - 1 if superstep is None else int(superstep)
        event = LedgerEvent(
            kind=kind,
            superstep=step,
            machine=int(machine),
            seconds=float(seconds),
            detail=detail,
        )
        self._events.append(event)
        if telemetry.enabled():
            reg = telemetry.active()
            reg.counter("cluster.events", kind=kind).inc()
            if seconds:
                reg.counter("cluster.event_seconds", kind=kind).inc(float(seconds))
        return event

    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self._num_machines

    @property
    def overlap(self) -> bool:
        """Whether compute and communication are pipelined."""
        return self._overlap

    @property
    def num_iterations(self) -> int:
        return len(self._iterations)

    @property
    def iterations(self) -> list[IterationTiming]:
        """All recorded supersteps (shared list — do not mutate)."""
        return self._iterations

    @property
    def events(self) -> list[LedgerEvent]:
        """All event markers, in recording order (shared list)."""
        return self._events

    @property
    def compute_matrix(self) -> np.ndarray:
        """``iterations × machines`` compute seconds (Figures 4/12)."""
        if not self._iterations:
            return np.zeros((0, self._num_machines))
        return np.stack([it.compute for it in self._iterations])

    @property
    def comm_matrix(self) -> np.ndarray:
        """``iterations × machines`` communication seconds."""
        if not self._iterations:
            return np.zeros((0, self._num_machines))
        return np.stack([it.comm for it in self._iterations])

    @property
    def wait_matrix(self) -> np.ndarray:
        """``iterations × machines`` barrier-wait seconds."""
        if not self._iterations:
            return np.zeros((0, self._num_machines))
        return np.stack([it.wait for it in self._iterations])

    @property
    def active_matrix(self) -> np.ndarray:
        """``iterations × machines`` participation mask (all-True rows
        for iterations recorded without an explicit mask)."""
        if not self._iterations:
            return np.zeros((0, self._num_machines), dtype=bool)
        return np.stack(
            [
                np.ones(self._num_machines, dtype=bool) if it.active is None else it.active
                for it in self._iterations
            ]
        )

    @property
    def has_active_masks(self) -> bool:
        """Whether any iteration carries an explicit participation mask."""
        return any(it.active is not None for it in self._iterations)

    @property
    def total_runtime(self) -> float:
        """Job makespan: Σ superstep durations."""
        return float(sum(it.duration for it in self._iterations))

    @property
    def total_wait(self) -> float:
        """Σ wait over all machines and supersteps."""
        return float(self.wait_matrix.sum())

    @property
    def waiting_ratio(self) -> float:
        """Fraction of machine-time spent waiting (Figure 13's metric).

        ``Σ wait / (M × makespan)`` — 0 when perfectly balanced, → 1
        when one machine does all the work. Iterations with inactive
        machines count only active machine-time in the denominator.
        """
        if not self.has_active_masks:
            # Fault-free path: keep the original evaluation order so
            # results stay bit-identical with pre-fault-subsystem runs
            # (and with replayed cache artifacts).
            runtime = self.total_runtime
            if runtime == 0:
                return 0.0
            return self.total_wait / (self._num_machines * runtime)
        denom = float(
            sum(it.num_active * it.duration for it in self._iterations)
        )
        if denom == 0:
            return 0.0
        return self.total_wait / denom

    def waiting_ratio_from(self, start_iteration: int) -> float:
        """Waiting ratio restricted to iterations ``>= start_iteration``
        (the degraded-mode metric of the fault experiments)."""
        tail = self._iterations[max(0, int(start_iteration)):]
        denom = float(sum(it.num_active * it.duration for it in tail))
        if denom == 0:
            return 0.0
        wait = float(sum(it.wait.sum() for it in tail))
        return wait / denom

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, no whitespace).

        Deterministic: the same recorded schedule always serialises to
        the same bytes, so ledger equality checks and artifact digests
        can compare strings directly.
        """
        payload = {
            "format": LEDGER_JSON_FORMAT,
            "machines": self._num_machines,
            "overlap": self._overlap,
            "compute": self.compute_matrix.tolist(),
            "comm": self.comm_matrix.tolist(),
            "active": self.active_matrix.tolist() if self.has_active_masks else None,
            "events": [e.to_dict() for e in self._events],
        }
        return canon.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "TimingLedger":
        """Rebuild a ledger (rows, masks, and events) from :meth:`to_json`."""
        payload = canon.loads(text, "timing ledger")
        canon.check_tag(payload, "format", LEDGER_JSON_FORMAT, "timing ledger")
        canon.check_keys(
            payload,
            "timing ledger",
            ("format", "machines", "overlap", "compute", "comm", "active", "events"),
        )
        ledger = cls(int(payload["machines"]), overlap=bool(payload["overlap"]))
        actives = payload["active"]
        for i, (compute, comm) in enumerate(zip(payload["compute"], payload["comm"])):
            mask = None
            if actives is not None:
                row = np.asarray(actives[i], dtype=bool)
                mask = None if row.all() else row
            ledger.record(
                np.asarray(compute, dtype=np.float64),
                np.asarray(comm, dtype=np.float64),
                active=mask,
            )
        ledger._events.extend(LedgerEvent.from_dict(entry) for entry in payload["events"])
        return ledger

    def __repr__(self) -> str:
        return (
            f"TimingLedger(machines={self._num_machines}, "
            f"iterations={self.num_iterations}, "
            f"runtime={self.total_runtime:.6f}s, "
            f"waiting_ratio={self.waiting_ratio:.3f})"
        )
