"""Resilient parallel experiment execution over supervised workers.

``repro-bench all --jobs N`` fans the independent experiments of the
registry out over ``N`` spawn-safe worker processes. The experiments
share no mutable state — each worker imports the library fresh, loads
its datasets, and (crucially) warms from the shared on-disk artifact
store of :mod:`repro.bench.artifacts`, so the expensive (dataset ×
partitioner × seed) assignments and simulation summaries are computed
by whichever worker gets there first and read by everyone else.

Unlike a plain ``ProcessPoolExecutor`` (which blocks on in-order
``future.result()`` calls and cannot kill a single hung worker), the
parallel path here is a small supervisor built for the failure modes a
real suite run hits:

- **Timeouts** — every experiment attempt gets a wall-clock bound
  (``timeout=``); a worker that blows it is killed, replaced, and the
  experiment is requeued. A hang becomes a timeout outcome, never a
  stuck suite.
- **Worker deaths** — a worker that exits without delivering (OOM kill,
  segfault, injected chaos) is detected via pipe EOF; the experiment is
  retried up to ``retries`` more times, and the final failure outcome
  carries the *parent-measured* wall time and the attempt count.
- **Degradation** — a :class:`~repro.resilience.policy.CircuitBreaker`
  counts consecutive worker failures; when the pool keeps dying the
  remaining experiments run serially in-process instead of fighting it.
- **Crash-safe resume** — each completed outcome is appended to a JSONL
  :class:`~repro.resilience.journal.JsonlJournal`; ``resume=True``
  replays it and re-runs only experiments without a successful record
  for the same configuration.

Results are collected and rendered in the caller's deterministic id
order regardless of completion order, and every outcome carries its
wall-clock seconds plus the cache hit/miss counters attributed to that
experiment. The ``spawn`` start method is used unconditionally: it is
the only start method that is safe with threads and identical across
platforms, and it guarantees workers see the same import-time registry
as the parent.
"""

from __future__ import annotations

import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import get_context
from multiprocessing.connection import wait as _conn_wait

from repro import telemetry
from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.resilience import CircuitBreaker, JsonlJournal
from repro.resilience.chaos import register_site
from repro.utils import canon

__all__ = ["ExperimentOutcome", "run_suite", "config_digest"]

#: injection site fired inside every worker attempt (key: experiment id).
WORKER_CHAOS_SITE = register_site("runner.worker")


@dataclass
class ExperimentOutcome:
    """One experiment's result plus its execution accounting."""

    experiment_id: str
    result: ExperimentResult | None
    error: str | None
    wall_seconds: float
    cache: dict = field(default_factory=dict)
    #: attempts consumed (1 = first try succeeded or failed in-worker).
    attempts: int = 1
    #: the final attempt was killed for exceeding the timeout.
    timed_out: bool = False
    #: outcome replayed from the journal, not executed this run.
    resumed: bool = False
    #: journal payload standing in for ``result`` on resumed outcomes.
    result_payload: dict | None = field(default=None, repr=False)
    rendered: str | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def render(self) -> str:
        """Human-rendered result (journal text for resumed outcomes)."""
        if self.result is not None:
            return self.result.render()
        return self.rendered or ""

    def payload(self) -> dict | None:
        """JSON-ready result dict (journal payload for resumed outcomes)."""
        if self.result is not None:
            return self.result.to_dict()
        return dict(self.result_payload) if self.result_payload else None


def config_digest(config: ExperimentConfig) -> str:
    """Stable digest of the config; resume only skips matching runs."""
    return canon.digest({"scale": config.scale, "seed": config.seed})[:16]


def _diff_counters(before: dict, after: dict) -> dict:
    """Cache-counter delta attributable to one experiment."""
    out = {k: after[k] - before.get(k, 0) for k in ("hits", "misses", "stores", "errors")}
    kinds = {}
    for kind, counts in after.get("by_kind", {}).items():
        prev = before.get("by_kind", {}).get(kind, {})
        delta = {k: v - prev.get(k, 0) for k, v in counts.items()}
        if any(delta.values()):
            kinds[kind] = delta
    out["by_kind"] = kinds
    return out


def _run_one(experiment_id: str, config: ExperimentConfig) -> ExperimentOutcome:
    """Run one experiment, catching its failure into the outcome."""
    from repro.bench.artifacts import stats_snapshot

    before = stats_snapshot()
    start = time.perf_counter()
    try:
        result = run_experiment(experiment_id, config)
        error = None
    except Exception:
        result = None
        error = traceback.format_exc(limit=8)
    wall = time.perf_counter() - start
    if telemetry.enabled():
        # Per-process registry: with --jobs > 1 each worker accumulates
        # its own metrics, and only the parent's registry is exported.
        reg = telemetry.active()
        reg.counter("bench.experiments", ok=str(error is None).lower()).inc()
        reg.timer("bench.experiment_seconds", experiment=experiment_id).add(wall)
    return ExperimentOutcome(
        experiment_id=experiment_id,
        result=result,
        error=error,
        wall_seconds=wall,
        cache=_diff_counters(before, stats_snapshot()),
    )


def _worker_loop(conn) -> None:
    """Worker entry: serve ``(experiment_id, attempt, config)`` tasks.

    Must stay module-level picklable (spawn). The chaos site fires
    *before* the experiment's own exception catching, so injected
    exceptions crash the worker — exercising the parent's worker-death
    recovery, exactly like a real interpreter-level failure would.
    """
    import os

    from repro.resilience.chaos import maybe_inject

    # Suite workers are already the fan-out level: engines and kernels
    # inside them must not nest their own pools (oversubscription and
    # pipe-buffer deadlock risk), so resolve_jobs() answers 1 here.
    os.environ.setdefault("REPRO_PARALLEL_CHILD", "1")

    while True:
        task = conn.recv()
        if task is None:
            conn.close()
            return
        experiment_id, attempt, config = task
        maybe_inject(WORKER_CHAOS_SITE, experiment_id, attempt=attempt)
        conn.send(_run_one(experiment_id, config))


@dataclass
class _Worker:
    proc: object
    conn: object
    #: (experiment_id, attempt, started_at, deadline | None), or None.
    task: tuple | None = None


class _Supervisor:
    """Parent-side scheduler: workers, deadlines, retries, breaker."""

    def __init__(
        self,
        config: ExperimentConfig,
        *,
        jobs: int,
        timeout: float | None,
        max_attempts: int,
        breaker_threshold: int,
    ) -> None:
        self._config = config
        self._jobs = jobs
        self._timeout = timeout
        self._max_attempts = max_attempts
        self._ctx = get_context("spawn")
        self._breaker = CircuitBreaker(breaker_threshold, site="bench.runner")
        self._pending: deque[tuple[str, int]] = deque()
        self._workers: list[_Worker] = []
        self._outcomes: dict[str, ExperimentOutcome] = {}
        #: parent-measured wall seconds already spent per experiment
        #: (accumulates across failed/killed attempts).
        self._spent: dict[str, float] = {}

    # -- lifecycle -----------------------------------------------------
    def run(self, experiment_ids: list[str]) -> dict[str, ExperimentOutcome]:
        self._pending.extend((eid, 1) for eid in experiment_ids)
        try:
            while self._pending or any(w.task for w in self._workers):
                if self._breaker.tripped:
                    self._degrade_to_serial()
                    break
                self._dispatch()
                self._await_events()
        finally:
            self._shutdown()
        return self._outcomes

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(target=_worker_loop, args=(child_conn,), daemon=True)
        proc.start()
        child_conn.close()
        worker = _Worker(proc=proc, conn=parent_conn)
        self._workers.append(worker)
        return worker

    def _dispatch(self) -> None:
        idle = [w for w in self._workers if w.task is None]
        while self._pending and (idle or len(self._workers) < self._jobs):
            worker = idle.pop() if idle else self._spawn_worker()
            eid, attempt = self._pending.popleft()
            started = time.perf_counter()
            deadline = None if self._timeout is None else started + self._timeout
            worker.task = (eid, attempt, started, deadline)
            worker.conn.send((eid, attempt, self._config))

    # -- event handling ------------------------------------------------
    def _await_events(self) -> None:
        busy = [w for w in self._workers if w.task is not None]
        if not busy:
            return
        now = time.perf_counter()
        deadlines = [w.task[3] for w in busy if w.task[3] is not None]
        wait_for = None if not deadlines else max(0.0, min(deadlines) - now)
        ready = _conn_wait([w.conn for w in busy], timeout=wait_for)
        ready_set = set(ready)
        for worker in busy:
            if worker.conn in ready_set:
                self._on_ready(worker)
        now = time.perf_counter()
        for worker in self._workers:
            if worker.task is not None and worker.task[3] is not None:
                if now >= worker.task[3]:
                    self._on_timeout(worker)

    def _on_ready(self, worker: _Worker) -> None:
        eid, attempt, started, _ = worker.task
        try:
            outcome: ExperimentOutcome = worker.conn.recv()
        except (EOFError, OSError):
            self._on_death(worker)
            return
        worker.task = None
        outcome.attempts = attempt
        self._outcomes[eid] = outcome
        self._breaker.record_success()

    def _on_death(self, worker: _Worker) -> None:
        eid, attempt, started, _ = worker.task
        self._spent[eid] = self._spent.get(eid, 0.0) + (time.perf_counter() - started)
        self._retire(worker)
        if telemetry.enabled():
            telemetry.active().counter("bench.runner.worker_deaths").inc()
        exitcode = worker.proc.exitcode
        self._breaker.record_failure()
        # A tripped breaker sends the experiment to the serial fallback
        # (a different execution environment) even with attempts spent —
        # degradation exists precisely so the suite still completes.
        if attempt < self._max_attempts or self._breaker.tripped:
            self._requeue(eid, attempt)
            return
        self._outcomes[eid] = ExperimentOutcome(
            experiment_id=eid,
            result=None,
            error=(
                f"experiment {eid}: worker died (exit code {exitcode}) "
                f"on attempt {attempt}/{self._max_attempts}"
            ),
            wall_seconds=self._spent[eid],
            attempts=attempt,
        )

    def _on_timeout(self, worker: _Worker) -> None:
        eid, attempt, started, _ = worker.task
        self._spent[eid] = self._spent.get(eid, 0.0) + (time.perf_counter() - started)
        self._retire(worker, kill=True)
        if telemetry.enabled():
            telemetry.active().counter("bench.runner.timeouts").inc()
        # A hang is a worker-health event too: a pool that keeps
        # hanging should degrade just like one that keeps dying.
        self._breaker.record_failure()
        if attempt < self._max_attempts and not self._breaker.tripped:
            self._requeue(eid, attempt)
            return
        self._outcomes[eid] = ExperimentOutcome(
            experiment_id=eid,
            result=None,
            error=(
                f"experiment {eid}: timed out after {self._timeout:g}s "
                f"on attempt {attempt}/{self._max_attempts}"
            ),
            wall_seconds=self._spent[eid],
            attempts=attempt,
            timed_out=True,
        )

    def _requeue(self, eid: str, attempt: int) -> None:
        if telemetry.enabled():
            telemetry.active().counter("bench.runner.requeues").inc()
        self._pending.append((eid, attempt + 1))

    def _retire(self, worker: _Worker, *, kill: bool = False) -> None:
        """Remove a dead/hung worker from the pool and reap its process."""
        worker.task = None
        self._workers.remove(worker)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck in kernel
                worker.proc.kill()
        worker.proc.join(timeout=2.0)

    # -- degradation and shutdown --------------------------------------
    def _degrade_to_serial(self) -> None:
        """Serial in-process fallback once the pool keeps dying.

        In-flight experiments are reclaimed into the queue; the chaos
        worker site does not fire in-process, mirroring the real-world
        situation where the parent survives whatever kills workers.
        """
        if telemetry.enabled():
            telemetry.active().counter("bench.runner.degraded").inc()
        print(
            "bench runner: worker pool keeps failing — "
            "degrading to serial in-process execution",
            file=sys.stderr,
        )
        for worker in list(self._workers):
            if worker.task is not None:
                eid, attempt, _, _ = worker.task
                self._pending.append((eid, attempt))
            self._retire(worker, kill=True)
        while self._pending:
            eid, attempt = self._pending.popleft()
            if eid in self._outcomes:  # pragma: no cover - defensive
                continue
            outcome = _run_one(eid, self._config)
            outcome.attempts = attempt
            self._outcomes[eid] = outcome

    def _shutdown(self) -> None:
        for worker in list(self._workers):
            try:
                worker.conn.send(None)
            except (OSError, BrokenPipeError):
                pass
            self._retire(worker, kill=True)


# ----------------------------------------------------------------------
# Journal integration
# ----------------------------------------------------------------------
def _journal_record(outcome: ExperimentOutcome, digest: str) -> dict:
    return {
        "experiment_id": outcome.experiment_id,
        "config": digest,
        "ok": outcome.ok,
        "error": outcome.error,
        "timed_out": outcome.timed_out,
        "attempts": outcome.attempts,
        "wall_seconds": outcome.wall_seconds,
        "cache": outcome.cache,
        "result": outcome.payload(),
        "rendered": outcome.render() if outcome.ok else None,
    }


def _outcome_from_record(record: dict) -> ExperimentOutcome:
    return ExperimentOutcome(
        experiment_id=str(record["experiment_id"]),
        result=None,
        error=None,
        wall_seconds=float(record.get("wall_seconds", 0.0)),
        cache=dict(record.get("cache", {})),
        attempts=int(record.get("attempts", 1)),
        resumed=True,
        result_payload=record.get("result"),
        rendered=record.get("rendered"),
    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run_suite(
    experiment_ids: list[str],
    config: ExperimentConfig | None = None,
    *,
    jobs: int = 1,
    timeout: float | None = None,
    retries: int = 1,
    journal: JsonlJournal | str | None = None,
    resume: bool = False,
    breaker_threshold: int = 3,
) -> list[ExperimentOutcome]:
    """Run experiments, serially or over ``jobs`` supervised workers.

    The returned list is always in ``experiment_ids`` order — parallel
    completion order never leaks into the output.

    Parameters
    ----------
    jobs:
        Worker process count. ``jobs <= 1`` runs serially in-process —
        the bit-identical baseline path, with no supervisor involved
        (``timeout`` and ``retries`` then require process isolation and
        are ignored).
    timeout:
        Per-attempt wall-clock bound in seconds (parallel only). A
        worker exceeding it is killed and the experiment requeued; the
        final failure is reported as a ``timed_out`` outcome. Must
        comfortably exceed worker startup (~1–2 s of imports).
    retries:
        Extra attempts after a worker death or timeout (an experiment
        that merely *raises* is not retried — its failure is caught
        in-worker and is deterministic).
    journal:
        JSONL journal (path or :class:`JsonlJournal`) appended with one
        crash-safe record per completed outcome.
    resume:
        Skip experiments whose journal holds a successful record for
        the same :func:`config_digest`; their outcomes are replayed
        from the journal with ``resumed=True``.
    breaker_threshold:
        Consecutive worker deaths/timeouts before the suite degrades to
        serial in-process execution of everything still pending.
    """
    config = config if config is not None else ExperimentConfig()
    if isinstance(journal, (str, bytes)) or hasattr(journal, "__fspath__"):
        journal = JsonlJournal(journal)
    digest = config_digest(config)

    outcomes: dict[str, ExperimentOutcome] = {}
    to_run: list[str] = list(experiment_ids)
    if resume and journal is not None:
        done = journal.latest_by("experiment_id", "config")
        to_run = []
        for eid in experiment_ids:
            record = done.get((eid, digest))
            if record is not None and record.get("ok"):
                outcomes[eid] = _outcome_from_record(record)
                if telemetry.enabled():
                    telemetry.active().counter("bench.runner.resumed").inc()
            else:
                to_run.append(eid)

    if jobs <= 1 or len(to_run) <= 1:
        for eid in to_run:
            outcomes[eid] = _run_one(eid, config)
    else:
        supervisor = _Supervisor(
            config,
            jobs=min(jobs, len(to_run)),
            timeout=timeout,
            max_attempts=max(1, retries + 1),
            breaker_threshold=breaker_threshold,
        )
        outcomes.update(supervisor.run(to_run))

    if journal is not None:
        for eid in to_run:
            journal.append(_journal_record(outcomes[eid], digest))
    return [outcomes[eid] for eid in experiment_ids]
