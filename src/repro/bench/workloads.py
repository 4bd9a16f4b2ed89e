"""Canonical workloads matching the paper's experiment setup (§4.1).

Centralising the settings here keeps every experiment comparable:

- random-walk load/waiting experiments start ``5·|V|`` walkers, 4 steps;
- per-application runtime experiments start ``|V|`` walkers;
- PPR stops with probability 0.1 per step (length capped generously),
  RWJ jumps with probability 0.2, node2vec uses (p, q) = (2, 0.5);
- PageRank runs 10 iterations, Connected Components to convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bench import artifacts
from repro.cluster import BSPCluster, FaultReport
from repro.cluster.faults import CheckpointCostModel, FaultPlan
from repro.cluster.ledger import TimingLedger
from repro.engines.gemini import ConnectedComponents, GeminiEngine, PageRank
from repro.engines.knightking import PPR, RWD, RWJ, DeepWalk, Node2Vec, WalkEngine
from repro.engines.knightking.engine import WalkResult
from repro.graph.csr import CSRGraph
from repro.partition.assignment import PartitionAssignment
from repro.partition.base import Partitioner, get_partitioner

__all__ = [
    "PAPER_PARTITIONERS",
    "ALL_APPS",
    "WALK_APPS",
    "ITERATION_APPS",
    "AppRun",
    "make_partitioners",
    "run_app",
    "run_on_cluster",
    "run_walk_job",
    "run_serving_job",
    "run_fault_walk_job",
]

#: the four baselines + BPart, in the paper's presentation order.
PAPER_PARTITIONERS = ("chunk-v", "chunk-e", "fennel", "hash", "bpart")

#: the seven applications of §4.1, paper order.
WALK_APPS = ("ppr", "rwj", "rwd", "deepwalk", "node2vec")
ITERATION_APPS = ("pagerank", "cc")
ALL_APPS = WALK_APPS + ITERATION_APPS

#: generous cap for the geometric-length PPR walk (P[len > 60] < 2e-3
#: at stop probability 0.1).
PPR_STEP_CAP = 60

#: fixed walk length used throughout the paper's experiments.
WALK_STEPS = 4


@dataclass
class AppRun:
    """Outcome of one application on one partition."""

    app: str
    runtime: float
    messages: int
    waiting_ratio: float
    iterations: int


def make_partitioners(seed: int = 0) -> dict[str, Partitioner]:
    """Fresh instances of the paper's five partitioners."""
    return {name: get_partitioner(name, seed=seed) for name in PAPER_PARTITIONERS}


def _walk_app(name: str):
    if name == "ppr":
        return PPR(stop_prob=0.1), PPR_STEP_CAP
    if name == "rwj":
        return RWJ(jump_prob=0.2), WALK_STEPS
    if name == "rwd":
        return RWD(), WALK_STEPS
    if name == "deepwalk":
        return DeepWalk(), WALK_STEPS
    if name == "node2vec":
        return Node2Vec(p=2.0, q=0.5), WALK_STEPS
    raise KeyError(f"unknown walk app {name!r}")


def _iteration_program(name: str):
    if name == "pagerank":
        return PageRank(iterations=10)
    if name == "cc":
        return ConnectedComponents()
    raise KeyError(f"unknown app {name!r}")


def run_on_cluster(
    cluster: BSPCluster,
    graph: CSRGraph,
    assignment: PartitionAssignment,
    app_name: str,
    *,
    walkers_per_vertex: int,
    seed: int,
):
    """Run one of the seven §4.1 applications on ``cluster``, uncached;
    returns the engine's result (its ledger is ``cluster.ledger``)."""
    if app_name in WALK_APPS:
        app, steps = _walk_app(app_name)
        return WalkEngine(cluster, seed=seed).run(
            graph, assignment, app, walkers_per_vertex=walkers_per_vertex, max_steps=steps
        )
    return GeminiEngine(cluster).run(graph, assignment, _iteration_program(app_name))


def _walk_payload(result: WalkResult) -> dict:
    """A walk summary as a payload; the ledger travels as its canonical JSON."""
    return artifacts.dataclass_payload(replace(result, ledger=result.ledger.to_json()))


def _walk_from_payload(payload: dict) -> WalkResult:
    result = artifacts.dataclass_from_payload(WalkResult, payload)
    result.ledger = TimingLedger.from_json(result.ledger)
    return result


def run_walk_job(
    graph: CSRGraph,
    assignment: PartitionAssignment,
    *,
    app_name: str = "deepwalk",
    walkers_per_vertex: int = 5,
    max_steps: int | None = None,
    seed: int = 0,
    mode: str = "step_sync",
):
    """Run one random-walk job; returns the engine's WalkResult.

    The simulated job is deterministic given its inputs, so its summary
    (ledger, step counts, final positions) is a content-addressed
    artifact: repeated suite runs replay it through
    :func:`repro.bench.artifacts.memo` instead of re-simulating.
    """
    app, default_steps = _walk_app(app_name)
    steps = max_steps if max_steps is not None else default_steps
    key = artifacts.config_key(
        f"walk:{app_name}",
        {
            "walkers_per_vertex": int(walkers_per_vertex),
            "max_steps": int(steps),
            "seed": int(seed),
            "mode": mode,
            "app": artifacts.scalar_attrs(app),
        },
    )

    def compute() -> WalkResult:
        engine = WalkEngine(BSPCluster(assignment.num_parts), seed=seed, mode=mode)
        return engine.run(
            graph,
            assignment,
            app,
            walkers_per_vertex=walkers_per_vertex,
            max_steps=steps,
        )

    return artifacts.memo(
        "walk", assignment.fingerprint(), key, compute, _walk_payload, _walk_from_payload
    )


def run_fault_walk_job(
    graph: CSRGraph,
    assignment: PartitionAssignment,
    plan: FaultPlan,
    *,
    app_name: str = "deepwalk",
    walkers_per_vertex: int = 5,
    max_steps: int | None = None,
    seed: int = 0,
    mode: str = "step_sync",
    checkpoint_cost: CheckpointCostModel | None = None,
) -> tuple[WalkResult, FaultReport]:
    """Run one walk job under a fault plan; returns (result, report).

    Same cache discipline as :func:`run_walk_job`, under the separate
    ``faultwalk`` kind: the canonical dict of the :class:`FaultPlan`
    (and the checkpoint cost model's knobs) is folded into the config
    digest, so two runs differing only in the injected faults are
    distinct artifacts. The replayed payload reconstructs the full
    extended ledger (events and active masks included) from its
    canonical JSON, so cached and fresh runs are byte-identical.
    """
    app, default_steps = _walk_app(app_name)
    steps = max_steps if max_steps is not None else default_steps
    ckpt = checkpoint_cost if checkpoint_cost is not None else CheckpointCostModel()
    key = artifacts.config_key(
        f"faultwalk:{app_name}",
        {
            "walkers_per_vertex": int(walkers_per_vertex),
            "max_steps": int(steps),
            "seed": int(seed),
            "mode": mode,
            "app": artifacts.scalar_attrs(app),
            "plan": plan.to_dict(),
            "checkpoint_cost": artifacts.scalar_attrs(ckpt),
        },
    )

    def compute() -> tuple[WalkResult, FaultReport]:
        cluster = BSPCluster(
            assignment.num_parts,
            plan,
            graph=graph,
            assignment=assignment,
            checkpoint_cost=ckpt,
        )
        engine = WalkEngine(cluster, seed=seed, mode=mode)
        result = engine.run(
            graph,
            assignment,
            app,
            walkers_per_vertex=walkers_per_vertex,
            max_steps=steps,
        )
        return result, cluster.report()

    return artifacts.memo(
        "faultwalk",
        assignment.fingerprint(),
        key,
        compute,
        lambda pair: {**_walk_payload(pair[0]), **artifacts.dataclass_payload(pair[1])},
        lambda p: (_walk_from_payload(p), artifacts.dataclass_from_payload(FaultReport, p)),
    )


def run_app(
    app_name: str,
    graph: CSRGraph,
    assignment: PartitionAssignment,
    *,
    walkers_per_vertex: int = 1,
    seed: int = 0,
) -> AppRun:
    """Run one of the seven §4.1 applications and report its timing."""
    if app_name in WALK_APPS:
        result = run_walk_job(
            graph,
            assignment,
            app_name=app_name,
            walkers_per_vertex=walkers_per_vertex,
            seed=seed,
        )
        return AppRun(
            app=app_name,
            runtime=result.runtime,
            messages=result.total_messages,
            waiting_ratio=result.ledger.waiting_ratio,
            iterations=result.num_supersteps,
        )
    program = _iteration_program(app_name)

    # The Gemini simulation is deterministic, so the canonical-engine
    # AppRun summary is a (graph, assignment, app) artifact too.
    key = artifacts.config_key(
        f"apprun:{app_name}",
        {"seed": int(seed), "app": artifacts.scalar_attrs(program)},
    )

    def compute() -> AppRun:
        result = GeminiEngine(BSPCluster(assignment.num_parts)).run(graph, assignment, program)
        return AppRun(
            app=app_name,
            runtime=result.runtime,
            messages=result.total_messages,
            waiting_ratio=result.ledger.waiting_ratio,
            iterations=result.iterations,
        )

    return artifacts.memo(
        "apprun",
        assignment.fingerprint(),
        key,
        compute,
        artifacts.dataclass_payload,
        lambda payload: artifacts.dataclass_from_payload(AppRun, payload),
    )


def run_serving_job(
    graph: CSRGraph,
    assignment: PartitionAssignment,
    *,
    spec=None,
    config=None,
    seed: int = 0,
):
    """Serve one workload over one partition; returns a ServingResult.

    Cached under the ``servetrace`` artifact kind. The cache key folds
    in the canonical workload and serving-config documents, the seed,
    *and the active chaos plan* — a degradation drill and a clean run
    of the same workload are distinct artifacts, never aliased. The
    replayed payload reconstructs every field of the
    :class:`ServingResult` (per-query latencies, per-machine counters,
    cache stats), so a cached run renders a byte-identical report.
    """
    from repro.resilience.chaos import active_plan
    from repro.serving.simulator import ServingConfig, ServingResult, ServingSimulator
    from repro.serving.workload import WorkloadSpec

    spec = spec if spec is not None else WorkloadSpec(seed=seed)
    config = config if config is not None else ServingConfig()
    plan = active_plan()
    key = artifacts.config_key(
        "serving",
        {
            "workload": spec.to_dict(),
            "config": config.to_dict(),
            "seed": int(seed),
            "chaos": plan.to_json() if plan is not None else "",
        },
    )
    return artifacts.memo(
        "servetrace",
        assignment.fingerprint(),
        key,
        lambda: ServingSimulator(assignment, config, seed=seed).run(spec.generate(graph)),
        artifacts.dataclass_payload,
        lambda payload: artifacts.dataclass_from_payload(ServingResult, payload),
    )
