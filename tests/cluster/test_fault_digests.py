"""Bytes did not move: the fault-injecting cluster's ledgers and reports.

Each cell runs one job under one fault plan and hashes the ledger's
canonical JSON, the canonical :class:`FaultReport` dict and
``total_messages``. The digests were recorded on the commit before the
fault plan became an input of :class:`BSPCluster` (d159539), when a
separate wrapper class ran it; this file's ``_cell`` was run against
that tree with the wrapper in place of ``CLUSTER``.
Re-record with ``PYTHONPATH=src python tests/cluster/test_fault_digests.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster import BSPCluster
from repro.cluster.faults import CheckpointPolicy, Crash, DegradedLink, FaultPlan, Straggler
from repro.engines.gemini import GeminiEngine, PageRank
from repro.engines.knightking import DeepWalk, WalkEngine
from repro.graph import twitter_like
from repro.partition import get_partitioner
from repro.utils import canon

DIGESTS = Path(__file__).parent / "data" / "fault_digests.json"
CLUSTER = BSPCluster
MACHINES = 4

STRAGGLER = Straggler(machine=0, start=0, duration=2, factor=3.0)
CRASH = Crash(machine=1, superstep=2)
LINK = DegradedLink(src=0, dst=2, start=1, bandwidth_scale=0.25, latency_scale=2.0)
FAULTS = {
    "straggler": {"stragglers": (STRAGGLER,)},
    "crash+straggler": {"crashes": (CRASH,), "stragglers": (STRAGGLER,)},
    "crash+link": {"crashes": (CRASH,), "degraded_links": (LINK,)},
}
GRID = [
    (engine, recovery, interval, faults, algo)
    for engine in ("deepwalk", "pagerank")
    for recovery in ("restart", "redistribute")
    for interval in (0, 2)
    for faults in FAULTS
    for algo in ("bpart", "chunk-v")
]
ZERO_FAULT = "deepwalk/none/bpart"


@functools.lru_cache(maxsize=None)
def _job(algo):
    g = twitter_like(scale=0.1, seed=2)
    return g, get_partitioner(algo, seed=2).partition(g, MACHINES).assignment


def _run(cluster, engine, g, a) -> None:
    if engine == "deepwalk":
        WalkEngine(cluster, seed=3).run(g, a, DeepWalk(), walkers_per_vertex=2, max_steps=4)
    else:
        GeminiEngine(cluster).run(g, a, PageRank(5))


def _digest(cluster) -> str:
    h = hashlib.sha256(cluster.ledger.to_json().encode())
    h.update(canon.dumps(cluster.report().as_dict()).encode())
    h.update(repr(cluster.total_messages).encode())
    return h.hexdigest()


def _cell(engine, recovery, interval, faults, algo) -> str:
    g, a = _job(algo)
    plan = FaultPlan(
        **FAULTS[faults],
        checkpoint=CheckpointPolicy(interval=interval),
        recovery=recovery,
        seed=7,
    )
    cluster = CLUSTER(MACHINES, plan, graph=g, assignment=a)
    _run(cluster, engine, g, a)
    return _digest(cluster)


def _zero_fault_cell() -> str:
    g, a = _job("bpart")
    cluster = CLUSTER(MACHINES)
    _run(cluster, "deepwalk", g, a)
    return _digest(cluster)


def _cell_id(engine, recovery, interval, faults, algo) -> str:
    return f"{engine}/{recovery}/ckpt{interval}/{faults}/{algo}"


class TestBytesDidNotMove:
    @pytest.fixture(scope="class")
    def recorded(self):
        return json.loads(DIGESTS.read_text())

    @pytest.mark.parametrize("cell", GRID, ids=lambda c: _cell_id(*c))
    def test_grid(self, recorded, cell):
        assert _cell(*cell) == recorded[_cell_id(*cell)]

    def test_zero_fault(self, recorded):
        assert _zero_fault_cell() == recorded[ZERO_FAULT]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    digests = {_cell_id(*cell): _cell(*cell) for cell in GRID}
    digests[ZERO_FAULT] = _zero_fault_cell()
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
