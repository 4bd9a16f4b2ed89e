"""``Runs on shards`` as a checked property: every vertex program and walk
app the engines export must give the same answer on a dense graph and on
its ``spill_csr`` twin."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import BSPCluster
from repro.engines.gemini import GeminiEngine
from repro.engines.gemini import apps as vertex_programs
from repro.engines.knightking import WalkEngine
from repro.engines.knightking import apps as walk_apps
from repro.graph import chung_lu, spill_csr
from repro.partition import HashPartitioner

PARTS = 4


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    dense = chung_lu(900, 7.0, 2.3, rng=5)
    # 8 shards of 128 vertices, the last one of 4.
    sharded = spill_csr(dense, tmp_path_factory.mktemp("twin"), shard_size=128)
    return dense, sharded, HashPartitioner().partition(dense, PARTS).assignment


@pytest.mark.parametrize("name", vertex_programs.__all__)
def test_vertex_program_on_shards(name, twins):
    dense, sharded, assignment = twins
    program = getattr(vertex_programs, name)
    on_dense = GeminiEngine(BSPCluster(PARTS)).run(dense, assignment, program())
    on_shards = GeminiEngine(BSPCluster(PARTS)).run(sharded, assignment, program())
    np.testing.assert_array_equal(on_shards.values, on_dense.values)
    assert on_shards.iterations == on_dense.iterations
    assert on_shards.ledger.to_json() == on_dense.ledger.to_json()


@pytest.mark.parametrize("name", [n for n in walk_apps.__all__ if n != "WalkApp"])
def test_walk_app_on_shards(name, twins):
    dense, sharded, assignment = twins
    cls = getattr(walk_apps, name)

    def run(graph):
        return WalkEngine(BSPCluster(PARTS), seed=3, record_paths=True).run(
            graph, assignment, cls()
        )

    on_dense, on_shards = run(dense), run(sharded)
    np.testing.assert_array_equal(on_shards.paths, on_dense.paths)
    assert on_shards.ledger.to_json() == on_dense.ledger.to_json()
