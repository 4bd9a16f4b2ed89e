"""The shard write path and streaming over shards do not move a byte.

``tests/data/shard_digests.json`` pins two kinds of cell; its ``note`` names
the commit they were recorded on.

- ``build/…``: the sha256 of every bucket file (after the last
  ``add_edges``) and every shard ``.npy`` (after ``finalize``) of a
  :class:`ShardedCSRBuilder` run: the ``partition_sharded`` benchmark's input
  (``social_edge_batches(2**17, 16, 2.3)``, shards of 2**14, batches of
  2**18), the same with ``num_vertices=None`` and with ``directed=True``, a
  smaller stream fed one arc per batch, and one whose buckets exceed
  ``_BUCKET_CHUNK_ARCS`` (patched small).
- ``partition/…``: Fennel, BPart and LDG assignment digests on a spilled
  graph under every ``order=`` (LDG's loop driven directly off natural
  order) and with ``passes=3``, on shards of a size
  that divides ``n``, of one that does not, and opened with
  ``max_open_shards=2`` below the shard count, so the LRU evicts mid-pass.

Re-record by running this file from the repository root::

    PYTHONPATH=src python -m tests.graph.test_shard_digests
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.graph import (
    ShardedCSRBuilder,
    open_sharded,
    social_edge_batches,
    social_graph,
    spill_csr,
)
from repro.graph import sharded as sharded_mod
from repro.graph.stream import vertex_stream
from repro.partition import PartitionAssignment, get_partitioner
from repro.partition._streamcore import SLACK
from repro.partition.kernels.buffered import ldg_buffered

DIGESTS = Path(__file__).parents[1] / "data" / "shard_digests.json"

BUILDS = {  # cell -> (stream, builder options, one arc per batch, bucket chunk budget)
    "benchmark": ("benchmark", {"num_vertices": 2**17}, False, None),
    "benchmark inferred": ("benchmark", {}, False, None),
    "benchmark directed": ("benchmark", {"num_vertices": 2**17, "directed": True}, False, None),
    "one-arc batches": ("small", {"shard_size": 100}, True, None),
    "bucket over chunk": ("mid", {"num_vertices": 2**14, "shard_size": 2**11}, False, 1000),
}
STREAMS = {  # name -> social_edge_batches arguments
    "benchmark": (2**17, 16.0, 2.3, 1, 1 << 18),
    "small": (2**10, 8.0, 2.3, 3, 1 << 12),
    "mid": (2**14, 16.0, 2.3, 1, 1 << 15),
}
SPILLS = {  # cell -> (shard size, max open shards) for the 4000-vertex graph
    "shard 1000": (1000, 8),
    "shard 768": (768, 8),
    "shard 512 open 2": (512, 2),
}
OPTIONS = {
    "natural": {},
    "random": {"order": "random", "seed": 5},
    "bfs": {"order": "bfs", "seed": 5},
    "degree": {"order": "degree"},
    "passes=3": {"passes": 3},
}
ALGOS = ("fennel", "bpart", "ldg")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def build_cell(name: str, directory: Path) -> dict:
    stream, options, one_arc, chunk = BUILDS[name]
    n, d, gamma, seed, batch = STREAMS[stream]
    options = {"shard_size": 2**14, **options}
    budget = mock.patch.object(sharded_mod, "_BUCKET_CHUNK_ARCS", chunk or
                               sharded_mod._BUCKET_CHUNK_ARCS)
    with budget:
        builder = ShardedCSRBuilder(directory, **options)
        for src, dst in social_edge_batches(n, d, gamma, rng=seed, batch_size=batch):
            if one_arc:
                for u, v in zip(src.tolist(), dst.tolist()):
                    builder.add_edges([u], [v])
            else:
                builder.add_edges(src, dst)
        for fh in builder._buckets.values():
            fh.flush()
        files = {p.name: _sha(p) for p in sorted(directory.glob("bucket-*.tmp"))}
        graph = builder.finalize()
        graph.close()
    files.update({p.name: _sha(p) for p in sorted(directory.glob("shard-*.npy"))})
    return files


def partition_cell(spill: str, algo: str, option: str, directory: Path) -> str:
    shard_size, max_open = SPILLS[spill]
    spill_csr(social_graph(4000, 10.0, 2.3, rng=17), directory, shard_size=shard_size).close()
    graph = open_sharded(directory, max_open_shards=max_open)
    try:
        if algo == "ldg" and option != "natural":
            # LDGPartitioner streams in natural order; its loop takes any stream
            parts = np.full(graph.num_vertices, -1, dtype=np.int32)
            stream = vertex_stream(graph, OPTIONS[option]["order"], rng=OPTIONS[option].get("seed"))
            ldg_buffered(graph, stream, parts, np.zeros(6), capacity=SLACK * graph.num_vertices / 6)
            return PartitionAssignment(graph, parts, 6).fingerprint()
        result = get_partitioner(algo, **OPTIONS[option]).partition(graph, 6)
        return result.assignment.fingerprint()
    finally:
        graph.close()


def partition_cells():
    for spill in SPILLS:
        for algo in ALGOS:
            for option in OPTIONS:
                if not (algo == "ldg" and option == "passes=3"):  # LDG is single-pass
                    yield spill, algo, option


def record() -> dict:
    cells = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in BUILDS:
            cells[f"build/{name}"] = build_cell(name, Path(tmp) / name)
        for spill, algo, option in partition_cells():
            cells[f"partition/{spill}/{algo}/{option}"] = partition_cell(
                spill, algo, option, Path(tmp) / f"{spill}-{algo}-{option}")
    return cells


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", list(BUILDS))
def test_builder_files(recorded, name, tmp_path):
    assert build_cell(name, tmp_path / "b") == recorded[f"build/{name}"]


@pytest.mark.parametrize("spill, algo, option", list(partition_cells()))
def test_partition_on_shards(recorded, spill, algo, option, tmp_path):
    assert partition_cell(spill, algo, option, tmp_path / "s") == recorded[
        f"partition/{spill}/{algo}/{option}"]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    doc = {"note": f"recorded on commit {commit}", **record()}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
