"""BPart's remainder layers and ``extract_subgraph`` do not move a byte.

``tests/data/remainder_digests.json`` pins, at the benchmark's sizes, the
BPart k=8 assignments whose layers 2 and 3 stream an extracted remainder
(twitter x2 at seeds 1 and 1001, twitter x1, livejournal x1, and the 2**17
``social_edge_batches`` graph dense and spilled to 8 shards), BPart under
every stream order and with ``passes=3``, and the full output of
``extract_subgraph`` on seeded random masks over four graphs: int32 and
int64 ``indices``, a spilled graph and a hand-built graph with unsorted
rows. The file's ``note`` names the commit it was recorded on. Re-record
by running this file from the repository root::

    PYTHONPATH=src python -m tests.partition.test_remainder_digests
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    ShardedCSRBuilder,
    extract_subgraph,
    from_edges,
    load_dataset,
    social_edge_batches,
    social_graph,
    spill_csr,
)
from repro.partition import get_partitioner

DIGESTS = Path(__file__).parents[1] / "data" / "remainder_digests.json"

BPART = {  # cell -> (dataset, scale, seed)
    "twitter x2 seed 1": ("twitter", 2.0, 1),
    "twitter x2 seed 1001": ("twitter", 2.0, 1001),
    "twitter x1 seed 1": ("twitter", 1.0, 1),
    "livejournal x1 seed 1": ("livejournal", 1.0, 1),
}
OPTIONS = {  # cell -> BPart options on twitter x1 seed 1
    "order=random": {"order": "random", "seed": 5},
    "order=bfs": {"order": "bfs", "seed": 5},
    "order=degree": {"order": "degree"},
    "passes=3": {"passes": 3},
}
SUBGRAPH_KINDS = ["int32", "int64", "spilled", "unsorted"]
DENSITIES = [0.05, 0.5, 0.95]


def _bpart(graph, **options) -> str:
    return get_partitioner("bpart", **options).partition(graph, 8).assignment.fingerprint()


def _batches():
    """The partition_sharded workload's input: 2**17 vertices, 8 shards of 2**14."""
    return list(social_edge_batches(2**17, 16.0, 2.3, rng=1, batch_size=1 << 18))


def batches_cell(kind: str, directory) -> str:
    batches = _batches()
    if kind == "dense":
        src = np.concatenate([b[0] for b in batches])
        dst = np.concatenate([b[1] for b in batches])
        return _bpart(from_edges(src, dst, num_vertices=2**17), seed=1)
    builder = ShardedCSRBuilder(directory, num_vertices=2**17, shard_size=1 << 14)
    for src, dst in batches:
        builder.add_edges(src, dst)
    graph = builder.finalize()
    try:
        return _bpart(graph, seed=1)
    finally:
        graph.close()


def subgraph_graph(kind: str, directory) -> CSRGraph:
    g = social_graph(3000, 10.0, 2.3, rng=21)
    if kind == "int64":
        return CSRGraph(g.indptr, g.indices.astype(np.int64))
    if kind == "spilled":
        return spill_csr(g, directory, shard_size=700)
    if kind == "unsorted":
        rows = [g.neighbors(v)[::-1] for v in range(g.num_vertices)]
        return CSRGraph(g.indptr, np.concatenate(rows))
    return g


def subgraph_digest(sub) -> str:
    """Every output byte of one extraction: the induced CSR, its index dtype,
    the id maps and both arc counts."""
    h = hashlib.sha256()
    blocks = list(sub.graph.iter_blocks())
    indices = np.concatenate([idx for *_, idx in blocks]) if blocks else np.empty(0, np.int32)
    for name, a in (("indptr", sub.graph.indptr), ("indices", indices),
                    ("global_ids", sub.global_ids), ("local_of", sub.local_of)):
        a = np.ascontiguousarray(a)
        h.update(f"{name}:{a.dtype.str}:{a.size}:".encode())
        h.update(a.tobytes())
    h.update(f"cut:{sub.num_cut_arcs}:total:{sub.num_total_arcs}".encode())
    return h.hexdigest()


def subgraph_cell(kind: str, density: float, directory) -> str:
    graph = subgraph_graph(kind, directory)
    mask = np.random.default_rng(int(density * 100)).random(graph.num_vertices) < density
    try:
        return subgraph_digest(extract_subgraph(graph, mask))
    finally:
        if kind == "spilled":
            graph.close()


def record() -> dict:
    cells = {f"bpart/{name}": _bpart(load_dataset(*spec)) for name, spec in BPART.items()}
    twitter = load_dataset("twitter", 1.0, 1)
    cells.update({f"bpart/{name}": _bpart(twitter, **o) for name, o in OPTIONS.items()})
    with tempfile.TemporaryDirectory() as tmp:
        for kind in ("dense", "sharded"):
            cells[f"bpart/batches 2^17/{kind}"] = batches_cell(kind, Path(tmp) / kind)
        for kind in SUBGRAPH_KINDS:
            for density in DENSITIES:
                cells[f"subgraph/{kind}/{density}"] = subgraph_cell(
                    kind, density, Path(tmp) / f"{kind}-{density}")
    return cells


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(BPART))
def test_bpart_at_the_benchmark_sizes(recorded, name):
    assert _bpart(load_dataset(*BPART[name])) == recorded[f"bpart/{name}"]


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_bpart_options(recorded, name):
    twitter = load_dataset("twitter", 1.0, 1)
    assert _bpart(twitter, **OPTIONS[name]) == recorded[f"bpart/{name}"]


@pytest.mark.parametrize("kind", ["dense", "sharded"])
def test_bpart_on_the_edge_batches(recorded, kind, tmp_path):
    assert batches_cell(kind, tmp_path / "shards") == recorded[f"bpart/batches 2^17/{kind}"]


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("kind", SUBGRAPH_KINDS)
def test_extract_subgraph(recorded, kind, density, tmp_path):
    assert subgraph_cell(kind, density, tmp_path / "shards") == recorded[
        f"subgraph/{kind}/{density}"]


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    doc = {"note": f"recorded on commit {commit}", **record()}
    DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
