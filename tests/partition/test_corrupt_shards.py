"""A shard whose neighbour ids or row offsets leave it is refused, not a crash.

``ShardedCSRGraph.validate`` reads the shard headers only, so an
``indices.npy`` with one id past ``n``, or an ``indptr.npy`` with one
offset past its indices (headers intact), opens fine. The C loops that
read those ids and offsets range-check them and the call raises
``GraphFormatError`` naming the row: the streaming kernel for ids, the
node2vec arc test for offsets. The work runs in a child process, so a
crash fails the test instead of the test run.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")

CHILD = """
import sys
import numpy as np
from repro.errors import GraphFormatError
from repro.graph import chung_lu, open_sharded, spill_csr
from repro.partition import get_partitioner

directory, value = sys.argv[1], sys.argv[2]
g = chung_lu(4000, 8, rng=1)
spill_csr(g, directory, shard_size=1024)
ids = np.load(f"{directory}/shard-00000.indices.npy", mmap_mode="r+")
ids[5] = np.iinfo(ids.dtype).max if value == "max" else g.num_vertices + int(value)
ids.flush()
del ids
graph = open_sharded(directory)
for algo in ("fennel", "bpart"):
    try:
        get_partitioner(algo).partition(graph, 8)
    except GraphFormatError as exc:
        print(algo, exc)
    else:
        print(algo, "accepted the corrupted shard")
"""


@pytest.mark.parametrize("value", ["1000000", "max"], ids=["n+10**6", "dtype-max"])
def test_a_corrupted_shard_is_a_graph_format_error(tmp_path, value):
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "shards"), value],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]  # -11 (SIGSEGV) before the C loop checked ids
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["fennel", "bpart"], run.stdout
    for line in lines:
        assert "row " in line and "neighbour ids outside [0, 4000)" in line, line


OFFSETS_CHILD = """
import sys
import numpy as np
from repro.cluster import BSPCluster
from repro.engines.knightking import Node2Vec, WalkEngine, arcs_exist
from repro.errors import GraphFormatError
from repro.graph import chung_lu, open_sharded, spill_csr
from repro.partition import PartitionAssignment

directory = sys.argv[1]
spill_csr(chung_lu(4000, 8, rng=1), directory, shard_size=1024)
offsets = np.load(f"{directory}/shard-00000.indptr.npy", mmap_mode="r+")
offsets[5] = offsets[-1] + 1  # one past the shard's indices
offsets.flush()
del offsets
graph = open_sharded(directory)
every = np.arange(graph.num_vertices)
runs = {
    "arcs_exist": lambda: arcs_exist(graph, every, every[::-1].copy()),
    "node2vec": lambda: WalkEngine(BSPCluster(2)).run(
        graph, PartitionAssignment(graph, every % 2, 2), Node2Vec(), max_steps=3),
}
for name, run in runs.items():
    try:
        run()
    except GraphFormatError as exc:
        print(name, exc)
    else:
        print(name, "accepted the corrupted shard")
"""


def test_corrupted_row_offsets_are_a_graph_format_error(tmp_path):
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-c", OFFSETS_CHILD, str(tmp_path / "shards")],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["arcs_exist", "node2vec"], run.stdout
    for line in lines:
        assert re.fullmatch(r"\w+ row \d+: offsets outside \[0, \d+\]", line), line
