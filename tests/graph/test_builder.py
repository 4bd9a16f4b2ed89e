"""``from_edges`` and the intake it shares with ``ShardedCSRBuilder``.

``tests/data/graph_digests.json`` was recorded on the commit *before*
``from_edges`` became the one-block case of the shard writer's rows
routine (its body was a stable ``argsort`` plus gathers then), from
``{name: build().fingerprint() for name, build in GRAPHS.items()}``:
"sorted unique destinations per source" has one encoding, so the
rewrite may move no dense graph. The twitter ×2 cells (the
``partition_dense`` benchmark's first two inputs), the full-size
``partition_sharded`` stream and the zero-weight Chung–Lu cell were
recorded, twice, before the generators' weighted draws moved from
``Generator.choice`` into ``graph/_sample.c``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph import (
    ShardedCSRBuilder,
    barabasi_albert,
    chung_lu,
    complete_graph,
    erdos_renyi,
    from_edges,
    grid_graph,
    load_dataset,
    path_graph,
    planted_partition,
    ring_graph,
    rmat,
    social_edge_batches,
    social_graph,
    star_graph,
)

PINNED = json.loads(
    (Path(__file__).parents[1] / "data" / "graph_digests.json").read_text()
)


def _batched_social(shrink: int):
    # partition_sharded's stream at 1/shrink size, through the dense builder.
    n = 2**17 // shrink
    batches = list(social_edge_batches(n, 16.0, 2.3, rng=1, batch_size=(1 << 18) // shrink))
    return from_edges(
        np.concatenate([s for s, _ in batches]),
        np.concatenate([d for _, d in batches]),
        num_vertices=n,
    )


def _zero_weights():
    # user weights with zero mass at both ends and in the middle
    w = np.linspace(1.0, 20.0, 500)
    w[[0, 1, 250, 498, 499]] = 0.0
    return w


GRAPHS = {
    "social_graph": lambda: social_graph(3000, 12.0, 2.3, rng=1),
    "chung_lu": lambda: chung_lu(3000, 10.0, 2.4, rng=1),
    "chung_lu zero weights": lambda: chung_lu(500, 8.0, weights=_zero_weights(), rng=1),
    "rmat": lambda: rmat(11, 8, rng=1),
    "rmat directed": lambda: rmat(11, 8, rng=1, directed=True),
    "barabasi_albert": lambda: barabasi_albert(2000, 4, rng=1),
    "erdos_renyi": lambda: erdos_renyi(2000, 9.0, rng=1),
    "planted_partition": lambda: planted_partition(2000, 8, rng=1)[0],
    "ring_graph": lambda: ring_graph(257),
    "path_graph": lambda: path_graph(257),
    "star_graph": lambda: star_graph(256),
    "grid_graph": lambda: grid_graph(17, 23),
    "complete_graph": lambda: complete_graph(41),
    "social_edge_batches -> from_edges": lambda: _batched_social(8),
    "social_edge_batches 2^17 -> from_edges": lambda: _batched_social(1),
    **{
        f"{name} scale={scale}": (lambda n=name, s=scale: load_dataset(n, s, 1))
        for name in ("livejournal", "twitter", "friendster")
        for scale in (0.25, 1.0)
    },
    # partition_dense's first two inputs
    "twitter scale=2.0": lambda: load_dataset("twitter", 2.0, 1),
    "twitter scale=2.0 seed=1001": lambda: load_dataset("twitter", 2.0, 1001),
}


def test_every_pinned_graph_is_built():
    assert sorted(PINNED) == sorted(GRAPHS)


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_dense_graph_did_not_move(name):
    assert GRAPHS[name]().fingerprint() == PINNED[name]


# ----------------------------------------------------------------------
# The shared intake
# ----------------------------------------------------------------------
def _dense(src, dst, tmp_path):
    return from_edges(src, dst)


def _sharded(src, dst, tmp_path):
    builder = ShardedCSRBuilder(tmp_path / "b", shard_size=2)
    builder.add_edges(src, dst)
    return builder.finalize()


@pytest.mark.parametrize("build", [_dense, _sharded])
class TestIntake:
    @pytest.mark.parametrize(
        "src, dst",
        [
            ([0.5, 1.9], [1.2, 2.7]),
            (np.array([0.0, 1.0]), np.array([1, 2])),
            ([0, 1], ["1", "2"]),
            ([True, False], [False, True]),
        ],
        ids=["floats", "float-array", "strings", "bools"],
    )
    def test_non_integer_ids_are_rejected_not_truncated(self, build, src, dst, tmp_path):
        with pytest.raises(GraphFormatError, match="integer"):
            build(src, dst, tmp_path)

    def test_empty_python_lists_are_accepted(self, build, tmp_path):
        # np.asarray([]) is float64; an empty batch is still no edges.
        assert build([], [], tmp_path).num_edges == 0

    @pytest.mark.parametrize("dtype", [np.int8, np.uint16, np.int32, np.uint64, np.int64])
    def test_every_integer_dtype_builds_the_same_graph(self, build, dtype, tmp_path):
        src, dst = np.array([0, 3, 3], dtype=dtype), np.array([1, 2, 2], dtype=dtype)
        graph = build(src, dst, tmp_path)
        assert [list(graph.neighbors(v)) for v in range(4)] == [[1], [0], [3], [2]]

    def test_messages(self, build, tmp_path):
        with pytest.raises(GraphFormatError, match="lengths differ: 2 != 1"):
            build([0, 1], [2], tmp_path)
        with pytest.raises(GraphFormatError, match="negative vertex id in edge list"):
            build([0, -1], [2, 3], tmp_path)


def test_num_vertices_too_small_has_one_message(tmp_path):
    message = "num_vertices=3 too small for max vertex id 3"
    with pytest.raises(GraphFormatError, match=message):
        from_edges([0], [3], 3)
    with pytest.raises(GraphFormatError, match=message):
        ShardedCSRBuilder(tmp_path / "b", num_vertices=3).add_edges([0], [3])


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("loops", [False, True])
def test_caller_arrays_are_left_alone(directed, loops):
    # Without loops and with directed=True nothing forces the intake to copy.
    rng = np.random.default_rng(5)
    src = rng.integers(0, 50, 400)
    dst = (src + rng.integers(0 if loops else 1, 50, 400)) % 50
    assert src.dtype == np.int64 and src.flags.writeable
    before = src.copy(), dst.copy()
    from_edges(src, dst, 50, directed=directed)
    assert np.array_equal(src, before[0]) and np.array_equal(dst, before[1])


@pytest.mark.parametrize("option", ["dedup", "drop_self_loops"])
def test_from_edges_options_are_gone(option):
    with pytest.raises(TypeError):
        from_edges([0], [1], **{option: False})


@pytest.mark.parametrize("option", ["symmetrize", "drop_self_loops"])
def test_sharded_builder_options_are_gone(option, tmp_path):
    with pytest.raises(TypeError):
        ShardedCSRBuilder(tmp_path / "b", **{option: False})
