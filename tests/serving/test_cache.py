"""Partition-aware block cache: LRU mechanics and telemetry counters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.serving import PartitionAwareCache
from tests.serving._cache_model import COUNTERS, ModelCache, lru_order


def test_validation():
    with pytest.raises(ConfigurationError):
        PartitionAwareCache(0)
    with pytest.raises(ConfigurationError):
        PartitionAwareCache(2, block_size=0)
    with pytest.raises(ConfigurationError):
        PartitionAwareCache(2, capacity=-1)


@pytest.mark.parametrize(
    "name, value", [("num_machines", 2.0), ("block_size", True), ("capacity", 2.5)]
)
def test_sizes_are_counts(name, value):
    # float and bool sizes were truncated (capacity 2.5 -> 2, block_size True -> 1)
    kwargs = {"num_machines": 2, "block_size": 4, "capacity": 4, name: value}
    with pytest.raises(ConfigurationError, match=name):
        PartitionAwareCache(**kwargs)


@pytest.mark.parametrize("machine", [-1, 8, 2.0, True])
@pytest.mark.parametrize("op", ["touch", "flush", "reset"])
def test_machine_outside_the_cluster_is_rejected(machine, op):
    # -1 used to touch machine 7's LRU and 8 raised a raw IndexError
    cache = PartitionAwareCache(8, block_size=1, capacity=4)
    args = (machine, np.array([3])) if op == "touch" else (machine,)
    with pytest.raises(ConfigurationError, match="machine"):
        getattr(cache, op)(*args)
    assert lru_order(cache, 7) == [] and cache.flushes.sum() == 0


@pytest.mark.parametrize(
    "vertices", [np.array([-5]), np.array([3, -1, 4]), np.array([1.0, 2.0]), [0.5], [True]]
)
def test_vertex_ids_are_non_negative_integers(vertices):
    # [-5] used to cache block -1; float ids were truncated
    cache = PartitionAwareCache(1, block_size=4, capacity=4)
    with pytest.raises(ConfigurationError, match="vertices"):
        cache.touch(0, vertices)
    assert lru_order(cache, 0) == [] and cache.stats()["misses"] == 0


def test_cold_miss_then_hit():
    cache = PartitionAwareCache(1, block_size=4, capacity=8)
    fetched = cache.touch(0, np.array([0, 1, 2, 3]))  # one block
    assert fetched == 1
    assert cache.misses[0] == 4 and cache.hits[0] == 0
    fetched = cache.touch(0, np.array([2, 3]))
    assert fetched == 0
    assert cache.hits[0] == 2
    assert cache.stats()["hit_rate"] == pytest.approx(2 / 6)


def test_per_vertex_counting_within_one_call():
    cache = PartitionAwareCache(1, block_size=4, capacity=8)
    # 3 vertices in block 0, 1 in block 1, both cold: 4 misses, 2 fetches.
    assert cache.touch(0, np.array([0, 1, 2, 4])) == 2
    assert cache.misses[0] == 4
    assert cache.miss_blocks[0] == 2


def test_lru_eviction_order():
    cache = PartitionAwareCache(1, block_size=1, capacity=2)
    cache.touch(0, np.array([10]))
    cache.touch(0, np.array([20]))
    cache.touch(0, np.array([10]))  # refresh 10 → 20 is now LRU
    cache.touch(0, np.array([30]))  # evicts 20
    assert cache.evictions[0] == 1
    assert cache.touch(0, np.array([10])) == 0  # still resident
    assert cache.touch(0, np.array([20])) == 1  # was evicted


def test_capacity_respected():
    cache = PartitionAwareCache(1, block_size=1, capacity=3)
    cache.touch(0, np.arange(100))
    assert lru_order(cache, 0) == [97, 98, 99]  # evicted only after the whole call
    assert cache.evictions[0] == 97


def test_machines_isolated():
    cache = PartitionAwareCache(2, block_size=1, capacity=4)
    cache.touch(0, np.array([1, 2]))
    assert cache.touch(1, np.array([1, 2])) == 2  # cold on machine 1
    assert cache.hits[1] == 0


def test_flush():
    cache = PartitionAwareCache(1, block_size=1, capacity=8)
    cache.touch(0, np.array([1, 2, 3]))
    assert cache.flush(0) == 3
    assert lru_order(cache, 0) == []
    assert cache.flushes[0] == 1
    assert cache.touch(0, np.array([1])) == 1  # cold again


def test_empty_touch_is_noop():
    cache = PartitionAwareCache(1)
    assert cache.touch(0, np.array([], dtype=np.int64)) == 0
    assert cache.touch(0, []) == 0
    assert cache.stats()["hit_rate"] == 0.0


def test_stats_shape():
    cache = PartitionAwareCache(2, block_size=2, capacity=4)
    cache.touch(0, np.array([0, 1, 2]))
    cache.touch(0, np.array([0]))
    stats = cache.stats()
    assert stats == {
        "hits": 1,
        "misses": 3,
        "miss_blocks": 2,
        "evictions": 0,
        "flushes": 0,
        "hit_rate": 0.25,
    }


def test_reset_clears_without_counting_a_flush():
    cache = PartitionAwareCache(2, block_size=1, capacity=8)
    cache.touch(0, np.array([1, 2, 3]))
    assert cache.reset(0) == 3
    assert lru_order(cache, 0) == []
    assert cache.flushes[0] == 0  # recovery cold-start, not chaos
    assert cache.touch(0, np.array([1])) == 1  # cold again


def test_growth_keeps_every_resident_list():
    cache = PartitionAwareCache(2, block_size=1, capacity=4)
    cache.touch(0, np.array([0, 1]))
    cache.touch(1, np.array([1, 0]))
    assert cache.touch(1, np.array([5000])) == 1  # grows the arrays mid-stream
    assert (lru_order(cache, 0), lru_order(cache, 1)) == ([0, 1], [0, 1, 5000])
    assert cache.touch(0, np.array([1, 0, 70000])) == 1
    assert lru_order(cache, 0) == [0, 1, 70000]


# --- property-based: the arrays against the OrderedDict model ----------

from hypothesis import given, settings
from hypothesis import strategies as st

# An op stream mixing batch touches (empty ones, block ids far past the
# arrays' current size, and repeats of the previous touch), chaos
# flushes, and recovery resets — the exact interleaving the replicated
# simulator produces around a failover (flush on serving.cache chaos,
# reset after re-replication).
_VERTEX = st.one_of(st.integers(0, 199), st.integers(0, 40000))
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("touch"), st.integers(0, 1), st.lists(_VERTEX, max_size=12)),
        st.tuples(st.just("repeat")),
        st.tuples(st.just("flush"), st.integers(0, 1)),
        st.tuples(st.just("reset"), st.integers(0, 1)),
    ),
    max_size=60,
)


def _apply(ops, *, block_size=4, capacity=6, model=None):
    """Run ``ops`` on a fresh cache (and ``model``, checked after each op);
    returns the cache and each op's ``(name, return value)``."""
    cache = PartitionAwareCache(2, block_size=block_size, capacity=capacity)
    observed, last = [], None
    for op in ops:
        if op[0] == "repeat":
            if last is None:
                continue
            op = last
        if op[0] == "touch":
            last = op
            args = (op[1], np.asarray(op[2], dtype=np.int64))
        else:
            args = (op[1],)
        observed.append((op[0], getattr(cache, op[0])(*args)))
        if model is not None:
            assert observed[-1][1] == getattr(model, op[0])(*args)
            for m in (0, 1):
                assert lru_order(cache, m) == model.order(m)
            for name in COUNTERS:
                assert getattr(cache, name).tolist() == getattr(model, name)
    return cache, observed


class TestCacheProperties:
    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, block_size=st.sampled_from([1, 4, 64]), capacity=st.sampled_from([1, 2, 6]))
    def test_equals_the_ordered_dict_model(self, ops, block_size, capacity):
        model = ModelCache(2, block_size=block_size, capacity=capacity)
        _apply(ops, block_size=block_size, capacity=capacity, model=model)

    @settings(max_examples=80, deadline=None)
    @given(ops=_OPS)
    def test_size_bound_holds_under_any_interleaving(self, ops):
        cache, _ = _apply(ops)
        for m in (0, 1):
            assert 0 <= len(lru_order(cache, m)) <= cache.capacity

    @settings(max_examples=80, deadline=None)
    @given(ops=_OPS, extra=st.integers(0, 199))
    def test_hit_after_insert_within_capacity(self, ops, extra):
        cache, _ = _apply(ops)
        # touching a vertex makes its block resident: an immediate
        # re-touch of the same vertex is always a hit.
        cache.touch(0, np.array([extra]))
        hits_before = int(cache.hits[0])
        fetched = cache.touch(0, np.array([extra]))
        assert fetched == 0
        assert int(cache.hits[0]) == hits_before + 1

    @settings(max_examples=80, deadline=None)
    @given(ops=_OPS)
    def test_eviction_order_is_lru(self, ops):
        # Reference model: an ordered list with move-to-end on hit,
        # evict-from-front on overflow, per machine.
        cache, _ = _apply(ops)
        model, last = [[], []], None
        for op in ops:
            if op[0] == "repeat":
                if last is None:
                    continue
                op = last
            if op[0] == "touch":
                last = op
                m = op[1]
                blocks = sorted(set(v // cache.block_size for v in op[2]))
                for b in blocks:
                    if b in model[m]:
                        model[m].remove(b)
                    model[m].append(b)
                while len(model[m]) > cache.capacity:
                    model[m].pop(0)
            else:
                model[op[1]] = []
        for m in (0, 1):
            assert lru_order(cache, m) == model[m]

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_same_op_stream_gives_identical_counter_sequences(self, ops):
        cache_a, seq_a = _apply(ops)
        cache_b, seq_b = _apply(ops)
        assert seq_a == seq_b
        assert cache_a.stats() == cache_b.stats()
        assert cache_a.hits.tolist() == cache_b.hits.tolist()
        assert cache_a.evictions.tolist() == cache_b.evictions.tolist()

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_stats_are_consistent(self, ops):
        cache, observed = _apply(ops)
        stats = cache.stats()
        touches = [value for name, value in observed if name == "touch"]
        assert stats["miss_blocks"] == sum(touches)
        total = stats["hits"] + stats["misses"]
        assert stats["hit_rate"] == (stats["hits"] / total if total else 0.0)
