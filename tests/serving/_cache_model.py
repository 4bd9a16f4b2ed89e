"""The reference model of the serving block cache, and a reader of the real one.

``ModelCache`` is the cache as it was before its batch step moved into
``serving/_serve.c``: an ``OrderedDict`` per machine, and ``touch_blocks``
the deleted method line for line. ``lru_order`` reads a
``PartitionAwareCache`` machine's LRU by walking its arrays from the head.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

COUNTERS = ("hits", "misses", "miss_blocks", "evictions", "flushes")


class ModelCache:
    """Per-machine ``OrderedDict`` LRU over vertex blocks."""

    def __init__(self, num_machines: int, *, block_size: int, capacity: int) -> None:
        self.block_size, self.capacity = block_size, capacity
        self.blocks = [OrderedDict() for _ in range(num_machines)]
        for name in COUNTERS:
            setattr(self, name, [0] * num_machines)

    def touch(self, machine: int, vertices) -> int:
        verts = np.asarray(vertices, dtype=np.int64)
        blocks, counts = np.unique(verts // self.block_size, return_counts=True)
        return self.touch_blocks(machine, zip(blocks.tolist(), counts.tolist()))

    def touch_blocks(self, machine: int, pairs) -> int:
        """Access distinct ``(block, vertex count)`` pairs, ascending by block."""
        lru = self.blocks[machine]
        hits = misses = fetched = 0
        for block, count in pairs:
            if block in lru:
                hits += count
                lru.move_to_end(block)
            else:
                misses += count
                fetched += 1
                lru[block] = True
        self.hits[machine] += hits
        if fetched:  # only an insertion can push the LRU past capacity
            self.misses[machine] += misses
            self.miss_blocks[machine] += fetched
            evicted = max(len(lru) - self.capacity, 0)
            for _ in range(evicted):
                lru.popitem(last=False)
            self.evictions[machine] += evicted
        return fetched

    def reset(self, machine: int) -> int:
        dropped = len(self.blocks[machine])
        self.blocks[machine].clear()
        return dropped

    def flush(self, machine: int) -> int:
        self.flushes[machine] += 1
        return self.reset(machine)

    def order(self, machine: int) -> list[int]:
        return list(self.blocks[machine])


def lru_order(cache, machine: int) -> list[int]:
    """``machine``'s resident blocks from the LRU end, walking ``head → next``.

    Also checks the list against itself: ``tail → prev`` is the same
    list reversed, the ``resident`` flags mark exactly its blocks and
    its length is the recorded size.
    """
    head, tail, size = cache._rows[machine, :3].tolist()
    prev, nxt, resident = (a[machine] for a in cache._links)

    def walk(block, links):  # stops one step past any possible list: a cycle fails below
        seen = []
        while block >= 0 and len(seen) <= resident.size:
            seen.append(block)
            block = int(links[block])
        return seen

    forward = walk(head, nxt)
    assert walk(tail, prev)[::-1] == forward and len(forward) == size
    assert np.flatnonzero(resident).tolist() == sorted(forward)
    return forward
