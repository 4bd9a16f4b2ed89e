"""The compiled batch step (``serve_batch`` in ``serving/_serve.c``) against
the Python step it replaced (``tests/serving/_walk_model.py``).

Its walkers' visits and homes, the batch's edge work, remote reads,
fetched blocks and service seconds must equal the model's under ``==``,
batch after batch, with the LRU left in the model's order; its PCG64
draws must equal NumPy's.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cost import CostModel
from repro.errors import ConfigurationError, GraphFormatError
from repro.graph import from_edges, open_sharded, spill_csr
from repro.partition import PartitionAssignment
from repro.serving import ServingConfig, ServingSimulator, WorkloadSpec
from repro.serving.cache import FETCHED, READS, WALKED, WORK
from repro.serving.simulator import _SALT_WALK, _plan_demand, _Run
from repro.serving.workload import KIND_WALK
from repro.utils import native
from repro.utils.rng import seed_states
from tests.serving._cache_model import COUNTERS, ModelCache, lru_order
from tests.serving._walk_model import model_batch, rng_from_state
from tests.serving.test_demand_plan import cases


def compiled_batch(run, m, batch, batch_id):
    """One ``serve_batch`` as the loop makes it, and what the step left in its context."""
    run.batches[m] = batch_id
    seconds = run.serve_batch(m, batch)
    fields, slots = run.context.fields, run.context.slots
    walkers = sum(run.trace.kind[qi] == KIND_WALK for qi in batch)
    walked = slice(walkers, walkers + int(slots[WALKED]))  # behind the walkers' targets
    return (fields["visits"][walked].tolist(), fields["homes"][walked].tolist(),
            slots.view(np.float64)[WORK], int(slots[READS]), int(slots[FETCHED]), seconds)


@st.composite
def batch_runs(draw):
    """A small graph (sinks and isolated vertices included) with a mixed walk/k-hop
    trace of 1 to 8 walk steps, a seed, per-machine cores or not, and a stream of
    batches of up to ``batch_max`` queries on any machine, at any batch id."""
    assignment, trace, block_size = draw(cases())
    spec = dataclasses.replace(trace.spec, walk_steps=draw(st.integers(1, 8)))
    trace = dataclasses.replace(trace, spec=spec)
    k, q = assignment.num_parts, trace.num_queries
    cores = draw(st.sampled_from([48, 1, tuple(range(2, 2 + k))]))
    config = ServingConfig(batch_max=8, cache_block_size=block_size,
                           cache_blocks=draw(st.sampled_from([1, 3, 64])),
                           cost=CostModel(cores=cores))
    batches = draw(st.lists(st.tuples(
        st.integers(0, k - 1),
        st.lists(st.integers(0, q - 1), max_size=8) if q else st.just([]),
        st.integers(0, 3000)), max_size=12))
    return assignment, trace, config, draw(st.integers(0, 2**32)), batches


class TestServeBatchEqualsThePythonStep:
    @given(case=batch_runs())
    @settings(max_examples=150, deadline=None)
    def test_every_batch(self, case):
        assignment, trace, config, seed, batches = case
        run = _Run(ServingSimulator(assignment, config, seed=seed), trace)
        table = _plan_demand(assignment, trace, config.cache_block_size)
        model = ModelCache(assignment.num_parts, block_size=config.cache_block_size,
                           capacity=config.cache_blocks)
        for m, batch, batch_id in batches:
            assert compiled_batch(run, m, batch, batch_id) == model_batch(
                run, model, table, m, batch, batch_id)
            assert lru_order(run.cache, m) == model.order(m)
        for name in COUNTERS:
            assert getattr(run.cache, name).tolist() == getattr(model, name)

    def test_full_batches_on_shards(self, tmp_path):
        # 32 walkers of 16 steps a batch on 64-vertex shards of int16 ids
        graph = from_edges(*np.random.default_rng(3).integers(0, 300, (2, 1500)), directed=True)
        parts = np.arange(graph.num_vertices) % 3
        spill_csr(graph, tmp_path, shard_size=64).close()
        for path in tmp_path.glob("*.indices.npy"):
            np.save(path, np.load(path).astype(np.int16))
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(json.dumps({**meta, "index_dtype": "int16"}))
        shards = open_sharded(tmp_path)
        trace = WorkloadSpec(duration=0.01, rate=100000.0, walk_frac=1.0, walk_steps=16,
                             seed=1).generate(graph)
        config = ServingConfig(batch_max=32, cache_blocks=4)
        model = ModelCache(3, block_size=64, capacity=4)
        dense = _Run(ServingSimulator(PartitionAssignment(graph, parts, 3), config), trace)
        run = _Run(ServingSimulator(PartitionAssignment(shards, parts, 3), config), trace)
        table = _plan_demand(dense.assignment, trace, 64)
        for b, start in enumerate(range(0, trace.num_queries - 32, 32)):
            batch = list(range(start, start + 32))
            got = compiled_batch(run, b % 3, batch, b)
            assert len(got[0]) > 300 and got == model_batch(dense, model, table, b % 3, batch, b)
        shards.close()


def test_walk_draws_are_numpys_pcg64():
    table = seed_states(np.arange(1200), 9, _SALT_WALK, 2)
    for n, row in zip(itertools.cycle([1, 2, 33, 512]), table):
        u = np.empty(n)
        native.call("walk_draws", row, u)
        assert u.tolist() == rng_from_state(row).random(n).tolist()


class TestRefusals:
    def run(self, **spec):
        graph = from_edges(np.array([0, 1, 2]), np.array([1, 2, 0]), num_vertices=4,
                           directed=True)
        trace = WorkloadSpec(duration=0.01, rate=2000.0, walk_frac=1.0, seed=1,
                             **spec).generate(graph)
        assignment = PartitionAssignment(graph, np.arange(4) % 2, 2)
        return _Run(ServingSimulator(assignment, ServingConfig(batch_max=2)), trace)

    def test_more_walkers_than_the_buffer_holds(self):
        run = self.run()
        assert (run.trace.kind == KIND_WALK).all()
        run.serve_batch(0, [0])  # seeds for batches 0 to 1 023
        with pytest.raises(ConfigurationError, match="machine 0, batch 0 or queries"):
            native.call("serve_batch", run.context, 0, 0, array("q", [0, 1, 2]))

    def test_a_batch_past_the_seed_table(self):
        run = self.run()
        run.serve_batch(0, [0])  # grows the table to 1 024 rows
        with pytest.raises(ConfigurationError, match="batch 1024 "):
            native.call("serve_batch", run.context, 0, 1024, array("q", [0]))
        native.call("serve_batch", run.context, 0, 1023, array("q", [0]))

    def test_an_id_outside_the_graph(self):
        run = self.run()
        ptr, ids = run.context.fields["graph"].blocks[0]
        bad = ids.copy()
        bad[1] = 4  # 1 -> 4, past the last vertex
        run.context.set(graph=[(ptr, bad)])
        with pytest.raises(GraphFormatError, match="^row 1: "):
            run.serve_batch(0, [int(np.flatnonzero(run.trace.vertex <= 1)[0])])
