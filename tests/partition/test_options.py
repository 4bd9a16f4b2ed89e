"""The settable values of the partitioners, BPart's two phases, the Gemini
engine and the edge-list reader, pinned.

Every constant the paper fixes (Fennel's α and γ, the capacity factor ν,
BPart's ε and over-split base, PageRank's damping) is a constant in the
code, not an option. Each parameter kept below names the non-test caller
that sets it, or the ROADMAP item that keeps it; a new option fails this
test until it is added here with its caller.
"""

from __future__ import annotations

import inspect

import pytest

from repro.engines.gemini import GeminiEngine
from repro.graph import read_edge_list
from repro.partition import available_partitioners
from repro.partition.base import _REGISTRY
from repro.partition.bpart import weighted_stream_partition
from repro.partition.combine import multi_layer_combine

SEED = "cached_partition passes every partitioner its seed"
KERNEL = "partition --kernel; goes with ROADMAP items 1 and 13"
JOBS = "partition --jobs; goes with ROADMAP item 1"

OPTIONS = {
    "bpart": {
        "c": "the ablation experiment's c sweep",
        "max_layers": "the ablation experiment's combine-round table",
        "base_rounds": "the ablation experiment's combine-round table",
        "order": "the ablation experiment's stream-order table",
        "seed": SEED,
        "passes": "sysablation's restreaming table; ROADMAP item 21",
        "kernel": KERNEL,
        "jobs": JOBS,
    },
    "fennel": {
        "order": "ROADMAP item 21 measures order=random on community graphs",
        "seed": SEED,
        "passes": "sysablation's restreaming table; ROADMAP item 21",
        "kernel": KERNEL,
        "jobs": JOBS,
    },
    **{name: {"seed": SEED} for name in ("chunk-e", "chunk-v", "gd", "hash", "ldg", "multilevel")},
    "weighted_stream_partition": {
        "graph": "positional",
        "num_pieces": "positional",
        "c": "fig08, connectivity and the claims pass c=0.5",
        "order": "BPart's phase 1 passes its order",
        "rng": "BPart's phase 1 and plan_redistribute pass a seed",
        "passes": "BPart's phase 1 passes its passes",
        "kernel": "BPart's phase 1; " + KERNEL,
        "jobs": "BPart's phase 1; " + JOBS,
    },
    "multi_layer_combine": {
        "graph": "positional",
        "partition_fn": "positional: BPart's phase 1",
        "num_parts": "positional",
        "base_rounds": "BPartPartitioner(base_rounds=)",
        "max_layers": "BPartPartitioner(max_layers=)",
    },
    "GeminiEngine": {"cluster": "positional"},
    "read_edge_list": {"path": "positional: partition/trace/metrics --graph"},
}

CALLABLES = {
    **{name: _REGISTRY[name] for name in available_partitioners()},
    "weighted_stream_partition": weighted_stream_partition,
    "multi_layer_combine": multi_layer_combine,
    "GeminiEngine": GeminiEngine,
    "read_edge_list": read_edge_list,
}


def test_every_registered_partitioner_is_pinned():
    assert set(available_partitioners()) <= set(OPTIONS)
    assert set(CALLABLES) == set(OPTIONS)


@pytest.mark.parametrize("name", sorted(OPTIONS))
def test_parameters_equal_the_table(name):
    params = list(inspect.signature(CALLABLES[name]).parameters)
    assert params == list(OPTIONS[name])
