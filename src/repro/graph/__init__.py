"""Graph substrate: CSR storage, builders, generators, IO, streams.

The whole library operates on :class:`~repro.graph.csr.CSRGraph`, a
compressed-sparse-row adjacency structure backed by two NumPy arrays.
This mirrors the storage used by the systems the paper builds on
(Gemini, KnightKing) and keeps every hot loop vectorisable.
"""

from repro.graph.builder import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.datasets import (
    DATASETS,
    DatasetSpec,
    friendster_like,
    livejournal_like,
    load_dataset,
    twitter_like,
)
from repro.graph.generators import (
    barabasi_albert,
    chung_lu,
    complete_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    planted_partition,
    powerlaw_degrees,
    ring_graph,
    rmat,
    social_edge_batches,
    social_graph,
    star_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.sharded import (
    ShardedCSRBuilder,
    ShardedCSRGraph,
    default_spill_root,
    open_sharded,
    spill_csr,
)
from repro.graph.stats import GraphSummary, powerlaw_exponent, summarize
from repro.graph.stream import vertex_stream
from repro.graph.subgraph import extract_subgraph

__all__ = [
    "CSRGraph",
    "from_edges",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "livejournal_like",
    "twitter_like",
    "friendster_like",
    "barabasi_albert",
    "chung_lu",
    "complete_graph",
    "erdos_renyi",
    "grid_graph",
    "path_graph",
    "planted_partition",
    "powerlaw_degrees",
    "ring_graph",
    "rmat",
    "social_edge_batches",
    "social_graph",
    "star_graph",
    "read_edge_list",
    "write_edge_list",
    "ShardedCSRBuilder",
    "ShardedCSRGraph",
    "default_spill_root",
    "open_sharded",
    "spill_csr",
    "GraphSummary",
    "powerlaw_exponent",
    "summarize",
    "vertex_stream",
    "extract_subgraph",
]
