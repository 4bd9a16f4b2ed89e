"""Graph partitioners: the paper's BPart plus every compared baseline.

Streaming partitioners (one pass over a vertex stream):

- :class:`~repro.partition.chunk.ChunkVPartitioner` — contiguous vertex
  ranges, balanced ``|V_i|`` (Gemini, GridGraph).
- :class:`~repro.partition.chunk.ChunkEPartitioner` — contiguous ranges,
  balanced ``|E_i|`` (KnightKing, GraphChi).
- :class:`~repro.partition.hashp.HashPartitioner` — random vertex
  assignment (Pregel, Giraph).
- :class:`~repro.partition.fennel.FennelPartitioner` — score-based
  streaming with vertex-count balance (Tsourakakis et al., WSDM'14).
- :class:`~repro.partition.ldg.LDGPartitioner` — linear deterministic
  greedy (Stanton & Kliot, KDD'12), an extra baseline.
- :class:`~repro.partition.bpart.BPartPartitioner` — the paper's
  contribution: weighted two-dimensional balance indicator + multi-layer
  over-split-and-combine.

Offline comparators:

- :class:`~repro.partition.multilevel.MultilevelPartitioner` —
  Mt-KaHIP-style coarsen/partition/refine (§4.2 comparison).
- :class:`~repro.partition.gd.GDPartitioner` — projected-gradient 2-D
  balanced recursive bisection (related work, Avdiukhin et al.).
"""

from repro.partition.assignment import PartitionAssignment
from repro.partition.base import (
    PartitionResult,
    Partitioner,
    available_partitioners,
    get_partitioner,
    register_partitioner,
)
from repro.partition.bpart import BPartPartitioner
from repro.partition.chunk import ChunkEPartitioner, ChunkVPartitioner
from repro.partition.dynamic import DynamicPartitioner
from repro.partition.combine import CombinePlan, combine_assignment, multi_layer_combine, pair_by_vertex_count
from repro.partition.fennel import FennelPartitioner
from repro.partition.gd import GDPartitioner
from repro.partition.hashp import HashPartitioner
from repro.partition.kernels import (
    KERNEL_CHOICES,
    KernelBackend,
    available_kernels,
    get_kernel,
)
from repro.partition.ldg import LDGPartitioner
from repro.partition.metrics import (
    BalanceReport,
    adjusted_rand_index,
    balance_report,
    bias,
    connectivity_matrix,
    edge_cut_ratio,
    jains_fairness,
    part_edge_counts,
    part_vertex_counts,
)
from repro.partition.multilevel import MultilevelPartitioner

__all__ = [
    "PartitionAssignment",
    "Partitioner",
    "PartitionResult",
    "get_partitioner",
    "register_partitioner",
    "available_partitioners",
    "ChunkVPartitioner",
    "ChunkEPartitioner",
    "HashPartitioner",
    "FennelPartitioner",
    "LDGPartitioner",
    "BPartPartitioner",
    "KernelBackend",
    "KERNEL_CHOICES",
    "available_kernels",
    "get_kernel",
    "MultilevelPartitioner",
    "DynamicPartitioner",
    "GDPartitioner",
    "CombinePlan",
    "pair_by_vertex_count",
    "combine_assignment",
    "multi_layer_combine",
    "BalanceReport",
    "balance_report",
    "adjusted_rand_index",
    "bias",
    "jains_fairness",
    "edge_cut_ratio",
    "connectivity_matrix",
    "part_vertex_counts",
    "part_edge_counts",
]
