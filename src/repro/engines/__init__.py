"""Simulated distributed graph engines.

Two engines mirror the systems the paper integrates BPart into:

- :mod:`repro.engines.gemini` — iteration-based vertex-centric BSP
  (PageRank, Connected Components, BFS), modelled on Gemini
  (Zhu et al., OSDI 2016).
- :mod:`repro.engines.knightking` — walker-centric BSP random walk
  engine (PPR, RWJ, RWD, DeepWalk, node2vec), modelled on KnightKing
  (Yang et al., SOSP 2019).

Both compute *exact* algorithm results on the partitioned graph while
accounting per-machine work and cross-machine messages against a
:class:`~repro.cluster.bsp.BSPCluster`.
"""

from repro.engines import gemini, knightking

__all__ = ["gemini", "knightking"]
