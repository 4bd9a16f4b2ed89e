"""KnightKing-like walker-centric BSP random walk engine."""

from repro.engines.knightking.apps import PPR, RWD, RWJ, DeepWalk, Node2Vec, WalkApp
from repro.engines.knightking.engine import WalkEngine, WalkResult
from repro.engines.knightking.transition import arcs_exist, uniform_neighbor
from repro.engines.knightking.walker import WalkerBatch

__all__ = [
    "WalkEngine",
    "WalkResult",
    "WalkerBatch",
    "WalkApp",
    "PPR",
    "RWJ",
    "RWD",
    "DeepWalk",
    "Node2Vec",
    "uniform_neighbor",
    "arcs_exist",
]
