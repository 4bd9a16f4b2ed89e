"""Random-walk applications (the paper's five, §4.1)."""

from repro.engines.knightking.apps.base import WalkApp
from repro.engines.knightking.apps.deepwalk import DeepWalk
from repro.engines.knightking.apps.node2vec import Node2Vec
from repro.engines.knightking.apps.ppr import PPR
from repro.engines.knightking.apps.rwd import RWD
from repro.engines.knightking.apps.rwj import RWJ

__all__ = ["WalkApp", "PPR", "RWJ", "RWD", "DeepWalk", "Node2Vec"]
