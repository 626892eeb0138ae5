"""Flash translation layer: mapping, block pools, GC, wear-leveling."""

from .badblocks import BadBlockManager
from .blocks import InvariantError, OutOfSpaceError, Pool
from .core import Ftl, ReadOutcome, WriteOutcome
from .gc import GcResult, GreedyGC, VictimPolicy
from .mapping import PageMapping, PhysicalLocation, PRELOADED_BLOCK
from .wear_leveling import StaticWearLeveler, WearStats, collect_wear

__all__ = [
    "BadBlockManager",
    "OutOfSpaceError",
    "Pool",
    "Ftl",
    "InvariantError",
    "ReadOutcome",
    "WriteOutcome",
    "GcResult",
    "GreedyGC",
    "VictimPolicy",
    "PageMapping",
    "PhysicalLocation",
    "PRELOADED_BLOCK",
    "StaticWearLeveler",
    "WearStats",
    "collect_wear",
]
