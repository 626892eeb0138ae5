"""Event-driven eMMC device simulator with the hybrid-page-size scheme."""

from .cache import CacheStats, RamBuffer
from .configs import (
    eight_ps,
    four_ps,
    hps,
    hps_slc,
    small_eight_ps,
    small_four_ps,
    small_hps,
    table_v_configs,
)
from .device import DeviceConfig, EmmcDevice, RecoveryReport, ReplayResult, build_device
from .distributor import RequestDistributor
from .energy import EnergyParams, EnergyReport, energy_report
from .ftl import (
    Ftl,
    GreedyGC,
    OutOfSpaceError,
    PageMapping,
    PhysicalLocation,
    StaticWearLeveler,
    VictimPolicy,
    WearStats,
    collect_wear,
)
from .geometry import Geometry, PageKind
from .structure import capacity_matches, describe_die, plane_layout
from .latency import LatencyParams, PageTiming, TABLE_V_TIMINGS
from .ops import FlashOp, FlashOpType, WriteGroup
from .stats import DeviceStats

__all__ = [
    "CacheStats",
    "RamBuffer",
    "eight_ps",
    "four_ps",
    "hps",
    "hps_slc",
    "small_eight_ps",
    "small_four_ps",
    "small_hps",
    "table_v_configs",
    "DeviceConfig",
    "EmmcDevice",
    "RecoveryReport",
    "ReplayResult",
    "build_device",
    "RequestDistributor",
    "EnergyParams",
    "EnergyReport",
    "energy_report",
    "Ftl",
    "GreedyGC",
    "OutOfSpaceError",
    "PageMapping",
    "PhysicalLocation",
    "StaticWearLeveler",
    "VictimPolicy",
    "WearStats",
    "collect_wear",
    "Geometry",
    "PageKind",
    "capacity_matches",
    "describe_die",
    "plane_layout",
    "LatencyParams",
    "PageTiming",
    "TABLE_V_TIMINGS",
    "FlashOp",
    "FlashOpType",
    "WriteGroup",
    "DeviceStats",
]
