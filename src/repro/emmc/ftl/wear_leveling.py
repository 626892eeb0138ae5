"""Wear-leveling statistics and policies.

Implication 4 of the paper argues that the weak localities of smartphone
workloads mean *a simple wear-leveling strategy is sufficient* for an eMMC
device.  The FTL accordingly defaults to dynamic wear-leveling only: when a
new active block is needed, the free block with the lowest erase count is
chosen (:meth:`repro.emmc.ftl.blocks.Pool.open_block`).

For the ablation that backs the implication, :class:`StaticWearLeveler`
implements the heavier alternative: when the erase-count spread inside a
pool exceeds a threshold, the coldest full block is forcibly collected so
its (possibly fully valid) data moves onto hotter blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from .blocks import Pool


@dataclass(frozen=True)
class WearStats:
    """Summary of per-block erase counts across the device."""

    total_erases: int
    max_erase: int
    min_erase: int
    mean_erase: float

    @property
    def spread(self) -> int:
        """Max-minus-min erase count; 0 means perfectly even wear."""
        return self.max_erase - self.min_erase

    @property
    def evenness(self) -> float:
        """1.0 when all blocks have equal erase counts, lower otherwise."""
        if self.max_erase == 0:
            return 1.0
        return self.min_erase / self.max_erase


class StaticWearLeveler:
    """Threshold-triggered cold-block relocation.

    When ``max_erase - min_erase`` inside a plane's pool exceeds
    ``spread_threshold``, the coldest full block is collected (its valid
    data migrates to a low-erase-count free block) so the pool's wear
    evens out.  Each check relocates at most one block.
    """

    def __init__(self, spread_threshold: int = 8) -> None:
        if spread_threshold < 1:
            raise ValueError("spread threshold must be positive")
        self.spread_threshold = spread_threshold
        self.relocations = 0

    def maybe_level(self, pool: Pool, gc, ftl):
        """Relocate one cold block of ``pool`` if the spread warrants it.

        Returns the :class:`~repro.emmc.ftl.gc.GcResult` of the relocation,
        or ``None`` when the pool is even enough (or has no candidate).
        """
        erase_counts = [
            count for count, bad in zip(pool.erase_count, pool.bad) if not bad
        ]
        if not erase_counts:
            return None
        if max(erase_counts) - min(erase_counts) < self.spread_threshold:
            return None
        candidates = pool.gc_candidates()
        if not candidates:
            return None
        coldest = min(candidates, key=pool.erase_count.__getitem__)
        if max(erase_counts) - pool.erase_count[coldest] < self.spread_threshold:
            return None
        result = gc.collect_block(pool, coldest, ftl)
        self.relocations += 1
        return result


def collect_wear(pools: Iterable[Pool]) -> WearStats:
    """Aggregate erase-count statistics over the live blocks of ``pools``.

    Pass an FTL's ``pools``; retired (bad) blocks are left out.
    """
    counts: List[int] = []
    for pool in pools:
        counts.extend(count for count, bad in zip(pool.erase_count, pool.bad) if not bad)
    if not counts:
        return WearStats(total_erases=0, max_erase=0, min_erase=0, mean_erase=0.0)
    return WearStats(
        total_erases=sum(counts),
        max_erase=max(counts),
        min_erase=min(counts),
        mean_erase=sum(counts) / len(counts),
    )
