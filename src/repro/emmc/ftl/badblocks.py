"""Bad-block management: retirement, remap migration and the spare pool.

Real eMMC parts ship with spare blocks and a bad-block table: when a
program or erase operation fails, the controller migrates whatever valid
data the failing block still holds, marks the block bad, and maps a spare
into the pool in its place.  This module is that logic for the
page-mapping FTL.

Retirement order matters for boundedness:

1. a spare is swapped in *first* (raising
   :class:`~repro.faults.plan.SparePoolExhausted` when the per-plane
   budget is gone), so the remap migration always has at least one free
   block's worth of destination pages;
2. the victim's valid slots are re-packed into fresh pages (same repack
   as GC migration, ``gc=True`` ops so timing and counters attribute them
   to background work);
3. the victim is detached: never erased, never freed, skipped by GC and
   wear-leveling from then on.

Remap migration itself is fault-exempt: a victim holds at most one
block's worth of valid slots and the fresh spare can absorb all of them,
so exempting the migration programs keeps every retirement a bounded,
always-terminating operation (the real-world analogue is the controller
retrying migrations internally until they stick).
"""

from __future__ import annotations

from typing import Dict, List

from ..ops import FlashOp
from .blocks import Pool


class BadBlockManager:
    """Spare-pool accounting and the retire-and-remap operation.

    One manager per FTL.  ``spare_blocks_per_plane`` is the replacement
    budget for each (plane, page-kind) pool; exhausting it models a
    device at end of life, surfaced as ``SparePoolExhausted``.
    """

    def __init__(self, spare_blocks_per_plane: int) -> None:
        self.spare_blocks_per_plane = spare_blocks_per_plane
        #: Spares consumed, by pool index.
        self._spares_used: Dict[int, int] = {}
        #: Counters mirrored into :class:`repro.emmc.stats.DeviceStats`.
        self.retired = 0
        self.spares_consumed = 0
        self.migrated_slots = 0

    def spares_remaining(self, pool: Pool) -> int:
        """Spare blocks still available for ``pool``."""
        return self.spare_blocks_per_plane - self._spares_used.get(pool.index, 0)

    def retire(self, pool: Pool, victim: int, ftl) -> List[FlashOp]:
        """Swap in a spare, migrate ``victim``'s valid data, mark it bad.

        Returns the flash ops of the remap migration (reads + programs of
        the surviving slots).  The failing program/erase op itself is the
        caller's to account -- it already consumed bus/die time.
        """
        # Importing lazily keeps repro.emmc importable without the faults
        # package on the path (the dependency only exists at fault time).
        from repro.faults.plan import SparePoolExhausted

        if self.spares_remaining(pool) <= 0:
            raise SparePoolExhausted(
                f"plane {pool.plane} exhausted its {self.spare_blocks_per_plane} "
                f"spare {pool.kind} blocks"
            )
        self._spares_used[pool.index] = self._spares_used.get(pool.index, 0) + 1
        self.spares_consumed += 1
        pool.add_spare()

        # The victim may be the active block (a program just failed on
        # it); detach it so migration never allocates into it.
        if pool.active == victim:
            pool.active = None

        ops, migrated = ftl.migrate(pool, victim, "remap")
        pool.retire(victim)
        self.retired += 1
        self.migrated_slots += migrated
        return ops
