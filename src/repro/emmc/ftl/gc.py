"""Greedy garbage collection for the page-mapping FTL.

A pool needs GC when its free list drops to the configured threshold.
The victim is the full block with the most invalid slots (greedy policy,
as in SSDsim); its valid slots are migrated into the pool's active block
and the victim is erased back into the free list.

The paper's Implication 2 -- launch GC during the long idle gaps instead of
waiting for the free-block count to run low -- is implemented at the device
level (:class:`repro.emmc.device.EmmcDevice` calls :meth:`GreedyGC.collect`
during idle periods when ``idle_gc`` is enabled); the policy here is shared
by both the foreground and the idle path.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional

from ..ops import FlashOp, FlashOpType
from .blocks import OutOfSpaceError, Pool


class VictimPolicy(enum.Enum):
    """How GC picks its victim among the full blocks.

    * GREEDY -- most invalid slots (SSDsim's default; fewest migrations).
    * FIFO -- lowest block id among reclaimable blocks (round-robin-ish,
      cheap to implement in firmware).
    * RANDOM -- uniformly random reclaimable block (the strawman).
    """

    GREEDY = "greedy"
    FIFO = "fifo"
    RANDOM = "random"


@dataclass(frozen=True)
class GcResult:
    """Outcome of collecting one victim block."""

    ops: List[FlashOp]
    migrated_slots: int
    erased_block: int


class GreedyGC:
    """Victim selection and migration policy."""

    def __init__(
        self,
        threshold_blocks: int = 2,
        policy: VictimPolicy = VictimPolicy.GREEDY,
        seed: int = 0,
    ) -> None:
        if threshold_blocks < 1:
            raise ValueError("GC threshold must keep at least one block in reserve")
        self.threshold_blocks = threshold_blocks
        self.policy = policy
        self._rng = random.Random(seed)
        #: Fault injection (wired by the FTL when a plan enables erase
        #: failures): a duck-typed :class:`repro.faults.plan.FaultInjector`
        #: and the FTL's :class:`~repro.emmc.ftl.badblocks.BadBlockManager`.
        self.faults = None
        self.bad_blocks = None
        self.erase_failures = 0

    def needs_gc(self, pool: Pool) -> bool:
        """Free list at or below the threshold and something is reclaimable."""
        if len(pool.free) > self.threshold_blocks:
            return False
        return self.select_victim(pool) is not None

    def select_victim(self, pool: Pool) -> Optional[int]:
        """Pick a reclaimable full block per the policy; ``None`` if none."""
        capacity = pool.pages * pool.slots
        valid = pool.valid_count
        candidates = [block for block in pool.gc_candidates() if valid[block] < capacity]
        if not candidates:
            return None
        if self.policy is VictimPolicy.GREEDY:
            # Fewest valid slots is most invalid ones; the first wins a tie.
            return min(candidates, key=valid.__getitem__)
        if self.policy is VictimPolicy.FIFO:
            return candidates[0]
        return self._rng.choice(candidates)

    def collect(self, pool: Pool, ftl) -> Optional[GcResult]:
        """Collect one victim in ``pool``; ``None`` if there is no victim.

        Valid slots are re-packed into fresh pages of the same pool (lone
        4 KB residents of an 8 KB victim stay in 8 KB pages and are
        re-paired where possible).
        """
        victim = self.select_victim(pool)
        if victim is None:
            return None
        return self.collect_block(pool, victim, ftl)

    def collect_block(self, pool: Pool, victim: int, ftl) -> GcResult:
        """Migrate ``victim``'s valid slots elsewhere and erase it.

        Used by normal GC (victim chosen by :meth:`select_victim`) and by
        static wear-leveling (victim chosen by coldness).
        """
        ops, migrated = ftl.migrate(pool, victim, "GC")
        if (
            self.faults is not None
            and self.faults.erase_active
            and self.faults.erase_fails()
        ):
            # Erase failure: the block is retired (never rejoins the free
            # pool) and a spare is swapped in.  The ERASE op below is still
            # emitted -- the failed attempt consumed the die either way.
            self.erase_failures += 1
            ops.extend(self.bad_blocks.retire(pool, victim, ftl))
        else:
            pool.erase(victim)
            pool.free.append(victim)
        ops.append(FlashOp(FlashOpType.ERASE, pool.plane, pool.kind, 0, gc=True))
        return GcResult(ops=ops, migrated_slots=migrated, erased_block=victim)

    def reclaim_until_safe(self, pool: Pool, ftl, max_rounds: int = 8) -> List[GcResult]:
        """Collect victims until the free list is above the threshold."""
        results: List[GcResult] = []
        rounds = 0
        while len(pool.free) <= self.threshold_blocks and rounds < max_rounds:
            result = self.collect(pool, ftl)
            if result is None:
                if not pool.free:
                    raise OutOfSpaceError(
                        f"plane {pool.plane} exhausted {pool.kind} blocks and "
                        "GC found nothing reclaimable"
                    )
                break
            results.append(result)
            rounds += 1
        return results
