"""Deterministic fault plans and the per-component injector.

A :class:`FaultPlan` is a frozen description of *what can go wrong* in a
simulation: transient flash read errors (corrected by a bounded ECC retry
loop), program/erase failures (blocks retired into a spare pool), an
abrupt power loss at a chosen event index, and torn chunk writes in the
on-disk trace store.  Plans are pure data -- they carry rates, limits and
one seed -- and every random decision is drawn from a **named stream**
derived as ``sha256("faults:<seed>:<label>")``, the same discipline
:class:`repro.android.stack.AndroidStack` uses for its app streams:

* a stream depends only on its label and the seed, never on how many
  draws another stream has consumed, so enabling (say) read faults does
  not perturb the program-failure decisions;
* the consuming components draw in simulated-event order, which the
  kernel makes identical run-to-run, process-to-process and across
  ``PYTHONHASHSEED`` values -- so a fault run is exactly as reproducible
  as a fault-free one.

Stream labels in use::

    read      transient read-failure draws (one per read attempt)
    program   page-program failure draws (one per host/GC program)
    erase     block-erase failure draws (one per erase)
    store     torn-write / corruption placement in repro.faults.store

:meth:`FaultPlan.none` is the identity plan: every rate is zero and no
power loss is scheduled.  A device built with it takes the exact same
code path as one built with no plan at all (the injector reports
``device_active == False`` and is dropped), which is what keeps every
experiment digest and golden bit-identical -- the test suite and CI
prove this.

Layering: this module depends only on numpy/hashlib so that
``repro.emmc`` (and ``repro.store``) can consume plans without import
cycles; the replay harness that needs the device lives in
:mod:`repro.faults.replay`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np


class FaultError(RuntimeError):
    """A fault-injection scenario reached an unrecoverable state."""


class SparePoolExhausted(FaultError):
    """A plane retired more blocks than its spare pool could replace."""


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, fully deterministic description of the faults to inject.

    Attributes:
        seed: root seed every named stream is derived from.
        read_error_rate: probability a single flash read *attempt* fails
            transiently (ECC-uncorrectable on that attempt).
        read_retry_limit: retries after the initial failed read before
            the sector is declared uncorrectable.
        read_retry_backoff_us: backoff before retry ``k`` (1-based) is
            ``k * read_retry_backoff_us`` -- modeled as kernel timer
            events, so retries are visible in the event trace.
        program_error_rate: probability one page program fails; the block
            is retired (bad-block remap) and the program is redone on a
            freshly mapped block.
        erase_error_rate: probability a block erase fails; the block is
            retired instead of returning to the free pool.
        spare_blocks_per_plane: replacement blocks available per
            (plane, page-kind) pool; when exhausted the next retirement
            raises :class:`SparePoolExhausted`.
        power_loss_at_event: cut a replay before the kernel fires this
            event index (0-based, counted from device creation); ``None``
            disables power loss.
        power_loss_recovery_us: simulated remount latency charged between
            the cut and the first post-recovery arrival.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    read_retry_limit: int = 3
    read_retry_backoff_us: float = 100.0
    program_error_rate: float = 0.0
    erase_error_rate: float = 0.0
    spare_blocks_per_plane: int = 4
    power_loss_at_event: Optional[int] = None
    power_loss_recovery_us: float = 5000.0

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "program_error_rate", "erase_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.read_retry_limit < 0:
            raise ValueError("read_retry_limit must be non-negative")
        if self.read_retry_backoff_us < 0:
            raise ValueError("read_retry_backoff_us must be non-negative")
        if self.spare_blocks_per_plane < 0:
            raise ValueError("spare_blocks_per_plane must be non-negative")
        if self.power_loss_at_event is not None and self.power_loss_at_event < 0:
            raise ValueError("power_loss_at_event must be non-negative")
        if self.power_loss_recovery_us < 0:
            raise ValueError("power_loss_recovery_us must be non-negative")

    # -- construction ---------------------------------------------------------

    @classmethod
    def none(cls, seed: int = 0) -> "FaultPlan":
        """The identity plan: inject nothing (bit-identical replays)."""
        return cls(seed=seed)

    @classmethod
    def profile(cls, name: str, seed: int = 0) -> "FaultPlan":
        """A named fault profile (the CLI's ``--profile`` values)."""
        try:
            overrides = PROFILES[name]
        except KeyError:
            known = ", ".join(sorted(PROFILES))
            raise ValueError(f"unknown fault profile {name!r} (known: {known})")
        return cls(seed=seed, **overrides)

    def with_overrides(self, **changes) -> "FaultPlan":
        """Copy with some fields replaced."""
        return replace(self, **changes)

    # -- which subsystems does this plan touch? -------------------------------

    @property
    def read_active(self) -> bool:
        """True when transient read failures can occur."""
        return self.read_error_rate > 0.0

    @property
    def program_active(self) -> bool:
        """True when program failures can occur."""
        return self.program_error_rate > 0.0

    @property
    def erase_active(self) -> bool:
        """True when erase failures can occur."""
        return self.erase_error_rate > 0.0

    @property
    def device_active(self) -> bool:
        """True when the plan perturbs the device at all.

        A device handed an inactive plan drops it entirely, so
        :meth:`none` provably changes nothing -- no stream is ever
        created, no draw ever taken, no branch ever entered.
        """
        return self.read_active or self.program_active or self.erase_active

    # -- streams --------------------------------------------------------------

    def stream(self, label: str) -> np.random.Generator:
        """A named, independent random stream derived from (seed, label)."""
        digest = hashlib.sha256(f"faults:{self.seed}:{label}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))

    def injector(self) -> "FaultInjector":
        """A fresh injector (stateful stream cursors) over this plan."""
        return FaultInjector(self)

    def describe(self) -> str:
        """One-line human summary for CLI output."""
        parts = [f"seed={self.seed}"]
        if self.read_active:
            parts.append(
                f"read={self.read_error_rate:g} (retries<={self.read_retry_limit}, "
                f"backoff {self.read_retry_backoff_us:g}us)"
            )
        if self.program_active:
            parts.append(f"program={self.program_error_rate:g}")
        if self.erase_active:
            parts.append(f"erase={self.erase_error_rate:g}")
        if self.power_loss_at_event is not None:
            parts.append(f"power-loss@event {self.power_loss_at_event}")
        if len(parts) == 1:
            parts.append("no faults")
        return ", ".join(parts)


#: Named profiles for the CLI and the ``REPRO_FAULT_PROFILE`` env hook.
#: ``none`` is deliberately a *constructed* plan (not the absence of one):
#: passing it through the whole stack and still getting bit-identical
#: results is the inertness proof CI runs.
PROFILES: Dict[str, Dict[str, object]] = {
    "none": {},
    "transient-reads": {"read_error_rate": 0.05},
    "wearout": {"program_error_rate": 0.02, "erase_error_rate": 0.02,
                "spare_blocks_per_plane": 8},
    "flaky": {"read_error_rate": 0.02, "program_error_rate": 0.01,
              "erase_error_rate": 0.01, "spare_blocks_per_plane": 8},
}


class FaultInjector:
    """Stateful draw cursors over a plan's named streams.

    One injector lives for the lifetime of one device (surviving
    :meth:`~repro.emmc.device.EmmcDevice.recover`, so post-recovery draws
    continue the same streams -- a replay with a power loss at event *k*
    is a single deterministic trajectory, not two reseeded halves).
    """

    __slots__ = ("plan", "_streams")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._streams: Dict[str, np.random.Generator] = {}

    def _stream(self, label: str) -> np.random.Generator:
        stream = self._streams.get(label)
        if stream is None:
            stream = self.plan.stream(label)
            self._streams[label] = stream
        return stream

    # -- device-side draws ----------------------------------------------------

    @property
    def read_active(self) -> bool:
        return self.plan.read_active

    @property
    def program_active(self) -> bool:
        return self.plan.program_active

    @property
    def erase_active(self) -> bool:
        return self.plan.erase_active

    def read_failures(self) -> int:
        """Failed attempts for one page read, drawn attempt by attempt.

        Returns ``f <= read_retry_limit`` when attempt ``f + 1``
        succeeded (``0`` = clean first read), or ``read_retry_limit + 1``
        when every allowed attempt failed -- an uncorrectable read.
        """
        rate = self.plan.read_error_rate
        stream = self._stream("read")
        failures = 0
        while failures <= self.plan.read_retry_limit and stream.random() < rate:
            failures += 1
        return failures

    def program_fails(self) -> bool:
        """Whether the next page program fails (one draw)."""
        return self._stream("program").random() < self.plan.program_error_rate

    def erase_fails(self) -> bool:
        """Whether the next block erase fails (one draw)."""
        return self._stream("erase").random() < self.plan.erase_error_rate

    def stream_states(self) -> Dict[str, dict]:
        """The bit-generator state of every stream drawn from so far.

        Two injectors that made different numbers of draws differ here,
        even when every draw happened to come out the same way.
        """
        return {
            label: stream.bit_generator.state
            for label, stream in sorted(self._streams.items())
        }
