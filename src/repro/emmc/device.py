"""The simulated eMMC device: an event-driven timing engine on ``repro.sim``.

The device serves one host request at a time (eMMC's single command queue;
the paper's high NoWait ratios show real workloads rarely need higher
depths), but executes each request's flash operations with full internal
parallelism: channels transfer concurrently, and every plane can
read/program independently while its channel is free.  Garbage collection
triggered by a write extends that write's service time (foreground GC);
with ``idle_gc`` enabled, collections run during long inter-arrival gaps
instead (Implication 2).

Structure (one :class:`repro.sim.EventLoop` per device):

* Host requests enter as ``ARRIVAL`` events (:meth:`EmmcDevice.arrive`);
  the synchronous :meth:`submit` is a thin closed-loop wrapper that runs
  the kernel up to the arrival instant.
* Admission (who may dispatch when) lives in
  :class:`repro.sim.AdmissionQueue`, parameterized by ``queue_depth``.
* The timing engine reserves windows on serially-reusable
  :class:`repro.sim.ResourceTimeline` objects -- one controller, one per
  channel, one per die (or per plane with ``multi_plane``).
* Idle-time GC and the power-down transition are ``IDLE_GC`` /
  ``POWER_DOWN`` timer events armed after every request and canceled by
  the next arrival, instead of gap checks bolted onto the next dispatch.

Because service is FIFO with no preemption, each request's full schedule
is fixed at dispatch; the device therefore computes finish times eagerly
at the arrival event and posts a ``COMPLETE`` event for observers.  That
eager evaluation is provably order-identical to stepping one event per
resource grant, and keeps ``queue_depth=1`` replay bit-identical to the
old inline arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional

from repro.sim import (
    AdmissionQueue,
    Event,
    EventKind,
    EventLoop,
    Host,
    ResourcePool,
    ResourceTimeline,
)
from repro.telemetry import Telemetry
from repro.telemetry.decomposition import decompose_request
from repro.trace import Request, SECTOR, Trace

from .cache import RamBuffer
from .distributor import RequestDistributor
from .ftl import Ftl, GreedyGC, StaticWearLeveler, VictimPolicy
from .geometry import Geometry, PageKind
from .latency import LatencyParams
from .ops import FlashOp, FlashOpType, WriteGroup
from .power import PowerModel
from .stats import DeviceStats


@dataclass(frozen=True)
class DeviceConfig:
    """Everything needed to build an :class:`EmmcDevice`."""

    name: str
    geometry: Geometry
    latency: LatencyParams = field(default_factory=LatencyParams)
    gc_threshold_blocks: int = 2
    idle_gc: bool = False
    idle_gc_min_gap_us: float = 200_000.0
    idle_gc_soft_threshold: int = 8
    ram_buffer_bytes: int = 0
    preload_kind: Optional[PageKind] = None
    #: Multi-plane advanced commands: when True every plane is an
    #: independent read/program unit; when False (the default, matching
    #: Implication 1's "cannot be processed in a complete parallel
    #: manner") the die is the busy unit.
    multi_plane: bool = False
    #: Outstanding requests the host interface admits.  eMMC has a single
    #: command queue (depth 1); higher depths model the "parallel request
    #: queues at OS layer" idea that Implication 1 argues does not help.
    queue_depth: int = 1
    #: GC victim policy ("greedy" default, "fifo", "random").
    gc_policy: str = "greedy"
    #: Copy-back programming for GC migrations: valid pages move inside
    #: the plane without crossing the channel (an advanced command real
    #: eMMC parts support; off by default like the other advanced
    #: commands).
    gc_copyback: bool = False
    #: Static wear-leveling spread threshold; None disables it (the
    #: paper's Implication 4 default: dynamic-only is sufficient).
    static_wl_threshold: Optional[int] = None
    #: Address mapping scheme: "page" (default) or "hybrid-log" (a
    #: BAST-style block-mapped FTL with log blocks; 4K-only geometries).
    mapping_scheme: str = "page"
    #: Log-block pool size for the hybrid-log scheme.
    log_blocks: int = 8

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")

    def with_overrides(self, **changes) -> "DeviceConfig":
        """Copy with some fields replaced (ablation helper)."""
        return replace(self, **changes)


@dataclass
class ReplayResult:
    """A completed replay: the trace with device timestamps plus counters."""

    trace: Trace
    stats: DeviceStats
    config_name: str


@dataclass(frozen=True)
class RecoveryReport:
    """What one :meth:`EmmcDevice.recover` power-cycle did."""

    #: Simulated instant the power was cut (last fired event's time).
    cut_us: float
    #: Instant the device came back (cut + remount latency).
    resumed_us: float
    #: LPNs recovered by the FTL's flash scan (0 for FTLs without one).
    remapped_entries: int


class EmmcDevice:
    """Event-driven eMMC model (a light-weight SSD, per the paper)."""

    def __init__(
        self,
        config: DeviceConfig,
        kernel: Optional[EventLoop] = None,
        faults=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config
        self.geometry = config.geometry
        self.latency = config.latency
        for kind in self.geometry.kinds():
            self.latency.timing(kind)  # fail fast on missing latencies
        # ``faults`` is a duck-typed :class:`repro.faults.plan.FaultPlan`
        # (repro.emmc never imports the faults package -- it sits above).
        # An inactive plan (FaultPlan.none()) is dropped on the floor here,
        # so the no-fault device is structurally identical to one built
        # with no plan at all: no injector, no stream, no extra branch
        # taken anywhere in the replay path.
        self.fault_plan = faults
        self.faults = (
            faults.injector() if faults is not None and faults.device_active else None
        )
        if self.faults is not None and (
            self.faults.program_active or self.faults.erase_active
        ):
            if config.mapping_scheme != "page":
                raise ValueError(
                    "program/erase fault injection requires the page mapping "
                    f"scheme (got {config.mapping_scheme!r})"
                )
        if config.mapping_scheme == "page":
            self.ftl = Ftl(
                self.geometry,
                gc=GreedyGC(
                    config.gc_threshold_blocks, policy=VictimPolicy(config.gc_policy)
                ),
                preload_kind=config.preload_kind,
                wear_leveler=(
                    StaticWearLeveler(config.static_wl_threshold)
                    if config.static_wl_threshold is not None
                    else None
                ),
                faults=self.faults,
            )
        elif config.mapping_scheme == "hybrid-log":
            from .ftl.block_mapped import BlockMappedFtl

            self.ftl = BlockMappedFtl(self.geometry, log_blocks=config.log_blocks)
        else:
            raise ValueError(f"unknown mapping scheme {config.mapping_scheme!r}")
        self.distributor = RequestDistributor(self.geometry.kinds())
        self.power = PowerModel(
            power_threshold_us=config.latency.power_threshold_us,
            warmup_us=config.latency.warmup_us,
        )
        self.buffer: Optional[RamBuffer] = (
            RamBuffer(config.ram_buffer_bytes) if config.ram_buffer_bytes else None
        )
        self.stats = DeviceStats()

        # -- the event kernel and its schedulable state --------------------
        #: The discrete-event loop this device lives on.  Sharing one
        #: kernel between a device and its producers (the Android stack,
        #: concurrent app mixes) is what serializes out-of-order arrivals.
        self.kernel = kernel if kernel is not None else EventLoop()
        #: Host-interface admission: ``queue_depth`` slots.
        self.queue = AdmissionQueue(config.queue_depth)
        #: The FTL/controller is a single serialized resource.
        self.controller = ResourceTimeline("controller")
        #: One timeline per channel bus.
        self.channels = ResourcePool(self.geometry.channels, "channel")
        #: One timeline per busy unit: dies, or planes with multi_plane.
        units = (
            self.geometry.num_planes if config.multi_plane else self.geometry.num_dies
        )
        self.units = ResourcePool(units, "plane" if config.multi_plane else "die")
        # ``telemetry`` mirrors the fault-plan pattern: ``None`` (the
        # default) is structural absence -- no sink anywhere, no recording
        # branch taken while serving.  An attached sink is shared with the
        # kernel (event recording) and the FTL (GC/remap instants).
        self.telemetry = telemetry
        if telemetry is not None:
            self.kernel.telemetry = telemetry
            attach = getattr(self.ftl, "attach_telemetry", None)
            if attach is not None:
                attach(telemetry, self.kernel.clock)
        #: Pending speculative timers (canceled by the next dispatch).
        self._idle_gc_timer: Optional[Event] = None
        self._power_down_timer: Optional[Event] = None
        self._arm_activity_timers()

    @property
    def capacity_bytes(self) -> int:
        """Raw device capacity in bytes."""
        return self.geometry.capacity_bytes()

    def describe(self) -> str:
        """One-paragraph status snapshot (geometry, activity, health)."""
        from .ftl.wear_leveling import collect_wear

        geometry = self.geometry
        lines = [
            f"{self.config.name}: {geometry.channels}ch x "
            f"{geometry.chips_per_channel}chip x {geometry.dies_per_chip}die x "
            f"{geometry.planes_per_die}plane, "
            f"{self.capacity_bytes // 2**30} GiB "
            f"({', '.join(f'{geometry.blocks_per_plane[k]}x{k}' for k in geometry.kinds())} "
            f"blocks/plane)",
            f"  served {self.stats.requests} requests "
            f"(MRT {self.stats.mean_response_ms:.2f} ms, "
            f"no-wait {self.stats.no_wait_ratio * 100:.1f}%)",
            f"  wrote {self.stats.data_bytes_written // 1024} KiB host data, "
            f"space utilization {self.stats.space_utilization:.3f}, "
            f"{self.stats.erases} erases, "
            f"{self.stats.gc_collections} foreground GC",
        ]
        planes = getattr(self.ftl, "planes", None)
        if planes is not None:
            wear = collect_wear(planes)
            lines.append(
                f"  wear: mean {wear.mean_erase:.2f} cycles/block, "
                f"spread {wear.spread}"
            )
        return "\n".join(lines)

    # -- the host interface -------------------------------------------------------

    def arrive(
        self,
        request: Request,
        on_complete: Optional[Callable[[Request], None]] = None,
        record_to: Optional[List[Request]] = None,
    ) -> Event:
        """Schedule ``request`` as an ``ARRIVAL`` event on the kernel.

        The request is served when the loop reaches its arrival time;
        ``record_to`` (if given) receives the timed request at that
        instant (submission order), while ``on_complete`` fires at the
        request's ``COMPLETE`` event (completion order).
        """

        def _on_arrival(event: Event) -> None:
            completed = self._serve(event.payload)
            if record_to is not None:
                record_to.append(completed)
            if on_complete is None:
                self.kernel.schedule(
                    completed.finish_us,
                    kind=EventKind.COMPLETE,
                    payload=completed,
                )
            else:
                self.kernel.schedule(
                    completed.finish_us,
                    self._fire_complete,
                    kind=EventKind.COMPLETE,
                    payload=(completed, on_complete),
                )

        return self.kernel.schedule(
            request.arrival_us, _on_arrival, kind=EventKind.ARRIVAL, payload=request
        )

    def _fire_complete(self, event: Event) -> None:
        """COMPLETE callback: hand the timed request to its observer.

        Exactly one COMPLETE event is scheduled per request, and the
        observer rides on that event's payload -- never wrapped a second
        time.  An attached telemetry sink sees the same completion
        through the kernel's event recording hook, not through another
        callback, so an observer and telemetry coexist without
        double-dispatch (regression-tested in
        ``tests/telemetry/test_host_observer.py``).
        """
        completed, observer = event.payload
        observer(completed)

    def submit(self, request: Request) -> Request:
        """Serve one request; returns it with device timestamps attached.

        Closed-loop convenience: schedules the arrival and runs the kernel
        up to (and including) the arrival instant, so any due completions
        and idle/power timers fire first.  Requests must be submitted in
        non-decreasing arrival order (the clock cannot move backwards).
        """
        box: List[Request] = []
        self.arrive(request, record_to=box)
        self.kernel.run_until(request.arrival_us)
        return box[0]

    def replay(self, trace: Trace) -> ReplayResult:
        """Serve every request of ``trace`` in arrival order.

        Returns the same trace with service-start and finish timestamps
        filled in, plus the device statistics -- the paper's replay
        methodology for Figs. 8 and 9.  Delegates to
        :class:`repro.sim.Host`, the open-loop front door.
        """
        return Host(self).replay(trace)

    # -- power-loss recovery -------------------------------------------------------

    def recover(self, at_us: Optional[float] = None) -> RecoveryReport:
        """Power-cycle the device: rebuild RAM state from flash, restart.

        Models what a real eMMC does on the remount after an abrupt power
        loss.  Everything volatile is discarded -- the event kernel (and
        any in-flight arrivals/completions/timers on it), the admission
        queue, the resource timelines, the RAM buffer's contents and the
        controller's mapping table -- and the mapping is re-derived by
        scanning flash (:meth:`Ftl.rebuild_mapping`).  Durable state
        (block contents, erase counts, bad-block marks, spare accounting)
        and replay-lifetime telemetry (``DeviceStats``, the fault
        injector's stream cursors) survive.

        ``at_us`` is the instant the device is back (defaults to the cut
        instant, i.e. a free remount); callers add their remount latency.
        The caller is responsible for re-arming any requests whose
        ``ARRIVAL`` event had not fired -- see
        :func:`repro.faults.replay.replay_with_faults`.
        """
        cut_us = self.kernel.now_us
        resume_us = cut_us if at_us is None else at_us
        if resume_us < cut_us:
            raise ValueError(
                f"cannot resume at {resume_us}us before the cut at {cut_us}us"
            )
        remapped = 0
        rebuild = getattr(self.ftl, "rebuild_mapping", None)
        if rebuild is not None:
            remapped = rebuild()
        if self.buffer is not None:
            self.buffer.power_cycle()
        self.kernel = self.kernel.successor(resume_us)
        self.queue = AdmissionQueue(self.config.queue_depth)
        self.controller = ResourceTimeline("controller")
        self.channels = ResourcePool(self.geometry.channels, "channel")
        units = (
            self.geometry.num_planes
            if self.config.multi_plane
            else self.geometry.num_dies
        )
        self.units = ResourcePool(units, "plane" if self.config.multi_plane else "die")
        self._idle_gc_timer = None
        self._power_down_timer = None
        self.power.reset_for_recovery(resume_us)
        self.stats.recoveries += 1
        if self.telemetry is not None:
            # Re-bind the FTL's event clock to the successor kernel and
            # mark the power cycle; the sink itself (spans recorded so
            # far) is replay-lifetime state and survives, like DeviceStats.
            attach = getattr(self.ftl, "attach_telemetry", None)
            if attach is not None:
                attach(self.telemetry, self.kernel.clock)
            self.telemetry.add_event(
                "recovery", resume_us, cat="power", track="power",
                args=remapped,
            )
        self._arm_activity_timers()
        return RecoveryReport(
            cut_us=cut_us, resumed_us=resume_us, remapped_entries=remapped
        )

    # -- serving one request (runs at its ARRIVAL event) ---------------------------

    def _serve(self, request: Request) -> Request:
        arrival = request.arrival_us
        dispatch = self.queue.admit(arrival)
        self._cancel_activity_timers()
        self._account_idle(dispatch)
        start = dispatch + self.power.wake(dispatch)
        ops, absorbed = self._expand(request)
        telemetry = self.telemetry
        legs = None if telemetry is None else []
        finish = self._schedule(ops, start, legs) if ops else start + self._absorbed_latency(absorbed)
        self._account(request, dispatch, finish, ops)
        self.queue.on_dispatch(finish)
        self.power.record_activity_end(finish)
        self.stats.wakeups = self.power.wakeups
        if self.faults is not None:
            self._sync_fault_stats()
        self._arm_activity_timers()
        if telemetry is not None:
            self._record_request_telemetry(
                telemetry, request, arrival, dispatch, start, finish, legs
            )
        return request.with_timing(service_start_us=dispatch, finish_us=finish)

    def _record_request_telemetry(
        self,
        telemetry: Telemetry,
        request: Request,
        arrival: float,
        dispatch: float,
        start: float,
        finish: float,
        legs: List[tuple],
    ) -> None:
        """Emit this request's span tree and exact latency decomposition.

        Pure observation: every number here was already computed by the
        serving path above; nothing is re-derived, reserved, or mutated,
        which is how telemetry-on stays bit-identical to telemetry-off.
        """
        rid = telemetry.add_span(
            "write" if request.is_write else "read",
            arrival,
            finish - arrival,
            cat="request",
            track="requests",
        )
        if dispatch > arrival:
            telemetry.add_span(
                "queue-wait", arrival, dispatch - arrival,
                cat="queue", track="requests", parent=rid,
            )
        if start > dispatch:
            telemetry.add_span(
                "wake-up", dispatch, start - dispatch,
                cat="power", track="requests", parent=rid,
            )
        unit_track = self.units.name
        gc_begin = gc_end = None
        for leg in legs:
            (gc, code, die, channel, issue_start, issue,
             unit_window, transfer_window, retries, op_finish) = leg
            cat = "gc" if gc else "flash"
            telemetry.add_span(
                "issue", issue_start, issue - issue_start,
                cat=cat, track="controller", parent=rid,
            )
            u0, u1 = unit_window
            telemetry.add_span(
                ("read", "program", "erase")[code], u0, u1 - u0,
                cat=cat, track=f"{unit_track}{die}", parent=rid,
            )
            prev = u1
            for attempt, (r0, r1) in enumerate(retries, start=1):
                telemetry.add_span(
                    f"ecc-backoff-{attempt}", prev, r0 - prev,
                    cat="fault", track=f"{unit_track}{die}", parent=rid,
                )
                telemetry.add_span(
                    "read-retry", r0, r1 - r0,
                    cat="fault", track=f"{unit_track}{die}", parent=rid,
                )
                prev = r1
            if transfer_window is not None:
                t0, t1 = transfer_window
                telemetry.add_span(
                    "xfer", t0, t1 - t0,
                    cat=cat, track=f"channel{channel}", parent=rid,
                )
            if gc:
                gc_begin = issue_start if gc_begin is None else min(gc_begin, issue_start)
                gc_end = op_finish if gc_end is None else max(gc_end, op_finish)
        if gc_begin is not None:
            telemetry.add_span(
                "gc", gc_begin, gc_end - gc_begin,
                cat="gc", track="requests", parent=rid,
            )
        telemetry.decompositions.append(
            decompose_request(arrival, dispatch, start, finish, legs)
        )

    def _sync_fault_stats(self) -> None:
        """Mirror the FTL-side fault counters into the device stats."""
        stats = self.stats
        stats.program_failures = getattr(self.ftl, "program_failures", 0)
        stats.erase_failures = getattr(getattr(self.ftl, "gc", None), "erase_failures", 0)
        bad = getattr(self.ftl, "bad_blocks", None)
        if bad is not None:
            stats.bad_blocks_retired = bad.retired
            stats.spare_blocks_consumed = bad.spares_consumed
            stats.remap_migrated_slots = bad.migrated_slots

    def _account_idle(self, dispatch: float) -> None:
        """Split the idle gap before this dispatch into power states."""
        gap = dispatch - self.power.last_activity_end_us
        if gap <= 0:
            return
        threshold = self.latency.power_threshold_us
        if gap > threshold:
            self.stats.active_idle_us += threshold
            self.stats.low_power_us += gap - threshold
        else:
            self.stats.active_idle_us += gap

    def _absorbed_latency(self, absorbed: bool) -> float:
        if absorbed and self.buffer is not None:
            return self.buffer.hit_latency_us
        return self.latency.command_overhead_us

    # -- request expansion --------------------------------------------------------

    def _expand(self, request: Request):
        """Turn a host request into flash ops (possibly via the RAM buffer)."""
        ops: List[FlashOp] = []
        absorbed = False
        if request.is_write:
            lpns = self.distributor.lpns_of(request)
            if self.buffer is not None:
                evicted = self.buffer.write(lpns)
                if evicted:
                    ops.extend(self._write_lpns(evicted))
                absorbed = not ops
                self.stats.data_bytes_written += request.size
            else:
                outcome = self.ftl.write(self.distributor.split_write(request))
                ops.extend(outcome.ops)
                self.stats.data_bytes_written += outcome.data_bytes
                self.stats.flash_bytes_consumed += outcome.flash_bytes
                self.stats.gc_collections += len(outcome.gc_results)
                self.stats.gc_migrated_slots += sum(
                    result.migrated_slots for result in outcome.gc_results
                )
        else:
            lpns = self.distributor.lpns_of(request)
            if self.buffer is not None:
                lpns = self.buffer.read(lpns)
                self.stats.cache_read_hits = self.buffer.stats.read_hits
                self.stats.cache_read_misses = self.buffer.stats.read_misses
                absorbed = not lpns
            if lpns:
                outcome = self.ftl.read(lpns)
                ops.extend(outcome.ops)
                self.stats.preloaded_pages += outcome.preloaded_pages
            self.stats.data_bytes_read += request.size
        return ops, absorbed

    def _write_lpns(self, lpns: List[int]) -> List[FlashOp]:
        """Flush buffered pages: pack into write groups like a host write."""
        groups: List[WriteGroup] = []
        large = self.distributor.largest
        index = 0
        while index + large.slots <= len(lpns):
            groups.append(WriteGroup(large, tuple(lpns[index : index + large.slots])))
            index += large.slots
        remainder = lpns[index:]
        if remainder:
            if self.distributor.hybrid or large.slots == 1:
                small = self.distributor.smallest
                groups.extend(WriteGroup(small, (lpn,)) for lpn in remainder)
            else:
                padded = tuple(remainder) + (None,) * (large.slots - len(remainder))
                groups.append(WriteGroup(large, padded))
        outcome = self.ftl.write(groups)
        self.stats.flash_bytes_consumed += outcome.flash_bytes
        self.stats.gc_collections += len(outcome.gc_results)
        return outcome.ops

    # -- timing engine --------------------------------------------------------------

    def _schedule(
        self,
        ops: List[FlashOp],
        start: float,
        legs: Optional[List[tuple]] = None,
    ) -> float:
        """Reserve ops on the controller/channel/unit timelines; returns makespan end.

        Each op claims ``[start, end)`` windows in arrival order with no
        preemption -- ``ResourceTimeline.reserve`` is the very ``max()``
        arithmetic this method used to inline, so the numbers (and their
        floating-point rounding) are unchanged.

        ``legs`` (telemetry enabled only) receives one tuple per op in
        the :data:`repro.telemetry.decomposition` ``L_*`` layout --
        every reservation window this loop computes anyway, captured
        instead of discarded.  Recording never changes a reservation.
        """
        record = legs is not None
        finish = start
        for op in ops:
            channel = self.geometry.channel_of(op.plane)
            die = op.plane if self.config.multi_plane else self.geometry.die_of(op.plane)
            timing = self.latency.timing(op.kind)
            # Controller processing (mapping lookup, command issue) is a
            # single serialized resource -- the structural reason per-op
            # counts matter as much as bytes on eMMC-class hardware.
            issue_start, issue = self.controller.reserve(
                start, self.latency.ftl_overhead_us
            )
            copyback = self.config.gc_copyback and op.gc
            transfer_window = None
            retries: tuple = ()
            if op.op_type is FlashOpType.READ:
                code = 0
                unit_start, die_end = self.units.reserve(die, issue, timing.read_us)
                unit_window = (unit_start, die_end)
                uncorrectable = False
                if self.faults is not None and self.faults.read_active:
                    retry_windows = [] if record else None
                    die_end, uncorrectable = self._inject_read_faults(
                        die, die_end, timing, retry_windows
                    )
                    if record and retry_windows:
                        retries = tuple(retry_windows)
                if copyback or uncorrectable:
                    # Copyback: data stays in the plane's page register.
                    # Uncorrectable: there is no good data to transfer --
                    # the command completes with an ECC error status.
                    op_finish = die_end
                else:
                    transfer_start, transfer_end = self.channels.reserve(
                        channel, die_end, self.latency.transfer_us(op.payload_bytes)
                    )
                    transfer_window = (transfer_start, transfer_end)
                    op_finish = transfer_end
                    self.stats.busy_transfer_us += transfer_end - transfer_start
                self.stats.busy_read_us += timing.read_us
                self.stats.record_op_counts(op.kind, reads=1)
            elif op.op_type is FlashOpType.PROGRAM:
                code = 1
                if copyback:
                    unit_start, die_end = self.units.reserve(
                        die, issue, timing.program_us
                    )
                    op_finish = die_end
                else:
                    transfer_start, transfer_end = self.channels.reserve(
                        channel, issue, self.latency.transfer_us(op.payload_bytes)
                    )
                    transfer_window = (transfer_start, transfer_end)
                    unit_start, die_end = self.units.reserve(
                        die, transfer_end, timing.program_us
                    )
                    op_finish = die_end
                    self.stats.busy_transfer_us += transfer_end - transfer_start
                unit_window = (unit_start, die_end)
                self.stats.busy_program_us += timing.program_us
                self.stats.record_op_counts(op.kind, programs=1)
            else:  # ERASE
                code = 2
                unit_start, die_end = self.units.reserve(
                    die, issue, self.latency.erase_us
                )
                unit_window = (unit_start, die_end)
                op_finish = die_end
                self.stats.erases += 1
                self.stats.busy_erase_us += self.latency.erase_us
            if record:
                legs.append((
                    op.gc, code, die, channel, issue_start, issue,
                    unit_window, transfer_window, retries, op_finish,
                ))
            if op_finish > finish:
                finish = op_finish
        return finish

    def _inject_read_faults(
        self, die: int, die_end: float, timing, retry_windows=None
    ):
        """Bounded ECC-retry loop for one page read; returns (end, fatal).

        Each failed attempt is retried after a linearly growing backoff
        (``attempt * read_retry_backoff_us``), modeled as a fresh die
        reservation plus a ``FAULT_RETRY`` kernel event at the retry's
        start -- so retries are visible in the recorded event trace and
        extend the request's service time through the ordinary timeline
        arithmetic.  After ``read_retry_limit`` failed retries the read is
        declared uncorrectable (the caller skips the data transfer).

        ``retry_windows`` (telemetry enabled only) receives each retry
        read's reserved ``(start, end)`` window.
        """
        failures = self.faults.read_failures()
        if failures == 0:
            return die_end, False
        plan = self.faults.plan
        retries = min(failures, plan.read_retry_limit)
        for attempt in range(1, retries + 1):
            backoff = attempt * plan.read_retry_backoff_us
            start, die_end = self.units.reserve(die, die_end + backoff, timing.read_us)
            self.kernel.schedule(
                start, kind=EventKind.FAULT_RETRY, label=f"ecc-retry-{attempt}"
            )
            if retry_windows is not None:
                retry_windows.append((start, die_end))
            self.stats.read_retries += 1
            self.stats.read_retry_backoff_us += backoff
            self.stats.busy_read_us += timing.read_us
        if failures > plan.read_retry_limit:
            self.stats.uncorrectable_reads += 1
            return die_end, True
        self.stats.corrected_reads += 1
        return die_end, False

    # -- idle/power timers (Implication 2 + Characteristic 4) -------------------------

    def _arm_activity_timers(self) -> None:
        """Arm the speculative "nothing else happens" timers.

        Scheduled relative to the last activity end; the next arrival
        cancels whichever have not fired.  The kernel's tie-break
        priorities reproduce the old gap comparisons exactly: IDLE_GC
        beats a same-instant arrival (the old check was ``gap >=
        min_gap``), POWER_DOWN loses to one (the old check was strictly
        ``gap > threshold``).
        """
        last_end = self.power.last_activity_end_us
        if self.config.idle_gc:
            self._idle_gc_timer = self.kernel.schedule(
                last_end + self.config.idle_gc_min_gap_us,
                self._fire_idle_gc,
                kind=EventKind.IDLE_GC,
            )
        self._power_down_timer = self.kernel.schedule(
            self.power.sleep_deadline_us,
            self._fire_power_down,
            kind=EventKind.POWER_DOWN,
        )

    def _cancel_activity_timers(self) -> None:
        """A dispatch happened: pending idle/power deadlines are moot."""
        if self._idle_gc_timer is not None:
            self.kernel.cancel(self._idle_gc_timer)
            self._idle_gc_timer = None
        if self._power_down_timer is not None:
            self.kernel.cancel(self._power_down_timer)
            self._power_down_timer = None

    def _fire_idle_gc(self, event: Event) -> None:
        """The device has been idle ``idle_gc_min_gap_us``: collect now."""
        self._idle_gc_timer = None
        results = self.ftl.idle_collect(self.config.idle_gc_soft_threshold)
        if results:
            self.stats.idle_gc_collections += len(results)
            self.stats.erases += len(results)
            for result in results:
                for op in result.ops:
                    if op.op_type is FlashOpType.READ:
                        self.stats.record_op_counts(op.kind, reads=1)
                    elif op.op_type is FlashOpType.PROGRAM:
                        self.stats.record_op_counts(op.kind, programs=1)
        if self.telemetry is not None and results:
            self.telemetry.add_event(
                "idle-gc", event.time_us, cat="gc", track="power",
                args=len(results),
            )

    def _fire_power_down(self, event: Event) -> None:
        """The device has been idle ``power_threshold_us``: power down."""
        self._power_down_timer = None
        self.power.sleep(event.time_us)
        if self.telemetry is not None:
            self.telemetry.add_event(
                "power-down", event.time_us, cat="power", track="power"
            )

    # -- accounting --------------------------------------------------------------------

    def _account(
        self, request: Request, dispatch: float, finish: float, ops: List[FlashOp]
    ) -> None:
        stats = self.stats
        stats.requests += 1
        wait = dispatch - request.arrival_us
        stats.wait_us.append(wait)
        stats.service_us.append(finish - dispatch)
        stats.response_us.append(finish - request.arrival_us)
        if wait <= 1e-9:
            stats.no_wait_requests += 1


def build_device(config: DeviceConfig) -> EmmcDevice:
    """Construct a fresh (brand-new, fully erased) device."""
    return EmmcDevice(config)
