"""Block targets: the volume layer between the file system and devices.

The paper's stack stops at one drive; scaling the reproduction needs
host-level parallelism too.  A :class:`BlockTarget` is what
:class:`~repro.host.filesystem.FileSystem` talks to — a flat LBA space
with submit/flush plus the post-crash inspection hooks the failure
checkers use.  Three implementations:

* :class:`SingleDevice` — a zero-overhead adapter over one
  :class:`~repro.devices.base.StorageDevice`.  Every call is a direct
  pass-through to one :class:`~repro.host.queues.QueueModel`, so the
  calibrated single-drive benchmarks are byte-identical to a file
  system built straight on the device.
* :class:`StripedVolume` — RAID-0 over N devices.  LBAs are split into
  ``chunk_blocks``-sized chunks dealt round-robin across members, each
  member behind its own command queue and (when armed) its own timeout
  lifecycle, so a gray member is aborted/reset without touching healthy
  ones.  ``flush`` fans out *only* to members holding writes not yet
  covered by a completed flush (see :class:`_MemberActivity`).
* :class:`PlacementVolume` — named extent classes over child targets:
  files created with ``placement="log"`` land on the log child while
  ``"data"`` files stripe, modelling a dedicated WAL device.

:class:`RegionView` additionally exposes a sub-range of any target as a
target of its own — two file systems (data + log) can share one striped
volume, which is exactly the "WAL colocated" arm of the log-placement
ablation in ``repro.bench.scaling``.
"""

from ..devices.base import READ, WRITE, DeviceDeadError, IORequest
from ..flash.torn import corrupt_kind
from ..telemetry.hub import NULL_SPAN
from .integrity import (
    BlockChecksums,
    CorruptDataError,
    DetectedDataLossError,
    IrreparableCorruptionError,
    register_integrity_metrics,
)
from .lifecycle import DeviceTimeoutError
from .queues import QueueTopology

#: a mirror member is declared dead on either hard failure mode: the
#: device reported itself gone, or the lifecycle's retry ladder gave up
_MEMBER_FATAL = (DeviceDeadError, DeviceTimeoutError)


def _observed(_event):
    """No-op completion callback for fan-out member events.

    A fan-out awaits its member events one at a time; a member that
    fails *while a sibling is being awaited* is a failed event with no
    waiter at that instant, which the simulator escalates to a crash
    (rightly — an unobserved failure is a dropped error).  Registering
    this observer at submit time marks every member event as supervised,
    so per-member failures surface only when the fan-out reaches them.
    """


class BlockTarget:
    """A flat LBA space the file system issues commands against.

    Subclasses define :attr:`exported_lbas`, :meth:`serve`,
    :meth:`flush`, :meth:`locate` and the member/queue inventories.
    :meth:`serve` runs a command in the calling process (``yield
    from``); :meth:`submit` runs it in a process of its own, for callers
    that fan commands out and await them together.
    ``locate`` maps a target LBA to ``(device, device_lba)`` — the one
    primitive from which the untimed post-crash inspection helpers
    (:meth:`read_persistent` and friends) derive.
    """

    name = "target"

    @property
    def exported_lbas(self):
        raise NotImplementedError

    @property
    def members(self):
        """The underlying :class:`StorageDevice` instances, in order."""
        raise NotImplementedError

    @property
    def queues(self):
        """One :class:`~repro.host.queues.QueueModel` per member, same
        order."""
        raise NotImplementedError

    def serve(self, request):
        """Serve a request in the calling process (generator; returns
        the completed request)."""
        raise NotImplementedError

    def submit(self, request):
        """Serve a request in a process of its own; returns its
        completion event."""
        return self.sim.process(self.serve(request))

    def flush(self):
        """Issue flush-cache; returns its completion event."""
        raise NotImplementedError

    def locate(self, lba):
        """Map a target LBA to ``(device, device_lba)``."""
        raise NotImplementedError

    def region(self, placement):
        """``(base_lba, nblocks)`` of the extent class ``placement``.

        The default target has no placement classes: everything maps to
        the whole LBA space.
        """
        return (0, self.exported_lbas)

    # --- post-crash inspection (untimed, via locate) ----------------------
    def read_persistent(self, lba):
        device, device_lba = self.locate(lba)
        return device.read_persistent(device_lba)

    def persistent_view(self, blocks):
        return [self.read_persistent(lba) for lba in blocks]

    def install_persistent(self, lba, value):
        device, device_lba = self.locate(lba)
        device.install_persistent(device_lba, value)


def as_target(sim, device_or_target, rng=None, timeout_policy=None,
              queue_model=None):
    """Adapt a raw device to a :class:`SingleDevice`; pass targets through.

    The queue knobs only apply when wrapping a raw device — an existing
    target already owns its queues.  ``queue_model`` (a
    :class:`~repro.host.queues.QueueTopology`) selects the host
    interface; ``None`` means ``QueueTopology()``, the calibrated SATA
    NCQ.
    """
    if isinstance(device_or_target, BlockTarget):
        return device_or_target
    return SingleDevice(sim, device_or_target, rng=rng,
                        timeout_policy=timeout_policy,
                        queue_model=queue_model)


class SingleDevice(BlockTarget):
    """One device behind one command queue; a pure pass-through.

    Every method delegates directly — no wrapper frame, no extra
    events — so a file system over ``SingleDevice(dev)`` is
    byte-identical to the historical file system built on ``dev``.
    """

    def __init__(self, sim, device, rng=None, timeout_policy=None,
                 queue_model=None):
        self.sim = sim
        self.device = device
        self.name = device.name
        self.queue = (queue_model or QueueTopology()).build(
            sim, device, rng=rng, timeout_policy=timeout_policy)

    @property
    def exported_lbas(self):
        return self.device.exported_lbas

    @property
    def members(self):
        return (self.device,)

    @property
    def queues(self):
        return (self.queue,)

    def serve(self, request):
        return self.queue.serve(request)

    def flush(self):
        return self.queue.flush()

    def locate(self, lba):
        return self.device, lba

    def persistent_view(self, blocks):
        return self.device.persistent_view(blocks)


class _MemberActivity:
    """Write-activity counters for one stripe member.

    A member is *dirty* (must be flushed for an fsync to be honest)
    whenever writes completed since the last fully-covering flush, or
    writes are still in flight.  ``completed`` is captured when a flush
    *starts* and committed to ``flushed`` only when it completes: a
    write acked after a flush began is not covered by that flush, so it
    keeps the member dirty for the next barrier.
    """

    __slots__ = ("submitted", "completed", "flushed")

    def __init__(self):
        self.submitted = 0
        self.completed = 0
        self.flushed = 0

    @property
    def dirty(self):
        return self.completed > self.flushed \
            or self.submitted > self.completed


class StripedVolume(BlockTarget):
    """RAID-0: fixed-size chunks dealt round-robin over N devices.

    Chunk ``c`` (LBAs ``[c*chunk_blocks, (c+1)*chunk_blocks)``) lives on
    member ``c % width`` at member chunk ``c // width``.  A spanning
    request is split into per-member fragments submitted concurrently;
    the completion event fires when every fragment has completed, with
    read fragments reassembled positionally.

    Each member gets its own queue model (built from ``queue_model``,
    a :class:`~repro.host.queues.QueueTopology`; ``None`` means the
    default SATA NCQ) and, when a ``timeout_policy`` is armed, its own
    :class:`~repro.host.lifecycle.CommandLifecycle` — a deadline expiry
    aborts and soft-resets only the member that stalled.

    RAID-0 has no redundancy: a member that fail-stops takes the whole
    volume with it.  The first :class:`DeviceDeadError` from any member
    marks the volume failed, and every later command fails fast the
    same way — the database's degrade machinery escalates those errors
    into a clean read-only demotion instead of limping on a volume that
    can no longer serve half its stripes.
    """

    def __init__(self, sim, devices, chunk_blocks=8, rng=None,
                 timeout_policy=None, queue_model=None):
        if not devices:
            raise ValueError("a striped volume needs at least one device")
        if chunk_blocks < 1:
            raise ValueError("chunk_blocks must be >= 1")
        self.sim = sim
        #: cause string once any member fail-stopped (volume unusable)
        self.failed = None
        self.chunk_blocks = chunk_blocks
        self.width = len(devices)
        self._devices = tuple(devices)
        self.name = "stripe[%s]" % ",".join(d.name for d in devices)
        model = queue_model or QueueTopology()
        self._queues = tuple(
            model.build(sim, device, rng=rng,
                        timeout_policy=timeout_policy)
            for device in devices)
        self._activity = tuple(_MemberActivity() for _ in devices)
        # The exported space is the largest whole number of full stripes
        # every member can hold (trailing member capacity beyond that is
        # unaddressable, as in md raid0 with equal-size expectations).
        chunks_per_member = min(d.exported_lbas for d in devices) \
            // chunk_blocks
        self._exported = chunks_per_member * chunk_blocks * self.width
        metrics = sim.telemetry.metrics
        for index, device in enumerate(devices):
            metrics.counter(
                "host.member_submitted",
                fn=lambda index=index: self._activity[index].submitted,
                volume=self.name, member=device.name)
        metrics.gauge("host.volume_imbalance", fn=self.write_imbalance,
                      volume=self.name)

    def write_imbalance(self):
        """Busiest member's submitted-fragment share of a perfectly
        even split (1.0 = balanced, ``width`` = everything on one)."""
        submitted = [state.submitted for state in self._activity]
        total = sum(submitted)
        if not total:
            return 1.0
        return max(submitted) * len(submitted) / total

    @property
    def exported_lbas(self):
        return self._exported

    @property
    def members(self):
        return self._devices

    @property
    def queues(self):
        return self._queues

    def locate(self, lba):
        member, member_lba = self._locate_index(lba)
        return self._devices[member], member_lba

    def _locate_index(self, lba):
        chunk, within = divmod(lba, self.chunk_blocks)
        member_chunk, member = divmod(chunk, self.width)
        return member, member_chunk * self.chunk_blocks + within

    def fragments(self, lba, nblocks):
        """Split an LBA range into ``(member, member_lba, offset, count)``
        fragments, in ascending target-LBA order."""
        frags = []
        offset = 0
        while nblocks > 0:
            within = lba % self.chunk_blocks
            take = min(self.chunk_blocks - within, nblocks)
            member, member_lba = self._locate_index(lba)
            frags.append((member, member_lba, offset, take))
            lba += take
            offset += take
            nblocks -= take
        return frags

    def serve(self, request):
        if self.failed is not None:
            raise DeviceDeadError(self.name, self.failed)
        if request.lba + request.nblocks > self._exported:
            raise ValueError("request past end of %s: lba=%d n=%d"
                             % (self.name, request.lba, request.nblocks))
        frags = self.fragments(request.lba, request.nblocks)
        telemetry = self.sim.telemetry
        with (telemetry.span("vol.submit", "host", op=request.op,
                             lba=request.lba, nblocks=request.nblocks,
                             fragments=len(frags))
              if telemetry.enabled else NULL_SPAN):
            pending = []
            for member, member_lba, offset, count in frags:
                payload = (list(request.payload[offset:offset + count])
                           if request.op == WRITE else None)
                part = IORequest(request.op, member_lba, count,
                                 payload=payload, tag=request.tag,
                                 stream=request.stream)
                if request.op == WRITE:
                    self._activity[member].submitted += 1
                event = self._queues[member].submit(part)
                event.callbacks.append(_observed)
                pending.append((member, offset, count, event))
            result = [None] * request.nblocks if request.op == READ else None
            for member, offset, count, event in pending:
                try:
                    part = yield event
                except DeviceDeadError as error:
                    self._fail_volume(member, error)
                    raise
                if request.op == WRITE:
                    self._activity[member].completed += 1
                else:
                    result[offset:offset + count] = part.result
            if request.op == READ:
                request.result = result
            request.complete_time = self.sim.now
        return request

    def _fail_volume(self, member, error):
        if self.failed is not None:
            return
        self.failed = "member %s dead: %s" \
            % (self._devices[member].name, error)
        self.sim.telemetry.instant("vol.failed", "host", volume=self.name,
                                   cause=self.failed)

    def flush(self):
        return self.sim.process(self._flush())

    def _flush(self):
        if self.failed is not None:
            raise DeviceDeadError(self.name, self.failed)
        # Fan out only to dirty members; capture each member's completed
        # count now, commit it when that member's flush lands.
        covered = [(index, state.completed)
                   for index, state in enumerate(self._activity)
                   if state.dirty]
        telemetry = self.sim.telemetry
        with (telemetry.span("vol.flush", "host", fanout=len(covered))
              if telemetry.enabled else NULL_SPAN):
            pending = []
            for index, completed in covered:
                event = self._queues[index].flush()
                event.callbacks.append(_observed)
                pending.append((index, completed, event))
            for index, completed, event in pending:
                try:
                    yield event
                except DeviceDeadError as error:
                    self._fail_volume(index, error)
                    raise
                state = self._activity[index]
                if completed > state.flushed:
                    state.flushed = completed
        return None


class MirroredVolume(BlockTarget):
    """RAID-1 with checksum verification and read-repair.

    Every write fans out to all members; every read is served by a
    deterministic preferred member and verified against the volume's
    :class:`~repro.host.integrity.BlockChecksums`.  On a mismatch the
    surviving replicas are tried in order: the first verifying copy is
    returned to the caller and *rewritten over the bad copy* (the
    self-healing read-repair of ZFS/Btrfs mirrors).  A block with no
    verifying replica raises
    :class:`~repro.host.integrity.IrreparableCorruptionError` through
    the completion event — detected corruption is fail-stop, never a
    wrong answer — and the database's degrade machinery escalates it.

    Each member gets its own queue model (and lifecycle, when a
    ``timeout_policy`` is armed), so a gray or corrupt member never
    blocks its healthy replica.

    **Degraded mode.**  A member whose commands fail *hard* — the
    device fail-stopped (:class:`DeviceDeadError`) or the retry ladder
    exhausted (:class:`DeviceTimeoutError`) — is declared dead: writes
    fan out to survivors only, reads route around the corpse, and the
    volume keeps serving as long as one member lives.  A hot spare can
    be attached in a dead member's slot (:meth:`attach_spare`); new
    writes are *fenced* to it immediately while a
    :class:`Rebuilder` copies the tracked blocks it lacks in the
    background.  A block whose every live holder is gone is *detected
    data loss*: reads and rebuild raise
    :class:`~repro.host.integrity.DetectedDataLossError` — loud and
    fail-stop, never a hang, never a fabricated answer.
    """

    def __init__(self, sim, devices, checksums=None, rng=None,
                 timeout_policy=None, queue_model=None):
        if len(devices) < 2:
            raise ValueError("a mirrored volume needs at least two devices")
        self.sim = sim
        self.width = len(devices)
        self._devices = list(devices)
        self.name = "mirror[%s]" % ",".join(d.name for d in devices)
        self._queue_model = queue_model or QueueTopology()
        self._rng = rng
        self._timeout_policy = timeout_policy
        self._queues = [
            self._queue_model.build(sim, device, rng=rng,
                                    timeout_policy=timeout_policy)
            for device in devices]
        self._activity = [_MemberActivity() for _ in devices]
        self._exported = min(d.exported_lbas for d in devices)
        self.checksums = checksums if checksums is not None \
            else BlockChecksums()
        # Failover state: which member slots are dead, which blocks a
        # rebuilding replacement still lacks (None = fully synced), and
        # the authoritative set of blocks known lost (no live holder).
        self._dead = [False] * self.width
        self._missing = [None] * self.width
        self._rebuilt = {}  # member -> blocks copied by the rebuild
        self._lost = set()
        self.failover = {"member_deaths": 0, "rebuilds_started": 0,
                         "rebuilds_completed": 0, "blocks_copied": 0}
        self.first_death_s = None
        self.degraded_since = None
        self.degraded_seconds = 0.0
        #: degraded-window lengths (death -> fully healthy), i.e. MTTR
        self.mttr_samples = []
        self.scrubber = None
        self.rebuilder = None
        metrics = sim.telemetry.metrics
        for index, device in enumerate(devices):
            metrics.counter(
                "host.member_submitted",
                fn=lambda index=index: self._activity[index].submitted,
                volume=self.name, member=device.name)
        metrics.gauge("host.members_dead", fn=self.members_dead,
                      volume=self.name)
        metrics.gauge("host.degraded",
                      fn=lambda: 1 if self.degraded else 0,
                      volume=self.name)
        metrics.gauge("host.rebuild_remaining", fn=self.rebuild_remaining,
                      volume=self.name)
        metrics.counter("host.rebuild_copied",
                        fn=lambda: self.failover["blocks_copied"],
                        volume=self.name)
        metrics.counter("host.data_loss_blocks",
                        fn=lambda: len(self._lost), volume=self.name)
        register_integrity_metrics(metrics, self.checksums, self.name)

    def members_dead(self):
        return sum(1 for dead in self._dead if dead)

    @property
    def degraded(self):
        """Is the volume short a replica anywhere (dead member, or a
        spare still being rebuilt)?"""
        return any(self._dead) \
            or any(missing is not None for missing in self._missing)

    def rebuild_remaining(self):
        """Blocks still to be copied across all rebuilding members."""
        return sum(len(missing) for missing in self._missing
                   if missing is not None)

    @property
    def exported_lbas(self):
        return self._exported

    @property
    def members(self):
        return tuple(self._devices)

    @property
    def queues(self):
        return tuple(self._queues)

    def _preferred(self, lba):
        """The member a read of ``lba`` is served from (reads spread
        over replicas; repair probes the others in rotation order)."""
        return lba % self.width

    def _holds(self, member, lba):
        """Does a live ``member`` currently hold a copy of ``lba``?"""
        if self._dead[member]:
            return False
        missing = self._missing[member]
        return missing is None or lba not in missing

    def locate(self, lba):
        start = self._preferred(lba)
        for offset in range(self.width):
            member = (start + offset) % self.width
            if self._holds(member, lba):
                return self._devices[member], lba
        return self._devices[start], lba

    def _member_failed(self, member, error):
        """Declare one member dead: fence it out of every fan-out.

        Idempotent.  Reads and writes already route around the slot on
        the next command; the scrubber is paused (one-copy blocks must
        not be escalated as irreparable during a repair window) and the
        degraded-window clock starts for MTTR accounting.
        """
        if self._dead[member]:
            return
        self._dead[member] = True
        self._missing[member] = None
        self._rebuilt.pop(member, None)
        self.failover["member_deaths"] += 1
        now = self.sim.now
        if self.first_death_s is None:
            self.first_death_s = now
        if self.degraded_since is None:
            self.degraded_since = now
        self.sim.telemetry.instant(
            "vol.member_dead", "host", volume=self.name,
            member=self._devices[member].name, cause=str(error))
        if self.scrubber is not None:
            self.scrubber.pause(reason="member-dead")

    def serve(self, request):
        if request.lba + request.nblocks > self._exported:
            raise ValueError("request past end of %s: lba=%d n=%d"
                             % (self.name, request.lba, request.nblocks))
        telemetry = self.sim.telemetry
        with (telemetry.span(
                "vol.submit", "host", op=request.op, lba=request.lba,
                nblocks=request.nblocks,
                fragments=self.width if request.op == WRITE else 1)
              if telemetry.enabled else NULL_SPAN):
            if request.op == WRITE:
                yield from self._submit_write(request)
            else:
                yield from self._submit_read(request)
            request.complete_time = self.sim.now
        return request

    def _submit_write(self, request):
        # Fingerprint at submission, commit at completion — the
        # two-phase protocol that keeps racing reads false-alarm-free.
        for index, lba in enumerate(request.blocks):
            self.checksums.submit(lba, request.payload[index])
        pending = []
        for member, queue in enumerate(self._queues):
            if self._dead[member]:
                continue
            part = IORequest(WRITE, request.lba, request.nblocks,
                             payload=list(request.payload), tag=request.tag,
                             stream=request.stream)
            self._activity[member].submitted += 1
            event = queue.submit(part)
            event.callbacks.append(_observed)
            pending.append((member, event))
        acked = 0
        failure = None
        for member, event in pending:
            try:
                yield event
            except _MEMBER_FATAL as error:
                failure = error
                self._member_failed(member, error)
                continue
            self._activity[member].completed += 1
            acked += 1
            missing = self._missing[member]
            if missing is not None:
                # The write fence: a rebuilding member that acked this
                # write now holds these blocks at their newest version.
                missing.difference_update(request.blocks)
        if not acked:
            # The write landed nowhere; it must not verify later.
            for index, lba in enumerate(request.blocks):
                self.checksums.abandon(lba, request.payload[index])
            if failure is None:
                failure = DeviceDeadError(self.name,
                                          "no surviving mirror member")
            raise failure
        for index, lba in enumerate(request.blocks):
            self.checksums.ack(lba, request.payload[index])

    def _read_primary(self, request):
        """The member to serve a whole read from, or None when no live
        member holds the full range (degraded per-block assembly)."""
        start = self._preferred(request.lba)
        for offset in range(self.width):
            member = (start + offset) % self.width
            if self._dead[member]:
                continue
            missing = self._missing[member]
            if missing and not missing.isdisjoint(request.blocks):
                continue
            return member
        return None

    def _submit_read(self, request):
        primary = self._read_primary(request)
        if primary is None:
            yield from self._read_degraded(request)
            return
        part = IORequest(READ, request.lba, request.nblocks,
                         tag=request.tag, stream=request.stream)
        try:
            yield from self._queues[primary].serve(part)
        except _MEMBER_FATAL as error:
            self._member_failed(primary, error)
            yield from self._read_degraded(request)
            return
        values = list(part.result)
        for index, lba in enumerate(request.blocks):
            if self.checksums.ok(lba, values[index]):
                self.checksums.counters["verified"] += 1
                continue
            values[index] = yield from self._read_repair(
                lba, primary, values[index])
        request.result = values

    def _read_degraded(self, request):
        """Per-block assembly when no single live member holds the whole
        range: serve each block from any live holder."""
        values = []
        for lba in request.blocks:
            values.append((yield from self._read_block_survivor(lba)))
        request.result = values

    def _read_block_survivor(self, lba):
        """One block from any live verifying holder (generator).

        A block every live holder has lost is *detected data loss* —
        recorded, reported loudly, never served as fabricated data.
        """
        if lba in self._lost:
            raise DetectedDataLossError(self.name, lba)
        saw_copy = False
        bad_value = None
        for offset in range(self.width):
            member = (self._preferred(lba) + offset) % self.width
            if not self._holds(member, lba):
                continue
            probe = IORequest(READ, lba, 1)
            try:
                yield from self._queues[member].serve(probe)
            except _MEMBER_FATAL as error:
                self._member_failed(member, error)
                continue
            saw_copy = True
            value = probe.result[0]
            if self.checksums.ok(lba, value):
                self.checksums.counters["verified"] += 1
                return value
            self.checksums.counters["mismatches"] += 1
            bad_value = value
        if saw_copy:
            self.checksums.counters["irreparable"] += 1
            raise IrreparableCorruptionError(self.name, lba,
                                             kind=corrupt_kind(bad_value))
        self._note_data_loss(lba)
        raise DetectedDataLossError(self.name, lba)

    def _note_data_loss(self, lba):
        if lba in self._lost:
            return
        self._lost.add(lba)
        for missing in self._missing:
            if missing is not None:
                missing.discard(lba)  # unrecoverable: stop rebuilding it
        self.sim.telemetry.instant("vol.data_loss", "host",
                                   volume=self.name, lba=lba)

    def _read_repair(self, lba, bad_member, bad_value):
        """Recover one block from the surviving replicas (generator).

        Returns the verified value; rewrites it over the bad copy when
        no newer write has raced past.  Raises irreparable when every
        replica fails verification.
        """
        self.checksums.counters["mismatches"] += 1
        self.sim.telemetry.instant("integrity.mismatch", "host",
                                   volume=self.name, lba=lba,
                                   member=self._devices[bad_member].name)
        telemetry = self.sim.telemetry
        with (telemetry.span("vol.repair", "host", lba=lba)
              if telemetry.enabled else NULL_SPAN):
            if lba in self._lost:
                raise DetectedDataLossError(self.name, lba)
            for offset in range(1, self.width):
                member = (bad_member + offset) % self.width
                if not self._holds(member, lba):
                    continue
                probe = IORequest(READ, lba, 1)
                try:
                    yield from self._queues[member].serve(probe)
                except _MEMBER_FATAL as error:
                    self._member_failed(member, error)
                    continue
                value = probe.result[0]
                if not self.checksums.ok(lba, value):
                    continue
                # Heal the bad copy — unless a newer write already
                # overwrote the block while the repair was in flight.
                if self.checksums.committed(lba, value) == value:
                    fix = IORequest(WRITE, lba, 1, payload=[value])
                    self._activity[bad_member].submitted += 1
                    try:
                        yield from self._queues[bad_member].serve(fix)
                    except _MEMBER_FATAL as error:
                        self._member_failed(bad_member, error)
                        return value  # the read itself is satisfied
                    self._activity[bad_member].completed += 1
                    self.checksums.counters["repairs"] += 1
                    self.sim.telemetry.instant(
                        "integrity.repair", "host", volume=self.name,
                        lba=lba, member=self._devices[bad_member].name)
                return value
            self.checksums.counters["irreparable"] += 1
            raise IrreparableCorruptionError(
                self.name, lba, kind=corrupt_kind(bad_value))

    def scrub_read(self, lba):
        return self.sim.process(self._scrub_read(lba))

    def _scrub_read(self, lba):
        """Scrub probe: verify every *live holding* replica of ``lba``,
        repair the bad ones from a verifying copy."""
        if lba in self._lost:
            raise DetectedDataLossError(self.name, lba)
        probes = []
        for member, queue in enumerate(self._queues):
            if not self._holds(member, lba):
                continue
            probe = IORequest(READ, lba, 1)
            event = queue.submit(probe)
            event.callbacks.append(_observed)
            probes.append((member, probe, event))
        good, bad = None, []
        for member, probe, event in probes:
            try:
                yield event
            except _MEMBER_FATAL as error:
                self._member_failed(member, error)
                continue
            value = probe.result[0]
            if self.checksums.ok(lba, value):
                self.checksums.counters["verified"] += 1
                if good is None:
                    good = value
            else:
                bad.append((member, value))
        for member, value in bad:
            self.checksums.counters["mismatches"] += 1
            if good is None or self._dead[member]:
                continue
            if self.checksums.committed(lba, good) != good:
                continue  # a racing write superseded this block
            fix = IORequest(WRITE, lba, 1, payload=[good])
            self._activity[member].submitted += 1
            try:
                yield from self._queues[member].serve(fix)
            except _MEMBER_FATAL as error:
                self._member_failed(member, error)
                continue
            self._activity[member].completed += 1
            self.checksums.counters["repairs"] += 1
            self.sim.telemetry.instant(
                "integrity.repair", "host", volume=self.name, lba=lba,
                member=self._devices[member].name)
        if bad and good is None:
            self.checksums.counters["irreparable"] += 1
            raise IrreparableCorruptionError(
                self.name, lba, kind=corrupt_kind(bad[0][1]))
        return good

    def flush(self):
        return self.sim.process(self._flush())

    def _flush(self):
        if all(self._dead):
            raise DeviceDeadError(self.name, "no surviving mirror member")
        # Same dirty-member capture/commit protocol as StripedVolume.
        covered = [(index, state.completed)
                   for index, state in enumerate(self._activity)
                   if state.dirty and not self._dead[index]]
        telemetry = self.sim.telemetry
        with (telemetry.span("vol.flush", "host", fanout=len(covered))
              if telemetry.enabled else NULL_SPAN):
            pending = []
            for index, completed in covered:
                event = self._queues[index].flush()
                event.callbacks.append(_observed)
                pending.append((index, completed, event))
            for index, completed, event in pending:
                try:
                    yield event
                except _MEMBER_FATAL as error:
                    self._member_failed(index, error)
                    continue
                state = self._activity[index]
                if completed > state.flushed:
                    state.flushed = completed
        return None

    # --- hot spares and online rebuild ------------------------------------
    def attach_spare(self, member, device):
        """Replace dead slot ``member`` with a hot spare.

        The spare joins the write fan-out immediately (the *fence*: no
        new write can be missed), while every already-tracked block —
        committed or still in flight — is recorded as missing until the
        :class:`Rebuilder` copies it over.  Reads skip the spare for
        blocks it does not hold yet.
        """
        if not self._dead[member]:
            raise ValueError("member %d of %s is not dead"
                             % (member, self.name))
        self._devices[member] = device
        self._queues[member] = self._queue_model.build(
            self.sim, device, rng=self._rng,
            timeout_policy=self._timeout_policy)
        self._activity[member] = _MemberActivity()
        self._dead[member] = False
        missing = set(self.checksums.tracked())
        missing.update(self.checksums.pending_lbas())
        missing -= self._lost
        self._missing[member] = missing
        self._rebuilt[member] = set()
        self.failover["rebuilds_started"] += 1
        self.sim.telemetry.instant("vol.spare_attach", "host",
                                   volume=self.name, member=device.name,
                                   missing=len(missing))

    def next_rebuild_block(self, member):
        """The lowest block ``member`` still lacks, or None."""
        missing = self._missing[member]
        if not missing:
            return None
        return min(missing)

    def rebuild_block(self, member, lba):
        """Copy one block onto a rebuilding member (generator).

        Returns True when a copy landed, False when the block needs no
        work (already synced, write-fence in flight, or the member
        died).  A block with no live verifying source raises
        :class:`~repro.host.integrity.DetectedDataLossError` — after
        dropping it from the work list, so the rebuild still terminates.
        """
        missing = self._missing[member]
        if missing is None or lba not in missing:
            return False
        if self.checksums.pending(lba):
            # A fenced write to this block is in flight; it lands on
            # this member directly and clears it from the work list.
            # Copying the old value now could overtake the new one.
            return False
        value = None
        for offset in range(self.width):
            source = (lba + offset) % self.width
            if source == member or not self._holds(source, lba):
                continue
            probe = IORequest(READ, lba, 1)
            try:
                yield from self._queues[source].serve(probe)
            except _MEMBER_FATAL as error:
                self._member_failed(source, error)
                continue
            if self.checksums.ok(lba, probe.result[0]):
                value = probe.result[0]
                break
        if value is None:
            missing.discard(lba)
            self._note_data_loss(lba)
            raise DetectedDataLossError(self.name, lba)
        fix = IORequest(WRITE, lba, 1, payload=[value])
        self._activity[member].submitted += 1
        try:
            yield from self._queues[member].serve(fix)
        except _MEMBER_FATAL as error:
            self._member_failed(member, error)
            return False
        self._activity[member].completed += 1
        missing.discard(lba)
        self.failover["blocks_copied"] += 1
        rebuilt = self._rebuilt.get(member)
        if rebuilt is not None:
            rebuilt.add(lba)
        return True

    def finish_rebuild(self, member):
        """Mark ``member`` fully synced; close the degraded window.

        Returns the set of blocks the rebuild copied (handed to the
        scrubber for independent re-verification on resume).
        """
        rebuilt = self._rebuilt.pop(member, set())
        self._missing[member] = None
        self.failover["rebuilds_completed"] += 1
        healthy = not self.degraded
        self.sim.telemetry.instant("vol.rebuild_done", "host",
                                   volume=self.name,
                                   member=self._devices[member].name,
                                   copied=len(rebuilt))
        if healthy and self.degraded_since is not None:
            window = self.sim.now - self.degraded_since
            self.degraded_seconds += window
            self.mttr_samples.append(window)
            self.degraded_since = None
        if healthy and self.scrubber is not None:
            self.scrubber.resume(verify=rebuilt)
        return rebuilt

    # --- post-crash inspection across replicas ---------------------------
    def read_persistent(self, lba):
        """Best surviving copy: a verifying replica if any, else the
        first clean-looking one, else whatever the primary holds.
        Dead members and blocks a rebuilding member has not copied yet
        are not consulted."""
        values = {}
        for member, device in enumerate(self._devices):
            if not self._holds(member, lba):
                continue
            values[member] = device.read_persistent(lba)
        for value in values.values():
            if self.checksums.ok(lba, value):
                return value
        if not values:
            return None
        preferred = self._preferred(lba)
        if preferred in values:
            return values[preferred]
        return next(iter(values.values()))

    def install_persistent(self, lba, value):
        for member, device in enumerate(self._devices):
            if self._dead[member]:
                continue
            device.install_persistent(lba, value)
            missing = self._missing[member]
            if missing is not None:
                missing.discard(lba)
        self.checksums.ack(lba, value)


class Rebuilder:
    """Background online rebuild of a degraded mirror onto hot spares.

    Modeled on the :class:`~repro.host.integrity.Scrubber`: an
    idle-paced simulated-time process.  When a mirror member is dead and
    a spare is available, the spare is attached (joining the write fence
    immediately) and the tracked blocks it lacks are copied over at a
    bounded ``pace`` — one block per ``pace`` simulated seconds — so
    the rebuild's read load on the survivor is throttled against
    foreground traffic.  MTTR is therefore a *policy outcome*: a faster
    pace shortens the one-copy window but costs foreground p99 (the
    trade the ``failover`` bench sweeps).

    A second failure during rebuild leaves blocks with no live source;
    each is dropped from the work list, recorded as *detected data
    loss* and escalated (once per block) to ``escalate`` — typically
    the database's degradation monitor, which demotes to read-only.
    The rebuild then still terminates: loudly degraded, never hung,
    never pretending to have healed.
    """

    def __init__(self, sim, volume, spares=(), pace=5e-4, idle=0.05,
                 escalate=None, auto_start=True):
        if pace <= 0 or idle <= 0:
            raise ValueError("rebuild pace and idle must be positive")
        self.sim = sim
        self.volume = volume
        self.spares = list(spares)
        self.pace = pace
        self.idle = idle
        self.escalate = escalate
        self.counters = {"rebuilds": 0, "completed": 0, "copied": 0,
                         "lost": 0, "aborted": 0}
        self._lost_reported = set()
        volume.rebuilder = self
        metrics = sim.telemetry.metrics
        metrics.counter("rebuild.copied",
                        fn=lambda: self.counters["copied"],
                        volume=volume.name)
        metrics.counter("rebuild.completed",
                        fn=lambda: self.counters["completed"],
                        volume=volume.name)
        metrics.counter("rebuild.lost",
                        fn=lambda: self.counters["lost"],
                        volume=volume.name)
        if auto_start:
            sim.process(self.run())

    def run(self):
        while True:
            member = self._claim()
            if member is None:
                yield self.idle
                continue
            yield from self.rebuild(member)

    def _claim(self):
        """The member slot to work on: an interrupted rebuild first,
        else a dead slot a pooled spare can take over."""
        volume = self.volume
        for member in range(volume.width):
            if volume._missing[member] is not None \
                    and not volume._dead[member]:
                return member
        for member in range(volume.width):
            if volume._dead[member] and self.spares:
                spare = self.spares.pop(0)
                volume.attach_spare(member, spare)
                self.counters["rebuilds"] += 1
                return member
        return None

    def rebuild(self, member):
        """Drain one member's missing-block list (a generator)."""
        volume = self.volume
        telemetry = self.sim.telemetry
        with (telemetry.span("vol.rebuild", "host", volume=volume.name,
                             member=volume._devices[member].name)
              if telemetry.enabled else NULL_SPAN):
            while True:
                if volume._dead[member]:
                    # The replacement died too; back to claiming.
                    self.counters["aborted"] += 1
                    return
                lba = volume.next_rebuild_block(member)
                if lba is None:
                    break
                try:
                    copied = yield from volume.rebuild_block(member, lba)
                except CorruptDataError as error:
                    self.counters["lost"] += 1
                    if self.escalate is not None \
                            and lba not in self._lost_reported:
                        self._lost_reported.add(lba)
                        self.escalate(error)
                    continue
                if copied:
                    self.counters["copied"] += 1
                yield self.pace
            self.counters["completed"] += 1
            volume.finish_rebuild(member)


class VerifyingTarget(BlockTarget):
    """Checksum maintenance + read verification over any block target.

    A pure wrapper for unreplicated topologies: writes are
    fingerprinted (submit/ack) and reads are verified; a failed
    verification raises :class:`~repro.host.integrity.CorruptDataError`
    through the completion event — detected corruption is fail-stop,
    never a wrong answer.  There is no replica to repair from; the
    database's degrade machinery decides what survives.  All other
    target duties delegate to the wrapped target.

    With ``fail_stop=False`` the wrapper becomes a passive *auditor*:
    mismatching reads are only counted (``counters["mismatches"]``) and
    the value is returned to the caller unchanged.  The failure
    harnesses stack an auditor outside the defense under test — any
    read that reaches the auditor carrying unverifiable data was served
    to the host *undetected*, which is exactly the safety property the
    checker asserts.  An auditor registers no metrics and emits no
    telemetry: the SLO monitor must detect corruption from the armed
    defenses, never from the harness's own oracle.
    """

    def __init__(self, target, checksums=None, fail_stop=True):
        self.target = target
        self.sim = target.sim
        self.fail_stop = fail_stop
        self.name = ("verified[%s]" if fail_stop else "audit[%s]") \
            % target.name
        self.checksums = checksums if checksums is not None \
            else BlockChecksums()
        if fail_stop:
            register_integrity_metrics(self.sim.telemetry.metrics,
                                       self.checksums, self.name)

    @property
    def exported_lbas(self):
        return self.target.exported_lbas

    @property
    def members(self):
        return self.target.members

    @property
    def queues(self):
        return self.target.queues

    def region(self, placement):
        return self.target.region(placement)

    def locate(self, lba):
        return self.target.locate(lba)

    def read_persistent(self, lba):
        return self.target.read_persistent(lba)

    def persistent_view(self, blocks):
        return self.target.persistent_view(blocks)

    def install_persistent(self, lba, value):
        self.target.install_persistent(lba, value)
        self.checksums.ack(lba, value)

    def serve(self, request):
        checksums = self.checksums
        if request.op == READ:
            completed = yield from self.target.serve(request)
            for index, lba in enumerate(request.blocks):
                value = completed.result[index]
                if checksums.ok(lba, value):
                    checksums.counters["verified"] += 1
                    continue
                checksums.counters["mismatches"] += 1
                if not self.fail_stop:
                    continue  # audit mode: tally and pass through
                checksums.counters["irreparable"] += 1
                self.sim.telemetry.instant("integrity.mismatch", "host",
                                           volume=self.name, lba=lba)
                raise CorruptDataError(self.name, lba,
                                       kind=corrupt_kind(value))
            return completed
        for index, lba in enumerate(request.blocks):
            checksums.submit(lba, request.payload[index])
        completed = yield from self.target.serve(request)
        for index, lba in enumerate(request.blocks):
            checksums.ack(lba, request.payload[index])
        return completed

    def scrub_read(self, lba):
        """One scrub probe: read + verify a single block (timed)."""
        return self.submit(IORequest(READ, lba, 1))

    def flush(self):
        return self.target.flush()


class RegionView(BlockTarget):
    """A contiguous sub-range of a parent target, as a target itself.

    Lets two file systems (say data and log) carve disjoint extents out
    of one shared volume; a flush on either view flushes the shared
    members — exactly the interference a colocated WAL suffers.
    """

    def __init__(self, parent, base_lba, nblocks, name=None):
        if base_lba < 0 or nblocks < 1 \
                or base_lba + nblocks > parent.exported_lbas:
            raise ValueError("region [%d, +%d) outside %s"
                             % (base_lba, nblocks, parent.name))
        self.parent = parent
        self.base_lba = base_lba
        self.nblocks = nblocks
        self.name = name if name is not None \
            else "%s[%d:+%d]" % (parent.name, base_lba, nblocks)

    @property
    def sim(self):
        return self.parent.sim

    @property
    def exported_lbas(self):
        return self.nblocks

    @property
    def members(self):
        return self.parent.members

    @property
    def queues(self):
        return self.parent.queues

    def _check(self, lba, nblocks=1):
        if lba < 0 or lba + nblocks > self.nblocks:
            raise ValueError("request past end of %s: lba=%d n=%d"
                             % (self.name, lba, nblocks))

    def serve(self, request):
        self._check(request.lba, request.nblocks)
        shifted = IORequest(request.op, self.base_lba + request.lba,
                            request.nblocks, payload=request.payload,
                            tag=request.tag, stream=request.stream)
        return self.parent.serve(shifted)

    def flush(self):
        return self.parent.flush()

    def locate(self, lba):
        self._check(lba)
        return self.parent.locate(self.base_lba + lba)


class PlacementVolume(BlockTarget):
    """Named extent classes routed to dedicated child targets.

    ``children`` maps placement names to targets; their LBA spaces are
    concatenated (in mapping order) into one flat space.  A request must
    fall entirely inside one child.  :meth:`region` returns the child's
    range for its name, and the ``default`` child's range for any
    placement class without a dedicated target — so a file system can
    always ask for ``region("log")`` and get *somewhere* sensible.
    """

    def __init__(self, children, default="data"):
        if not children:
            raise ValueError("a placement volume needs at least one child")
        if default not in children:
            raise ValueError("default placement %r has no child" % default)
        self.default = default
        self._children = dict(children)
        self._ranges = {}
        base = 0
        for placement, child in self._children.items():
            self._ranges[placement] = (base, child.exported_lbas, child)
            base += child.exported_lbas
        self._exported = base
        self.name = "placed[%s]" % ",".join(
            "%s=%s" % (placement, child.name)
            for placement, child in self._children.items())
        self._activity = {placement: _MemberActivity()
                          for placement in self._children}

    @property
    def sim(self):
        return next(iter(self._children.values())).sim

    @property
    def exported_lbas(self):
        return self._exported

    @property
    def members(self):
        found = []
        for child in self._children.values():
            found.extend(child.members)
        return tuple(found)

    @property
    def queues(self):
        found = []
        for child in self._children.values():
            found.extend(child.queues)
        return tuple(found)

    def region(self, placement):
        base, nblocks, _child = self._ranges.get(
            placement, self._ranges[self.default])
        return (base, nblocks)

    def _route(self, lba, nblocks=1):
        for placement, (base, length, child) in self._ranges.items():
            if base <= lba < base + length:
                if lba + nblocks > base + length:
                    raise ValueError(
                        "request crosses placement boundary at lba=%d" % lba)
                return placement, lba - base, child
        raise ValueError("lba %d outside %s" % (lba, self.name))

    def serve(self, request):
        placement, child_lba, child = self._route(request.lba,
                                                  request.nblocks)
        part = IORequest(request.op, child_lba, request.nblocks,
                         payload=request.payload, tag=request.tag,
                         stream=request.stream)
        state = self._activity[placement]
        if request.op == WRITE:
            state.submitted += 1
        completed = yield from child.serve(part)
        if request.op == WRITE:
            state.completed += 1
        else:
            request.result = completed.result
        request.complete_time = self.sim.now
        return request

    def flush(self):
        return self.sim.process(self._flush())

    def _flush(self):
        covered = [(placement, state.completed)
                   for placement, state in self._activity.items()
                   if state.dirty]
        pending = [(placement, completed,
                    self._ranges[placement][2].flush())
                   for placement, completed in covered]
        for placement, completed, event in pending:
            yield event
            state = self._activity[placement]
            if completed > state.flushed:
                state.flushed = completed
        return None

    def locate(self, lba):
        _placement, child_lba, child = self._route(lba)
        return child.locate(child_lba)
