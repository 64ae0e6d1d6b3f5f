"""Block-device abstractions shared by HDD, SSD and DuraSSD models.

All devices address 4KiB logical blocks (LBAs).  A request may span
several blocks — a 16KB database page is a single 4-block write command
— and *command atomicity* across those blocks is exactly the property
DuraSSD adds and conventional devices lack.

Every device fronts its medium with one write-back cache engine, kept
here: cached-write flow control, the flusher, the flush-cache drain and
the wait for power-on.  A model supplies only its media step — how a
taken batch reaches the medium, the batch size, write-through, reads,
the cost after a drain and what a power cut destroys.

Payload model: writes carry one opaque value per block (version tokens
in practice).  Reads return the per-block values currently reachable.
This keeps a multi-gigabyte simulated database in a few dicts while
preserving everything needed to detect lost and torn writes.
"""

import math

from ..sim import units
from ..sim.engine import Interrupted
from ..sim.resources import Resource
from ..telemetry.hub import NULL_SPAN
from .write_cache import WriteCache

READ = "read"
WRITE = "write"
#: in-flight registry sentinel for flush-cache commands (no IORequest)
FLUSH = "flush"


class PowerFailedError(Exception):
    """An operation was attempted on a device that has lost power."""


class DeviceDeadError(Exception):
    """A hard, immediate command failure from a fail-stopped device.

    Unlike :class:`~repro.host.lifecycle.DeviceTimeoutError` (the host
    gave up on a silent device) this is the *device itself* reporting
    that it is gone: retries, aborts and resets cannot help, and the
    lifecycle layer escalates it without burning the retry ladder.
    """

    def __init__(self, device, cause=None):
        self.device = device
        self.cause = cause
        detail = " (%s)" % cause if cause else ""
        super().__init__("%s: command failed hard%s [device dead]"
                         % (device, detail))


class IORequest:
    """One host command: an LBA range plus per-block payload."""

    __slots__ = ("op", "lba", "nblocks", "payload", "result",
                 "submit_time", "complete_time", "tag", "stream")

    def __init__(self, op, lba, nblocks=1, payload=None, tag=None,
                 stream=None):
        if op not in (READ, WRITE):
            raise ValueError("op must be 'read' or 'write': %r" % op)
        if lba < 0 or nblocks < 1:
            raise ValueError("bad LBA range: lba=%r nblocks=%r" % (lba, nblocks))
        if op == WRITE:
            if payload is None:
                payload = [None] * nblocks
            if len(payload) != nblocks:
                raise ValueError("payload length %d != nblocks %d"
                                 % (len(payload), nblocks))
        self.op = op
        self.lba = lba
        self.nblocks = nblocks
        self.payload = payload
        self.result = None
        self.submit_time = None
        self.complete_time = None
        self.tag = tag
        #: routing hint for multi-queue models: the I/O stream this
        #: command belongs to (the file system stamps its file's
        #: placement class, e.g. "log" for WAL/journal traffic).  A
        #: queue model with an affinity for the stream pins the command
        #: to that submission queue; single-queue models ignore it.
        self.stream = stream

    @property
    def nbytes(self):
        return self.nblocks * units.LBA_SIZE

    @property
    def blocks(self):
        return range(self.lba, self.lba + self.nblocks)

    def __repr__(self):
        return "<IORequest %s lba=%d n=%d>" % (self.op, self.lba, self.nblocks)


class AckRecord:
    """A completed write command, as seen (acked) by the host.

    The failure checker compares these against post-crash device state.
    Most commands cover a contiguous LBA range; a vectored (scattered)
    command may instead carry an explicit ``blocks`` list — ``payload``
    is always positional with respect to ``blocks``.
    """

    __slots__ = ("time", "lba", "nblocks", "payload", "sequence", "_blocks")

    def __init__(self, time, lba, nblocks, payload, sequence, blocks=None):
        self.time = time
        self.lba = lba
        self.nblocks = nblocks
        self.payload = list(payload)
        self.sequence = sequence
        if blocks is not None:
            blocks = list(blocks)
            if len(blocks) != nblocks:
                raise ValueError("blocks length %d != nblocks %d"
                                 % (len(blocks), nblocks))
        self._blocks = blocks

    @property
    def blocks(self):
        if self._blocks is not None:
            return self._blocks
        return range(self.lba, self.lba + self.nblocks)


class StorageDevice:
    """Common machinery: host link, counters, ack log, power state and
    the write-back cache engine.

    ``spec`` names the device and gives its link and flush timings
    (``link_bandwidth``, ``command_overhead``, ``flush_fixed``,
    ``flush_cache_off_cost``); ``cache_bytes`` sizes the write cache.
    """

    #: Whether the device promises that *acked* writes survive power
    #: failure without barriers.  Only a healthy DuraSSD claims this; the
    #: torture harness keys its pass/fail policy on it.
    claims_durable_cache = False

    def __init__(self, sim, spec, cache_bytes, cache_enabled):
        self.sim = sim
        self.spec = spec
        self.name = name = spec.name
        self.link_bandwidth = spec.link_bandwidth
        self.command_overhead = spec.command_overhead
        self._link = Resource(sim, capacity=1)
        # flush-cache is a non-NCQ command: while one is in progress the
        # device accepts no new commands — reads stall behind barriers,
        # the effect behind the paper's ON-configuration read latencies.
        self._flush_barrier = None
        self.powered = True
        self.record_acks = False
        self.ack_log = []
        self._ack_sequence = 0
        # Gray-failure machinery: commands currently being serviced (the
        # process serving each command -> its request), an optional
        # latency-fault oracle, and the single-flight soft-reset gate.
        self._inflight = {}
        self.gray_faults = None
        # Silent-corruption oracle (repro.failures.corruption), attached
        # by inject_corruption on devices that support it; kept on the
        # base so harness code can scan any device uniformly.
        self.corruption = None
        # Fail-stop state: once dead, every command completes with a
        # hard DeviceDeadError until the device is replaced (there is no
        # resurrection — reboot restores power, not life).
        self.dead = False
        self.died_at = None
        self.death_cause = None
        self.death = None
        self._resetting = None
        self.counters = {"reads": 0, "writes": 0, "flushes": 0,
                         "blocks_read": 0, "blocks_written": 0,
                         "aborts": 0, "resets": 0}
        sim.telemetry.register_smart(self)
        metrics = sim.telemetry.metrics
        metrics.counter("device.reads",
                        fn=lambda: self.counters["reads"], device=name)
        metrics.counter("device.writes",
                        fn=lambda: self.counters["writes"], device=name)
        metrics.counter("device.flushes",
                        fn=lambda: self.counters["flushes"], device=name)
        metrics.counter("device.blocks_written",
                        fn=lambda: self.counters["blocks_written"],
                        device=name)
        metrics.gauge("device.inflight",
                      fn=lambda: len(self._inflight), device=name)
        metrics.gauge("device.dead",
                      fn=lambda: 1 if self.dead else 0, device=name)
        self.cache_enabled = cache_enabled
        self.cache = WriteCache(max(1, cache_bytes // units.LBA_SIZE))
        self.cache.bind_telemetry(sim.telemetry)
        self._space_waiters = []
        self._drain_waiters = []  # (snapshot_sequence, event)
        self._inflight_sequences = set()
        self._flusher_wakeup = None
        self._power_on_event = None
        metrics.gauge("device.cache_occupancy",
                      fn=lambda: len(self.cache), device=name)

    # --- SMART-style self-report --------------------------------------------
    def smart(self):
        """A SMART-style health self-report: what the device would
        answer to a ``SMART READ DATA`` — counters and state the host
        cannot see through the block interface.  Subclasses extend."""
        return {
            "device": self.name,
            "model": type(self).__name__,
            "powered": self.powered,
            "alive": not self.dead,
            "died_at_s": self.died_at,
            "death_cause": self.death_cause,
            "durable_cache": self.claims_durable_cache,
            "commands": dict(self.counters),
            "inflight": len(self._inflight),
            "oldest_inflight_age_s": self.oldest_inflight_age(),
            "cache": {
                "occupancy_slots": len(self.cache),
                "capacity_slots": self.cache.capacity_slots,
                "dedup_hits": self.cache.dedup_hits,
                "enabled": self.cache_enabled,
            },
        }

    # --- host interface ----------------------------------------------------
    def serve(self, request):
        """Serve one command in the calling process (``yield from``);
        returns the completed request.

        The process that serves a command is the one an abort
        interrupts (:meth:`abort_command`).  The queue models and the
        command lifecycle run every command under :meth:`submit`, so an
        abort unwinds the command's own process, not the host's.
        """
        if not self.powered:
            raise PowerFailedError(self.name)
        if self.dead:
            raise self._dead_error()
        sim = self.sim
        process = sim.active_process
        self._inflight[process] = request
        telemetry = sim.telemetry
        try:
            with (telemetry.span("dev." + request.op, "device",
                                 device=self.name, lba=request.lba,
                                 nblocks=request.nblocks)
                  if telemetry.enabled else NULL_SPAN):
                # Both gates pass straight through unless a reset or
                # flush barrier is up or a gray-fault model is armed.
                if self._resetting is not None \
                        or self._flush_barrier is not None:
                    yield from self._entry_gate()
                if self.gray_faults is not None:
                    yield from self._gray_gate(request.op)
                request.submit_time = sim.now
                self._on_command_start(request)
                # Command latency plus data transfer.  Only the wire
                # time serialises on the link; the fixed
                # ``command_overhead`` is controller work that proceeds
                # in parallel for queued commands (otherwise a 32-deep
                # NCQ could never exceed ~1/command_overhead IOPS, which
                # contradicts Table 2).
                link = self._link
                yield from link.acquire_guarded()
                try:
                    yield (self.BUS_OVERHEAD
                           + request.nblocks * units.LBA_SIZE
                           / self.link_bandwidth)
                finally:
                    link.release()
                yield self.command_overhead
                if request.op == WRITE:
                    yield from self._write(request)
                    self.counters["writes"] += 1
                    self.counters["blocks_written"] += request.nblocks
                    self._ack_write(request)
                else:
                    request.result = yield from self._read(request)
                    self.counters["reads"] += 1
                    self.counters["blocks_read"] += request.nblocks
                request.complete_time = sim.now
                self._on_command_end(request)
                if self.death is not None and not self.dead:
                    self.death.check_smart(self)
        except Interrupted as exc:
            # A fail-stop sweep unwinds in-flight commands with an
            # interrupt; report them as hard failures, not host aborts.
            if self.dead:
                raise self._dead_error() from exc
            raise
        finally:
            self._inflight.pop(process, None)
        return request

    def submit(self, request):
        """Serve a request in a process of its own; returns its
        completion event (for fan-out, and for callers that race or
        abort the command)."""
        return self.sim.process(self.serve(request))

    def flush_cache(self):
        """The ATA flush-cache command (issued by fsync with barriers on)."""
        return self.sim.process(self._flush())

    #: Bus occupancy per command beyond the data transfer itself; the
    #: rest of ``command_overhead`` is controller latency that overlaps
    #: across queued commands.
    BUS_OVERHEAD = 2e-6

    def _flush(self):
        if not self.powered:
            raise PowerFailedError(self.name)
        if self.dead:
            raise self._dead_error()
        process = self.sim.active_process
        self._inflight[process] = FLUSH
        telemetry = self.sim.telemetry
        try:
            with (telemetry.span("dev.flush_cache", "device",
                                 device=self.name)
                  if telemetry.enabled else NULL_SPAN):
                yield from self._entry_gate()
                yield from self._gray_gate(FLUSH)
                barrier = self.sim.event()
                self._flush_barrier = barrier
                try:
                    self.counters["flushes"] += 1
                    if not self.cache_enabled:
                        # Nothing buffered; devices still burn time on
                        # the command.
                        yield self.spec.flush_cache_off_cost
                    else:
                        # Drain every write accepted before this command.
                        snapshot = self.cache.last_sequence
                        if not self._drained_through(snapshot):
                            with (telemetry.span(
                                    "flush.drain", "device",
                                    device=self.name,
                                    pending=len(self.cache))
                                  if telemetry.enabled else NULL_SPAN):
                                waiter = self.sim.event()
                                self._drain_waiters.append(
                                    (snapshot, waiter))
                                self._wake_flusher()
                                yield waiter
                        yield from self._commit_flush()
                finally:
                    self._flush_barrier = None
                    barrier.succeed()
        except Interrupted as exc:
            if self.dead:
                raise self._dead_error() from exc
            raise
        finally:
            self._inflight.pop(process, None)

    def _entry_gate(self):
        """Hold a fresh command while a reset or a flush barrier is up.

        The two waits get distinct spans because they blame differently:
        a reset hold is gray-failure fallout, a flush-barrier hold is the
        paper's reads-stall-behind-flush-cache effect.
        """
        while True:
            if self._resetting is not None:
                gate, wait_name = self._resetting, "dev.reset_wait"
            elif self._flush_barrier is not None:
                gate, wait_name = self._flush_barrier, "dev.barrier_wait"
            else:
                return
            telemetry = self.sim.telemetry
            with (telemetry.span(wait_name, "device", device=self.name)
                  if telemetry.enabled else NULL_SPAN):
                yield gate
            if not self.powered:
                raise PowerFailedError(self.name)

    def _gray_gate(self, op):
        """Charge the gray-fault oracle's latency at command entry.

        A hung device parks the command on an event that never fires —
        exactly what a hung command looks like from the host, and the
        only way out is a host abort (:meth:`abort_command`), which
        unwinds this wait with ``Interrupted``.
        """
        model = self.gray_faults
        if model is None:
            return
        telemetry = self.sim.telemetry
        hold = model.hold_remaining(self.sim.now)
        while hold > 0.0:
            with (telemetry.span("dev.fault_delay", "device",
                                 device=self.name, op=op, kind="hold")
                  if telemetry.enabled else NULL_SPAN):
                if hold == math.inf:
                    yield self.sim.event()  # hung: only an abort returns
                    raise PowerFailedError(self.name)  # pragma: no cover
                yield hold
            if not self.powered:
                raise PowerFailedError(self.name)
            hold = model.hold_remaining(self.sim.now)
        delay = model.command_delay(op, self.sim.now)
        if delay > 0.0:
            with (telemetry.span("dev.fault_delay", "device",
                                 device=self.name, op=op, kind="delay")
                  if telemetry.enabled else NULL_SPAN):
                yield delay
            if not self.powered:
                raise PowerFailedError(self.name)

    # --- gray failures: abort and soft reset ---------------------------------
    #: simulated latency of a host-initiated soft reset (COMRESET +
    #: firmware re-init); of SATA-link-reset magnitude, i.e. milliseconds
    RESET_TIME = 5e-3

    def inject_gray_faults(self, model):
        """Attach a :class:`repro.failures.grayfaults.GrayFaultModel`."""
        self.gray_faults = model

    def inject_death(self, model):
        """Attach a :class:`repro.failures.death.DeviceDeathModel` and
        arm its scheduled-death countdown."""
        self.death = model
        model.attach(self)

    def _dead_error(self):
        if self.death is not None:
            self.death.on_dead_command()
        return DeviceDeadError(self.name, self.death_cause)

    def fail_stop(self, cause="fail-stop"):
        """Whole-device fail-stop: the controller is gone, for good.

        Idempotent.  Everything in flight is aborted (those commands
        were never acked and surface to the host as hard
        :class:`DeviceDeadError`); every later command fails at entry.
        The process *currently executing* — e.g. the command whose SMART
        self-check just tripped a death threshold — is left alone: it
        completes, and the next command finds the corpse.
        """
        if self.dead:
            return
        self.dead = True
        self.died_at = self.sim.now
        self.death_cause = cause
        if self.death is not None:
            self.death.on_death(self.sim.now, cause)
        self.sim.telemetry.instant("dev.dead", "device", device=self.name,
                                   cause=cause)
        active = self.sim.active_process
        for process in list(self._inflight):
            if process is active:
                continue
            self.abort_command(process, cause="device-dead")

    def oldest_inflight_age(self):
        """Age in seconds of the oldest in-flight command (0 if none)."""
        oldest = None
        for request in self._inflight.values():
            submitted = getattr(request, "submit_time", None)
            if submitted is None:
                continue
            oldest = submitted if oldest is None else min(oldest, submitted)
        return 0.0 if oldest is None else self.sim.now - oldest

    def abort_command(self, process, cause="host-abort"):
        """Abort one in-flight command by interrupting the process serving it.

        The command is unwound wherever it is waiting (gray gate, link,
        flash lanes, cache flow control); it is never acked, and any
        per-command device state is torn down via ``_on_command_abort``.
        Returns True if there was a live command to abort.
        """
        request = self._inflight.get(process)
        if request is None or not process.is_alive:
            return False
        self.counters["aborts"] += 1
        if isinstance(request, IORequest):
            self._on_command_abort(request)
            self.sim.telemetry.instant("dev.abort", "device",
                                       device=self.name, op=request.op,
                                       lba=request.lba, cause=cause)
        else:
            self.sim.telemetry.instant("dev.abort", "device",
                                       device=self.name, op=str(request),
                                       cause=cause)
        process.interrupt(cause)
        return True

    def soft_reset(self):
        """Host-initiated device soft reset.  Generator (``yield from``).

        Aborts every in-flight command, cures curable gray-fault
        episodes, waits out the reset latency plus device quiesce (media
        operations already committed to the backend are allowed to land
        or drain, so a retried command can never be overtaken by its own
        aborted predecessor), then re-establishes write-order state via
        ``_reset_writeorder``.  Single-flight: concurrent resetters join
        the reset already in progress.
        """
        if self._resetting is not None:
            yield self._resetting
            return
        done = self.sim.event()
        self._resetting = done
        self.counters["resets"] += 1
        self.sim.telemetry.instant("dev.reset", "device", device=self.name)
        try:
            for process in list(self._inflight):
                self.abort_command(process, cause="device-reset")
            if self.gray_faults is not None:
                self.gray_faults.on_reset(self.sim.now)
            yield self.RESET_TIME
            yield from self._quiesce()
            self._reset_writeorder()
        finally:
            self._resetting = None
            done.succeed()

    # --- write-back cache engine -------------------------------------------
    def _check_range(self, request):
        if request.lba + request.nblocks > self.exported_lbas:
            raise ValueError("I/O beyond device capacity: %r" % request)

    def _write(self, request):
        self._check_range(request)
        if not self.cache_enabled:
            yield from self._write_through(request)
            return
        # Flow control: block while the cache is full (Section 3.1.1).
        if self.cache.is_full:
            telemetry = self.sim.telemetry
            with (telemetry.span("cache.stall", "device", device=self.name)
                  if telemetry.enabled else NULL_SPAN):
                while self.cache.is_full:
                    waiter = self.sim.event()
                    self._space_waiters.append(waiter)
                    yield waiter
                    if not self.powered:
                        raise PowerFailedError(self.name)
        for index, lba in enumerate(request.blocks):
            self.cache.put(lba, request.payload[index])
        self._wake_flusher()

    def _flusher(self):
        """Drain the cache to the medium, one taken batch at a time."""
        batch_slots = self._flush_batch_slots()
        telemetry = self.sim.telemetry
        while True:
            if not self.powered:
                yield self._require_power()
                continue
            batch = self.cache.take_batch(batch_slots)
            if not batch:
                self._flusher_wakeup = self.sim.event()
                yield self._flusher_wakeup
                continue
            sequences = {sequence for _lba, sequence, _value in batch}
            self._inflight_sequences |= sequences
            try:
                with (telemetry.span("flusher.batch", "device",
                                     device=self.name, n=len(batch))
                      if telemetry.enabled else NULL_SPAN):
                    yield from self._flush_batch(batch)
            finally:
                self._inflight_sequences -= sequences
            if self.powered:
                for lba, sequence, _value in batch:
                    self.cache.confirm_flushed(lba, sequence)
                self._notify_space()
                self._notify_drain_waiters()

    def _wake_flusher(self):
        if self._flusher_wakeup is not None and not self._flusher_wakeup.triggered:
            self._flusher_wakeup.succeed()
            self._flusher_wakeup = None

    def _notify_space(self):
        while self._space_waiters and not self.cache.is_full:
            self._space_waiters.pop(0).succeed()

    def _notify_drain_waiters(self):
        still_waiting = []
        for snapshot, event in self._drain_waiters:
            if self._drained_through(snapshot):
                event.succeed()
            else:
                still_waiting.append((snapshot, event))
        self._drain_waiters = still_waiting

    def _drained_through(self, snapshot):
        if any(sequence <= snapshot for sequence in self._inflight_sequences):
            return False
        return self.cache.drained_up_to(snapshot)

    def _require_power(self):
        if self._power_on_event is None:
            self._power_on_event = self.sim.event()
        return self._power_on_event

    def _ack_write(self, request):
        if self.record_acks:
            self.ack_log.append(AckRecord(self.sim.now, request.lba,
                                          request.nblocks, request.payload,
                                          self._ack_sequence))
            self._ack_sequence += 1

    # --- subclass hooks ------------------------------------------------------
    def _on_command_start(self, request):
        """Called when the host begins streaming a command (override)."""

    def _on_command_end(self, request):
        """Called when a command completes and is acked (override)."""

    def _on_command_abort(self, request):
        """Called when an in-flight command is aborted (override).

        Subclasses discard per-command staging here so an aborted write
        is all-or-nothing: either it never touched device state, or its
        partial state is torn down before the host retries.
        """

    def _quiesce(self):
        """Wait for backend activity of aborted commands to settle
        (override).  Part of :meth:`soft_reset`."""
        return
        yield  # pragma: no cover - marks this as a generator

    def _reset_writeorder(self):
        """Re-establish write-ordering state after a soft reset (override).

        Aborted commands were never acked, so the surviving ack order is
        still the order the device actually persisted; subclasses clear
        any in-flight media bookkeeping that a later power cut could
        misattribute to a command that no longer exists.
        """

    def _write_through(self, request):
        """Write ``request`` straight to the medium, cache off (override)."""
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator

    def _read(self, request):
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator

    def _flush_batch_slots(self):
        """How many cache entries the flusher takes at once (override)."""
        raise NotImplementedError

    def _flush_batch(self, batch):
        """Write a taken batch of ``(lba, sequence, value)`` to the
        medium (override)."""
        raise NotImplementedError
        yield  # pragma: no cover - marks this as a generator

    def _commit_flush(self):
        """The flush-cache work after the drain: the fixed cost here
        (override)."""
        yield self.spec.flush_fixed

    # --- power-failure protocol ----------------------------------------------
    def power_fail(self):
        """Cut power instantly.  Subclasses destroy volatile state."""
        self.powered = False

    def reboot(self):
        """Restore power, waking the flusher if it waits for it, and run
        device recovery; returns recovery seconds of simulated time
        (charged by the caller if it matters)."""
        self.powered = True
        if self._power_on_event is not None:
            self._power_on_event.succeed()
            self._power_on_event = None
        return 0.0

    def read_persistent(self, lba):
        """Post-crash inspection: the value at ``lba`` after reboot.

        Subclasses define what survived.  Not a timed operation.
        """
        raise NotImplementedError

    def persistent_view(self, blocks):
        """List of post-crash values for an iterable of LBAs."""
        return [self.read_persistent(lba) for lba in blocks]

    def install_persistent(self, lba, value):
        """Place ``value`` at ``lba`` durably without simulated time.

        Crash-recovery support: recovery rewrites repaired pages while
        the clock is stopped (recovery time is not what the benchmarks
        measure).  Subclasses write straight to their stable media.
        """
        raise NotImplementedError
