"""A minimal extent-based file system with honest fsync semantics.

This is the layer where the paper's central mechanism lives: ``fsync``
sends a *flush-cache* command to the device **only when write barriers
are enabled** (the default).  Mounting with ``nobarrier`` — safe on
DuraSSD, dangerous on a volatile-cache device — turns fsync into little
more than a journal commit (Section 2.2, Figure 2).

Files are preallocated contiguous extents and all data I/O is O_DIRECT
(the paper's configuration), so the page cache plays no role.  Metadata
journalling is modelled where it matters: extending a file dirties its
metadata, and the next fsync then writes a journal commit block before
any barrier.  Opening with ``O_DSYNC`` replicates the commercial DBMS
configuration of Section 4.3.2 — every single write is followed by a
barrier when barriers are on.

The file system issues commands against a :class:`~repro.host.volume
.BlockTarget` — one device, a striped volume, or a placement volume.  A
raw :class:`~repro.devices.base.StorageDevice` is accepted and wrapped
in a :class:`~repro.host.volume.SingleDevice`, which preserves the
historical single-drive behavior exactly.
"""

from ..devices.base import READ, WRITE, IORequest
from ..sim import units
from ..telemetry.hub import NULL_SPAN
from .volume import as_target

#: CPU cost of entering/leaving the kernel for fsync (calibration: the
#: "no barrier" rows of Table 1 stay near the pure-write rate).
FSYNC_SYSCALL_TIME = 5 * units.USEC


class FileHandle:
    """An open file: a contiguous LBA extent plus dirty-metadata state."""

    def __init__(self, filesystem, name, base_lba, nblocks, o_dsync=False,
                 placement="data"):
        self.filesystem = filesystem
        self.name = name
        self.base_lba = base_lba
        self.nblocks = nblocks
        self.o_dsync = o_dsync
        #: the extent class the file was created in; stamped onto every
        #: I/O as its ``stream`` so multi-queue models can pin a class
        #: (the WAL) to its own submission queue.
        self.placement = placement
        self.metadata_dirty = False
        self.size_blocks = 0  # logical EOF for append-style users

    @property
    def capacity_bytes(self):
        return self.nblocks * units.LBA_SIZE

    def lba_of(self, offset_bytes):
        if offset_bytes % units.LBA_SIZE:
            raise ValueError("O_DIRECT offsets must be 4KiB aligned: %r"
                             % offset_bytes)
        return self.base_lba + offset_bytes // units.LBA_SIZE


class FileView:
    """A per-open view of a file descriptor.

    Shares extent geometry and dirty-metadata state with the underlying
    :class:`FileHandle` but carries its own ``o_dsync`` flag, the way
    separate file descriptors carry separate status flags: one opener's
    plain ``open()`` must not strip another opener's O_DSYNC.
    """

    __slots__ = ("_handle", "o_dsync")

    def __init__(self, handle, o_dsync):
        self._handle = handle
        self.o_dsync = o_dsync

    @property
    def filesystem(self):
        return self._handle.filesystem

    @property
    def name(self):
        return self._handle.name

    @property
    def base_lba(self):
        return self._handle.base_lba

    @property
    def nblocks(self):
        return self._handle.nblocks

    @property
    def capacity_bytes(self):
        return self._handle.capacity_bytes

    @property
    def placement(self):
        return self._handle.placement

    @property
    def size_blocks(self):
        return self._handle.size_blocks

    @size_blocks.setter
    def size_blocks(self, value):
        self._handle.size_blocks = value

    @property
    def metadata_dirty(self):
        return self._handle.metadata_dirty

    @metadata_dirty.setter
    def metadata_dirty(self, value):
        self._handle.metadata_dirty = value

    def lba_of(self, offset_bytes):
        return self._handle.lba_of(offset_bytes)


class FileSystem:
    """Extent allocator + fsync/barrier policy over a block target."""

    #: LBAs reserved at the end of the log region for the journal.
    JOURNAL_BLOCKS = 64

    def __init__(self, sim, device, barriers=True, coalesce_barriers=False,
                 rng=None, timeout_policy=None, queue_model=None):
        self.sim = sim
        self.target = as_target(sim, device, rng=rng,
                                timeout_policy=timeout_policy,
                                queue_model=queue_model)
        self.barriers = barriers
        # jbd2-style merging of concurrent flush requests.  ext4 (the
        # commercial-DBMS configuration, Section 4.2) batches aggressively;
        # the XFS + O_DIRECT + per-caller-fsync path the MySQL runs used
        # effectively serialises, so this defaults off.
        self.coalesce_barriers = coalesce_barriers
        self._files = {}
        #: per-region allocation cursors, keyed by (base, length)
        self._region_cursors = {}
        log_base, log_length = self.target.region("log")
        if log_length <= self.JOURNAL_BLOCKS:
            raise ValueError("device too small for a file system")
        self._journal_base = log_base + log_length - self.JOURNAL_BLOCKS
        self._journal_cursor = 0
        self._journal_sequence = 0
        # Barrier coalescing (jbd2 style): concurrent fsyncs share one
        # flush-cache command instead of queueing one each.
        self._barrier_requested = 0
        self._barrier_completed = 0
        self._barrier_waiters = []
        self._barrier_flusher_running = False
        self.counters = {"fsyncs": 0, "barriers_issued": 0,
                         "journal_commits": 0, "data_writes": 0,
                         "data_reads": 0}

    # --- compatibility views over the target -----------------------------
    @property
    def device(self):
        """The primary member device (the only one for SingleDevice)."""
        return self.target.members[0]

    @property
    def queue(self):
        """The primary command queue (the only one for SingleDevice)."""
        return self.target.queues[0]

    def lifecycle_counters(self):
        """Lifecycle counters summed over every member queue model."""
        totals = {}
        for queue in self.target.queues:
            for key, value in queue.lifecycle_counters().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # --- namespace -----------------------------------------------------------
    def create(self, name, size_bytes, o_dsync=False, placement="data"):
        """Preallocate a contiguous file of ``size_bytes`` (rounded up).

        ``placement`` names the extent class the file's blocks come
        from; targets without placement support serve every class from
        the same region, so the default behaves exactly like the
        historical single-region allocator.
        """
        if name in self._files:
            raise ValueError("file exists: %r" % name)
        nblocks = units.lba_count(size_bytes)
        base, length = self.target.region(placement)
        key = (base, length)
        cursor = self._region_cursors.get(key, base)
        limit = base + length
        if base <= self._journal_base < limit:
            limit = self._journal_base  # the journal caps its region
        if cursor + nblocks > limit:
            raise ValueError("file system full: %r needs %d blocks"
                             % (name, nblocks))
        handle = FileHandle(self, name, cursor, nblocks, o_dsync=o_dsync,
                            placement=placement)
        self._region_cursors[key] = cursor + nblocks
        self._files[name] = handle
        handle.metadata_dirty = True  # creation dirties the inode
        return handle

    def open(self, name, o_dsync=False):
        """Open an existing file; the ``o_dsync`` flag is per-open.

        Returns the stored handle when the flag matches (the common
        case) and a :class:`FileView` otherwise, so no opener can
        change the durability semantics another opener relies on.
        """
        handle = self._files[name]
        if handle.o_dsync == o_dsync:
            return handle
        return FileView(handle, o_dsync)

    # --- data path (generators: run under sim.process or yield from) --------
    def pwrite(self, handle, offset_bytes, values):
        """Write ``len(values)`` blocks at ``offset_bytes`` (one value per
        4KiB block).  Honors O_DSYNC.  Returns the completed request."""
        lba = handle.lba_of(offset_bytes)
        nblocks = len(values)
        if lba + nblocks > handle.base_lba + handle.nblocks:
            raise ValueError("write past end of %r" % handle.name)
        telemetry = self.sim.telemetry
        with (telemetry.span("fs.pwrite", "host", file=handle.name,
                             lba=lba, nblocks=nblocks)
              if telemetry.enabled else NULL_SPAN):
            request = IORequest(WRITE, lba, nblocks, payload=list(values),
                                stream=handle.placement)
            completed = yield from self.target.serve(request)
            self.counters["data_writes"] += 1
            end_block = offset_bytes // units.LBA_SIZE + nblocks
            if end_block > handle.size_blocks:
                handle.size_blocks = end_block
                handle.metadata_dirty = True  # i_size grew: journal on fsync
            if handle.o_dsync:
                yield from self._barrier_if_enabled()
        return completed

    def pread(self, handle, offset_bytes, nblocks):
        """Read ``nblocks`` blocks; returns their values."""
        lba = handle.lba_of(offset_bytes)
        if lba + nblocks > handle.base_lba + handle.nblocks:
            raise ValueError("read past end of %r" % handle.name)
        telemetry = self.sim.telemetry
        with (telemetry.span("fs.pread", "host", file=handle.name,
                             lba=lba, nblocks=nblocks)
              if telemetry.enabled else NULL_SPAN):
            request = IORequest(READ, lba, nblocks,
                                stream=handle.placement)
            completed = yield from self.target.serve(request)
            self.counters["data_reads"] += 1
        return completed.result

    def append(self, handle, values):
        """Write at the current EOF; returns the starting byte offset."""
        offset = handle.size_blocks * units.LBA_SIZE
        yield from self.pwrite(handle, offset, values)
        return offset

    # --- durability ------------------------------------------------------------
    def fsync(self, handle):
        """Flush ``handle`` durably.

        1. If metadata is dirty, commit a journal record (a device write).
        2. If barriers are on, issue flush-cache (Figure 2's stall).
        """
        telemetry = self.sim.telemetry
        with (telemetry.span("fs.fsync", "host", file=handle.name)
              if telemetry.enabled else NULL_SPAN):
            yield FSYNC_SYSCALL_TIME
            self.counters["fsyncs"] += 1
            if handle.metadata_dirty:
                yield from self._journal_commit(handle)
                handle.metadata_dirty = False
            yield from self._barrier_if_enabled()

    def fdatasync(self, handle):
        """Like fsync but skips the metadata journal commit."""
        telemetry = self.sim.telemetry
        with (telemetry.span("fs.fdatasync", "host", file=handle.name)
              if telemetry.enabled else NULL_SPAN):
            yield FSYNC_SYSCALL_TIME
            self.counters["fsyncs"] += 1
            yield from self._barrier_if_enabled()

    def _journal_commit(self, handle):
        telemetry = self.sim.telemetry
        with (telemetry.span("fs.journal_commit", "host", file=handle.name)
              if telemetry.enabled else NULL_SPAN):
            lba = self._journal_base + self._journal_cursor
            self._journal_cursor = (self._journal_cursor + 1) \
                % self.JOURNAL_BLOCKS
            self._journal_sequence += 1
            token = ("journal", handle.name, self._journal_sequence)
            request = IORequest(WRITE, lba, 1, payload=[token],
                                stream="log")
            yield from self.target.serve(request)
            self.counters["journal_commits"] += 1

    def _barrier_if_enabled(self):
        """Issue (or join) a flush-cache barrier.

        A flush that starts after my writes completed covers them, so
        concurrent barrier requests coalesce onto the next flush round —
        the way the kernel journal batches flush-cache commands.
        """
        if not self.barriers:
            return
        telemetry = self.sim.telemetry
        with (telemetry.span("fs.barrier", "host",
                             coalesced=self.coalesce_barriers)
              if telemetry.enabled else NULL_SPAN):
            if not self.coalesce_barriers:
                self.counters["barriers_issued"] += 1
                yield self.target.flush()
                return
            self._barrier_requested += 1
            my_round = self._barrier_requested
            waiter = self.sim.event()
            self._barrier_waiters.append((my_round, waiter))
            if not self._barrier_flusher_running:
                self._barrier_flusher_running = True
                self.sim.process(self._barrier_flusher())
            yield waiter

    def _barrier_flusher(self):
        try:
            while self._barrier_completed < self._barrier_requested:
                target = self._barrier_requested
                self.counters["barriers_issued"] += 1
                try:
                    yield self.target.flush()
                except Exception as exc:
                    # The flush escalated (DeviceTimeoutError): deliver
                    # the failure to the rounds this flush covered
                    # instead of crashing the shared flusher process.
                    self._barrier_completed = target
                    still_waiting = []
                    for round_no, waiter in self._barrier_waiters:
                        if round_no <= target:
                            waiter.fail(exc)
                        else:
                            still_waiting.append((round_no, waiter))
                    self._barrier_waiters = still_waiting
                    continue
                self._barrier_completed = target
                still_waiting = []
                for round_no, waiter in self._barrier_waiters:
                    if round_no <= target:
                        waiter.succeed()
                    else:
                        still_waiting.append((round_no, waiter))
                self._barrier_waiters = still_waiting
        finally:
            self._barrier_flusher_running = False

    # --- post-crash inspection ----------------------------------------------
    def persistent_blocks(self, handle, offset_bytes, nblocks):
        """Values on stable media for a file range (checker support)."""
        lba = handle.lba_of(offset_bytes)
        return self.target.persistent_view(range(lba, lba + nblocks))

    def install_blocks(self, handle, offset_bytes, values):
        """Durably place block values without simulated time (recovery)."""
        lba = handle.lba_of(offset_bytes)
        for index, value in enumerate(values):
            self.target.install_persistent(lba + index, value)
