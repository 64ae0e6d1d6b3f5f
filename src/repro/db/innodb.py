"""A MySQL/InnoDB-style storage engine.

The two configuration knobs of Figure 5 are real code paths here:

* ``doublewrite`` — page flushes go through the
  :class:`~repro.db.doublewrite.DoubleWriteBuffer` (redundant writes,
  two fsyncs per batch) or straight to home locations (one fsync);
* write barriers — a property of the *file systems* the engine is given
  (``FileSystem(barriers=...)``), exactly like mounting XFS with
  ``nobarrier``.

The engine follows InnoDB's architecture: a shared LRU buffer pool with
a free list (Figure 1), redo-only WAL with group commit, a background
page cleaner, and the flush-ahead rule (a page never reaches storage
before its redo records do).
"""

from ..host.integrity import CorruptDataError
from ..host.lifecycle import STORAGE_ERRORS
from ..sim import units
from ..telemetry.hub import NULL_SPAN
from .buffer_pool import BufferPool
from .degrade import AdmissionBackpressureError, DegradationMonitor
from .doublewrite import DoubleWriteBuffer
from .locks import LockManager
from .pagestore import PageStore
from .treeshape import SyntheticTable
from .wal import WriteAheadLog

#: the storage-stack failures a statement fails cleanly on: detected
#: corruption (incl. detected data loss on a degraded mirror), an
#: exhausted retry ladder, or a fail-stopped device/volume
_FAILSTOP_ERRORS = (CorruptDataError,) + STORAGE_ERRORS

COMMIT_MARKER = "COMMIT"


class InnoDBConfig:
    """Tuning knobs; defaults mirror the paper's MySQL 5.7 setup."""

    def __init__(self, page_size=16 * units.KIB,
                 buffer_pool_bytes=160 * units.MIB, doublewrite=True,
                 log_capacity_bytes=192 * units.MIB,
                 cleaner_interval=0.02, cleaner_batch=64,
                 io_capacity=400, miss_cpu_per_kib=22e-6,
                 checkpoint_pressure_limit=0.75,
                 free_target_fraction=0.01, max_dirty_fraction=0.30,
                 admission_control=False, admission_dirty_limit=0.85,
                 admission_wal_bytes=8 * units.MIB,
                 admission_max_wait=0.25,
                 escalation_limit=DegradationMonitor.DEFAULT_ESCALATION_LIMIT):
        if page_size % units.LBA_SIZE:
            raise ValueError("page size must be a multiple of 4KiB")
        self.page_size = page_size
        self.buffer_pool_bytes = buffer_pool_bytes
        self.doublewrite = doublewrite
        self.log_capacity_bytes = log_capacity_bytes
        self.cleaner_interval = cleaner_interval
        self.cleaner_batch = cleaner_batch
        # InnoDB's innodb_io_capacity: background flushing is throttled
        # to this many pages per second (MySQL defaults are 200..2000;
        # 400 reproduces the paper's ON/ON starvation behaviour).
        self.io_capacity = io_capacity
        # CPU to latch, verify and initialise a page read from storage;
        # scales with the page size (Figure 6(b)'s buffer-size trend).
        self.miss_cpu_per_kib = miss_cpu_per_kib
        # force a checkpoint (flush every dirty page) when the redo log's
        # checkpoint age crosses this fraction of its capacity — InnoDB's
        # async/sync flush points, collapsed into one threshold.
        self.checkpoint_pressure_limit = checkpoint_pressure_limit
        self.free_target_fraction = free_target_fraction
        self.max_dirty_fraction = max_dirty_fraction
        # Graceful degradation (repro.db.degrade): admission control is
        # off by default — the calibrated benchmarks never queue deep
        # enough to trip it, and keeping it off preserves their exact
        # behaviour.  The chaos harness turns it on.
        self.admission_control = admission_control
        self.admission_dirty_limit = admission_dirty_limit
        self.admission_wal_bytes = admission_wal_bytes
        self.admission_max_wait = admission_max_wait
        self.escalation_limit = escalation_limit

    @property
    def n_frames(self):
        return max(4, self.buffer_pool_bytes // self.page_size)


class Transaction:
    __slots__ = ("txn_id", "last_lsn", "pages", "committed", "locks")

    def __init__(self, txn_id):
        self.txn_id = txn_id
        self.last_lsn = 0
        self.pages = {}
        self.committed = False
        self.locks = []


class InnoDBEngine:
    """The assembled engine over a data file system and a log file system."""

    def __init__(self, sim, data_fs, log_fs, config=None):
        self.sim = sim
        self.config = config or InnoDBConfig()
        self.data_fs = data_fs
        self.log_fs = log_fs
        self.pagestore = PageStore(data_fs, self.config.page_size)
        self.wal = WriteAheadLog(sim, log_fs,
                                 capacity_bytes=self.config.log_capacity_bytes)
        self.doublewrite = (DoubleWriteBuffer(sim, self.pagestore, data_fs)
                            if self.config.doublewrite else None)
        self.pool = BufferPool(sim, self.config.n_frames, self._flush_one,
                               flush_batch=self._flush_frames)
        self.tables = {}
        self._newest_lsn = {}          # (space, page) -> latest redo LSN
        # Writer locks per leaf page, held until commit.  Hot pages under
        # a skewed workload convoy here — the mechanism behind Table 3's
        # write-latency tail when commits are slow (barriers on).
        self.locks = LockManager(sim)
        self._txn_counter = 0
        #: committed (space,page)->version oracle, for the failure checker
        self.committed_versions = {}
        #: every commit acked to a client: [(txn_id, {page: version})]
        self.commit_log = []
        self.counters = {"single_page_flushes": 0, "cleaner_batches": 0,
                         "pages_flushed": 0, "commits": 0, "aborts": 0}
        self.degradation = DegradationMonitor(
            sim, name="innodb", escalation_limit=self.config.escalation_limit)
        self._cleaner_stop = False
        sim.telemetry.add_probe("bp.dirty_pages",
                                lambda: self.pool.dirty_count, "db")
        sim.telemetry.add_probe("bp.free_frames",
                                lambda: self.pool.free_frames, "db")
        metrics = sim.telemetry.metrics
        metrics.counter("db.commits",
                        fn=lambda: self.counters["commits"], engine="innodb")
        metrics.counter("db.txn_aborts",
                        fn=lambda: self.counters["aborts"], engine="innodb")
        metrics.counter("db.pages_flushed",
                        fn=lambda: self.counters["pages_flushed"],
                        engine="innodb")
        metrics.gauge("db.bp_dirty_ratio", fn=self.pool.dirty_fraction,
                      engine="innodb")
        metrics.gauge("db.bp_hit_ratio",
                      fn=lambda: 1.0 - self.pool.miss_ratio(),
                      engine="innodb")
        metrics.gauge("db.bp_free_frames",
                      fn=lambda: self.pool.free_frames, engine="innodb")
        sim.process(self._cleaner())

    # --- schema ------------------------------------------------------------
    def create_table(self, name, n_rows, row_bytes):
        """Create a clustered-index table (a synthetic-shape tablespace)."""
        if name in self.tables:
            raise ValueError("table exists: %r" % name)
        table = SyntheticTable(name, space_id=name, n_rows=n_rows,
                               row_bytes=row_bytes,
                               page_size=self.config.page_size)
        self.pagestore.create_space(name, table.total_pages)
        self.tables[name] = table
        return table

    # --- read path -----------------------------------------------------------
    def fetch_page(self, space_id, page_no):
        key = (space_id, page_no)

        def reader():
            version = yield from self.pagestore.read_page(space_id, page_no)
            # The post-read CPU slice (checksum, frame init) is its own
            # span so attribution books it as cpu, not buffer-pool wait.
            telemetry = self.sim.telemetry
            with (telemetry.span("bp.read_in", "db", page=page_no)
                  if telemetry.enabled else NULL_SPAN):
                yield (self.config.page_size / units.KIB
                       * self.config.miss_cpu_per_kib)
            return 0 if version is None else version

        frame = yield from self.pool.fetch(key, reader)
        return frame

    def read_rank(self, table, rank):
        """Index lookup: touch every page on the root-to-leaf path."""
        for page_no in table.path_for(rank):
            yield from self.fetch_page(table.space_id, page_no)

    def scan(self, table, rank, row_count):
        """Range scan: descent plus the covered leaves."""
        for page_no in table.pages_for_scan(rank, row_count):
            yield from self.fetch_page(table.space_id, page_no)

    # --- write path ---------------------------------------------------------------
    def begin(self):
        self._txn_counter += 1
        return Transaction(self._txn_counter)

    def _lock_page(self, txn, key):
        """Exclusive page lock held to commit; may raise DeadlockError."""
        yield from self.locks.acquire(txn.txn_id, key)
        txn.locks.append(key)

    def _release_locks(self, txn):
        self.locks.release_all(txn.txn_id)
        txn.locks = []

    def abort(self, txn):
        """Abandon a transaction (e.g. as a deadlock victim).

        Locks are released; its page versions stay in the pool but were
        never committed, so crash recovery (or the next committed update
        to those pages) supersedes them — the redo-only simplification
        documented in dbrecovery.
        """
        self._release_locks(txn)
        txn.pages.clear()
        self.counters["aborts"] += 1

    def _admit_write(self):
        """Admission control: push back while internal queues are over
        bound, rejecting after a bounded wait (generator; no-op when
        ``admission_control`` is off)."""
        config = self.config
        if not config.admission_control:
            return

        def blocked():
            if self.pool.dirty_fraction() > config.admission_dirty_limit:
                return "dirty pages over %.0f%%" \
                    % (config.admission_dirty_limit * 100)
            if self.wal.buffered_bytes > config.admission_wal_bytes:
                return "WAL append queue over %d bytes" \
                    % config.admission_wal_bytes
            return None

        waited = 0.0
        reason = blocked()
        while reason is not None:
            if waited >= config.admission_max_wait:
                self.degradation.counters["admission_rejects"] += 1
                self.sim.telemetry.instant("db.admission_reject", "db",
                                           reason=reason)
                raise AdmissionBackpressureError("innodb", reason)
            self.degradation.counters["admission_waits"] += 1
            telemetry = self.sim.telemetry
            with (telemetry.span("db.admission_wait", "db", reason=reason)
                  if telemetry.enabled else NULL_SPAN):
                yield config.cleaner_interval
            waited += config.cleaner_interval
            reason = blocked()

    def modify_rank(self, txn, table, rank):
        """Update the row at ``rank``: read the path, lock and dirty the
        leaf, append redo."""
        self.degradation.check_writable()
        yield from self._admit_write()
        try:
            telemetry = self.sim.telemetry
            with (telemetry.span("txn.modify", "db", txn=txn.txn_id,
                                 table=table.name, rank=rank)
                  if telemetry.enabled else NULL_SPAN):
                path = table.path_for(rank)
                for page_no in path[:-1]:
                    yield from self.fetch_page(table.space_id, page_no)
                leaf_no = path[-1]
                yield from self._lock_page(txn, (table.space_id, leaf_no))
                frame = yield from self.fetch_page(table.space_id, leaf_no)
                version = self.pool.mark_dirty(frame)
                lsn = self.wal.append(txn.txn_id, table.space_id, leaf_no,
                                      version)
                self._newest_lsn[(table.space_id, leaf_no)] = lsn
                txn.last_lsn = lsn
                txn.pages[(table.space_id, leaf_no)] = version
            return version
        except _FAILSTOP_ERRORS as error:
            # A write could not make progress — even when the escalating
            # command was a page *read-in* on the write's B-tree path.
            # Detected corruption on that path escalates the same way: the
            # engine fails the statement rather than serve wrong data, and
            # repeated hits demote it to read-only.
            # (record_escalation dedups against any nested recording.)
            self.degradation.record_escalation(error)
            raise

    def commit(self, txn):
        """Group-commit the transaction's redo to the log device.

        A commit whose log flush escalates (:class:`DeviceTimeoutError`)
        is *not* committed: the commit marker never became durable, the
        oracle (``commit_log``) is not appended, and the caller must
        abort the transaction.  The escalation is recorded so repeated
        failures demote the engine to read-only.
        """
        telemetry = self.sim.telemetry
        with (telemetry.span("txn.commit", "db", txn=txn.txn_id)
              if telemetry.enabled else NULL_SPAN):
            self.degradation.check_writable()
            try:
                lsn = self.wal.append(txn.txn_id, COMMIT_MARKER, None, None,
                                      nbytes=64)
                txn.last_lsn = lsn
                try:
                    yield from self.wal.flush_to(lsn)
                except _FAILSTOP_ERRORS as error:
                    self.degradation.record_escalation(error)
                    raise
            finally:
                self._release_locks(txn)
        txn.committed = True
        for key, version in txn.pages.items():
            current = self.committed_versions.get(key, 0)
            if version > current:
                self.committed_versions[key] = version
        self.commit_log.append((txn.txn_id, dict(txn.pages)))
        self.counters["commits"] += 1

    # --- flushing ----------------------------------------------------------------
    def _flush_one(self, key, version):
        """Buffer-pool eviction callback: single-page flush (Figure 1)."""
        self.counters["single_page_flushes"] += 1
        yield from self._flush_entries([(key[0], key[1], version)])

    def _flush_frames(self, frames):
        """Buffer-pool eviction-batch callback."""
        entries = [(frame.key[0], frame.key[1], frame.version)
                   for frame in frames]
        yield from self._flush_entries(entries)

    def _flush_entries(self, entries):
        try:
            yield from self._flush_entries_inner(entries)
        except _FAILSTOP_ERRORS as error:
            # One recording point for every flush path (cleaner, forced
            # checkpoint, eviction, single-page): the pages stay dirty
            # and will be retried; repeated escalation demotes the
            # engine to read-only.
            self.degradation.record_escalation(error)
            raise

    def _flush_entries_inner(self, entries):
        telemetry = self.sim.telemetry
        with (telemetry.span("bp.flush_batch", "db", n=len(entries),
                             doublewrite=self.doublewrite is not None)
              if telemetry.enabled else NULL_SPAN):
            # WAL rule: redo for these page versions must be durable first.
            newest = max((self._newest_lsn.get((space, page), 0)
                          for space, page, _version in entries), default=0)
            if newest:
                yield from self.wal.flush_to(newest)
            # Dedup in first-touch order, not a set: set iteration over
            # handles follows id() hashes, which vary run to run and
            # would make the fsync (and journal-commit) order
            # nondeterministic.
            touched = []
            for space, _page, _version in entries:
                handle = self.pagestore.space(space).handle
                if handle not in touched:
                    touched.append(handle)
            if self.doublewrite is not None:
                yield from self.doublewrite.flush_pages(entries, touched)
            else:
                writers = [self.sim.process(
                    self.pagestore.write_page(space, page, version))
                    for space, page, version in entries]
                yield self.sim.all_of(writers)
                for handle in touched:
                    yield from self.data_fs.fsync(handle)
        self.counters["pages_flushed"] += len(entries)
        for space, page, version in entries:
            frame = self.pool.get_resident((space, page))
            if frame is not None:
                self.pool.mark_clean(frame, version)

    # --- background page cleaner -----------------------------------------------
    def _cleaner(self):
        free_target = max(2, int(self.pool.capacity *
                                 self.config.free_target_fraction))
        while not self._cleaner_stop:
            yield self.config.cleaner_interval
            need_free = self.pool.free_frames < free_target
            too_dirty = (self.pool.dirty_fraction()
                         > self.config.max_dirty_fraction)
            log_pressure = (self.wal.checkpoint_pressure()
                            > self.config.checkpoint_pressure_limit)
            try:
                if log_pressure:
                    yield from self._force_checkpoint()
                    continue
                if not (need_free or too_dirty):
                    continue
                victims = self.pool.oldest_dirty(self.config.cleaner_batch)
                if not victims:
                    continue
                entries = [(frame.key[0], frame.key[1], frame.version)
                           for frame in victims]
                yield from self._flush_entries(entries)
            except _FAILSTOP_ERRORS:
                # Already recorded by _flush_entries.  The cleaner must
                # survive a gray device — nobody waits on this process,
                # so an uncaught exception would crash the simulation.
                # Back off before hammering the device again.
                yield 10 * self.config.cleaner_interval
                continue
            self.counters["cleaner_batches"] += 1
            if need_free:
                for frame in victims:
                    if self.pool.free_frames >= free_target:
                        break
                    self.pool.evict_clean(frame)
            # io_capacity throttle: pace background flushing.
            yield len(entries) / self.config.io_capacity

    def _force_checkpoint(self):
        """Redo space is running out: flush every dirty page so the log
        tail becomes reusable (the stall real engines hit when the redo
        log is undersized)."""
        telemetry = self.sim.telemetry
        with (telemetry.span("bp.checkpoint", "db")
              if telemetry.enabled else NULL_SPAN):
            while True:
                victims = self.pool.oldest_dirty(self.config.cleaner_batch)
                if not victims:
                    break
                entries = [(frame.key[0], frame.key[1], frame.version)
                           for frame in victims]
                # Checkpoint-stall protection: a gray device must not
                # pin the engine inside this loop forever.  The first
                # escalation aborts the checkpoint attempt; the pages
                # stay dirty and the cleaner retries after backoff.
                yield from self._flush_entries(entries)
        self.wal.advance_checkpoint()
        self.counters["forced_checkpoints"] = \
            self.counters.get("forced_checkpoints", 0) + 1

    def stop_cleaner(self):
        """Let the simulation drain at the end of a run."""
        self._cleaner_stop = True

    # --- warm-up (the paper's 600s pre-run) ----------------------------------------
    def warm(self, key_stream, accesses=None, dirty_fraction=0.35,
             dirty_rng=None):
        """Pre-populate the buffer pool, untimed.

        ``key_stream`` yields (table, rank) pairs with the workload's
        skew; internal path pages and the touched leaves become resident
        until the pool is full (or ``accesses`` draws), approximating the
        LRU state after the paper's 600-second warm-up run.  A fraction
        of warmed leaf pages starts dirty — the steady state a
        write-carrying workload leaves behind — so eviction pressure is
        realistic from the first measured transaction.
        """
        limit = accesses if accesses is not None else 40 * self.pool.capacity
        target_free = max(2, self.pool.capacity // 64)
        for _ in range(limit):
            if accesses is None and self.pool.free_frames <= target_free:
                break
            table, rank = next(key_stream)
            path = table.path_for(rank)
            for page_no in path:
                frame = self.pool.install_warm((table.space_id, page_no), 0)
            if (dirty_fraction and frame is not None and not frame.dirty
                    and dirty_rng is not None
                    and dirty_rng.random() < dirty_fraction):
                self.pool.mark_dirty(frame)

    # --- reporting ---------------------------------------------------------------
    def write_amplification(self):
        """Logical page writes vs pages sent to storage (the 2x of DWB)."""
        flushed = self.counters["pages_flushed"]
        physical = flushed * (2 if self.doublewrite is not None else 1)
        return physical / flushed if flushed else 0.0
