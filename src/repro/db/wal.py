"""Write-ahead log with group commit.

The redo log lives in its own file (the paper dedicates a second
DuraSSD to logging) and is flushed to its device on every transaction
commit.  Concurrent committers piggyback on one another's flushes —
classic group commit — which is why commit latency under load is a
queueing time on the log flush, not a fixed cost.

Log records are tokens ``(txn_id, space_id, page_no, new_version)``;
they carry exactly what crash recovery needs to redo a page update.
"""

from ..sim import units
from ..sim.resources import Mutex
from ..telemetry.hub import NULL_SPAN


class LogRecord:
    __slots__ = ("lsn", "txn_id", "space_id", "page_no", "version", "nbytes")

    def __init__(self, lsn, txn_id, space_id, page_no, version, nbytes):
        self.lsn = lsn
        self.txn_id = txn_id
        self.space_id = space_id
        self.page_no = page_no
        self.version = version
        self.nbytes = nbytes


class WriteAheadLog:
    """Append-only redo log over one file, with group commit."""

    #: average redo record size (the paper's row updates are small)
    DEFAULT_RECORD_BYTES = 256

    def __init__(self, sim, filesystem, capacity_bytes=256 * units.MIB,
                 name="redo"):
        self.sim = sim
        self.filesystem = filesystem
        # The "log" placement class: on a placement volume the redo file
        # lands on the dedicated log child; plain targets serve every
        # class from the same region, so this is otherwise inert.
        self.handle = filesystem.create("%s-log" % name, capacity_bytes,
                                        placement="log")
        self.capacity_bytes = capacity_bytes
        self._next_lsn = 1
        self._buffer = []            # records not yet written
        self._buffered_bytes = 0
        self._write_cursor_blocks = 0
        self.flushed_lsn = 0
        self.barrier_durable_lsn = 0
        # checkpoint age: appended bytes not yet covered by a checkpoint.
        # InnoDB stalls writers when the redo log fills; the engine's
        # cleaner advances the checkpoint by flushing old dirty pages.
        self._appended_bytes = 0
        self._checkpoint_bytes = 0
        self._flush_mutex = Mutex(sim)
        self._records_for_recovery = []  # what is durably on the log device
        # Write-out batches for record-checksum verification: (top_lsn,
        # start_block, nblocks, records) per successful _write_out.
        self._write_batches = []
        #: verify log media tokens during recovery (armed by integrity
        #: worlds; off by default — recovery then trusts the media, the
        #: historical behaviour)
        self.verify_on_recovery = False
        self.counters = {"appends": 0, "flushes": 0, "group_commits": 0,
                         "blocks_written": 0, "verify_dropped": 0}
        sim.telemetry.add_probe("wal.buffered_bytes",
                                lambda: self._buffered_bytes, "db")
        sim.telemetry.add_probe("wal.checkpoint_pressure",
                                self.checkpoint_pressure, "db")
        metrics = sim.telemetry.metrics
        metrics.counter("db.wal_fsyncs",
                        fn=lambda: self.counters["flushes"])
        metrics.counter("db.wal_appends",
                        fn=lambda: self.counters["appends"])
        metrics.counter("db.wal_bytes",
                        fn=lambda: self._appended_bytes)
        metrics.counter("db.wal_group_commits",
                        fn=lambda: self.counters["group_commits"])
        metrics.gauge("db.wal_buffered_bytes",
                      fn=lambda: self._buffered_bytes)
        metrics.gauge("db.checkpoint_pressure", fn=self.checkpoint_pressure)

    @property
    def current_lsn(self):
        return self._next_lsn - 1

    @property
    def used_bytes(self):
        return self._write_cursor_blocks * units.LBA_SIZE

    @property
    def buffered_bytes(self):
        """Bytes appended but not yet written out (admission-control gauge)."""
        return self._buffered_bytes

    # --- append ---------------------------------------------------------------
    def append(self, txn_id, space_id, page_no, version,
               nbytes=DEFAULT_RECORD_BYTES):
        """Add a redo record to the log buffer; returns its LSN."""
        lsn = self._next_lsn
        self._next_lsn += 1
        record = LogRecord(lsn, txn_id, space_id, page_no, version, nbytes)
        self._buffer.append(record)
        self._buffered_bytes += nbytes
        self._appended_bytes += nbytes
        self.counters["appends"] += 1
        return lsn

    def append_page_image(self, txn_id, space_id, page_no, version,
                          page_size):
        """A full-page write (PostgreSQL style): the whole before/after
        image goes into the log, costing ``page_size`` log bytes."""
        return self.append(txn_id, space_id, page_no, version,
                           nbytes=page_size)

    # --- group commit ------------------------------------------------------------
    def flush_to(self, lsn):
        """Make the log durable up to ``lsn``.

        Returns once ``flushed_lsn >= lsn``.  Under concurrency, one
        flusher writes for everyone queued behind it.
        """
        telemetry = self.sim.telemetry
        with (telemetry.span("wal.flush_to", "db", lsn=lsn)
              if telemetry.enabled else NULL_SPAN) as span:
            while self.flushed_lsn < lsn:
                yield self._flush_mutex.acquire()
                try:
                    if self.flushed_lsn >= lsn:
                        self.counters["group_commits"] += 1
                        if telemetry.enabled:
                            span.annotate(group_commit=True)
                        return
                    yield from self._write_out()
                finally:
                    self._flush_mutex.release()

    def _write_out(self):
        records, self._buffer = self._buffer, []
        nbytes, self._buffered_bytes = self._buffered_bytes, 0
        if not records:
            return
        nblocks = max(1, units.lba_count(nbytes))
        if (self._write_cursor_blocks + nblocks) * units.LBA_SIZE \
                > self.capacity_bytes:
            self._write_cursor_blocks = 0  # circular log wrap
        top_lsn = records[-1].lsn
        try:
            telemetry = self.sim.telemetry
            with (telemetry.span("wal.write_out", "db", lsn=top_lsn,
                                 records=len(records), nblocks=nblocks)
                  if telemetry.enabled else NULL_SPAN):
                tokens = [("log", top_lsn, index) for index in range(nblocks)]
                offset = self._write_cursor_blocks * units.LBA_SIZE
                yield from self.filesystem.pwrite(self.handle, offset, tokens)
                self._write_cursor_blocks += nblocks
                yield from self.filesystem.fdatasync(self.handle)
        except BaseException:
            # The write escalated (DeviceTimeoutError) or was interrupted.
            # Put the records back at the head of the buffer: other
            # committers are still looping in flush_to() on these LSNs,
            # and dropping the records would leave them spinning forever
            # against a flushed_lsn that can no longer advance.
            self._buffer = records + self._buffer
            self._buffered_bytes += nbytes
            raise
        self.flushed_lsn = top_lsn
        if self.filesystem.barriers:
            self.barrier_durable_lsn = top_lsn
        self._records_for_recovery.extend(records)
        self._write_batches.append(
            (top_lsn, self._write_cursor_blocks - nblocks, nblocks,
             list(records)))
        self.counters["flushes"] += 1
        self.counters["blocks_written"] += nblocks

    # --- checkpointing ---------------------------------------------------------------
    @property
    def checkpoint_age_bytes(self):
        """Redo bytes written since the last checkpoint."""
        return self._appended_bytes - self._checkpoint_bytes

    def checkpoint_pressure(self):
        """Fraction of the log capacity the checkpoint age consumes."""
        return self.checkpoint_age_bytes / self.capacity_bytes

    def advance_checkpoint(self):
        """All dirty pages covered by old redo are on disk: the log
        space behind the current LSN is reusable."""
        self._checkpoint_bytes = self._appended_bytes
        self.counters["checkpoints"] = self.counters.get("checkpoints", 0) + 1

    # --- recovery support -----------------------------------------------------------
    def surviving_records(self, log_device_durable):
        """Redo records available to crash recovery.

        A durable-cache log device (DuraSSD) retains everything that was
        acked; a volatile one retains only what the last *barrier* flush
        pushed to media — running it with ``nobarrier`` silently loses
        the committed tail, which is precisely why the paper's OFF/OFF
        configuration is only safe on DuraSSD.
        """
        if log_device_durable:
            survivors = list(self._records_for_recovery)
        else:
            survivors = [record for record in self._records_for_recovery
                         if record.lsn <= self.barrier_durable_lsn]
        if self.verify_on_recovery:
            survivors = self._verify_survivors(survivors)
        return survivors

    def _verify_survivors(self, survivors):
        """Record-checksum pass over the surviving redo (untimed).

        Each write-out batch's media blocks are re-read and checked
        against the ``(log, top_lsn, index)`` tokens it wrote; replay
        stops at the first batch that fails — exactly how a real WAL
        scan stops at the first bad record checksum, so a corrupted
        batch can never be replayed as if it were intact.  Batches whose
        blocks were overwritten by a circular-log wrap are no longer
        verifiable against media and are trusted as checkpoint-covered.
        """
        eligible = {record.lsn for record in survivors}
        # latest writer per block decides which batches are verifiable
        latest = {}
        for index, (_lsn, start, nblocks, _records) in \
                enumerate(self._write_batches):
            for block in range(start, start + nblocks):
                latest[block] = index
        good_lsns, dropped = set(), False
        for index, (top_lsn, start, nblocks, records) in \
                enumerate(self._write_batches):
            batch_lsns = {record.lsn for record in records} & eligible
            if not batch_lsns:
                continue
            verifiable = all(latest[block] == index
                             for block in range(start, start + nblocks))
            if verifiable and not dropped:
                found = self.filesystem.persistent_blocks(
                    self.handle, start * units.LBA_SIZE, nblocks)
                expect = [("log", top_lsn, offset)
                          for offset in range(nblocks)]
                if found != expect:
                    dropped = True  # first bad batch: stop the scan here
            if dropped:
                self.counters["verify_dropped"] += len(batch_lsns)
            else:
                good_lsns |= batch_lsns
        return [record for record in survivors if record.lsn in good_lsns]
