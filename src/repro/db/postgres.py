"""A PostgreSQL-style engine: full-page writes instead of double-write.

Section 2.1 of the paper: "When the full-page-write option is on, the
PostgreSQL server writes the entire content of a page (i.e., before
image) to the WAL log during the first modification of the page after a
checkpoint.  Storing the full page content guarantees that the page can
be correctly restored but at the cost of increasing the amount of data
to be written to the log."

So the torn-page insurance premium moves from the data path (InnoDB's
double-write) to the *log* path: the first touch of each page per
checkpoint cycle logs ``page_size`` bytes instead of a ~256-byte record.
On DuraSSD the option can be switched off — the device's atomic page
writes make the before-images redundant — which is exactly the same
argument as dropping the double-write buffer.

The engine reuses the InnoDB machinery (buffer pool, WAL, cleaner); the
differences are the FPW logic and the plain one-fsync flush path.
"""

from ..sim import units
from .innodb import InnoDBConfig, InnoDBEngine


class PostgresConfig(InnoDBConfig):
    """PostgreSQL defaults: 8KB pages, full-page writes on, no DWB."""

    def __init__(self, page_size=8 * units.KIB, full_page_writes=True,
                 checkpoint_interval=30.0, **kwargs):
        kwargs.setdefault("doublewrite", False)
        super().__init__(page_size=page_size, **kwargs)
        if self.doublewrite:
            raise ValueError("PostgreSQL uses full-page writes, not a "
                             "double-write buffer")
        self.full_page_writes = full_page_writes
        self.checkpoint_interval = checkpoint_interval


class PostgresEngine(InnoDBEngine):
    """InnoDB machinery with WAL-side torn-page protection."""

    def __init__(self, sim, data_fs, log_fs, config=None):
        config = config or PostgresConfig()
        super().__init__(sim, data_fs, log_fs, config)
        #: pages already full-page-logged in the current checkpoint cycle
        self._fpw_logged = set()
        self.counters["full_page_images"] = 0
        self.counters["checkpoints"] = 0
        if config.full_page_writes:
            sim.process(self._checkpointer())

    def modify_rank(self, txn, table, rank):
        """First modification of a page after a checkpoint logs the whole
        page image; later modifications log normal records."""
        leaf_no, frame = yield from self._locked_leaf(txn, table, rank)
        version = self.pool.mark_dirty(frame)
        key = (table.space_id, leaf_no)
        if self.config.full_page_writes and key not in self._fpw_logged:
            lsn = self.wal.append_page_image(txn.txn_id, table.space_id,
                                             leaf_no, version,
                                             self.config.page_size)
            self._fpw_logged.add(key)
            self.counters["full_page_images"] += 1
        else:
            lsn = self.wal.append(txn.txn_id, table.space_id, leaf_no,
                                  version)
        self._newest_lsn[key] = lsn
        txn.last_lsn = lsn
        txn.pages[key] = version
        return version

    def _checkpointer(self):
        """Periodic checkpoints reset the FPW bookkeeping — every page's
        next touch pays the full-image price again."""
        while not self._cleaner_stop:
            yield self.config.checkpoint_interval
            self._fpw_logged.clear()
            self.counters["checkpoints"] += 1

    def force_checkpoint(self):
        """Explicit checkpoint (tests and benches)."""
        self._fpw_logged.clear()
        self.counters["checkpoints"] += 1
