"""A SQLite-style rollback-journal engine (Section 2.1, [1], [31]).

Mobile/embedded engines take the third road to atomic page writes: a
*rollback journal*.  Before modifying any page, its before-image is
copied to a journal file and fsynced; the pages are then updated in
place and fsynced; finally the journal is invalidated (header rewrite +
fsync).  Crash at any point leaves either an intact journal (roll back)
or an invalidated one (transaction complete) — at the cost of **three
barriers and double the data** per commit, the heaviest protocol of the
three the paper lists.

On DuraSSD the journal can run in ``journal_mode=OFF`` safely for
single-page transactions, because the device's atomic command writes
make the before-images redundant — the same argument as InnoDB's
double-write, taken to its extreme.
"""

from ..sim import units
from .pages import try_verify_page
from .pagestore import PageStore


class SQLiteConfig:
    def __init__(self, page_size=4 * units.KIB, journal_mode="rollback",
                 n_pages=4096, cpu_per_txn=80e-6):
        if journal_mode not in ("rollback", "off"):
            raise ValueError("journal_mode must be 'rollback' or 'off'")
        if page_size % units.LBA_SIZE:
            raise ValueError("page size must be a multiple of 4KiB")
        self.page_size = page_size
        self.journal_mode = journal_mode
        self.n_pages = n_pages
        self.cpu_per_txn = cpu_per_txn


class SQLiteEngine:
    """Single-writer page store with a rollback journal."""

    JOURNAL_SLOTS = 64

    def __init__(self, sim, filesystem, config=None):
        self.sim = sim
        self.filesystem = filesystem
        self.config = config or SQLiteConfig()
        self.pagestore = PageStore(filesystem, self.config.page_size)
        self.pagestore.create_space("main", self.config.n_pages)
        self.journal = filesystem.create(
            "rollback-journal",
            (self.JOURNAL_SLOTS + 1) * self.config.page_size)
        self._page_versions = {}      # in-memory page cache (always hot)
        self._journal_entries = {}    # slot -> (page_no, old_version)
        self._journal_valid = False
        #: client-visible oracle: committed page versions
        self.committed_versions = {}
        self.acked_txns = 0
        self.counters = {"commits": 0, "journal_pages": 0, "barriers": 0}

    # --- the commit protocol (one generator per transaction) ---------------
    def write_transaction(self, page_numbers):
        """Atomically update ``page_numbers`` (versions bump by one)."""
        yield self.config.cpu_per_txn
        updates = {}
        for page_no in page_numbers:
            old = self._page_versions.get(page_no, 0)
            updates[page_no] = (old, old + 1)

        if self.config.journal_mode == "rollback":
            yield from self._journal_before_images(updates)

        # update pages in place, then make them durable
        for page_no, (_old, new) in sorted(updates.items()):
            yield from self.pagestore.write_page("main", page_no, new)
        yield from self.filesystem.fsync(self.pagestore.space("main").handle)
        self.counters["barriers"] += 1

        if self.config.journal_mode == "rollback":
            yield from self._invalidate_journal()

        for page_no, (_old, new) in updates.items():
            self._page_versions[page_no] = new
            self.committed_versions[page_no] = new
        self.acked_txns += 1
        self.counters["commits"] += 1

    def _journal_before_images(self, updates):
        header = [("journal-header", self.acked_txns + 1, len(updates))]
        yield from self.filesystem.pwrite(self.journal, 0, header)
        self._journal_entries.clear()
        for slot, (page_no, (old, _new)) in enumerate(sorted(updates.items())):
            offset = (slot + 1) * self.config.page_size
            yield from self.pagestore.write_page_image(
                self.journal, offset, "main", page_no, old)
            self._journal_entries[slot] = (page_no, old)
            self.counters["journal_pages"] += 1
        self._journal_valid = True
        yield from self.filesystem.fsync(self.journal)
        self.counters["barriers"] += 1

    def _invalidate_journal(self):
        yield from self.filesystem.pwrite(self.journal, 0,
                                          [("journal-invalid",)])
        self._journal_valid = False
        yield from self.filesystem.fsync(self.journal)
        self.counters["barriers"] += 1

    # --- crash recovery ---------------------------------------------------------
    def recover(self):
        """SQLite recovery: a valid journal on stable media rolls the
        covered pages back to their before-images.  Returns the count of
        pages rolled back."""
        header = self.filesystem.persistent_blocks(self.journal, 0, 1)[0]
        if (not isinstance(header, tuple)
                or header[0] != "journal-header"):
            return 0  # no valid journal: nothing to do
        rolled_back = 0
        for slot, (page_no, old_version) in self._journal_entries.items():
            values = self.filesystem.persistent_blocks(
                self.journal, (slot + 1) * self.config.page_size,
                self.pagestore.blocks_per_page)
            version, error = try_verify_page("main", page_no, values)
            if error is not None:
                continue  # torn journal copy: home page was never touched
            self.pagestore.install_page("main", page_no, version)
            rolled_back += 1
        # invalidate so recovery is idempotent
        self.filesystem.install_blocks(self.journal, 0,
                                       [("journal-invalid",)])
        return rolled_back

    def check_committed_pages(self):
        """[(page, found, expected)] for committed pages that are wrong
        on stable media (torn or stale) — empty means consistent."""
        problems = []
        for page_no, expected in sorted(self.committed_versions.items()):
            found, error = self.pagestore.persistent_page("main", page_no)
            if error is not None:
                problems.append((page_no, "torn", expected))
            elif (found or 0) < expected:
                problems.append((page_no, found or 0, expected))
        return problems
