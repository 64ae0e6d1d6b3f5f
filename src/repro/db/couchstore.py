"""A Couchbase-style append-only document store (couchstore).

Couchbase stores JSON documents in the value of a key-value pair, keyed
through a B+-tree.  Updates are **append-only copy-on-write**: the new
document plus every B+-tree node on the root-to-leaf path (~4 nodes of
4KB with a ~1KB document -> ~20KB per update, Section 4.3.3) are
appended to the data file, then made durable.  A *commit* appends a
header block holding the new root pointer and fsyncs; the ``batch_size``
parameter trades durability for throughput by committing every k
updates (Table 5).

Crash behaviour is the classic append-only story: the database recovers
to the last durable header; updates beyond it vanish.  On a volatile
device without barriers the "durable" header may itself be a lie — the
anomaly DuraSSD removes.
"""

from ..host.lifecycle import STORAGE_ERRORS
from ..sim import units
from ..sim.resources import Mutex
from .btree import PagedBTree
from .degrade import DegradationMonitor


class CouchstoreConfig:
    """Sizing and cost model for one couchstore bucket."""

    def __init__(self, doc_bytes=1024, tree_node_bytes=4 * units.KIB,
                 tree_depth=4, batch_size=1, cache_hit_ratio=0.5,
                 cpu_per_operation=120e-6, commit_cpu=30e-6,
                 file_bytes=512 * units.MIB):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.doc_bytes = doc_bytes
        self.tree_node_bytes = tree_node_bytes
        self.tree_depth = tree_depth
        self.batch_size = batch_size
        # Managed cache: the fraction of reads served from memory.
        # Table 5's 50%-update rows imply reads that are sometimes
        # memory-speed (batch 100) and sometimes device-speed (batch 1);
        # 0.5 splits the difference — see EXPERIMENTS.md.
        self.cache_hit_ratio = cache_hit_ratio
        self.cpu_per_operation = cpu_per_operation
        self.commit_cpu = commit_cpu
        self.file_bytes = file_bytes

    @property
    def update_blocks(self):
        """4KB blocks appended per update: COW tree path + document."""
        tree_blocks = (self.tree_depth * self.tree_node_bytes
                       // units.LBA_SIZE)
        doc_blocks = units.lba_count(self.doc_bytes)
        return int(tree_blocks + doc_blocks)


class CouchstoreEngine:
    """The append-only engine over one file system."""

    def __init__(self, sim, filesystem, config=None, name="bucket"):
        self.sim = sim
        self.filesystem = filesystem
        self.config = config or CouchstoreConfig()
        self.handle = filesystem.create("couch-%s" % name,
                                        self.config.file_bytes)
        self._write_mutex = Mutex(sim)  # one writer thread per bucket
        self._sequence = 0              # monotonically increasing update seq
        self._uncommitted = 0
        self._committed_seq = 0
        #: sequence covered by the last *acked* commit, as the client saw it
        self.acked_commit_seq = 0
        #: (header_lba, sequence) of every header append, newest last
        self._headers = []
        self._header_cursor = 0
        #: key -> sequence of its latest update (the logical database)
        self.latest = {}
        #: in-memory shadow of the COW tree structure (for shape stats)
        self.tree = PagedBTree(leaf_capacity=max(
            2, self.config.tree_node_bytes // 64), internal_capacity=64)
        self.counters = {"updates": 0, "reads": 0, "commits": 0,
                         "blocks_appended": 0, "cache_hits": 0,
                         "cache_misses": 0}
        self.degradation = DegradationMonitor(sim, name="couchstore-%s"
                                              % name)
        metrics = sim.telemetry.metrics
        metrics.counter("db.commits",
                        fn=lambda: self.counters["commits"],
                        engine="couchstore-%s" % name)
        metrics.counter("db.updates",
                        fn=lambda: self.counters["updates"],
                        engine="couchstore-%s" % name)
        metrics.counter("db.blocks_appended",
                        fn=lambda: self.counters["blocks_appended"],
                        engine="couchstore-%s" % name)

    # --- operations (generators) ------------------------------------------------
    def update(self, key, rng):
        """Append a document update; durable once the batch commits.

        Returns the update's sequence number.
        """
        self.degradation.check_writable()
        yield self.config.cpu_per_operation
        yield self._write_mutex.acquire()
        try:
            self._sequence += 1
            sequence = self._sequence
            blocks = self.config.update_blocks
            tokens = [("couch", key, sequence, index)
                      for index in range(blocks)]
            try:
                yield from self._append_wrapping(tokens)
            except STORAGE_ERRORS as error:
                self.degradation.record_escalation(error)
                raise
            self.counters["updates"] += 1
            self.counters["blocks_appended"] += blocks
            self.latest[key] = sequence
            self.tree.insert(key, sequence)
            self._uncommitted += 1
            if self._uncommitted >= self.config.batch_size:
                yield from self._commit()
        finally:
            self._write_mutex.release()
        return sequence

    def read(self, key, rng):
        """Look a document up; most reads hit the managed cache."""
        yield self.config.cpu_per_operation
        self.counters["reads"] += 1
        if rng.random() < self.config.cache_hit_ratio:
            self.counters["cache_hits"] += 1
            return self.latest.get(key)
        self.counters["cache_misses"] += 1
        # leaf node + document block from storage
        offset = (rng.randrange(max(1, self.handle.size_blocks))
                  * units.LBA_SIZE)
        yield from self.filesystem.pread(self.handle, offset, 2)
        return self.latest.get(key)

    def flush(self):
        """Force an early commit of any uncommitted updates."""
        yield self._write_mutex.acquire()
        try:
            if self._uncommitted:
                yield from self._commit()
        finally:
            self._write_mutex.release()

    def _commit(self):
        """couchstore commit: append the header, then one fsync.

        The header write is ordered after the data appends on the wire,
        so a single flush covers both; this is couchstore's (default)
        relaxed commit rather than the belt-and-braces double fsync.
        """
        yield self.config.commit_cpu
        try:
            header_token = [("couch-header", self._sequence)]
            offset = yield from self.filesystem.append(self.handle,
                                                       header_token)
            self._headers.append((self.handle.lba_of(offset),
                                  self._sequence))
            yield from self.filesystem.fsync(self.handle)
        except STORAGE_ERRORS as error:
            # The commit never became durable and was never acked:
            # acked_commit_seq stays behind, so the lost-update oracle
            # remains truthful.  Repeated escalation demotes the bucket.
            self.degradation.record_escalation(error)
            raise
        self._committed_seq = self._sequence
        self.acked_commit_seq = self._sequence
        self._uncommitted = 0
        self.counters["commits"] += 1

    def _append_wrapping(self, tokens):
        """Append, wrapping to the file start when full (compaction
        stand-in: the simulation never reclaims, it recycles)."""
        needed = len(tokens)
        if self.handle.size_blocks + needed > self.handle.nblocks:
            self.handle.size_blocks = 0
        yield from self.filesystem.append(self.handle, tokens)

    # --- post-crash inspection ------------------------------------------------------
    def recovered_sequence(self):
        """The update sequence the store recovers to after a power cut.

        Walks headers newest-first and returns the first whose block is
        intact on stable media (append-only recovery).
        """
        for lba_block, sequence in reversed(self._headers):
            values = self.filesystem.target.persistent_view([lba_block])
            if values and values[0] == ("couch-header", sequence):
                return sequence
        return 0

    def lost_acked_updates(self):
        """Acked-durable updates the device failed to keep (the Table 5
        danger zone: volatile cache + nobarrier)."""
        return max(0, self.acked_commit_seq - self.recovered_sequence())
