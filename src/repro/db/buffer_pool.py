"""The shared buffer pool of Figure 1.

A fixed set of page frames managed by LRU, with a free list feeding read
misses.  When the free list is empty a reader must evict the coldest
unpinned frame — and if that victim is *dirty*, the read blocks until
the page is written out (through the engine's flush path, double-write
buffer and all).  That read-blocked-by-write coupling is the paper's
explanation for the latency-variability problem, so the pool counts it
explicitly (``reads_blocked_by_write``).
"""

from collections import OrderedDict

from ..telemetry.hub import NULL_SPAN


class Frame:
    """One resident page."""

    __slots__ = ("key", "version", "dirty", "first_dirty_at", "pin_count")

    def __init__(self, key, version):
        self.key = key
        self.version = version
        self.dirty = False
        self.first_dirty_at = None
        self.pin_count = 0


class BufferPool:
    """LRU page cache with a free list and write-back eviction.

    ``flush_page(key, version)`` is a generator callback supplied by the
    engine; it must write the page durably (respecting the engine's
    double-write configuration) before the frame can be stolen.
    """

    #: dirty frames flushed together when a reader hits a dirty LRU tail.
    #: InnoDB's LRU flush chunks are small; large values hide the paper's
    #: read-blocked-by-write convoys, tiny values overstate them.
    EVICTION_FLUSH_BATCH = 8

    def __init__(self, sim, n_frames, flush_page, flush_batch=None):
        if n_frames < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.sim = sim
        self.capacity = n_frames
        self._flush_page = flush_page
        self._flush_batch = flush_batch
        self._frames = OrderedDict()   # key -> Frame; MRU at the end
        self._free = n_frames
        self._dirty = 0                # frames with dirty set
        self._inflight_reads = {}      # key -> Event (page being read in)
        self._eviction_flush_gate = None
        self.stats = {
            "hits": 0, "misses": 0, "evictions": 0,
            "reads_blocked_by_write": 0, "clean_evictions": 0,
            "free_waits": 0,
        }

    # --- introspection -------------------------------------------------------
    def __len__(self):
        return len(self._frames)

    @property
    def free_frames(self):
        return self._free

    @property
    def dirty_count(self):
        return self._dirty

    def dirty_fraction(self):
        if not self._frames:
            return 0.0
        return self.dirty_count / self.capacity

    def miss_ratio(self):
        accesses = self.stats["hits"] + self.stats["misses"]
        if not accesses:
            return 0.0
        return self.stats["misses"] / accesses

    def contains(self, key):
        return key in self._frames

    def get_resident(self, key):
        """Frame if resident (no LRU touch, no stats) — for flushers."""
        return self._frames.get(key)

    def oldest_dirty(self, limit):
        """Up to ``limit`` dirty frames from the cold end (for cleaners)."""
        victims = []
        for frame in self._frames.values():
            if frame.dirty and not frame.pin_count:
                victims.append(frame)
                if len(victims) >= limit:
                    break
        return victims

    # --- the access path -------------------------------------------------------
    def fetch(self, key, reader):
        """Return the frame for ``key``, reading it in on a miss.

        ``reader()`` is a generator producing the page version from
        storage.  Concurrent fetches of the same page coalesce into one
        read.
        """
        while True:
            frame = self._frames.get(key)
            if frame is not None:
                self._frames.move_to_end(key)
                self.stats["hits"] += 1
                return frame
            inflight = self._inflight_reads.get(key)
            if inflight is not None:
                telemetry = self.sim.telemetry
                with (telemetry.span("bp.read_wait", "db")
                      if telemetry.enabled else NULL_SPAN):
                    yield inflight
                continue  # re-check: it should be resident now
            return (yield from self._read_in(key, reader))

    def _read_in(self, key, reader):
        self.stats["misses"] += 1
        arrival = self.sim.event()
        self._inflight_reads[key] = arrival
        try:
            yield from self._claim_free_frame()
            try:
                version = yield from reader()
            except BaseException:
                # The read failed (device timeout escalation): put the
                # claimed frame back on the free list or the pool leaks
                # capacity with every failed read.
                self._free += 1
                raise
            frame = Frame(key, version)
            self._frames[key] = frame
            return frame
        finally:
            del self._inflight_reads[key]
            arrival.succeed()

    def _claim_free_frame(self):
        """Take a frame off the free list, evicting if necessary."""
        while True:
            if self._free > 0:
                self._free -= 1
                return
            evicted = yield from self._evict_one()
            if evicted:
                continue  # the eviction freed a frame; claim it
            # Everything is pinned or in flux: brief wait, then retry.
            self.stats["free_waits"] += 1
            telemetry = self.sim.telemetry
            with (telemetry.span("bp.evict_wait", "db", reason="free-wait")
                  if telemetry.enabled else NULL_SPAN):
                yield 100e-6

    def _evict_one(self):
        """Evict the coldest unpinned frame; flush it first if dirty.

        Returns True when a frame was freed.
        """
        victim = None
        for frame in self._frames.values():        # cold end first
            if not frame.pin_count:
                victim = frame
                break
        if victim is None:
            return False
        if victim.dirty:
            # Figure 1: the read now waits for page writes.  Concurrent
            # readers coalesce on one in-flight batch flush rather than
            # each paying a full double-write cycle.
            self.stats["reads_blocked_by_write"] += 1
            telemetry = self.sim.telemetry
            if self._eviction_flush_gate is not None:
                with (telemetry.span("bp.evict_wait", "db",
                                     reason="join-batch")
                      if telemetry.enabled else NULL_SPAN):
                    yield self._eviction_flush_gate
                return False  # retry: the batch freed frames
            if self._flush_batch is not None:
                yield from self._run_eviction_batch(victim)
                return False  # retry: clean frames are now evictable
            victim.pin_count += 1  # nobody else may steal it mid-flush
            try:
                flush_version = victim.version
                with (telemetry.span("bp.evict_wait", "db",
                                     reason="flush-victim")
                      if telemetry.enabled else NULL_SPAN):
                    yield from self._flush_page(victim.key, flush_version)
            finally:
                victim.pin_count -= 1
            if victim.version == flush_version:
                self._set_clean(victim)
            # re-dirtied during the flush: leave it and scan again
            if victim.dirty or self._frames.get(victim.key) is not victim:
                return False
        else:
            self.stats["clean_evictions"] += 1
        if self._frames.get(victim.key) is victim and not victim.pin_count:
            del self._frames[victim.key]
            self._free += 1
            self.stats["evictions"] += 1
            return True
        return False

    def _run_eviction_batch(self, victim):
        """Flush a batch of cold dirty frames on behalf of all waiters."""
        gate = self.sim.event()
        self._eviction_flush_gate = gate
        victims = self.oldest_dirty(self.EVICTION_FLUSH_BATCH)
        if victim not in victims:
            victims.append(victim)
        for frame in victims:
            frame.pin_count += 1
        try:
            yield from self._flush_batch(victims)
        finally:
            for frame in victims:
                frame.pin_count -= 1
            self._eviction_flush_gate = None
            gate.succeed()
        for frame in victims:
            if not frame.dirty:
                self.evict_clean(frame)

    # --- mutation by the engine ---------------------------------------------
    def mark_dirty(self, frame):
        frame.version += 1
        if not frame.dirty:
            frame.dirty = True
            self._dirty += 1
        if frame.first_dirty_at is None:
            frame.first_dirty_at = self.sim.now
        return frame.version

    def mark_clean(self, frame, flushed_version):
        """Called after a successful flush; no-op if re-dirtied since."""
        if frame.version == flushed_version:
            self._set_clean(frame)

    def _set_clean(self, frame):
        if frame.dirty:
            frame.dirty = False
            frame.first_dirty_at = None
            self._dirty -= 1

    def evict_clean(self, frame):
        """Drop a clean resident frame to the free list (cleaner support)."""
        if frame.dirty or frame.pin_count:
            return False
        if self._frames.get(frame.key) is frame:
            del self._frames[frame.key]
            self._free += 1
            self.stats["evictions"] += 1
            return True
        return False

    def install_warm(self, key, version):
        """Install a resident clean page without I/O (warm-up support).

        Mirrors the paper's 600-second LinkBench pre-run that fills the
        InnoDB buffer cache before measurement.
        """
        if key in self._frames:
            self._frames.move_to_end(key)
            return self._frames[key]
        if self._free <= 0:
            coldest = next(iter(self._frames.values()))
            if coldest.dirty or coldest.pin_count:
                return None
            del self._frames[coldest.key]
            self._free += 1
        self._free -= 1
        frame = Frame(key, version)
        self._frames[key] = frame
        return frame
