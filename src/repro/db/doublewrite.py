"""The InnoDB double-write buffer (Section 2.1).

Without device-level atomic writes, a crash mid page write leaves a torn
page that redo logging alone cannot repair [Mohan'95].  InnoDB's answer:
write every dirty page *twice* — first sequentially into a dedicated
double-write area (then fsync), then to its home location (then fsync).
After a crash, any torn home page has an intact copy in the area (or the
area copy is torn and the home page was never touched).

The cost is the paper's target: 2x the data written (halving device
lifetime) and two barriers per flush batch.  On DuraSSD the whole
mechanism can be switched off (the ``doublewrite=False`` configurations
of Figure 5).
"""

from ..sim.resources import Mutex
from ..telemetry.hub import NULL_SPAN


class DoubleWriteBuffer:
    """The double-write area plus its flush protocol."""

    #: InnoDB's double-write area holds 128 pages (2 x 64-page chunks).
    AREA_PAGES = 128

    def __init__(self, sim, pagestore, filesystem):
        self.sim = sim
        self.pagestore = pagestore
        self.filesystem = filesystem
        self.handle = filesystem.create(
            "doublewrite-area", self.AREA_PAGES * pagestore.page_size)
        # One batch streams through the area at a time.
        self._mutex = Mutex(sim)
        # What the area currently holds: slot -> (space, page, version).
        self._area = {}
        self.counters = {"batches": 0, "pages_written": 0, "fsyncs": 2 * 0}
        sim.telemetry.add_probe("dwb.pages_written",
                                lambda: self.counters["pages_written"], "db")

    def flush_pages(self, entries, touched_handles):
        """Durably write ``[(space_id, page_no, version), ...]``.

        1. stream all page images sequentially into the area, fsync;
        2. write each page to its home location, fsync the data files.

        ``touched_handles`` are the space files to fsync in step 2.
        """
        if not entries:
            return
        if len(entries) > self.AREA_PAGES:
            for start in range(0, len(entries), self.AREA_PAGES):
                yield from self.flush_pages(entries[start:start + self.AREA_PAGES],
                                            touched_handles)
            return
        telemetry = self.sim.telemetry
        with (telemetry.span("dwb.flush", "db", n=len(entries))
              if telemetry.enabled else NULL_SPAN):
            yield self._mutex.acquire()
            try:
                # Step 1: sequential write into the double-write area.
                for slot, (space_id, page_no, version) in enumerate(entries):
                    offset = slot * self.pagestore.page_size
                    yield from self.pagestore.write_page_image(
                        self.handle, offset, space_id, page_no, version)
                    self._area[slot] = (space_id, page_no, version)
                yield from self.filesystem.fsync(self.handle)
                # Step 2: in-place writes, then make them durable.
                writers = [self.sim.process(
                    self.pagestore.write_page(space_id, page_no, version))
                    for space_id, page_no, version in entries]
                yield self.sim.all_of(writers)
                for handle in touched_handles:
                    yield from self.filesystem.fsync(handle)
                self.counters["batches"] += 1
                self.counters["pages_written"] += len(entries)
            finally:
                self._mutex.release()

    # --- crash recovery side ---------------------------------------------------
    def persistent_area_pages(self):
        """Intact page images found in the area after a crash.

        Returns ``[(space_id, page_no, version), ...]`` for every slot
        whose image passes verification; torn area copies are skipped
        (their home page was never overwritten, so they are not needed).
        """
        from .pages import try_verify_page
        intact = []
        blocks_per_page = self.pagestore.blocks_per_page
        for slot, (space_id, page_no, _version) in self._area.items():
            values = self.filesystem.persistent_blocks(
                self.handle, slot * self.pagestore.page_size, blocks_per_page)
            version, error = try_verify_page(space_id, page_no, values)
            if error is None and version is not None:
                intact.append((space_id, page_no, version))
        return intact
