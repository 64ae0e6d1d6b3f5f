"""Page-mapping flash translation layer with greedy garbage collection.

The FTL maps *logical slots* (the device's mapping unit — 4KB on
DuraSSD, 8KB on conventional SSDs, Section 3.1.2) onto NAND pages.
When the mapping unit is half a NAND page, two logical slots are paired
into one program operation; under a heavy random write workload the
buffer pool can always find such a pair (Section 3.1.2), which is how
DuraSSD doubles its small-write drain rate.

Physical contents (``_contents``) model what is actually on NAND: data
written by a completed program stays readable until its block is erased,
even after the logical slot is overwritten.  This matters for power
failures — the *mapping table* lives in DRAM, and a volatile device that
loses its un-persisted mapping delta silently reverts logical slots to
their old physical locations (the "dropped write" anomaly of Zheng et
al. [33]), while DuraSSD's recovery manager replays the capacitor-dumped
delta (Section 3.4) and loses nothing.
"""

from collections import deque

from ..telemetry.hub import NULL_SPAN
from .torn import (
    BIT_ROT,
    LOST_WRITE,
    MISDIRECTED_WRITE,
    READ_DISTURB,
    TORN,
    CorruptValue,
    is_corrupt,
)


class FlashFullError(Exception):
    """Raised when the FTL cannot find a free block even after GC."""


#: fallback retry policy when no fault model is attached (it then never
#: triggers: a fault-free array succeeds on the first attempt).
DEFAULT_MAX_RETRIES = 3
DEFAULT_RETRY_BACKOFF = 50e-6
#: hard cap on program attempts — each retry targets a *fresh* page, so
#: hitting this means the array is returning garbage systematically.
PROGRAM_ATTEMPT_CAP = 8


class PageMappingFTL:
    """A log-structured, page-mapped FTL over a :class:`FlashArray`."""

    #: run GC when the pool of free blocks drops below this many per lane
    GC_LOW_WATERMARK_PER_LANE = 2

    def __init__(self, sim, array, mapping_unit=None, overprovision=0.07,
                 victim_policy="greedy"):
        if victim_policy not in ("greedy", "cost-benefit"):
            raise ValueError("victim_policy must be 'greedy' or "
                             "'cost-benefit': %r" % victim_policy)
        self.sim = sim
        self.array = array
        #: GC victim selection: plain greedy (min valid) or Kawaguchi's
        #: cost-benefit ((1-u)/2u x age), which spares young hot blocks
        #: and spreads wear under skewed workloads.
        self.victim_policy = victim_policy
        geometry = array.geometry
        if mapping_unit is None:
            mapping_unit = geometry.page_size
        if geometry.page_size % mapping_unit:
            raise ValueError("mapping unit must divide the NAND page size")
        self.mapping_unit = mapping_unit
        self.slots_per_page = geometry.page_size // mapping_unit
        self.overprovision = overprovision

        total_slots = geometry.total_pages * self.slots_per_page
        #: slots exposed to the host; the rest is over-provisioned space
        self.exported_slots = int(total_slots * (1.0 - overprovision))

        # mapping: logical slot -> physical slot number (ppn*spp + sub)
        self._mapping = {}
        # last-persisted value of entries dirtied since the last persist;
        # missing key means the entry is clean.  Values are the *old*
        # physical slot (None when the entry was unmapped).
        self._shadow = {}
        # physical slot -> (logical slot, value): whatever a completed
        # program put there, kept until the containing block is erased.
        self._contents = {}

        nblocks = geometry.total_blocks
        self._valid_count = [0] * nblocks
        self._erase_count = [0] * nblocks
        self._block_mtime = [0.0] * nblocks
        self._block_free = [True] * nblocks
        self._free_by_lane = [deque() for _ in range(array.lanes)]
        for block in range(nblocks):
            self._free_by_lane[array.lane_of_block(block)].append(block)
        self._free_total = nblocks
        # per-lane active block: (block, next page offset within block)
        self._active = {}
        self._rr_lane = 0
        self._gc_running = False
        # Bumped by a power cut: in-flight programs that "complete" after
        # the cut (in event order) belong to a dead epoch and must not
        # commit anything.
        self._epoch = 0
        # Bad-block management: factory-marked and grown bad blocks are
        # never allocated again; per-block program-failure tallies decide
        # when a block graduates from "transient fault" to "grown bad".
        self._bad_blocks = set()
        self._program_failures = {}
        #: silent-corruption oracle (repro.failures.corruption), or None;
        #: consulted per committed host write and per host read.
        self.corruption_model = None
        self.counters = {"gc_runs": 0, "gc_moved_slots": 0,
                         "host_slot_writes": 0, "nand_page_writes": 0,
                         "program_retries": 0, "read_retries": 0,
                         "erase_retries": 0, "uncorrectable_reads": 0,
                         "retired_blocks": 0}

    # --- introspection ----------------------------------------------------
    @property
    def dirty_mapping_entries(self):
        """Number of mapping entries not yet persisted."""
        return len(self._shadow)

    @property
    def free_blocks(self):
        return self._free_total

    @property
    def bad_blocks(self):
        """Retired (factory or grown) blocks, never allocated again."""
        return frozenset(self._bad_blocks)

    # --- retry policy (from the attached fault model, if any) -------------
    def _max_retries(self):
        model = self.array.fault_model
        return model.config.max_retries if model is not None \
            else DEFAULT_MAX_RETRIES

    def _retry_backoff(self):
        model = self.array.fault_model
        return model.config.retry_backoff if model is not None \
            else DEFAULT_RETRY_BACKOFF

    def _failures_to_retire(self):
        model = self.array.fault_model
        return model.config.program_failures_to_retire if model is not None \
            else 2

    def wear(self):
        """(min, max, total) erase counts across blocks."""
        if not self._erase_count:
            return (0, 0, 0)
        return (min(self._erase_count), max(self._erase_count),
                sum(self._erase_count))

    def lookup(self, lslot):
        """Current physical slot for a logical slot, or None."""
        return self._mapping.get(lslot)

    def stored_value(self, lslot):
        """The value currently reachable for ``lslot`` (no timing).

        A mapping entry whose physical data was reclaimed (possible only
        after a volatile mapping rollback) reads as TORN — the on-device
        metadata points at garbage, the [33] "metadata corruption" class.
        """
        pslot = self._mapping.get(lslot)
        if pslot is None:
            return None
        entry = self._contents.get(pslot)
        if entry is None or entry[0] != lslot:
            return TORN
        return entry[1]

    # --- host-visible operations (generators) -----------------------------
    def read_slot(self, lslot):
        """Read one logical slot; yields for NAND time, returns the value.

        Transient read errors are retried with backoff up to the fault
        model's budget; a read that stays uncorrectable returns TORN —
        the host-visible shape of an ECC failure.
        """
        pslot = self._mapping.get(lslot)
        if pslot is None:
            return None
        ppn = pslot // self.slots_per_page
        telemetry = self.sim.telemetry
        with (telemetry.span("flash.read", "flash", lslot=lslot, ppn=ppn)
              if telemetry.enabled else NULL_SPAN) as span:
            ok = yield from self.array.read(ppn, self.mapping_unit)
            attempts = 1
            while not ok and attempts <= self._max_retries():
                self.counters["read_retries"] += 1
                yield self._retry_backoff() * attempts
                ok = yield from self.array.read(ppn, self.mapping_unit)
                attempts += 1
            if not ok:
                self.counters["uncorrectable_reads"] += 1
                if telemetry.enabled:
                    span.annotate(uncorrectable=True)
                return TORN
        value = self.stored_value(lslot)
        model = self.corruption_model
        if model is not None and model.read_disturbs(self.sim.now):
            # Read disturb degrades the page just sensed: this read
            # still returns good data, every later one sees garbage.
            entry = self._contents.get(pslot)
            if entry is not None and entry[0] == lslot \
                    and not is_corrupt(entry[1]):
                self._contents[pslot] = (lslot, CorruptValue(READ_DISTURB))
        return value

    def write_slots(self, items):
        """Write ``[(logical_slot, value), ...]``, pairing slots into NAND
        pages and programming the groups on parallel lanes.

        Returns when every program has completed and the (in-DRAM)
        mapping has been updated.
        """
        if not items:
            return
        for lslot, _value in items:
            if not 0 <= lslot < self.exported_slots:
                raise ValueError("logical slot %d out of range" % lslot)
        telemetry = self.sim.telemetry
        with (telemetry.span("ftl.write_slots", "flash", slots=len(items))
              if telemetry.enabled else NULL_SPAN):
            low = self.GC_LOW_WATERMARK_PER_LANE * self.array.lanes
            if self._free_total < low:
                yield from self._maybe_collect(low)
            groups = [items[i:i + self.slots_per_page]
                      for i in range(0, len(items), self.slots_per_page)]
            programs = [self.sim.process(self._program_group(group))
                        for group in groups]
            yield self.sim.all_of(programs)
        self.counters["host_slot_writes"] += len(items)

    def _program_group(self, group, gc=False):
        epoch = self._epoch
        attempts = 0
        while True:
            ppn = self._allocate_page()
            block = self.array.geometry.block_of_page(ppn)
            # Count the incoming slots valid up front so GC never picks
            # the page mid-program; the commit refines bookkeeping after.
            self._valid_count[block] += len(group)
            telemetry = self.sim.telemetry
            with (telemetry.span("flash.program", "flash", ppn=ppn,
                                 slots=len(group))
                  if telemetry.enabled else NULL_SPAN):
                ok = yield from self.array.program(ppn)
            if epoch != self._epoch:
                # A power cut landed while this page was programming: the
                # data is shorn and nothing was committed.  Valid counts
                # were rebuilt from scratch at the cut, so no adjustment.
                return
            if ok:
                break
            # Program-status failure: the page is wasted, the data is
            # retried on a fresh page (possibly a fresh block), and the
            # block is retired once it fails often enough (grown bad).
            self._valid_count[block] -= len(group)
            self.counters["program_retries"] += 1
            failures = self._program_failures.get(block, 0) + 1
            self._program_failures[block] = failures
            if failures >= self._failures_to_retire():
                self.retire_block(block)
            attempts += 1
            if attempts >= PROGRAM_ATTEMPT_CAP:
                from ..failures.faults import FlashFaultError
                raise FlashFaultError(
                    "program failed on %d distinct pages" % attempts)
            yield self._retry_backoff() * attempts
            if epoch != self._epoch:
                return
        model = None if gc else self.corruption_model
        for sub, (lslot, value) in enumerate(group):
            pslot = ppn * self.slots_per_page + sub
            kind = model.write_outcome(self.sim.now, lslot) \
                if model is not None else None
            if kind == LOST_WRITE:
                # Acked but never persisted: the mapping keeps pointing
                # at the old copy, so the slot silently reads back stale.
                self._valid_count[block] -= 1
                continue
            if kind == MISDIRECTED_WRITE:
                # The data lands at an aliased slot: the target keeps
                # its old contents, the alias is overwritten with
                # foreign data — both sides read clean-but-wrong.
                alias = model.misdirect_target(lslot, self.exported_slots)
                self._commit_slot(alias, pslot, value)
                continue
            if kind == BIT_ROT:
                # Retention decay: the programmed page degrades at rest
                # and reads back as uncorrectable garbage.
                self._commit_slot(lslot, pslot, CorruptValue(BIT_ROT))
                continue
            self._commit_slot(lslot, pslot, value)
        self.counters["nand_page_writes"] += 1

    def _commit_slot(self, lslot, pslot, value):
        old = self._mapping.get(lslot)
        if old is not None:
            self._decrement_valid(old)
        if lslot not in self._shadow:
            self._shadow[lslot] = old  # None means "was unmapped"
        self._mapping[lslot] = pslot
        self._contents[pslot] = (lslot, value)

    def _decrement_valid(self, pslot):
        block = self._block_of_slot(pslot)
        self._valid_count[block] -= 1

    def _block_of_slot(self, pslot):
        return (pslot // self.slots_per_page //
                self.array.geometry.pages_per_block)

    # --- bad-block management -----------------------------------------------
    def retire_block(self, block):
        """Retire ``block`` (factory-marked or grown bad).

        The block is removed from the free pools and from the active
        allocation frontier; whatever it already holds stays readable
        (read-only retirement, as real firmware does) until GC-free space
        is not needed from it — it is simply never erased or programmed
        again.
        """
        if block in self._bad_blocks:
            return
        self._bad_blocks.add(block)
        self.counters["retired_blocks"] += 1
        lane = self.array.lane_of_block(block)
        pool = self._free_by_lane[lane]
        if block in pool:
            pool.remove(block)
            self._free_total -= 1
            self._block_free[block] = False
        for active_lane, active in list(self._active.items()):
            if active[0] == block:
                del self._active[active_lane]
        self.sim.telemetry.instant("ftl.retire_block", "flash", block=block,
                                   grown=block in self._program_failures)

    # --- power failure ------------------------------------------------------
    def sever_inflight_programs(self):
        """Power cut: abort every in-flight program and rebuild counts."""
        self._epoch += 1
        self.array.in_flight.clear()
        self._rebuild_valid_counts()

    def _rebuild_valid_counts(self):
        nblocks = self.array.geometry.total_blocks
        self._valid_count = [0] * nblocks
        for lslot, pslot in self._mapping.items():
            entry = self._contents.get(pslot)
            if entry is not None and entry[0] == lslot:
                self._valid_count[self._block_of_slot(pslot)] += 1

    # --- mapping persistence ----------------------------------------------
    def export_mapping_delta(self):
        """{logical slot: current physical slot or None} for every dirty
        entry — what DuraSSD dumps under capacitor power (Section 3.4.1,
        the incremental-backup technique)."""
        return {lslot: self._mapping.get(lslot) for lslot in self._shadow}

    def apply_mapping_delta(self, delta):
        """Recovery replay: merge a dumped delta into the mapping table."""
        for lslot, pslot in delta.items():
            if pslot is None:
                self._mapping.pop(lslot, None)
            else:
                self._mapping[lslot] = pslot
        self._rebuild_valid_counts()

    def mark_mapping_persisted(self):
        """The device persisted the mapping delta; forget the shadow."""
        self._shadow.clear()

    def revert_unpersisted_mapping(self):
        """Power failure on a volatile device: roll the mapping table back
        to its last persisted state.  Acked writes whose mapping delta was
        still in DRAM silently vanish — the 'dropped write' anomaly."""
        for lslot, old in self._shadow.items():
            if old is None:
                self._mapping.pop(lslot, None)
            else:
                self._mapping[lslot] = old
        self._shadow.clear()
        self._rebuild_valid_counts()

    # --- allocation & garbage collection -----------------------------------
    def _allocate_page(self):
        lane = self._rr_lane
        self._rr_lane = (self._rr_lane + 1) % self.array.lanes
        active = self._active.get(lane)
        pages_per_block = self.array.geometry.pages_per_block
        if active is None or active[1] >= pages_per_block:
            block = self._take_free_block(lane)
            active = [block, 0]
            self._active[lane] = active
        ppn = active[0] * pages_per_block + active[1]
        active[1] += 1
        self._block_mtime[active[0]] = self.sim.now
        return ppn

    def _take_free_block(self, lane):
        pool = self._free_by_lane[lane]
        if not pool:
            pool = max(self._free_by_lane, key=len)
        if not pool:
            raise FlashFullError("no free NAND blocks")
        # Belt and braces: retired blocks were already pulled from the
        # pools, but a block retired while queued elsewhere is skipped.
        while pool:
            block = pool.popleft()
            if block not in self._bad_blocks:
                self._free_total -= 1
                self._block_free[block] = False
                return block
            self._free_total -= 1
            self._block_free[block] = False
        raise FlashFullError("no free NAND blocks outside the bad list")

    def _maybe_collect(self, low):
        """Collect victims while fewer than ``low`` blocks are free."""
        while self._free_total < low and not self._gc_running:
            self._gc_running = True
            try:
                moved = yield from self._collect_one()
            finally:
                self._gc_running = False
            if moved is None:
                break

    def _collect_one(self):
        victim = self._pick_victim()
        if victim is None:
            return None
        epoch = self._epoch
        self.counters["gc_runs"] += 1
        spp = self.slots_per_page
        pages_per_block = self.array.geometry.pages_per_block
        start = victim * pages_per_block * spp
        end = start + pages_per_block * spp
        live_items = []
        for pslot in range(start, end):
            entry = self._contents.get(pslot)
            if entry is not None and self._mapping.get(entry[0]) == pslot:
                live_items.append(entry)
        telemetry = self.sim.telemetry
        with (telemetry.span("ftl.gc", "flash", victim=victim,
                             moved=len(live_items))
              if telemetry.enabled else NULL_SPAN):
            if live_items:
                groups = [live_items[i:i + spp]
                          for i in range(0, len(live_items), spp)]
                # GC relocations are firmware-internal copies, not host
                # writes: the corruption oracle does not draw for them
                # (a rotten slot is relocated as-is, so decay persists).
                programs = [self.sim.process(self._program_group(group,
                                                                 gc=True))
                            for group in groups]
                yield self.sim.all_of(programs)
                self.counters["gc_moved_slots"] += len(live_items)
            if epoch != self._epoch:
                # Power cut during relocation: the victim must not be
                # erased, its data may still be the only reachable copy.
                return None
            ok = yield from self.array.erase(victim)
            attempts = 1
            while not ok and attempts <= self._max_retries():
                self.counters["erase_retries"] += 1
                yield self._retry_backoff() * attempts
                if epoch != self._epoch:
                    return None
                ok = yield from self.array.erase(victim)
                attempts += 1
        if not ok:
            # Erase failure that retries could not mask: the block is
            # grown-bad.  Its live data was already relocated, so retire
            # it instead of returning it to the free pool.
            self.retire_block(victim)
            self._valid_count[victim] = 0
            for pslot in range(start, end):
                self._contents.pop(pslot, None)
            return len(live_items)
        for pslot in range(start, end):
            self._contents.pop(pslot, None)
        self._erase_count[victim] += 1
        self._valid_count[victim] = 0
        lane = self.array.lane_of_block(victim)
        self._free_by_lane[lane].append(victim)
        self._free_total += 1
        self._block_free[victim] = True
        return len(live_items)

    def _pick_victim(self):
        """Choose a GC victim according to ``victim_policy``."""
        active_blocks = {entry[0] for entry in self._active.values()}
        pages_per_block = self.array.geometry.pages_per_block
        max_slots = pages_per_block * self.slots_per_page
        best, best_score = None, None
        for block, valid in enumerate(self._valid_count):
            if block in active_blocks:
                continue
            if self._block_free[block]:
                continue
            if block in self._bad_blocks:
                continue
            if valid >= max_slots:
                continue
            if self.victim_policy == "greedy":
                score = -valid  # fewest valid slots wins
                if valid == 0:
                    return block
            else:
                utilisation = valid / max_slots
                age = max(1e-9, self.sim.now - self._block_mtime[block])
                score = (1.0 - utilisation) / (2.0 * max(utilisation, 1e-9)) \
                    * age
            if best_score is None or score > best_score:
                best, best_score = block, score
        return best
