"""A conventional flash SSD with a *volatile* DRAM write cache.

This is the SSD-A / SSD-B class of device from Table 1: fast while the
cache is enabled, but an unexpected power cut destroys everything that
was acked-into-cache and not yet flushed, plus any mapping-table delta
that was never persisted.  Running it "safely" (cache off, or flushing
on every fsync) costs exactly the throughput the paper measures.

DuraSSD subclasses this device in :mod:`repro.core.durassd`, replacing
the volatile power-failure behaviour with the capacitor-backed dump.
"""

from typing import NamedTuple

from ..flash import FlashArray, FlashGeometry, FlashTiming, PageMappingFTL
from ..flash.torn import TORN
from ..sim import units
from ..sim.record import Record
from .base import StorageDevice


class _SSDSpecFields(NamedTuple):
    name: str
    capacity_bytes: int = 4 * units.GIB
    # Total device DRAM; most of it holds the mapping table (the
    # paper's 480GB drive needs 480MB of map for 4KB pages), only
    # ``write_buffer_bytes`` of it buffers writes (Section 3.1.1).
    cache_bytes: int = 512 * units.MIB
    write_buffer_bytes: int = 8 * units.MIB
    mapping_unit: int = 8 * units.KIB
    nand_page: int = 8 * units.KIB
    lanes: int = 16
    program_time: float = 1.3 * units.MSEC
    read_sense: float = 0.075 * units.MSEC
    read_transfer_per_kib: float = 0.019 * units.MSEC
    erase_time: float = 2.0 * units.MSEC
    link_bandwidth: float = 600 * units.MIB
    command_overhead: float = 55 * units.USEC
    flush_fixed: float = 1.9 * units.MSEC
    map_persist_flush: float = 0.5 * units.MSEC
    map_persist_writethrough: float = 0.66 * units.MSEC
    flush_cache_off_cost: float = 1.9 * units.MSEC
    cache_hit_time: float = 5 * units.USEC
    overprovision: float = 0.07


class SSDSpec(Record, _SSDSpecFields):
    """Everything that differentiates one SSD model from another.

    Timing fields are calibrated against Table 1 / Table 2 of the paper
    (see ``presets.py`` for the values and their derivations).
    """

    __slots__ = ()


class FlashSSD(StorageDevice):
    """Volatile-write-cache SSD on top of the flash substrate."""

    def __init__(self, sim, spec, cache_enabled=True):
        super().__init__(sim, spec, spec.write_buffer_bytes, cache_enabled)
        geometry = FlashGeometry.scaled(
            # Leave headroom over the exported LBA space for OP blocks.
            int(spec.capacity_bytes * (1.0 + spec.overprovision) * 1.05),
            page_size=spec.nand_page)
        timing = FlashTiming(program=spec.program_time,
                             read_sense=spec.read_sense,
                             read_transfer_per_kib=spec.read_transfer_per_kib,
                             erase=spec.erase_time)
        self.array = FlashArray(sim, geometry, timing, lanes=spec.lanes)
        self.ftl = PageMappingFTL(sim, self.array,
                                  mapping_unit=spec.mapping_unit,
                                  overprovision=spec.overprovision)
        # LBAs are 4KiB; the FTL's logical slot is the mapping unit.
        self._lbas_per_slot = max(1, spec.mapping_unit // units.LBA_SIZE)
        self.exported_lbas = min(
            spec.capacity_bytes // units.LBA_SIZE,
            self.ftl.exported_slots * (spec.mapping_unit // units.LBA_SIZE)
            if spec.mapping_unit >= units.LBA_SIZE else 0)

        telemetry = sim.telemetry
        telemetry.add_probe("device.cache_occupancy",
                            lambda: len(self.cache), "device",
                            device=self.name)
        telemetry.add_probe("device.cache_dedup_hits",
                            lambda: self.cache.dedup_hits, "device",
                            device=self.name)
        telemetry.add_probe("ftl.dirty_mapping",
                            lambda: self.ftl.dirty_mapping_entries, "flash",
                            device=self.name)
        telemetry.add_probe("ftl.free_blocks",
                            lambda: self.ftl.free_blocks, "flash",
                            device=self.name)
        telemetry.add_probe("ftl.gc_runs",
                            lambda: self.ftl.counters["gc_runs"], "flash",
                            device=self.name)
        metrics = telemetry.metrics
        metrics.counter("device.cache_dedup_hits",
                        fn=lambda: self.cache.dedup_hits, device=self.name)
        metrics.counter("flash.gc_runs",
                        fn=lambda: self.ftl.counters["gc_runs"],
                        device=self.name)
        metrics.counter("flash.gc_moved_slots",
                        fn=lambda: self.ftl.counters["gc_moved_slots"],
                        device=self.name)
        metrics.counter("flash.host_slot_writes",
                        fn=lambda: self.ftl.counters["host_slot_writes"],
                        device=self.name)
        metrics.counter("flash.erase_total",
                        fn=lambda: self.ftl.wear()[2], device=self.name)
        metrics.counter("flash.grown_bad_blocks",
                        fn=lambda: self.ftl.counters["retired_blocks"],
                        device=self.name)
        metrics.gauge("flash.free_blocks",
                      fn=lambda: self.ftl.free_blocks, device=self.name)
        metrics.gauge("flash.dirty_mapping",
                      fn=lambda: self.ftl.dirty_mapping_entries,
                      device=self.name)
        metrics.gauge("flash.waf",
                      fn=self.write_amplification, device=self.name)
        if cache_enabled:
            sim.process(self._flusher())

    def inject_faults(self, fault_model):
        """Attach a transient-fault model and retire its factory bad
        blocks (:mod:`repro.failures.faults`)."""
        self.array.attach_fault_model(fault_model)
        for block in fault_model.pick_initial_bad_blocks(
                self.array.geometry.total_blocks):
            self.ftl.retire_block(block)
        return fault_model

    def inject_corruption(self, model):
        """Attach a silent-corruption model beneath the FTL
        (:mod:`repro.failures.corruption`)."""
        self.corruption = model
        self.ftl.corruption_model = model
        return model

    # --- health introspection -----------------------------------------------
    #: rated program/erase cycles per block for the media-wear estimate
    MEDIA_ENDURANCE_CYCLES = 3000

    def write_amplification(self):
        """Slots programmed per host slot written (1.0 before any GC)."""
        host = self.ftl.counters["host_slot_writes"]
        if not host:
            return 1.0
        return (host + self.ftl.counters["gc_moved_slots"]) / host

    def smart(self):
        wear_min, wear_max, wear_total = self.ftl.wear()
        report = super().smart()
        report["media"] = {
            "erase_count_min": wear_min,
            "erase_count_max": wear_max,
            "erase_count_total": wear_total,
            "media_wear_pct": 100.0 * wear_max / self.MEDIA_ENDURANCE_CYCLES,
            "free_blocks": self.ftl.free_blocks,
            "grown_bad_blocks": self.ftl.counters["retired_blocks"],
            "write_amplification": self.write_amplification(),
            "gc_runs": self.ftl.counters["gc_runs"],
        }
        report["mapping"] = {
            "dirty_entries": self.ftl.dirty_mapping_entries,
        }
        if self.corruption is not None:
            report["corruption"] = dict(self.corruption.counters)
        return report

    # --- LBA <-> FTL slot mapping -------------------------------------------
    # The FTL's mapping unit may be 8KB (two LBAs per slot, conventional
    # SSDs) or 4KB (one LBA per slot, DuraSSD).  With an 8KB unit a
    # lone-LBA write still rewrites the whole slot; we model the cost by
    # issuing the program for the containing slot and storing per-LBA
    # values inside a composite slot value.

    def _slot_of_lba(self, lba):
        return lba // self._lbas_per_slot

    # --- write path -----------------------------------------------------------
    def _write_through(self, request):
        # The FTL work runs in its own process so a host abort unwinds
        # the *service* only: FTL/GC invariants never see Interrupted,
        # and — as on a real device — an aborted command's NAND programs
        # may still land (unacked; soft_reset quiesces them before any
        # retry can be overtaken by its aborted predecessor).
        writer = self.sim.process(self._write_through_nand(request))
        try:
            yield writer
        except BaseException:
            if writer.is_alive:
                # Orphaned: observe its eventual outcome so a late FTL
                # failure cannot crash the simulation unhandled.
                writer.callbacks.append(lambda event: None)
            raise

    def _write_through_nand(self, request):
        items = self._slot_items(request)
        yield from self.ftl.write_slots(items)
        # Conventional write-through persists the mapping delta for every
        # command — the dominant cost the paper attributes to "cache off".
        yield self.sim.timeout(self.spec.map_persist_writethrough)
        self.ftl.mark_mapping_persisted()

    def _slot_items(self, request):
        """Convert an LBA-range write into FTL slot writes.

        For multi-LBA slots the slot value is a dict of per-LBA values,
        merged over whatever the slot already holds.
        """
        if self._lbas_per_slot == 1:
            return [(lba, request.payload[index])
                    for index, lba in enumerate(request.blocks)]
        by_slot = {}
        for index, lba in enumerate(request.blocks):
            slot = self._slot_of_lba(lba)
            merged = by_slot.get(slot)
            if merged is None:
                merged = self._slot_base_content(slot)
                by_slot[slot] = merged
            merged[lba] = request.payload[index]
        return list(by_slot.items())

    def _slot_base_content(self, slot):
        existing = self.ftl.stored_value(slot)
        if isinstance(existing, dict):
            return dict(existing)
        return {}

    # --- read path -------------------------------------------------------------
    def _read(self, request):
        self._check_range(request)
        values = []
        flash_lbas = []
        for lba in request.blocks:
            if self.cache_enabled and lba in self.cache:
                values.append(self.cache.get(lba))
            else:
                values.append(None)
                flash_lbas.append((len(values) - 1, lba))
        if flash_lbas:
            readers = [self.sim.process(self._read_slot_for(lba))
                       for _index, lba in flash_lbas]
            results = yield self.sim.all_of(readers)
            for (index, _lba), value in zip(flash_lbas, results):
                values[index] = value
        else:
            yield self.sim.timeout(self.spec.cache_hit_time)
        return values

    def _read_slot_for(self, lba):
        slot = self._slot_of_lba(lba)
        value = yield from self.ftl.read_slot(slot)
        return self._extract_lba(value, lba)

    def _extract_lba(self, slot_value, lba):
        if self._lbas_per_slot == 1:
            return slot_value
        if slot_value is TORN:
            return TORN
        if isinstance(slot_value, dict):
            return slot_value.get(lba)
        return None

    # --- flusher ----------------------------------------------------------------
    def _flush_batch_slots(self):
        return self.spec.lanes * self.ftl.slots_per_page * self._lbas_per_slot

    def _flush_batch(self, batch):
        items = self._batch_slot_items(batch)
        yield from self.ftl.write_slots(items)

    def _batch_slot_items(self, batch):
        if self._lbas_per_slot == 1:
            return [(lba, value) for lba, _sequence, value in batch]
        by_slot = {}
        for lba, _sequence, value in batch:
            slot = self._slot_of_lba(lba)
            merged = by_slot.get(slot)
            if merged is None:
                merged = self._slot_base_content(slot)
                by_slot[slot] = merged
            merged[lba] = value
        return list(by_slot.items())

    # --- flush-cache command -------------------------------------------------
    def _commit_flush(self):
        yield self.sim.timeout(self.spec.flush_fixed + self.spec.map_persist_flush)
        self.ftl.mark_mapping_persisted()

    # --- gray failures ---------------------------------------------------------
    def _quiesce(self):
        """Bounded wait for orphaned NAND programs to land (soft reset).

        A command aborted mid-write-through leaves its programs running
        in the background; letting them finish before the reset returns
        guarantees a retried command's program is issued strictly after
        its aborted predecessor's, so the mapping can never regress to
        stale data.
        """
        for _ in range(8):
            if not self.array.in_flight:
                return
            yield self.sim.timeout(self.spec.program_time)

    # --- power failure ----------------------------------------------------------
    def power_fail(self):
        super().power_fail()
        # Tear whatever NAND programs were in flight at the cut instant.
        self.ftl.sever_inflight_programs()
        # Volatile DRAM: buffered writes and the mapping delta vanish.
        self.cache.clear()
        self.ftl.revert_unpersisted_mapping()

    def install_persistent(self, lba, value):
        if self.cache_enabled and lba in self.cache:
            # A (possibly durable, replayed) cached copy would shadow the
            # installed value: recovery overrides it in place.
            self.cache.put(lba, value)
        slot = self._slot_of_lba(lba)
        if self._lbas_per_slot == 1:
            slot_value = value
        else:
            slot_value = self._slot_base_content(slot)
            slot_value[lba] = value
        ppn = self.ftl._allocate_page()
        pslot = ppn * self.ftl.slots_per_page
        self.ftl._commit_slot(slot, pslot, slot_value)
        self.ftl._shadow.pop(slot, None)  # installed durably: not dirty

    def read_persistent(self, lba):
        if self.cache_enabled and lba in self.cache:
            # Only a durable cache would still hold data after reboot; for
            # the volatile device the cache was cleared at power_fail.
            return self.cache.get(lba)
        slot = self._slot_of_lba(lba)
        return self._extract_lba(self.ftl.stored_value(slot), lba)
