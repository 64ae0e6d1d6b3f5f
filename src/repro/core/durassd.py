"""DuraSSD: a flash SSD whose write cache survives power failure.

Architecturally (Figure 3 of the paper) the device is a conventional
SSD — host interface, DRAM cache, flusher, page-mapping FTL — plus four
additions that together turn "fast but unsafe write-back" into "fast
*and* safe":

* a :class:`~repro.core.capacitor.CapacitorBank` that can push the
  buffer pool and the modified mapping entries to a dump area,
* an :class:`~repro.core.atomic_writer.AtomicWriter` that makes every
  write *command* (not just every NAND page) all-or-nothing,
* flow control that keeps dirty state within the capacitor budget,
* a :class:`~repro.core.recovery.RecoveryManager` that replays the dump
  idempotently at reboot.

Everything else — timing, FTL, flusher — is inherited unchanged from
:class:`repro.devices.ssd.FlashSSD`, which is the honest way to say
"DuraSSD is a normal SSD with five dollars of capacitors and firmware".
"""

from ..devices.base import WRITE
from ..devices.ssd import FlashSSD
from ..sim import units
from .atomic_writer import AtomicWriter
from .capacitor import CapacitorBank
from .recovery import RecoveryManager

#: DRAM reserved for the incremental mapping-table backup inside the
#: capacitor budget (8 bytes per dirty entry; this covers ~500K entries).
MAPPING_DUMP_RESERVE = 4 * units.MIB


class DuraSSD(FlashSSD):
    """The capacitor-backed prototype of the paper."""

    def __init__(self, sim, spec, cache_enabled=True, capacitors=None):
        super().__init__(sim, spec, cache_enabled=cache_enabled)
        self.capacitors = capacitors or CapacitorBank()
        # Flow control (Section 3.1.1): never hold more dirty data than
        # the capacitors can dump, after reserving room for the mapping
        # delta.  The write path blocks at this limit, so the dump below
        # fits *by construction* — asserted by the failure checker.
        budget_slots = max(1, int((self.capacitors.dump_budget_bytes -
                                   MAPPING_DUMP_RESERVE) // units.LBA_SIZE))
        self._nominal_cache_slots = self.cache.capacity_slots
        self.cache.capacity_slots = min(self.cache.capacity_slots, budget_slots)
        # Durability state machine: DURABLE until the capacitor bank can
        # no longer cover a dump, then permanently DEMOTED — the device
        # stops claiming a durable cache and behaves like a conventional
        # (barrier-honoring, volatile-cache) SSD instead of lying.
        self.durable = True
        self.atomic_writer = AtomicWriter()
        self.recovery_manager = RecoveryManager(self.capacitors,
                                                block_bytes=units.LBA_SIZE)
        # Data of commands still streaming from the host: visible to the
        # dump logic only as "incomplete, must be discarded" (Section 3.2).
        self._staging = {}
        sim.telemetry.add_probe(
            "device.capacitor_headroom",
            lambda: (self.capacitors.dump_budget_bytes - MAPPING_DUMP_RESERVE
                     - len(self.cache) * units.LBA_SIZE),
            "device", device=self.name)
        metrics = sim.telemetry.metrics
        metrics.gauge("device.capacitor_health",
                      fn=lambda: self.capacitors.health, device=self.name)
        metrics.gauge("device.durable",
                      fn=lambda: 1.0 if self.durable else 0.0,
                      device=self.name)

    def smart(self):
        report = super().smart()
        report["durability"] = self.durability_report()
        return report

    # --- capacitor degradation ---------------------------------------------
    @property
    def claims_durable_cache(self):
        return self.durable

    def set_capacitor_health(self, health):
        """Record a capacitor-bank measurement and react to it.

        Graceful degradation: while the (shrunken) budget still covers
        the mapping reserve plus at least one buffered block, flow
        control tightens to the new budget and the device stays durable.
        Below that dump-energy threshold the device *demotes itself* —
        it keeps running, but stops claiming that acked writes survive
        power loss; hosts must re-enable barriers.  Returns whether the
        device still claims durability.
        """
        self.capacitors.degrade_to(health)
        return self._reassess_durability()

    def _reassess_durability(self):
        usable = self.capacitors.dump_budget_bytes - MAPPING_DUMP_RESERVE
        budget_slots = int(usable // units.LBA_SIZE)
        if budget_slots < 1:
            if self.durable:
                self.durable = False
                self.sim.telemetry.instant(
                    "durassd.demote", "device", device=self.name,
                    capacitor_health=self.capacitors.health,
                    dump_budget_bytes=self.capacitors.dump_budget_bytes)
            return False
        if self.durable:
            self.cache.capacity_slots = min(self._nominal_cache_slots,
                                            budget_slots)
            self._wake_flusher()
        return self.durable

    # --- atomic writer hooks ---------------------------------------------
    def _on_command_start(self, request):
        if request.op == WRITE:
            self.atomic_writer.begin(request)
            self._staging[id(request)] = request

    def _on_command_end(self, request):
        if request.op == WRITE:
            self._staging.pop(id(request), None)
            self.atomic_writer.complete(request)

    def _on_command_abort(self, request):
        # An aborted command rolls back exactly like an incomplete one at
        # power-fail time: its half-streamed data never becomes visible,
        # so the retry is all-or-nothing from the host's point of view.
        if request.op == WRITE:
            self._staging.pop(id(request), None)
            self.atomic_writer.abandon(request)

    # --- power failure: dump under capacitor power -------------------------
    def power_fail(self):
        if not self.durable:
            # Demoted: the bank cannot fund a dump.  Honest volatile
            # behaviour — the cache and un-persisted mapping vanish —
            # which is exactly what the device advertised since demotion.
            self.atomic_writer.discard_incomplete()
            self._staging.clear()
            return FlashSSD.power_fail(self)
        # Freeze NAND exactly like any SSD: in-flight programs shear.
        self.powered = False
        self.ftl.sever_inflight_programs()
        # Incomplete commands: their half-streamed data is discarded, so
        # they roll back as a unit (atomicity of incomplete commands).
        self.atomic_writer.discard_incomplete()
        self._staging.clear()
        # Complete commands: buffer pool + mapping delta go to the dump
        # area.  Then DRAM is genuinely gone — recovery must rebuild the
        # device from the dump alone, which is what makes the replay an
        # honest reproduction rather than a no-op.
        image = self.recovery_manager.dump(
            self.cache.snapshot(), self.ftl.export_mapping_delta())
        self.sim.telemetry.instant(
            "durassd.dump", "device", device=self.name,
            cached_pages=len(image.buffer_snapshot),
            mapping_entries=len(image.mapping_delta))
        self.cache.clear()
        self.ftl.revert_unpersisted_mapping()
        return image

    def reboot(self, interrupt_recovery_after=None):
        """Power on, recover (Section 3.4.2); returns recovery seconds.

        ``interrupt_recovery_after`` (torture-harness hook) cuts the
        replay off after that many recovered items, leaving the device in
        the mid-recovery state a nested power failure would produce; the
        emergency flag stays set and the next reboot recovers in full.
        """
        super().reboot()
        recovery_time = self.recovery_manager.replay(
            self, interrupt_after=interrupt_recovery_after)
        self.sim.telemetry.instant(
            "durassd.replay", "device", device=self.name,
            recovery_seconds=recovery_time,
            interrupted=self.recovery_manager.needs_recovery())
        if len(self.cache):
            self._wake_flusher()
        return recovery_time

    def read_persistent(self, lba):
        if self.recovery_manager.needs_recovery():
            raise RuntimeError(
                "device has an emergency-shutdown flag set: reboot() first")
        return super().read_persistent(lba)

    # --- reporting -----------------------------------------------------------
    def durability_report(self):
        """Counters the tests and ablation benches assert on."""
        return {
            "durable_mode": self.durable,
            "capacitor_health": self.capacitors.health,
            "dumps": self.recovery_manager.dumps,
            "replays": self.recovery_manager.replays,
            "last_dump_fit": self.recovery_manager.last_dump_fit,
            "capacitor_budget_bytes": self.capacitors.dump_budget_bytes,
            "completed_commands": self.atomic_writer.completed_commands,
            "discarded_incomplete": self.atomic_writer.discarded_incomplete,
            "cache_dedup_hits": self.cache.dedup_hits,
        }
