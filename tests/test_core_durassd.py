"""Unit tests for DuraSSD: durable cache, atomic writer, recovery manager."""

import pytest

from repro.core import AtomicWriter, CapacitorBank, DuraSSD, RecoveryManager
from repro.core.durassd import MAPPING_DUMP_RESERVE
from repro.devices import IORequest, make_durassd
from repro.devices.presets import durassd_spec
from repro.sim import units

from conftest import run_process


def write(sim, dev, lba, values):
    request = IORequest("write", lba, len(values), payload=values)
    return run_process(sim, _submit(dev, request))


def read(sim, dev, lba, nblocks=1):
    request = IORequest("read", lba, nblocks)
    return run_process(sim, _submit(dev, request)).result


def _submit(dev, request):
    completed = yield from dev.submit(request)
    return completed


class TestCapacitorBank:
    def test_budget_is_dozens_of_megabytes(self):
        bank = CapacitorBank()
        assert 20 * units.MIB < bank.dump_budget_bytes < 100 * units.MIB

    def test_cost_is_about_one_percent(self):
        bank = CapacitorBank()
        assert bank.count == 15
        assert 0.005 < bank.cost_fraction_of_device(500.0) < 0.02

    def test_dump_time_scales(self):
        bank = CapacitorBank()
        assert bank.dump_time(2 * units.MIB) == pytest.approx(
            2 * bank.dump_time(1 * units.MIB))

    def test_can_dump_boundary(self):
        bank = CapacitorBank()
        assert bank.can_dump(bank.dump_budget_bytes)
        assert not bank.can_dump(bank.dump_budget_bytes + 1)

    def test_zero_capacitors_dump_nothing(self):
        bank = CapacitorBank(count=0)
        assert bank.dump_budget_bytes == 0
        assert not bank.can_dump(1)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            CapacitorBank(count=-1)


class TestAtomicWriter:
    def test_complete_lifecycle(self):
        writer = AtomicWriter()
        request = IORequest("write", 0, 1, payload=["x"])
        writer.begin(request)
        assert writer.streaming_count == 1
        writer.complete(request)
        assert writer.streaming_count == 0
        assert writer.completed_commands == 1

    def test_complete_unknown_rejected(self):
        writer = AtomicWriter()
        with pytest.raises(ValueError):
            writer.complete(IORequest("write", 0, 1, payload=["x"]))

    def test_discard_incomplete(self):
        writer = AtomicWriter()
        r1 = IORequest("write", 0, 1, payload=["a"])
        r2 = IORequest("write", 1, 1, payload=["b"])
        writer.begin(r1)
        writer.begin(r2)
        writer.complete(r1)
        discarded = writer.discard_incomplete()
        assert discarded == [r2]
        assert writer.discarded_incomplete == 1

    def test_abandon(self):
        writer = AtomicWriter()
        request = IORequest("write", 0, 1, payload=["x"])
        writer.begin(request)
        writer.abandon(request)
        assert writer.streaming_count == 0


class TestDurability:
    def test_acked_write_survives_power_failure(self, sim):
        """The paper's core guarantee: ack at cache == durable."""
        dev = make_durassd(sim)
        write(sim, dev, 10, ["precious"])
        assert 10 in dev.cache  # still only in cache, never flushed
        dev.power_fail()
        dev.reboot()
        assert dev.read_persistent(10) == "precious"

    def test_every_acked_write_survives(self, sim):
        dev = make_durassd(sim)
        for i in range(50):
            write(sim, dev, i, [("v", i)])
        dev.power_fail()
        dev.reboot()
        for i in range(50):
            assert dev.read_persistent(i) == ("v", i)

    def test_dump_always_fits_thanks_to_flow_control(self, sim):
        dev = make_durassd(sim)
        budget_slots = (dev.capacitors.dump_budget_bytes -
                        MAPPING_DUMP_RESERVE) // units.LBA_SIZE
        assert dev.cache.capacity_slots <= budget_slots
        for i in range(200):
            write(sim, dev, i, [i])
        image = dev.power_fail()
        assert dev.recovery_manager.last_dump_fit
        assert image.bytes_needed <= dev.capacitors.dump_budget_bytes
        dev.reboot()

    def test_recovery_charges_time(self, sim):
        dev = make_durassd(sim)
        write(sim, dev, 1, ["x"])
        dev.power_fail()
        recovery_time = dev.reboot()
        assert recovery_time >= dev.capacitors.recharge_time

    def test_clean_reboot_needs_no_recovery(self, sim):
        dev = make_durassd(sim)
        write(sim, dev, 1, ["x"])
        # No power failure: reboot without emergency flag
        assert not dev.recovery_manager.needs_recovery()
        assert dev.reboot() == 0.0

    def test_read_persistent_requires_reboot_after_failure(self, sim):
        dev = make_durassd(sim)
        write(sim, dev, 1, ["x"])
        dev.power_fail()
        with pytest.raises(RuntimeError):
            dev.read_persistent(1)

    def test_usable_after_recovery(self, sim):
        dev = make_durassd(sim)
        write(sim, dev, 1, ["before"])
        dev.power_fail()
        dev.reboot()
        write(sim, dev, 2, ["after"])
        assert read(sim, dev, 2) == ["after"]
        assert read(sim, dev, 1) == ["before"]

    def test_replayed_data_eventually_drains_to_nand(self, sim):
        dev = make_durassd(sim)
        write(sim, dev, 1, ["x"])
        dev.power_fail()
        dev.reboot()
        run_process(sim, _sleep(sim, 0.5))  # flusher drains replayed data
        assert len(dev.cache) == 0
        assert dev.ftl.stored_value(dev._slot_of_lba(1)) == "x"

    def test_double_failure_with_recovery_between(self, sim):
        dev = make_durassd(sim)
        write(sim, dev, 1, ["v1"])
        dev.power_fail()
        dev.reboot()
        write(sim, dev, 2, ["v2"])
        dev.power_fail()
        dev.reboot()
        assert dev.read_persistent(1) == "v1"
        assert dev.read_persistent(2) == "v2"


class TestAtomicity:
    def test_multiblock_command_is_atomic(self, sim):
        """A 16KB page write (4 LBAs) is all-or-nothing across a cut."""
        dev = make_durassd(sim)
        write(sim, dev, 0, ["p0", "p1", "p2", "p3"])
        dev.power_fail()
        dev.reboot()
        view = [dev.read_persistent(lba) for lba in range(4)]
        assert view == ["p0", "p1", "p2", "p3"]

    def test_incomplete_command_fully_discarded(self, sim):
        """A command cut mid-transfer leaves no trace (Section 3.2)."""
        dev = make_durassd(sim)
        write(sim, dev, 0, ["old0", "old1", "old2", "old3"])

        # start a 16KB overwrite but cut power during the data transfer
        request = IORequest("write", 0, 4,
                            payload=["new0", "new1", "new2", "new3"])
        sim.process(_submit(dev, request))
        sim.run(until=sim.now + 5 * units.USEC)  # mid-transfer
        assert dev.atomic_writer.streaming_count == 1
        dev.power_fail()
        dev.reboot()
        view = [dev.read_persistent(lba) for lba in range(4)]
        assert view == ["old0", "old1", "old2", "old3"]
        assert dev.atomic_writer.discarded_incomplete == 1


class TestCapacitorSizing:
    def test_underprovisioned_bank_loses_data(self, sim):
        """Remove the capacitors and DuraSSD degrades to a volatile SSD —
        the ablation the paper's cost argument rests on."""
        tiny = CapacitorBank(count=1, dump_bytes_per_capacitor=8 * units.LBA_SIZE)
        dev = DuraSSD(sim, durassd_spec(), capacitors=tiny)
        # flow control window collapses to the tiny budget
        assert dev.cache.capacity_slots <= 8
        for i in range(8):
            write(sim, dev, i, [("v", i)])
        image = dev.power_fail()
        dev.reboot()
        assert dev.recovery_manager.last_dump_fit or image.truncated_blocks

    def test_durability_report_shape(self, sim):
        dev = make_durassd(sim)
        write(sim, dev, 0, ["x"])
        dev.power_fail()
        dev.reboot()
        report = dev.durability_report()
        assert report["dumps"] == 1
        assert report["replays"] == 1
        assert report["completed_commands"] == 1


class TestRecoveryManagerUnit:
    def test_dump_then_replay_roundtrip(self, sim):
        dev = make_durassd(sim)
        manager = RecoveryManager(CapacitorBank(), block_bytes=units.LBA_SIZE)
        manager.dump({1: "a"}, {5: 77})
        assert manager.needs_recovery()

    def test_truncation_records_dropped_blocks(self):
        bank = CapacitorBank(count=1,
                             dump_bytes_per_capacitor=2 * units.LBA_SIZE)
        manager = RecoveryManager(bank, block_bytes=units.LBA_SIZE)
        image = manager.dump({i: i for i in range(10)}, {})
        assert not manager.last_dump_fit
        assert len(image.buffer_snapshot) == 2
        assert len(image.truncated_blocks) == 8


def _sleep(sim, delay):
    yield sim.timeout(delay)
