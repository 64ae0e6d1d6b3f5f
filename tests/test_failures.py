"""Tests for the power-failure injector and the ACID checker."""

import pytest

from repro.devices import IORequest, make_durassd, make_hdd, make_ssd_a
from repro.devices.base import AckRecord
from repro.failures import (
    PowerFailureInjector,
    check_device,
    check_write_order,
    latest_acked_values,
    run_until_power_cut,
)
from repro.sim import Simulator, units


class StableFake:
    """A 'device' whose post-crash state is just a dict of survivors."""

    def __init__(self, surviving):
        self.surviving = dict(surviving)
        self.ack_log = []

    def read_persistent(self, lba):
        return self.surviving.get(lba)


def hammer(sim, device, writes=200, nblocks=1, span=500, seed=3):
    from repro.sim.rng import make_rng
    rng = make_rng(seed)

    def body():
        for i in range(writes):
            lba = rng.randrange(span) * nblocks
            request = IORequest("write", lba, nblocks,
                                payload=[("v", i, b) for b in range(nblocks)])
            yield from device.submit(request)

    return sim.process(body())


class TestInjector:
    def test_scheduled_cut_stops_simulation(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True
        hammer(sim, device)
        injector = PowerFailureInjector(sim, [device])
        cut = run_until_power_cut(sim, injector, at_time=0.002)
        assert cut.fired
        assert sim.now == pytest.approx(0.002)
        assert not device.powered

    def test_reboot_restores_power(self):
        sim = Simulator()
        device = make_durassd(sim)
        injector = PowerFailureInjector(sim, [device])
        injector.execute_cut()
        times = injector.reboot_all()
        assert device.powered
        assert times[device.name] >= 0

    def test_multi_device_cut(self):
        sim = Simulator()
        devices = [make_durassd(sim), make_ssd_a(sim)]
        injector = PowerFailureInjector(sim, devices)
        cut = injector.execute_cut()
        assert len(cut.device_reports) == 2
        assert all(not d.powered for d in devices)


class TestChecker:
    def test_latest_acked_values(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True
        process = hammer(sim, device, writes=50, span=10)
        sim.run_until(process)
        latest = latest_acked_values(device.ack_log)
        assert len(latest) <= 10
        for _lba, (_value, sequence) in latest.items():
            assert sequence < 50

    def test_durassd_always_clean(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True
        hammer(sim, device, writes=300)
        injector = PowerFailureInjector(sim, [device])
        run_until_power_cut(sim, injector, at_time=0.004)
        injector.reboot_all()
        report = check_device(device)
        assert report.clean, report

    def test_volatile_ssd_loses_unflushed(self):
        sim = Simulator()
        device = make_ssd_a(sim)
        device.record_acks = True
        hammer(sim, device, writes=300)
        injector = PowerFailureInjector(sim, [device])
        run_until_power_cut(sim, injector, at_time=0.004)
        injector.reboot_all()
        report = check_device(device)
        assert not report.clean
        assert report.lost_writes or report.stale_blocks

    def test_volatile_ssd_with_explicit_flush_keeps_prefix(self):
        """Data covered by a flush-cache command must survive."""
        sim = Simulator()
        device = make_ssd_a(sim)
        device.record_acks = True

        def body():
            for i in range(20):
                yield from device.submit(IORequest("write", i, 1,
                                                   payload=[("safe", i)]))
            yield from device.flush_cache()

        process = sim.process(body())
        sim.run_until(process)
        device.power_fail()
        device.reboot()
        for i in range(20):
            assert device.read_persistent(i) == ("safe", i)

    def test_hdd_multiblock_tear_detected(self):
        """A 16KB write through a disk's volatile cache can tear."""
        sim = Simulator()
        device = make_hdd(sim)
        device.record_acks = True
        hammer(sim, device, writes=150, nblocks=4, span=100)
        injector = PowerFailureInjector(sim, [device])
        run_until_power_cut(sim, injector, at_time=0.05)
        injector.reboot_all()
        report = check_device(device)
        # a volatile track buffer mid-burst: something must be wrong
        assert not report.clean

    def test_durassd_multiblock_commands_atomic(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True
        hammer(sim, device, writes=200, nblocks=4, span=200)
        injector = PowerFailureInjector(sim, [device])
        run_until_power_cut(sim, injector, at_time=0.003)
        injector.reboot_all()
        report = check_device(device)
        assert not report.torn_commands
        assert not report.shorn_blocks
        assert report.clean

    def test_write_order_preserved_on_durassd(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True
        hammer(sim, device, writes=200)
        injector = PowerFailureInjector(sim, [device])
        run_until_power_cut(sim, injector, at_time=0.003)
        injector.reboot_all()
        assert check_write_order(device) == []

    def test_report_repr_counts(self):
        sim = Simulator()
        device = make_ssd_a(sim)
        device.record_acks = True
        hammer(sim, device, writes=100)
        injector = PowerFailureInjector(sim, [device])
        run_until_power_cut(sim, injector, at_time=0.002)
        injector.reboot_all()
        report = check_device(device)
        text = repr(report)
        assert "lost=" in text and "commands=" in text

    def test_scattered_command_fully_present_is_clean(self):
        """Regression: the torn scan must use record.blocks[index], not
        lba+index — a vectored command's LBAs are not contiguous.  With
        the old arithmetic this fully-present command read LBAs 11 and
        12 (absent) and was falsely flagged torn."""
        record = AckRecord(time=0.0, lba=10, nblocks=3,
                           payload=["a", "b", "c"], sequence=0,
                           blocks=[10, 50, 90])
        device = StableFake({10: "a", 50: "b", 90: "c"})
        report = check_device(device, ack_log=[record])
        assert report.clean, report
        assert not report.torn_commands

    def test_scattered_command_partial_is_torn(self):
        record = AckRecord(time=0.0, lba=10, nblocks=3,
                           payload=["a", "b", "c"], sequence=0,
                           blocks=[10, 50, 90])
        device = StableFake({10: "a", 90: "c"})  # middle block lost
        report = check_device(device, ack_log=[record])
        assert len(report.torn_commands) == 1
        assert len(report.lost_writes) == 1
        assert report.lost_writes[0].lba == 50

    def test_ack_record_blocks_length_validated(self):
        with pytest.raises(ValueError):
            AckRecord(time=0.0, lba=0, nblocks=2, payload=["a", "b"],
                      sequence=0, blocks=[0, 1, 2])


class TestWriteOrder:
    def _record(self, sequence, lba, value):
        return AckRecord(time=float(sequence), lba=lba, nblocks=1,
                         payload=[value], sequence=sequence)

    def test_missing_then_present_is_an_inversion(self):
        """A volatile cache that reorders: the older acked write vanished
        while a newer one survived — the prefix rule is violated."""
        log = [self._record(0, 0, "old"), self._record(1, 1, "new")]
        device = StableFake({1: "new"})  # seq 0 lost, seq 1 present
        assert check_write_order(device, ack_log=log) == [(0, 1)]

    def test_multi_stream_inversions(self):
        """Two LBA streams; the overwritten record is skipped (not fully
        owned) and the inversion pairs the lost write with the later
        surviving one."""
        log = [
            self._record(0, 0, "x"),   # superseded by seq 2: skipped
            self._record(1, 1, "z"),   # lost
            self._record(2, 0, "y"),   # survives: inversion vs seq 1
            self._record(3, 2, "w"),   # survives too: second inversion
        ]
        device = StableFake({0: "y", 2: "w"})
        assert check_write_order(device, ack_log=log) == [(1, 2), (1, 3)]

    def test_ordered_prefix_is_clean(self):
        log = [self._record(0, 0, "a"), self._record(1, 1, "b"),
               self._record(2, 2, "c")]
        device = StableFake({0: "a", 1: "b"})  # clean prefix: tail lost
        assert check_write_order(device, ack_log=log) == []


class TestInjectorHardening:
    def test_past_cut_raises(self):
        sim = Simulator()
        device = make_durassd(sim)
        injector = PowerFailureInjector(sim, [device])
        with pytest.raises(ValueError):
            injector.schedule_cut(-0.001)

    def test_reboot_cancels_pending_cuts(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True
        process = hammer(sim, device, writes=10)
        injector = PowerFailureInjector(sim, [device])
        cut = injector.schedule_cut(5.0)  # far beyond the workload
        sim.run_until(process)
        injector.reboot_all()
        assert cut.cancelled and not cut.fired
        sim.run()  # the disarmed cut's event fires harmlessly
        assert device.powered
        assert not cut.fired

    def test_execute_cut_idempotent_per_device(self):
        sim = Simulator()
        device = make_durassd(sim)
        injector = PowerFailureInjector(sim, [device])
        first = injector.execute_cut()
        assert device.name in first.device_reports
        second = injector.execute_cut()  # device already unpowered
        assert second.device_reports == {}
        assert device.recovery_manager.dumps == 1
