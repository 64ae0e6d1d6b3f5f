"""Unit tests for the volatile-cache SSD device model."""

import pytest

from repro.devices import (DEVICE_MAKERS, IORequest, PowerFailedError,
                           make_ssd_a, make_ssd_b)
from repro.devices.ssd import FlashSSD
from repro.devices.presets import ssd_a_spec
from repro.flash import is_torn
from repro.sim import units

from conftest import run_process


def write(sim, dev, lba, values):
    request = IORequest("write", lba, len(values), payload=values)
    return run_process(sim, _submit(sim, dev, request))


def read(sim, dev, lba, nblocks=1):
    request = IORequest("read", lba, nblocks)
    return run_process(sim, _submit(sim, dev, request)).result


def _submit(sim, dev, request):
    completed = yield from dev.submit(request)
    return completed


def flush(sim, dev):
    run_process(sim, _flush(dev))


def _flush(dev):
    yield from dev.flush_cache()


class TestReadWritePath:
    def test_write_read_roundtrip_via_cache(self, sim):
        dev = make_ssd_a(sim)
        write(sim, dev, 10, ["hello"])
        assert read(sim, dev, 10) == ["hello"]

    def test_write_read_after_flush(self, sim):
        dev = make_ssd_a(sim)
        write(sim, dev, 10, ["hello"])
        flush(sim, dev)
        assert 10 not in dev.cache
        assert read(sim, dev, 10) == ["hello"]

    def test_multiblock_roundtrip(self, sim):
        dev = make_ssd_a(sim)
        write(sim, dev, 100, ["a", "b", "c", "d"])
        assert read(sim, dev, 100, 4) == ["a", "b", "c", "d"]

    def test_unwritten_blocks_read_none(self, sim):
        dev = make_ssd_a(sim)
        assert read(sim, dev, 123) == [None]

    def test_write_through_mode(self, sim):
        dev = make_ssd_a(sim, cache_enabled=False)
        write(sim, dev, 10, ["direct"])
        assert len(dev.cache) == 0
        assert read(sim, dev, 10) == ["direct"]
        # write-through persists the mapping with every write
        assert dev.ftl.dirty_mapping_entries == 0

    def test_out_of_range_rejected(self, sim):
        dev = make_ssd_a(sim)
        with pytest.raises(ValueError):
            write(sim, dev, dev.exported_lbas, ["x"])

    def test_counters_track_io(self, sim):
        dev = make_ssd_a(sim)
        write(sim, dev, 1, ["a"])
        write(sim, dev, 2, ["b"])
        read(sim, dev, 1)
        assert dev.counters["writes"] == 2
        assert dev.counters["reads"] == 1
        assert dev.counters["blocks_written"] == 2

    def test_powered_off_rejects_io(self, sim):
        dev = make_ssd_a(sim)
        dev.power_fail()
        with pytest.raises(PowerFailedError):
            write(sim, dev, 0, ["x"])


class TestTiming:
    def test_cached_write_is_fast(self, sim):
        dev = make_ssd_a(sim)
        start = sim.now
        write(sim, dev, 10, ["x"])
        latency = sim.now - start
        assert latency < 0.2 * units.MSEC  # ack at cache speed

    def test_write_through_is_slow(self, sim):
        dev = make_ssd_a(sim, cache_enabled=False)
        start = sim.now
        write(sim, dev, 10, ["x"])
        latency = sim.now - start
        # program + mapping persistence dominate
        assert latency > 1.5 * units.MSEC

    @pytest.mark.parametrize("kind", sorted(DEVICE_MAKERS))
    def test_flush_waits_for_drain(self, sim, kind):
        """flush-cache completes only once every write acked before it
        has left the cache, on every device kind."""
        dev = DEVICE_MAKERS[kind](sim)
        for i in range(32):
            write(sim, dev, i, ["v%d" % i])
        start = sim.now
        flush(sim, dev)
        assert sim.now - start > dev.spec.flush_fixed
        assert len(dev.cache) == 0

    def test_flush_persists_mapping(self, sim):
        dev = make_ssd_a(sim)
        write(sim, dev, 1, ["a"])
        flush(sim, dev)
        assert dev.ftl.dirty_mapping_entries == 0

    def test_concurrent_writes_beat_serial(self, sim):
        """Internal parallelism: N concurrent flushes drain faster."""
        dev = make_ssd_a(sim)
        for i in range(64):
            write(sim, dev, i, [i])
        start = sim.now
        flush(sim, dev)
        drain_time = sim.now - start
        serial_estimate = 64 * dev.spec.program_time
        assert drain_time < serial_estimate / 2


class TestEightKiBMapping:
    def test_two_lbas_share_a_slot(self, sim):
        dev = make_ssd_a(sim)  # 8KB mapping unit
        assert dev._slot_of_lba(0) == dev._slot_of_lba(1)
        assert dev._slot_of_lba(2) == 1

    def test_partial_slot_update_preserves_sibling(self, sim):
        dev = make_ssd_a(sim)
        write(sim, dev, 0, ["left"])
        write(sim, dev, 1, ["right"])
        flush(sim, dev)
        assert read(sim, dev, 0) == ["left"]
        assert read(sim, dev, 1) == ["right"]

    def test_durassd_mapping_is_4k(self, sim):
        from repro.devices import make_durassd
        dev = make_durassd(sim)
        assert dev._slot_of_lba(0) == 0
        assert dev._slot_of_lba(1) == 1


class TestPowerFailure:
    def test_unflushed_acked_writes_lost(self, sim):
        """The headline volatile-cache anomaly: acked data vanishes."""
        dev = make_ssd_a(sim)
        write(sim, dev, 10, ["precious"])
        dev.power_fail()
        dev.reboot()
        assert dev.read_persistent(10) is None

    @pytest.mark.parametrize("kind", sorted(DEVICE_MAKERS))
    def test_flushed_writes_survive(self, sim, kind):
        """A power cut loses nothing flushed, on every device kind."""
        dev = DEVICE_MAKERS[kind](sim)
        write(sim, dev, 10, ["precious"])
        flush(sim, dev)
        dev.power_fail()
        dev.reboot()
        assert dev.read_persistent(10) == "precious"

    def test_drained_but_unpersisted_mapping_lost(self, sim):
        """Data on NAND whose mapping delta was volatile also vanishes."""
        dev = make_ssd_a(sim)
        write(sim, dev, 10, ["v1"])
        flush(sim, dev)
        write(sim, dev, 10, ["v2"])
        # give the flusher time to drain, but never issue flush-cache
        run_process(sim, _sleep(sim, 0.5))
        assert 10 not in dev.cache  # drained to NAND
        dev.power_fail()
        dev.reboot()
        value = dev.read_persistent(10)
        assert value == "v1" or is_torn(value)

    def test_device_usable_after_reboot(self, sim):
        dev = make_ssd_a(sim)
        write(sim, dev, 1, ["before"])
        dev.power_fail()
        dev.reboot()
        write(sim, dev, 2, ["after"])
        assert read(sim, dev, 2) == ["after"]


def _sleep(sim, delay):
    yield sim.timeout(delay)


class TestSpec:
    def test_replace_overrides(self):
        spec = ssd_a_spec()
        clone = spec._replace(lanes=99)
        assert clone.lanes == 99
        assert clone.cache_bytes == spec.cache_bytes
        assert spec.lanes != 99

    def test_presets_differ(self, sim):
        a = make_ssd_a(sim)
        b = make_ssd_b(sim)
        assert a.spec.lanes != b.spec.lanes
        assert isinstance(a, FlashSSD)
