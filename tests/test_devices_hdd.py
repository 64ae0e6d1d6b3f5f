"""Unit tests for the disk-drive model."""

import pytest

from repro.devices import IORequest, PowerFailedError, make_hdd
from repro.flash import is_torn
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


def flush(sim, dev):
    def _do():
        yield from dev.flush_cache()
    run_process(sim, _do())


class TestDataPath:
    def test_roundtrip_via_cache(self, sim):
        dev = make_hdd(sim)
        write(sim, dev, 7, ["x"])
        assert read(sim, dev, 7) == ["x"]

    def test_roundtrip_write_through(self, sim):
        dev = make_hdd(sim, cache_enabled=False)
        write(sim, dev, 7, ["x"])
        assert read(sim, dev, 7) == ["x"]

    def test_flush_then_persistent(self, sim):
        dev = make_hdd(sim)
        write(sim, dev, 7, ["x"])
        flush(sim, dev)
        assert dev.read_persistent(7) == "x"


class TestMechanicalTiming:
    def test_write_through_pays_seek_and_rotation(self, sim):
        dev = make_hdd(sim, cache_enabled=False)
        start = sim.now
        write(sim, dev, 7, ["x"])
        latency = sim.now - start
        expected_floor = dev.spec.rotational_latency
        assert latency > expected_floor
        assert latency > 4 * units.MSEC  # a disk, not an SSD

    def test_cached_write_is_electronic(self, sim):
        dev = make_hdd(sim)
        start = sim.now
        write(sim, dev, 7, ["x"])
        assert sim.now - start < 1 * units.MSEC

    def test_deep_queue_shortens_positioning(self, sim):
        """The elevator effect: per-IO service time falls with depth."""
        def measure(concurrency):
            from repro.sim import Simulator
            local = Simulator()
            dev = make_hdd(local, cache_enabled=False)

            def worker(index):
                for i in range(10):
                    request = IORequest("write", (index * 1000 + i * 7) % 10000,
                                        1, payload=["x"])
                    yield from dev.submit(request)

            done = local.all_of([local.process(worker(j))
                                 for j in range(concurrency)])
            local.run()
            assert done.processed
            return concurrency * 10 / local.now

        assert measure(16) > measure(1) * 1.3

    def test_single_actuator_serialises(self, sim):
        dev = make_hdd(sim, cache_enabled=False)
        p1 = sim.process(_submit(dev, IORequest("write", 1, 1, payload=["a"])))
        p2 = sim.process(_submit(dev, IORequest("write", 2, 1, payload=["b"])))
        sim.all_of([p1, p2])
        sim.run()
        # two mechanical ops cannot overlap: total > 2x rotational floor
        assert sim.now > 2 * dev.spec.rotational_latency


class TestPowerFailure:
    def test_cache_contents_lost(self, sim):
        dev = make_hdd(sim)
        write(sim, dev, 7, ["gone"])
        dev.power_fail()
        dev.reboot()
        assert dev.read_persistent(7) is None

    def test_torn_write_mid_transfer(self, sim):
        """Cutting power mid media write shears the block under the head."""
        dev = make_hdd(sim, cache_enabled=False)
        values = ["b%d" % i for i in range(4)]
        sim.process(_submit(dev, IORequest("write", 0, 4, payload=values)))
        sim.run(until=4.5 * units.MSEC)  # inside the transfer
        dev.power_fail()
        view = [dev.read_persistent(lba) for lba in range(4)]
        assert any(is_torn(v) or v is None for v in view)

    def test_flusher_access_cut_mid_flight_does_not_land_after_reboot(
            self, sim):
        """A flusher access in flight at a cut belongs to the destroyed
        cache: finishing after the reboot, it must not overwrite what
        recovery installed."""
        dev = make_hdd(sim)
        write(sim, dev, 7, ["old"])
        sim.run(until=2 * units.MSEC)  # the flusher is mid-access
        dev.power_fail()
        dev.reboot()
        dev.install_persistent(7, "recovered")
        sim.run()
        assert dev.read_persistent(7) == "recovered"

    def test_write_through_cut_mid_flight_fails_after_reboot(self, sim):
        """A write-through command cut mid-access is never acked and
        never reaches the medium, even when power is back by the time
        its access would have finished."""
        dev = make_hdd(sim, cache_enabled=False)
        outcome = []

        def writer():
            try:
                yield from dev.submit(IORequest("write", 7, 1, payload=["old"]))
            except PowerFailedError:
                outcome.append("failed")
            else:
                outcome.append("acked")

        sim.process(writer())
        sim.run(until=2 * units.MSEC)  # positioning for the write
        dev.power_fail()
        dev.reboot()
        dev.install_persistent(7, "recovered")
        sim.run()
        assert outcome == ["failed"]
        assert dev.read_persistent(7) == "recovered"

    def test_write_only_disk_cache_note(self, sim):
        """Solworth/Orji style write cache: reads may bypass, writes hit."""
        dev = make_hdd(sim)
        write(sim, dev, 9, ["w"])
        assert dev.cache.get(9) == "w"
