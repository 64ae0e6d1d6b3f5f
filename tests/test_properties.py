"""Property-based tests (hypothesis) on the core durability invariants.

Random schedules of writes, flushes and power-cut instants drive the
devices; the properties are the paper's guarantees:

* DuraSSD: every acked write survives, atomically, in order — always.
* Volatile devices with barriers: everything up to the last flush-cache
  survives (the fsync contract).
* DuraSSD recovery is idempotent.
* The FTL never loses reachable data across GC churn.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import IORequest, make_durassd, make_ssd_a
from repro.failures import PowerFailureInjector, check_device
from repro.flash import FlashArray, FlashGeometry, FlashTiming, PageMappingFTL
from repro.sim import Simulator, units


# each op: (lba_selector, nblocks 1/2/4, flush_after?)
write_ops = st.lists(
    st.tuples(st.integers(min_value=0, max_value=199),
              st.sampled_from([1, 1, 1, 2, 4]),
              st.booleans()),
    min_size=1, max_size=80)


def drive(sim, device, operations):
    def body():
        for index, (lba, nblocks, flush_after) in enumerate(operations):
            payload = [("p", index, b) for b in range(nblocks)]
            yield from device.submit(IORequest("write", lba * 4, nblocks,
                                               payload=payload))
            if flush_after:
                yield from device.flush_cache()

    return sim.process(body())


class TestDuraSSDProperties:
    @settings(max_examples=25, deadline=None)
    @given(operations=write_ops,
           cut_fraction=st.floats(min_value=0.05, max_value=0.95))
    def test_never_loses_acked_data(self, operations, cut_fraction):
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True
        process = drive(sim, device, operations)
        # find the natural end, then cut somewhere inside the run
        probe = Simulator()
        probe_device = make_durassd(probe)
        probe_end = drive(probe, probe_device, operations)
        probe.run_until(probe_end)
        probe.run()
        cut_at = probe.now * cut_fraction
        injector = PowerFailureInjector(sim, [device])
        injector.schedule_cut(cut_at)
        sim.run()
        del process
        injector.reboot_all()
        report = check_device(device)
        assert report.clean, report

    @settings(max_examples=15, deadline=None)
    @given(operations=write_ops)
    def test_recovery_idempotent(self, operations):
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True
        process = drive(sim, device, operations)
        sim.run_until(process)
        device.power_fail()
        device.reboot()
        state_once = {record.lba: device.read_persistent(record.lba)
                      for record in device.ack_log}
        # a second crash immediately after recovery must change nothing
        device.power_fail()
        device.reboot()
        state_twice = {record.lba: device.read_persistent(record.lba)
                       for record in device.ack_log}
        assert state_once == state_twice
        assert check_device(device).clean


class TestVolatileProperties:
    @settings(max_examples=20, deadline=None)
    @given(operations=write_ops)
    def test_flushed_prefix_survives(self, operations):
        """The fsync contract: acked writes before the last flush-cache
        always survive on any device."""
        sim = Simulator()
        device = make_ssd_a(sim)
        device.record_acks = True
        process = drive(sim, device, operations)
        sim.run_until(process)
        last_flush_seq = -1
        flush_count = device.counters["flushes"]
        if flush_count:
            # sequence of the last ack before the final flush completed:
            # every op with flush_after=True covers all earlier acks.
            covered = 0
            for index, (_lba, _n, flush_after) in enumerate(operations):
                if flush_after:
                    covered = index
            last_flush_seq = covered
        device.power_fail()
        device.reboot()
        # verify the covered prefix, accounting for later overwrites
        from repro.failures.checker import latest_acked_values
        latest = latest_acked_values(device.ack_log)
        for record in device.ack_log:
            if record.sequence > last_flush_seq:
                continue
            for index, lba in enumerate(record.blocks):
                if latest[lba][1] != record.sequence:
                    continue  # overwritten later (maybe unflushed)
                value = device.read_persistent(lba)
                # either the covered value, or a newer acked value that
                # happened to drain before the cut
                assert value is not None, (record.sequence, lba)


class TestFTLChurnProperty:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                              st.integers(min_value=0, max_value=10**6)),
                    min_size=1, max_size=400))
    def test_gc_never_loses_reachable_slots(self, writes):
        sim = Simulator()
        geometry = FlashGeometry(channels=2, packages_per_channel=1,
                                 chips_per_package=1, planes_per_chip=2,
                                 blocks_per_plane=6, pages_per_block=4,
                                 page_size=8 * units.KIB)
        array = FlashArray(sim, geometry, FlashTiming(), lanes=4)
        ftl = PageMappingFTL(sim, array, mapping_unit=4 * units.KIB)
        expected = {}

        def body():
            for lslot, value in writes:
                yield from ftl.write_slots([(lslot, value)])
                expected[lslot] = value

        process = sim.process(body())
        sim.run_until(process)
        for lslot, value in expected.items():
            assert ftl.stored_value(lslot) == value
        # physical accounting stays sane
        assert ftl.free_blocks >= 0
        total_valid = sum(ftl._valid_count)
        assert total_valid >= len(expected)
