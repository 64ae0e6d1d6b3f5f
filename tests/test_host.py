"""Unit tests for the host stack: NCQ, file system, fio."""

import pytest

from repro.devices import make_durassd, make_hdd, make_ssd_a
from repro.host import FileSystem, FioJob, SataNcq, run_fio
from repro.host.filesystem import FSYNC_SYSCALL_TIME
from repro.sim import Simulator, units

from conftest import run_process


class TestCommandQueue:
    def test_depth_limits_outstanding(self, sim):
        dev = make_ssd_a(sim)
        queue = SataNcq(sim, dev, depth=4)
        from repro.devices import IORequest

        def worker(i):
            yield queue.submit(IORequest("write", i, 1, payload=[i]))

        done = sim.all_of([sim.process(worker(i)) for i in range(32)])
        sim.run()
        assert done.processed
        assert queue.max_observed_depth <= 4

    def test_flush_passthrough(self, sim):
        dev = make_ssd_a(sim)
        queue = SataNcq(sim, dev, depth=4)

        def flusher():
            yield queue.flush()

        run_process(sim, flusher())
        assert dev.counters["flushes"] == 1

    def test_bad_depth(self, sim):
        with pytest.raises(ValueError):
            SataNcq(sim, make_ssd_a(sim), depth=0)


class TestFileSystem:
    def test_create_and_rw(self, sim):
        fs = FileSystem(sim, make_durassd(sim))
        handle = fs.create("data", 1 * units.MIB)

        def use():
            yield from fs.pwrite(handle, 0, ["block0", "block1"])
            values = yield from fs.pread(handle, 0, 2)
            return values

        assert run_process(sim, use()) == ["block0", "block1"]

    def test_files_do_not_overlap(self, sim):
        fs = FileSystem(sim, make_durassd(sim))
        a = fs.create("a", 1 * units.MIB)
        b = fs.create("b", 1 * units.MIB)
        assert a.base_lba + a.nblocks <= b.base_lba

    def test_duplicate_create_rejected(self, sim):
        fs = FileSystem(sim, make_durassd(sim))
        fs.create("a", units.MIB)
        with pytest.raises(ValueError):
            fs.create("a", units.MIB)

    def test_full_filesystem_rejected(self, sim):
        fs = FileSystem(sim, make_durassd(sim))
        with pytest.raises(ValueError):
            fs.create("huge", 100 * units.GIB)

    def test_unaligned_offset_rejected(self, sim):
        fs = FileSystem(sim, make_durassd(sim))
        handle = fs.create("a", units.MIB)

        def bad():
            yield from fs.pwrite(handle, 100, ["x"])

        with pytest.raises(ValueError):
            run_process(sim, bad())

    def test_write_past_eof_rejected(self, sim):
        fs = FileSystem(sim, make_durassd(sim))
        handle = fs.create("a", 2 * units.LBA_SIZE)

        def bad():
            yield from fs.pwrite(handle, units.LBA_SIZE, ["x", "y"])

        with pytest.raises(ValueError):
            run_process(sim, bad())

    def test_append_tracks_eof(self, sim):
        fs = FileSystem(sim, make_durassd(sim))
        handle = fs.create("log", units.MIB)

        def appends():
            first = yield from fs.append(handle, ["a"])
            second = yield from fs.append(handle, ["b", "c"])
            return first, second

        first, second = run_process(sim, appends())
        assert first == 0
        assert second == units.LBA_SIZE
        assert handle.size_blocks == 3


class TestFsyncSemantics:
    def test_barrier_on_sends_flush_cache(self, sim):
        dev = make_durassd(sim)
        fs = FileSystem(sim, dev, barriers=True)
        handle = fs.create("a", units.MIB)

        def work():
            yield from fs.pwrite(handle, 0, ["x"])
            yield from fs.fsync(handle)

        run_process(sim, work())
        assert dev.counters["flushes"] >= 1

    def test_nobarrier_skips_flush_cache(self, sim):
        dev = make_durassd(sim)
        fs = FileSystem(sim, dev, barriers=False)
        handle = fs.create("a", units.MIB)

        def work():
            yield from fs.pwrite(handle, 0, ["x"])
            yield from fs.fsync(handle)

        run_process(sim, work())
        assert dev.counters["flushes"] == 0

    def test_nobarrier_fsync_is_cheap(self, sim):
        dev = make_durassd(sim)
        fs = FileSystem(sim, dev, barriers=False)
        handle = fs.create("a", units.MIB)

        def work():
            yield from fs.pwrite(handle, 0, ["x"])
            yield from fs.fsync(handle)       # journal commit (create)
            start = sim.now
            yield from fs.fsync(handle)       # clean metadata now
            return sim.now - start

        cost = run_process(sim, work())
        assert cost <= 2 * FSYNC_SYSCALL_TIME

    def test_metadata_dirty_triggers_journal_commit(self, sim):
        dev = make_durassd(sim)
        fs = FileSystem(sim, dev, barriers=False)
        handle = fs.create("a", units.MIB)

        def work():
            yield from fs.fsync(handle)  # create dirtied metadata
            before = fs.counters["journal_commits"]
            yield from fs.pwrite(handle, 0, ["x"])  # grows i_size
            yield from fs.fsync(handle)
            grown = fs.counters["journal_commits"] - before
            yield from fs.pwrite(handle, 0, ["y"])  # overwrite: clean
            yield from fs.fsync(handle)
            overwrite = fs.counters["journal_commits"] - before - grown
            return grown, overwrite

        grown, overwrite = run_process(sim, work())
        assert grown == 1
        assert overwrite == 0

    def test_o_dsync_barriers_every_write(self, sim):
        """The commercial-DBMS configuration: barrier per page write."""
        dev = make_durassd(sim)
        fs = FileSystem(sim, dev, barriers=True)
        handle = fs.create("a", units.MIB, o_dsync=True)

        def work():
            yield from fs.pwrite(handle, 0, ["x"])
            yield from fs.pwrite(handle, units.LBA_SIZE, ["y"])

        run_process(sim, work())
        assert dev.counters["flushes"] == 2

    def test_o_dsync_nobarrier_skips(self, sim):
        dev = make_durassd(sim)
        fs = FileSystem(sim, dev, barriers=False)
        handle = fs.create("a", units.MIB, o_dsync=True)

        def work():
            yield from fs.pwrite(handle, 0, ["x"])

        run_process(sim, work())
        assert dev.counters["flushes"] == 0

    def test_fdatasync_never_journals(self, sim):
        dev = make_durassd(sim)
        fs = FileSystem(sim, dev, barriers=True)
        handle = fs.create("a", units.MIB)

        def work():
            yield from fs.pwrite(handle, 0, ["x"])
            yield from fs.fdatasync(handle)

        run_process(sim, work())
        assert fs.counters["journal_commits"] == 0
        assert dev.counters["flushes"] == 1


class TestFio:
    def test_write_job_reports_iops(self):
        sim = Simulator()
        fs = FileSystem(sim, make_durassd(sim), barriers=True)
        job = FioJob(rw="randwrite", ios_per_job=50, fsync_every=1,
                     file_size=16 * units.MIB)
        result = run_fio(sim, fs, job)
        assert result.completed == 50
        assert 0 < result.iops < 100000
        assert result.latency.count == 50

    def test_fsync_frequency_changes_iops(self):
        """The essence of Table 1: more fsync, less throughput."""
        def measure(period):
            sim = Simulator()
            fs = FileSystem(sim, make_durassd(sim), barriers=True)
            job = FioJob(rw="randwrite", ios_per_job=64, fsync_every=period,
                         file_size=16 * units.MIB)
            return run_fio(sim, fs, job).iops

        assert measure(0) > measure(16) > measure(1)

    def test_read_job(self):
        sim = Simulator()
        fs = FileSystem(sim, make_durassd(sim), barriers=True)
        job = FioJob(rw="randread", ios_per_job=50, numjobs=4,
                     file_size=16 * units.MIB)
        result = run_fio(sim, fs, job)
        assert result.completed == 200
        assert result.iops > 0

    def test_read_job_on_hdd(self):
        sim = Simulator()
        fs = FileSystem(sim, make_hdd(sim), barriers=True)
        job = FioJob(rw="randread", ios_per_job=20, numjobs=2,
                     file_size=16 * units.MIB)
        result = run_fio(sim, fs, job)
        assert result.completed == 40

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            FioJob(block_size=5000)
        with pytest.raises(ValueError):
            FioJob(rw="trim")

    def test_seed_determinism(self):
        def measure():
            sim = Simulator()
            fs = FileSystem(sim, make_durassd(sim), barriers=True)
            job = FioJob(rw="randwrite", ios_per_job=30, fsync_every=4,
                         file_size=16 * units.MIB, seed=7)
            return run_fio(sim, fs, job).iops

        assert measure() == measure()


class TestNCQOrdering:
    def test_unordered_queue_jitters_dispatch(self):
        """An unordered NCQ may delay a command while later ones pass."""
        from repro.sim import Simulator
        from repro.sim.rng import make_rng
        from repro.devices import IORequest, make_ssd_a

        def completion_order(ordered):
            sim = Simulator()
            device = make_ssd_a(sim)
            queue = SataNcq(sim, device, ordered=ordered,
                                 rng=make_rng(3), reorder_window=50)
            finished = []

            def submit(tag):
                request = IORequest("write", tag, 1, payload=[tag])
                completed = yield queue.submit(request)
                finished.append(completed.tag or tag)

            done = sim.all_of([sim.process(submit(i)) for i in range(10)])
            sim.run_until(done)
            return finished

        assert completion_order(True) == list(range(10))
        assert completion_order(False) != list(range(10))

    def test_ordered_is_default(self, sim):
        queue = SataNcq(sim, make_durassd(sim))
        assert queue.ordered
