"""Unit tests for the buffer pool: LRU, free list, eviction, Figure 1."""

import pytest

from repro.db import BufferPool, InnoDBConfig, InnoDBEngine
from repro.devices import make_durassd
from repro.failures import torture
from repro.host import FileSystem
from repro.sim import Simulator, units
from repro.sim.engine import Event
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload

from conftest import run_process


def make_pool(sim, n_frames=4, flush_log=None, flush_time=0.001):
    flush_log = flush_log if flush_log is not None else []

    def flush_page(key, version):
        flush_log.append((key, version))
        yield sim.timeout(flush_time)

    return BufferPool(sim, n_frames, flush_page), flush_log


def simple_reader(sim, version=1, read_time=0.0005):
    def reader():
        yield sim.timeout(read_time)
        return version
    return reader


class TestFetch:
    def test_miss_then_hit(self, sim):
        pool, _log = make_pool(sim)
        frame = run_process(sim, pool.fetch("a", simple_reader(sim, 7)))
        assert frame.version == 7
        assert pool.stats["misses"] == 1
        frame2 = run_process(sim, pool.fetch("a", simple_reader(sim, 99)))
        assert frame2 is frame          # hit: reader not consulted
        assert pool.stats["hits"] == 1

    def test_concurrent_fetches_coalesce(self, sim):
        pool, _log = make_pool(sim)
        reads = []

        def reader():
            reads.append(sim.now)
            yield sim.timeout(0.001)
            return 1

        workers = [sim.process(pool.fetch("a", reader)) for _ in range(5)]
        done = sim.all_of(workers)
        sim.run_until(done)
        assert len(reads) == 1          # one storage read for five fetchers
        assert pool.stats["misses"] == 1
        assert pool.stats["hits"] == 4

    def test_lookup_is_the_hit_half_of_fetch(self, sim):
        """``lookup`` counts a hit and touches the LRU exactly as a
        fetch that hits does, and counts nothing on a miss."""
        pools = [make_pool(sim, n_frames=2)[0] for _ in range(2)]
        for pool in pools:
            run_process(sim, pool.fetch("a", simple_reader(sim)))
            run_process(sim, pool.fetch("b", simple_reader(sim)))
        by_fetch, by_lookup = pools
        frame = run_process(sim, by_fetch.fetch("a", simple_reader(sim, 9)))
        assert by_lookup.lookup("a") is by_lookup.get_resident("a")
        assert frame is by_fetch.get_resident("a")
        assert by_lookup.lookup("c") is None
        assert by_lookup.stats == by_fetch.stats
        assert by_lookup.stats["hits"] == 1
        for pool in pools:
            run_process(sim, pool.fetch("c", simple_reader(sim)))  # evicts b
            assert pool.contains("a") and not pool.contains("b")

    def test_lone_miss_builds_no_inflight_event(self, sim, monkeypatch):
        pool, _log = make_pool(sim)
        events = []
        init = Event.__init__

        def counting_init(self, sim):
            events.append(self)
            init(self, sim)

        monkeypatch.setattr(Event, "__init__", counting_init)

        def reader():
            yield 0.001
            return 3

        frame = run_process(sim, pool.fetch("a", reader))
        assert frame.version == 3 and events == []
        waiters = [sim.process(pool.fetch("b", reader)) for _ in range(3)]
        sim.run()
        assert len(events) == 1  # the first waiter's; the second shares it
        assert all(waiter.value is pool.get_resident("b")
                   for waiter in waiters)

    def test_waiter_on_a_failed_read_reads_the_page_itself(self, sim):
        pool, _log = make_pool(sim)

        def failing_reader():
            yield 0.001
            raise OSError("read failed")

        first = sim.process(pool.fetch("a", failing_reader))
        first.callbacks.append(lambda event: None)  # observe the failure
        waiter = sim.process(pool.fetch("a", simple_reader(sim, 5)))
        sim.run()
        assert not first.ok and isinstance(first.value, OSError)
        assert waiter.ok and waiter.value.version == 5
        assert pool.get_resident("a") is waiter.value
        assert pool.stats["misses"] == 2 and pool.stats["hits"] == 0
        assert pool.free_frames == pool.capacity - 1

    def test_lru_eviction_order(self, sim):
        pool, _log = make_pool(sim, n_frames=2)
        run_process(sim, pool.fetch("a", simple_reader(sim)))
        run_process(sim, pool.fetch("b", simple_reader(sim)))
        run_process(sim, pool.fetch("a", simple_reader(sim)))  # touch a
        run_process(sim, pool.fetch("c", simple_reader(sim)))  # evicts b
        assert pool.contains("a")
        assert not pool.contains("b")
        assert pool.contains("c")

    def test_free_list_consumed_before_eviction(self, sim):
        pool, _log = make_pool(sim, n_frames=3)
        assert pool.free_frames == 3
        run_process(sim, pool.fetch("a", simple_reader(sim)))
        assert pool.free_frames == 2
        assert pool.stats["evictions"] == 0


class TestDirtyEviction:
    def test_clean_eviction_skips_write(self, sim):
        pool, log = make_pool(sim, n_frames=1)
        run_process(sim, pool.fetch("a", simple_reader(sim)))
        run_process(sim, pool.fetch("b", simple_reader(sim)))
        assert log == []
        assert pool.stats["clean_evictions"] == 1

    def test_dirty_eviction_flushes_first(self, sim):
        """Figure 1: a read needing a dirty victim waits for its write."""
        pool, log = make_pool(sim, n_frames=1)
        frame = run_process(sim, pool.fetch("a", simple_reader(sim)))
        pool.mark_dirty(frame)
        start = sim.now
        run_process(sim, pool.fetch("b", simple_reader(sim)))
        assert log == [("a", 2)]  # read in at v1, dirtied to v2
        assert sim.now - start >= 0.001  # paid the flush
        assert pool.stats["reads_blocked_by_write"] == 1

    def test_redirtied_victim_not_evicted(self, sim):
        pool, _log = make_pool(sim, n_frames=1)

        frame = run_process(sim, pool.fetch("a", simple_reader(sim)))
        pool.mark_dirty(frame)

        def flush_and_redirty(key, version):
            yield sim.timeout(0.001)
            pool.mark_dirty(frame)  # someone updates it mid-flush

        pool._flush_page = flush_and_redirty
        # eviction must retry and eventually give up on "a" and wait;
        # stop redirtying after the first pass so it completes
        calls = []

        def flush_once(key, version):
            calls.append(key)
            yield sim.timeout(0.001)
            if len(calls) == 1:
                pool.mark_dirty(frame)

        pool._flush_page = flush_once
        run_process(sim, pool.fetch("b", simple_reader(sim)))
        assert len(calls) >= 2  # first flush was wasted by the re-dirty

    def test_mark_clean_respects_version(self, sim):
        pool, _log = make_pool(sim)
        frame = run_process(sim, pool.fetch("a", simple_reader(sim)))
        flushed = pool.mark_dirty(frame)
        pool.mark_dirty(frame)  # version moved on
        pool.mark_clean(frame, flushed)
        assert frame.dirty          # newer version still unflushed
        pool.mark_clean(frame, frame.version)
        assert not frame.dirty


class TestEvictionBatching:
    def test_waiters_coalesce_on_one_batch(self, sim):
        batches = []

        def flush_batch(frames):
            batches.append(len(frames))
            yield sim.timeout(0.002)
            for frame in frames:
                pool.mark_clean(frame, frame.version)

        pool = BufferPool(sim, 4, None, flush_batch=flush_batch)
        # fill with dirty pages
        for key in "abcd":
            frame = run_process(sim, pool.fetch(key, simple_reader(sim)))
            pool.mark_dirty(frame)
        # several concurrent readers all need frames
        workers = [sim.process(pool.fetch("new%d" % i, simple_reader(sim)))
                   for i in range(3)]
        done = sim.all_of(workers)
        sim.run_until(done)
        assert len(batches) >= 1
        assert pool.stats["reads_blocked_by_write"] >= 1


class TestWarmInstall:
    def test_install_until_full(self, sim):
        pool, _log = make_pool(sim, n_frames=2)
        assert pool.install_warm("a", 0) is not None
        assert pool.install_warm("b", 0) is not None
        assert pool.free_frames == 0
        # a third install evicts the coldest clean frame
        assert pool.install_warm("c", 0) is not None
        assert not pool.contains("a")

    def test_install_existing_touches_lru(self, sim):
        pool, _log = make_pool(sim, n_frames=2)
        pool.install_warm("a", 0)
        pool.install_warm("b", 0)
        pool.install_warm("a", 0)   # touch
        pool.install_warm("c", 0)   # should evict b, not a
        assert pool.contains("a")
        assert not pool.contains("b")

    def test_stats_ratios(self, sim):
        pool, _log = make_pool(sim)
        run_process(sim, pool.fetch("a", simple_reader(sim)))
        run_process(sim, pool.fetch("a", simple_reader(sim)))
        assert pool.miss_ratio() == pytest.approx(0.5)
        assert pool.dirty_fraction() == 0.0

    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            BufferPool(sim, 0, None)


def scanned_dirty(pool):
    return sum(1 for frame in pool._frames.values() if frame.dirty)


class TestDirtyCount:
    """``dirty_count`` is a counter kept by the pool; it must always
    equal a scan of the frames."""

    def test_counter_follows_dirty_clean_and_eviction(self, sim):
        pool, _log = make_pool(sim, n_frames=2)
        a = run_process(sim, pool.fetch("a", simple_reader(sim)))
        flushed = pool.mark_dirty(a)
        pool.mark_dirty(a)                # already dirty: counted once
        assert pool.dirty_count == scanned_dirty(pool) == 1
        pool.mark_clean(a, flushed)       # stale version: stays dirty
        assert pool.dirty_count == 1
        pool.mark_clean(a, a.version)
        pool.mark_clean(a, a.version)     # already clean: no double count
        assert pool.dirty_count == scanned_dirty(pool) == 0
        b = run_process(sim, pool.fetch("b", simple_reader(sim)))
        pool.mark_dirty(a)
        pool.mark_dirty(b)
        # a third page evicts the dirty LRU tail after flushing it
        run_process(sim, pool.fetch("c", simple_reader(sim)))
        assert not pool.contains("a")
        assert pool.dirty_count == scanned_dirty(pool) == 1

    def test_counter_matches_scan_after_a_linkbench_run(self):
        sim = Simulator()
        data_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                             barriers=False)
        log_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                            barriers=False)
        engine = InnoDBEngine(sim, data_fs, log_fs, InnoDBConfig(
            page_size=8 * units.KIB, buffer_pool_bytes=2 * units.MIB))
        workload = LinkBenchWorkload(
            engine, LinkBenchConfig(db_bytes=32 * units.MIB, seed=2))
        workload.run(clients=16, ops_per_client=30, warmup_ops=2)
        pool = engine.pool
        assert pool.stats["evictions"] > 0
        assert pool.dirty_count == scanned_dirty(pool) > 0

    def test_counter_matches_scan_after_a_torture_trial(self, monkeypatch):
        worlds = []
        build_world = torture.build_world

        def recording_build_world(scenario, telemetry=None):
            world = build_world(scenario, telemetry)
            worlds.append(world)
            return world

        scenario = torture.TortureScenario(engine="innodb", device="durassd",
                                           ops=40, seed=3)
        recording = torture.record(scenario)
        monkeypatch.setattr(torture, "build_world", recording_build_world)
        cut = recording.cut_candidates[len(recording.cut_candidates) // 2]
        result = torture.run_trial(scenario, recording.ops, cut)
        assert result.fired
        pool = worlds[-1].engine.pool
        assert pool.dirty_count == scanned_dirty(pool)
