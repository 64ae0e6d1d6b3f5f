"""End-to-end integration tests across the full stack.

Each test exercises the whole pipeline — workload -> engine -> file
system -> NCQ -> device cache -> FTL -> NAND — and asserts a paper-level
claim rather than a module-level detail.
"""

import pytest

from repro.bench import setups
from repro.db import InnoDBConfig, InnoDBEngine
from repro.devices import make_durassd, make_ssd_a
from repro.host import FileSystem, FioJob, run_fio
from repro.sim import Simulator, units
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload
from repro.workloads.ycsb import YCSBConfig, YCSBWorkload
from repro.db.couchstore import CouchstoreConfig, CouchstoreEngine


def linkbench_run(barriers, doublewrite, page_size=8 * units.KIB,
                  clients=32, ops=40):
    sim = Simulator()
    data_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                         barriers=barriers)
    log_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                        barriers=barriers)
    engine = InnoDBEngine(sim, data_fs, log_fs,
                          InnoDBConfig(page_size=page_size,
                                       buffer_pool_bytes=8 * units.MIB,
                                       doublewrite=doublewrite))
    workload = LinkBenchWorkload(
        engine, LinkBenchConfig(db_bytes=128 * units.MIB))
    return workload.run(clients=clients, ops_per_client=ops, warmup_ops=10)


class TestHeadlineClaims:
    def test_nobarrier_beats_barrier_on_durassd(self):
        slow = linkbench_run(barriers=True, doublewrite=True)
        fast = linkbench_run(barriers=False, doublewrite=False)
        assert fast.tps > 2 * slow.tps

    def test_tail_latency_improves(self):
        slow = linkbench_run(barriers=True, doublewrite=True)
        fast = linkbench_run(barriers=False, doublewrite=False)
        assert (slow.writes.percentile(0.99)
                > 2 * fast.writes.percentile(0.99))

    def test_redundant_write_elimination_halves_nand_traffic(self):
        """Paper Section 6: doublewrite halves update throughput and
        device lifetime; dropping it halves the bytes to flash."""
        def nand_bytes(doublewrite):
            sim = Simulator()
            data_device = make_durassd(sim, capacity_bytes=units.GIB)
            data_fs = FileSystem(sim, data_device, barriers=False)
            log_fs = FileSystem(sim,
                                make_durassd(sim, capacity_bytes=units.GIB),
                                barriers=False)
            engine = InnoDBEngine(
                sim, data_fs, log_fs,
                InnoDBConfig(page_size=8 * units.KIB,
                             buffer_pool_bytes=8 * units.MIB,
                             doublewrite=doublewrite))
            workload = LinkBenchWorkload(
                engine, LinkBenchConfig(db_bytes=128 * units.MIB))
            workload.run(clients=16, ops_per_client=40, warmup_ops=5)
            flushed = max(1, engine.counters["pages_flushed"])
            return data_device.counters["blocks_written"] / flushed

        with_dwb = nand_bytes(True)
        without = nand_bytes(False)
        assert with_dwb > 1.6 * without

    def test_fio_and_oltp_agree_on_barrier_cost(self):
        """The microbenchmark and the OLTP stack see the same mechanism."""
        def fio_ratio():
            results = []
            for barriers in (True, False):
                sim = Simulator()
                fs = FileSystem(sim, make_durassd(sim), barriers=barriers)
                job = FioJob(rw="randwrite", ios_per_job=150, fsync_every=1)
                results.append(run_fio(sim, fs, job).iops)
            return results[1] / results[0]

        assert fio_ratio() > 10  # fio says barriers cost >10x at fsync=1


class TestDeviceSubstrateUnderLoad:
    def test_gc_triggers_under_sustained_writes(self):
        """A small device under churn must garbage-collect, and the
        OLTP workload above it must still complete correctly."""
        sim = Simulator()
        device = make_durassd(sim, capacity_bytes=96 * units.MIB)
        fs = FileSystem(sim, device, barriers=False)
        job = FioJob(rw="randwrite", block_size=4 * units.KIB,
                     numjobs=8, ios_per_job=6000,
                     file_size=64 * units.MIB)
        result = run_fio(sim, fs, job)
        assert result.completed == 48000
        assert device.ftl.counters["gc_runs"] > 0
        # wear is accounted and bounded
        _min_w, max_w, total = device.ftl.wear()
        assert total > 0 and max_w < 100

    def test_ycsb_over_full_stack_with_gc(self):
        sim = Simulator()
        device = make_durassd(sim, capacity_bytes=96 * units.MIB)
        fs = FileSystem(sim, device, barriers=False)
        engine = CouchstoreEngine(
            sim, fs, CouchstoreConfig(batch_size=10,
                                      file_bytes=64 * units.MIB))
        workload = YCSBWorkload(engine, YCSBConfig("A"))
        result = workload.run(clients=2, ops_per_client=1500, warmup_ops=20)
        assert result.ops_per_second > 0

    def test_dedup_in_device_cache_under_hot_writes(self):
        """Re-writing the same block while buffered consumes no extra
        flash endurance (Section 3.1.1's dedup)."""
        sim = Simulator()
        device = make_durassd(sim)
        from repro.devices import IORequest

        def body():
            for i in range(200):
                yield from device.submit(IORequest("write", 7, 1,
                                                   payload=[("v", i)]))

        process = sim.process(body())
        sim.run_until(process)
        sim.run()  # let the flusher drain
        assert device.cache.dedup_hits > 100
        assert device.ftl.counters["host_slot_writes"] < 100


class TestScaleKnobs:
    def test_smaller_scale_means_bigger_db(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "512")
        small = setups.scaled_db_bytes()
        monkeypatch.setenv("REPRO_SCALE", "128")
        big = setups.scaled_db_bytes()
        assert big == 4 * small
