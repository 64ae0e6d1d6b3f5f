"""The event schedule of small benchmark and Table 1 worlds, pinned.

A speed change to the kernel or the command path must fire the same
queue entries in the same ``(time, schedule order)``.  The table values
of these worlds would often survive an entry being added, dropped or
moved (say, a same-instant hop skipped), so the pins are the cheap
fingerprint the replay harnesses use: ``sim.processed_events`` and the
final clock, compared exactly.

The first worlds mirror the ``fio-gc`` and LinkBench workloads of
``benchmarks/perf`` at their smoke sizes, built through the public
constructors.  Those all run DuraSSD with its cache on, so the Table 1
cells add what they leave out: the disk and the volatile SSD behind
fsync every 8 writes (cached writes, the flusher and the flush-cache
drain), and both with the cache off (write-through).  A change that
moves the schedule on purpose records the new values here and says why.
"""

import pytest

from repro.bench import setups, table1
from repro.db.innodb import InnoDBConfig, InnoDBEngine
from repro.host import FileSystem, QueueTopology
from repro.host.fio import FioJob, run_fio
from repro.sim import Simulator, units
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload

#: world -> (processed_events, final sim.now)
PINNED = {
    "fio-preconditioned": (62545, 0.6144665104166734),
    "linkbench-durable": (8675, 0.18120950000000005),
    "linkbench-flush": (9318, 0.21057079166666665),
    "table1-hdd-on-8": (2209, 0.867186593749996),
    "table1-ssd-a-on-8": (7911, 0.37976328125000197),
    "table1-hdd-off-8": (1083, 0.7693124374999996),
    "table1-ssd-a-off-8": (3376, 0.5083976145833364),
}


def fio_world():
    """fio 4 KiB random writes at queue depth 1, fsync every 8, into a
    56 MiB file whose extent was written once before the run."""
    sim = Simulator()
    device = setups.make_device(sim, "durassd", capacity_bytes=64 * units.MIB)
    filesystem = FileSystem(sim, device, barriers=False,
                            queue_model=QueueTopology())
    file_size = 56 * units.MIB
    base, _length = filesystem.target.region("data")
    for lba in range(base, base + file_size // units.LBA_SIZE):
        device.install_persistent(lba, ("aged", lba))
    job = FioJob(rw="randwrite", block_size=4 * units.KIB, numjobs=1,
                 ios_per_job=3000, fsync_every=8, file_size=file_size,
                 warmup_ios=1000, seed=1)
    result = run_fio(sim, filesystem, job)
    assert result.completed == 3000
    return sim


def linkbench_world(barriers):
    """LinkBench, 16 clients x (5 warm-up + 25) ops, on InnoDB over
    DuraSSD data and log drives; then the cleaner and flushers drain."""
    db_bytes = 100 * units.GIB // 256
    sim = Simulator()
    queues = QueueTopology()
    data, _members = setups.make_data_target(
        sim, "durassd", int(db_bytes * 2.5), width=1, mirror=1,
        queue_model=queues)
    log = setups.make_device(sim, "durassd",
                             capacity_bytes=max(units.GIB, db_bytes // 4),
                             name="durassd.log")
    data_fs = FileSystem(sim, data, barriers=barriers, queue_model=queues)
    log_fs = FileSystem(sim, log, barriers=barriers, queue_model=queues)
    engine = InnoDBEngine(sim, data_fs, log_fs, InnoDBConfig(
        page_size=8 * units.KIB, buffer_pool_bytes=8 * units.MIB,
        doublewrite=barriers))
    workload = LinkBenchWorkload(engine,
                                 LinkBenchConfig(db_bytes=db_bytes, seed=1))
    workload.run(clients=16, ops_per_client=25, warmup_ops=5)
    engine.stop_cleaner()
    sim.run()
    assert (data.counters["flushes"] + log.counters["flushes"] > 0) \
        == barriers
    return sim


def table1_world(kind, mode, ios):
    """One Table 1 cell: fio 4 KiB random writes at queue depth 1,
    fsync every 8, ``ios`` writes."""
    sim = Simulator()
    table1.measure_cell(sim, kind, mode, 8, ios=ios)
    return sim


WORLDS = {
    "fio-preconditioned": fio_world,
    "linkbench-durable": lambda: linkbench_world(barriers=False),
    "linkbench-flush": lambda: linkbench_world(barriers=True),
    "table1-hdd-on-8": lambda: table1_world("hdd", "on", 200),
    "table1-ssd-a-on-8": lambda: table1_world("ssd-a", "on", 600),
    "table1-hdd-off-8": lambda: table1_world("hdd", "off", 100),
    "table1-ssd-a-off-8": lambda: table1_world("ssd-a", "off", 200),
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_schedule_is_pinned(name):
    sim = WORLDS[name]()
    assert (sim.processed_events, sim.now) == PINNED[name]
