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
drain), and both with the cache off (write-through).  The gray worlds
arm the command lifecycle's deadlines on the SATA queue and on a
two-queue NVMe model, so commands time out, are aborted and unwind
through the device's service frame while a soft reset sweeps the rest;
the torture sweep builds one world per power-cut trial.

Each world also pins what its devices did: a digest of every device's
completed commands, ``(op, lba, nblocks, complete_time)`` in completion
order, device by device in creation order.  A speed change may drop
queue entries, and so fire same-instant entries in a new order, which
moves ``processed_events`` (it may only fall); it may not move a
command, a completion time or the final clock.  A change that moves the
schedule on purpose records the new values here and says why.
"""

import hashlib

import pytest

from repro.bench import setups, table1
from repro.db.innodb import InnoDBConfig, InnoDBEngine
from repro.devices.base import StorageDevice
from repro.failures import torture
from repro.host import FileSystem, QueueTopology
from repro.host.fio import FioJob, run_fio
from repro.sim import Simulator, units
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload

#: world -> (processed_events, final sim.now).  The event counts fell
#: when the command path began to serve each command in the process
#: that issues it down to the device (no process per layer above it,
#: no timeout per delay, no queue entry on a free resource unit); every
#: final clock and command digest stayed as it was.
PINNED = {
    "fio-preconditioned": (42920, 0.6144665104166734),
    "linkbench-durable": (6510, 0.18120950000000005),
    "linkbench-flush": (7155, 0.21057079166666665),
    "table1-hdd-on-8": (1194, 0.867186593749996),
    "table1-ssd-a-on-8": (4897, 0.37976328125000197),
    "table1-hdd-off-8": (573, 0.7693124374999996),
    "table1-ssd-a-off-8": (2361, 0.5083976145833364),
    "gray-mild-sata": (5852, 0.36081696081787723),
    "gray-mild-nvme-sq2": (6267, 0.4074456851738067),
}

#: the smoke torture sweep: (processed_events summed over every world
#: it builds, trials)
TORTURE_PINNED = (5094, 17)

#: world -> sha256 of its devices' completed commands (see
#: :func:`command_log`); "torture-sweep" covers every world it builds
COMMANDS_PINNED = {
    "fio-preconditioned":
        "6e20af5c61220ec38f542a7aed3d56ecd65f01d01c3996ae673c5bc7326c5f6f",
    "gray-mild-nvme-sq2":
        "2a96b5a9b123e97f416e1c0ce61187fe9e2959b6c330e6078874f7346fe127ab",
    "gray-mild-sata":
        "77bf6f2b8feb17fe587a5340b6c11a67fbbe0e1a52050c9109decef90d80a5dd",
    "linkbench-durable":
        "e44ed1296e83b745bca8277d6deba2e05872e198c75ea511284a0e9d6d106e0e",
    "linkbench-flush":
        "170438fec19bd1a8116a751df9a1213845469f37e126bc32a82a54e5b022aeb1",
    "table1-hdd-off-8":
        "35455b5549ae27537b427190adf1a98615a6638935b12617443c6b7d9e70a6c9",
    "table1-hdd-on-8":
        "4bdd3090a736bf6321fdc97548971bf3051d779a762a353eca9bb4231144f873",
    "table1-ssd-a-off-8":
        "712528c622fc5e9acfc7aaa83655b6eb6959f5099974baf8a73b808d50da22f2",
    "table1-ssd-a-on-8":
        "553e01bf9c6abbab98c98d694d37e41922745f8b5e6e860f0ca642ad0d8a8279",
    "torture-sweep":
        "975dff2c96393997abb5fa9cf4f199d3d62b8f8cba7ecb5e583d144c7c111655",
}


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


@pytest.fixture
def command_log(monkeypatch):
    """Record every device's completed commands; returns a function
    giving the digest of what was recorded so far."""
    logs = []
    init = StorageDevice.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._pinned_log = []
        logs.append(self._pinned_log)

    monkeypatch.setattr(StorageDevice, "__init__", recording_init)
    for cls in _subclasses(StorageDevice):
        if "_on_command_end" not in vars(cls):
            continue
        original = vars(cls)["_on_command_end"]

        def recording_end(self, request, original=original):
            self._pinned_log.append((request.op, request.lba,
                                     request.nblocks,
                                     repr(request.complete_time)))
            original(self, request)

        monkeypatch.setattr(cls, "_on_command_end", recording_end)

    def digest():
        text = "\n\n".join("\n".join(" ".join(map(str, entry))
                                     for entry in log)
                            for log in logs)
        return hashlib.sha256(text.encode()).hexdigest()

    return digest


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


def gray_world(interface):
    """fio on a DuraSSD under the ``mild`` gray-fault profile with the
    bench command deadlines: four jobs of 150 4 KiB random writes,
    fsync every 8 with barriers on, so writes and flushes both run the
    lifecycle's escalation ladder."""
    topology = QueueTopology(interface=interface, submission_queues=2)
    sim = setups.World(setups.WorldSpec(gray_faults="mild",
                                        topology=topology))
    device = setups.make_device(sim, "durassd", capacity_bytes=64 * units.MIB)
    filesystem = setups.file_system(sim, device, barriers=True)
    job = FioJob(rw="randwrite", block_size=4 * units.KIB, numjobs=4,
                 ios_per_job=150, fsync_every=8, file_size=16 * units.MIB,
                 seed=1)
    result = run_fio(sim, filesystem, job)
    assert result.completed == 600
    assert device.counters["aborts"] > 0 and device.counters["resets"] > 0
    return sim


WORLDS = {
    "fio-preconditioned": fio_world,
    "linkbench-durable": lambda: linkbench_world(barriers=False),
    "linkbench-flush": lambda: linkbench_world(barriers=True),
    "table1-hdd-on-8": lambda: table1_world("hdd", "on", 200),
    "table1-ssd-a-on-8": lambda: table1_world("ssd-a", "on", 600),
    "table1-hdd-off-8": lambda: table1_world("hdd", "off", 100),
    "table1-ssd-a-off-8": lambda: table1_world("ssd-a", "off", 200),
    "gray-mild-sata": lambda: gray_world("sata"),
    "gray-mild-nvme-sq2": lambda: gray_world("nvme"),
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_schedule_is_pinned(name, command_log):
    sim = WORLDS[name]()
    assert (sim.processed_events, sim.now) == PINNED[name]
    assert command_log() == COMMANDS_PINNED[name]


def test_torture_sweep_schedule_is_pinned(monkeypatch, command_log):
    """The smoke sweep of ``benchmarks/perf``'s torture workload: InnoDB
    on DuraSSD, 30 ops, every ack boundary a power cut."""
    worlds = []
    build_world = torture.build_world

    def recording_build_world(scenario, telemetry=None):
        world = build_world(scenario, telemetry)
        worlds.append(world)
        return world

    monkeypatch.setattr(torture, "build_world", recording_build_world)
    result = torture.sweep(torture.TortureScenario(
        engine="innodb", device="durassd", ops=30, seed=1))
    assert result.mode == "exhaustive" and result.clean
    events = sum(world.sim.processed_events for world in worlds)
    assert (events, len(result.trials)) == TORTURE_PINNED
    assert command_log() == COMMANDS_PINNED["torture-sweep"]
