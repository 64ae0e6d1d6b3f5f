"""One repeat of one benchmark workload, in a fresh process.

``run.py`` starts this script once per repeat, one at a time, with
``PYTHONPATH`` pointing at the checkout's ``src``::

    python3 benchmarks/perf/worker.py --workload fio-gc --seed 1 \
        [--smoke] [--trace]

It builds the workload's world through the program's public
constructors, runs the measured phase, and prints one JSON record: the
host cost (CPU and wall seconds, peak RSS), the simulated results and
public counters (the *fingerprint*, which is deterministic for a seed),
and with ``--trace`` the per-layer attribution from :mod:`layers`.

The measured phase is the call that runs the workload
(``LinkBenchWorkload.run``, ``run_fio``, ``sweep``); every operation it
issues counts as an op, warm-up operations included, because the host
pays for them.
Set-up is everything before it: interpreter start, the ``repro``
import, world construction and the buffer-pool warm-up.

``ops`` counts what may fail (a LinkBench transaction, an fio I/O, a
torture trial); ``host_ops`` counts the work host throughput is measured
in.  The two are equal except on the torture sweep, whose host ops are
the device commands its trials complete: a seed's op stream decides how
many trials there are and how much each one replays, so across seeds the
CPU cost of a trial varied 1.5x while that of a command stayed within 6%.
"""

import argparse
import json
import resource
import sys
import time
from collections import Counter

from repro.bench import setups
from repro.db.innodb import InnoDBConfig, InnoDBEngine
from repro.failures import torture
from repro.host import FileSystem, QueueTopology
from repro.host.fio import FioJob, run_fio
from repro.sim import Simulator, units
from repro.sim.stats import LatencyRecorder
from repro.telemetry import MetricsRegistry, Telemetry
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload

import layers

#: per-workload sizes of one repeat; ``--smoke`` runs the small ones.
#: A full repeat costs about one CPU second on the machine of
#: ``baseline.json``: a run takes the best of many short repeats, which
#: bursty CPU interference disturbs far less than a few long ones (see
#: README.md).
SIZES = {
    "full": {
        "linkbench": {"clients": 128, "ops": 60, "warmup": 10},
        "fio": {"device": 64 * units.MIB, "file": 56 * units.MIB,
                "ios": 16000, "warmup": 4000},
        "torture": {"ops": 70},
    },
    "smoke": {
        "linkbench": {"clients": 16, "ops": 25, "warmup": 5},
        "fio": {"device": 64 * units.MIB, "file": 56 * units.MIB,
                "ios": 3000, "warmup": 1000},
        "torture": {"ops": 30},
    },
}

#: fio-gc's claim: the FTL ran in GC steady state
MIN_WAF = 1.3

#: the paper's database (100 GiB) at the repo's default 1/256 scale
DB_BYTES = 100 * units.GIB // 256

#: 2 GiB at 1/256: LinkBench then misses ~16% of page reads, so the
#: data device sees real reads and evictions
BUFFER_POOL_BYTES = 8 * units.MIB

#: nearest-rank percentiles (per mille) reported when at least ten
#: samples lie beyond them, highest first
TAILS = ((999, "sim_p999_ms"), (990, "sim_p99_ms"), (950, "sim_p95_ms"),
         (900, "sim_p90_ms"))


class Case:
    """A built world: the measured phase and how to read its results."""

    def __init__(self, layer, phase, finish):
        self.layer = layer      # the layer the workload call belongs to
        self.phase = phase      # () -> workload result
        self.finish = finish    # (workload result) -> fingerprint record


class Tally:
    """Public counters summed over every world a workload builds."""

    def __init__(self):
        self.raw = Counter()
        self.sim_seconds = 0.0

    def add(self, sim, engines=(), filesystems=(), devices=()):
        raw = self.raw
        self.sim_seconds += sim.now
        raw["events"] += sim.processed_events
        raw["telemetry.records"] += (len(sim.telemetry.events)
                                     + len(sim.telemetry.metrics.windows))
        filesystems = list(filesystems)
        for engine in engines:
            filesystems += [engine.data_fs, engine.log_fs]
            stats = engine.pool.stats
            raw["bp_hits"] += stats["hits"]
            raw["bp_misses"] += stats["misses"]
            raw["db.bp_evictions"] += stats["evictions"]
            raw["db.bp_reads_blocked_by_write"] += \
                stats["reads_blocked_by_write"]
            raw["db.wal_flushes"] += engine.wal.counters["flushes"]
            raw["commits"] += engine.counters["commits"]
            raw["aborts"] += engine.counters["aborts"]
            raw["db.lock_waits"] += engine.locks.counters["waits"]
            raw["db.pages_flushed"] += engine.counters["pages_flushed"]
            if engine.doublewrite is not None:
                raw["db.dwb_pages_written"] += \
                    engine.doublewrite.counters["pages_written"]
        for filesystem in filesystems:
            raw["host.fsyncs"] += filesystem.counters["fsyncs"]
            raw["host.barriers_issued"] += \
                filesystem.counters["barriers_issued"]
        for device in devices:
            for name in ("reads", "writes", "flushes", "blocks_written"):
                raw["devices." + name] += device.counters[name]
            raw["devices.cache_dedup_hits"] += device.cache.dedup_hits
            ftl = device.ftl
            raw["host_slot_writes"] += ftl.counters["host_slot_writes"]
            raw["gc_moved_slots"] += ftl.counters["gc_moved_slots"]
            raw["flash.gc_runs"] += ftl.counters["gc_runs"]
            raw["flash.nand_page_writes"] += ftl.counters["nand_page_writes"]
            raw["flash.erases"] += device.array.counters["erases"]
            manager = getattr(device, "recovery_manager", None)
            if manager is not None:
                raw["core.recoveries"] += manager.replays

    def counts(self):
        """The per-layer counters, by their benchmark names."""
        raw = self.raw
        counts = {name: raw[name] for name in (
            "db.bp_evictions", "db.bp_reads_blocked_by_write",
            "db.wal_flushes", "db.lock_waits", "db.pages_flushed",
            "db.dwb_pages_written", "host.fsyncs", "host.barriers_issued",
            "devices.reads", "devices.writes", "devices.flushes",
            "devices.blocks_written", "devices.cache_dedup_hits",
            "core.recoveries", "flash.gc_runs", "flash.erases",
            "flash.nand_page_writes", "failures.trials",
            "failures.trials_failed", "failures.violations",
            "telemetry.records")}
        accesses = raw["bp_hits"] + raw["bp_misses"]
        counts["db.bp_hit_ratio"] = (raw["bp_hits"] / accesses
                                     if accesses else 0.0)
        counts["db.commits_per_wal_flush"] = (
            raw["commits"] / raw["db.wal_flushes"]
            if raw["db.wal_flushes"] else 0.0)
        host = raw["host_slot_writes"]
        counts["flash.waf"] = ((host + raw["gc_moved_slots"]) / host
                               if host else 1.0)
        return counts


def latency_metrics(recorder):
    """Median and every tail percentile with ten samples beyond it."""
    samples = recorder.count
    metrics = {"sim_samples": samples,
               "sim_p50_ms": recorder.percentile(0.5) * 1e3}
    top = 500
    for permille, name in TAILS:
        if samples * (1000 - permille) >= 10 * 1000:
            metrics[name] = recorder.percentile(permille / 1000) * 1e3
            top = max(top, permille)
    # The tail the report prints: the highest percentile above.
    metrics["sim_tail_q"] = top / 1000
    metrics["sim_tail_ms"] = recorder.percentile(top / 1000) * 1e3
    return metrics


def linkbench(seed, size, barriers, telemetry):
    """LinkBench on InnoDB over DuraSSD data and log drives."""
    hub = (Telemetry(enabled=True, metrics=MetricsRegistry(interval=0.01))
           if telemetry else None)
    sim = Simulator(hub)
    queues = QueueTopology()
    data, _members = setups.make_data_target(
        sim, "durassd", int(DB_BYTES * 2.5), width=1, mirror=1,
        queue_model=queues)
    log = setups.make_device(sim, "durassd",
                             capacity_bytes=max(units.GIB, DB_BYTES // 4),
                             name="durassd.log")
    data_fs = FileSystem(sim, data, barriers=barriers, queue_model=queues)
    log_fs = FileSystem(sim, log, barriers=barriers, queue_model=queues)
    engine = InnoDBEngine(sim, data_fs, log_fs, InnoDBConfig(
        page_size=8 * units.KIB, buffer_pool_bytes=BUFFER_POOL_BYTES,
        doublewrite=barriers))
    workload = LinkBenchWorkload(engine,
                                 LinkBenchConfig(db_bytes=DB_BYTES, seed=seed))
    workload.warm()

    def phase():
        return workload.run(clients=size["clients"],
                            ops_per_client=size["ops"],
                            warmup_ops=size["warmup"], warm_buffer=False)

    def finish(result):
        # Drain the cleaner and the device flushers so every command
        # that was started has completed and been counted.
        engine.stop_cleaner()
        sim.run()
        tally = Tally()
        tally.add(sim, engines=(engine,), devices=(data, log))
        latencies = result.reads.merged_with(result.writes)
        record = {"ops": size["clients"] * (size["ops"] + size["warmup"]),
                  "failed": tally.raw["aborts"],
                  "sim_ops_per_s": result.tps}
        record.update(latency_metrics(latencies))
        checks = []
        if latencies.count != size["clients"] * size["ops"]:
            checks.append("measured %d ops, want %d" % (
                latencies.count, size["clients"] * size["ops"]))
        flushes = tally.raw["devices.flushes"]
        if barriers and not flushes:
            checks.append("barriers on but no flush-cache was issued")
        if not barriers and flushes:
            checks.append("durable cache issued %d flush-cache commands"
                          % flushes)
        return tally, record, checks
    return Case("workloads", phase, finish)


def fio_gc(seed, size):
    """fio random writes at queue depth 1 into a file 7x the write buffer,
    on a device whose file extent was written once before."""
    sim = Simulator()
    device = setups.make_device(sim, "durassd", capacity_bytes=size["device"])
    filesystem = FileSystem(sim, device, barriers=False,
                            queue_model=QueueTopology())
    # Precondition the drive, as SSD benchmarks do: with the extent that
    # fio's file will occupy already mapped, every overwrite leaves an
    # invalid page behind and GC runs from the first I/O, instead of
    # after the first 64 MiB of writes.
    base, _length = filesystem.target.region("data")
    for lba in range(base, base + size["file"] // units.LBA_SIZE):
        device.install_persistent(lba, ("aged", lba))
    job = FioJob(rw="randwrite", block_size=4 * units.KIB, numjobs=1,
                 ios_per_job=size["ios"], fsync_every=8,
                 file_size=size["file"], warmup_ios=size["warmup"], seed=seed)

    def phase():
        return run_fio(sim, filesystem, job)

    def finish(result):
        tally = Tally()
        tally.add(sim, filesystems=(filesystem,), devices=(device,))
        record = {"ops": size["ios"] + size["warmup"],
                  "failed": size["ios"] - result.completed,
                  "sim_ops_per_s": result.iops}
        record.update(latency_metrics(result.latency))
        checks = []
        waf = tally.counts()["flash.waf"]
        if waf <= MIN_WAF:
            checks.append("write amplification %.3f, want > %s: the FTL "
                          "never reached GC steady state" % (waf, MIN_WAF))
        return tally, record, checks
    return Case("host", phase, finish)


def torture_sweep(seed, size):
    """An exhaustive crash-point sweep of InnoDB on DuraSSD."""
    scenario = torture.TortureScenario(engine="innodb", device="durassd",
                                       ops=size["ops"], seed=seed)
    tally = Tally()
    built = []
    build_world = torture.build_world

    def counting_build_world(scenario, telemetry=None):
        # The sweep builds one world per trial; count each one's public
        # counters once it is finished, i.e. when the next is built.
        if built:
            _tally_world(tally, built.pop())
        world = build_world(scenario, telemetry)
        built.append(world)
        return world

    torture.build_world = counting_build_world

    def phase():
        return torture.sweep(scenario)

    def finish(result):
        while built:
            _tally_world(tally, built.pop())
        trials = result.trials
        raw = tally.raw
        raw["failures.trials"] = len(trials)
        raw["failures.trials_failed"] = len(result.failures)
        raw["failures.violations"] = sum(len(t.violations) for t in trials)
        recovery = LatencyRecorder("recovery")
        recovery.extend(trial.recovery_seconds for trial in trials)
        record = {"ops": len(trials), "failed": len(result.failures),
                  "host_ops": raw["devices.reads"] + raw["devices.writes"],
                  "sim_ops_per_s": len(trials) / sum(
                      trial.cut_time + trial.recovery_seconds
                      for trial in trials)}
        record.update(latency_metrics(recovery))
        checks = []
        if result.mode != "exhaustive":
            checks.append("sweep ran %s, want exhaustive" % result.mode)
        return tally, record, checks
    return Case("failures", phase, finish)


def _tally_world(tally, world):
    tally.add(world.sim, engines=(world.engine,), devices=world.devices)


WORKLOADS = {
    "linkbench-durable": lambda seed, sizes: linkbench(
        seed, sizes["linkbench"], barriers=False, telemetry=False),
    "linkbench-flush": lambda seed, sizes: linkbench(
        seed, sizes["linkbench"], barriers=True, telemetry=False),
    "linkbench-telemetry": lambda seed, sizes: linkbench(
        seed, sizes["linkbench"], barriers=False, telemetry=True),
    "fio-gc": lambda seed, sizes: fio_gc(seed, sizes["fio"]),
    "torture-sweep": lambda seed, sizes: torture_sweep(seed,
                                                       sizes["torture"]),
}


def cpu_seconds():
    """User plus system CPU of this process and any children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


def run(workload, seed, smoke=False, trace=False):
    """One repeat; returns the JSON-ready record."""
    tracer = None
    if trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    case = WORKLOADS[workload](seed, SIZES["smoke" if smoke else "full"])
    setup_cpu = cpu_seconds()
    if tracer is not None:
        tracer.restart()
        tracer.enter(case.layer)
    wall = time.perf_counter()
    try:
        outcome = case.phase()
    finally:
        if tracer is not None:
            tracer.leave()
    phase_cpu = cpu_seconds() - setup_cpu
    wall = time.perf_counter() - wall
    self_s = tracer.snapshot() if tracer is not None else None
    tally, fingerprint, checks = case.finish(outcome)
    fingerprint.setdefault("host_ops", fingerprint["ops"])
    fingerprint["sim_seconds"] = tally.sim_seconds
    fingerprint.update(tally.counts())
    result = {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "setup_cpu_s": setup_cpu,
        "phase_cpu_s": phase_cpu,
        "phase_wall_s": wall,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": tally.raw["events"],
        "fingerprint": fingerprint,
        "checks": checks,
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": self_s,
            "calls": dict(tracer.calls),
            "processes": tracer.processes,
            "sim_ms": {name: _percentiles_ms(tracer.sim_durations[name])
                       for name in sorted(set(layers.SIM_TIMED.values()))},
        }
    return result


def _percentiles_ms(durations):
    recorder = LatencyRecorder()
    recorder.extend(durations)
    if not recorder.count:
        return {"p50": 0.0, "p99": 0.0}
    return {"p50": recorder.percentile(0.5) * 1e3,
            "p99": recorder.percentile(0.99) * 1e3}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.smoke, args.trace),
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
