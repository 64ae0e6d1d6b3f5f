"""Cross-mechanism comparison: five roads to atomic page writes.

The paper's Sections 2.1 and 5.3 enumerate the ways systems survive
torn pages; this bench runs the *same* LinkBench-style update load over
each and reports throughput, barriers and bytes written:

1. InnoDB **double-write buffer** on a conventional SSD (barriers on),
2. PostgreSQL **full-page writes** (before-images into the WAL),
3. SQLite-style **rollback journal** (the single-writer extreme),
4. FusionIO-style **device atomic writes** (no DWB, but still barriers
   — Ouyang et al.'s ~40% improvement over 1),
5. **DuraSSD**: no DWB, no barriers (the paper's ~25%-plus-6x answer).

All mechanisms protect the data; only the price differs.
"""

from ..db.innodb import InnoDBConfig, InnoDBEngine
from ..db.postgres import PostgresConfig, PostgresEngine
from ..db.sqlite import SQLiteConfig, SQLiteEngine
from ..devices import make_fusionio
from ..sim import units
from ..workloads.linkbench import LinkBenchConfig, LinkBenchWorkload
from . import setups
from .tableio import render_table


def _linkbench_tps(engine, data_devices, ops):
    workload = LinkBenchWorkload(
        engine, LinkBenchConfig(db_bytes=setups.scaled_db_bytes() // 4))
    result = workload.run(clients=32, ops_per_client=ops, warmup_ops=10)

    def total(counter):
        return sum(device.counters[counter] for device in data_devices)
    return {
        "tps": result.tps,
        "write_p99_ms": result.writes.percentile(0.99) * 1e3,
        "barriers": total("flushes"),
        "host_mib": total("blocks_written") * units.LBA_SIZE / units.MIB,
    }


def _engine_world(sim, device_kind, barriers, engine_cls, config):
    """``(engine, data devices)`` on a data and a log drive of
    ``device_kind`` or, with ``"fusionio"``, of that bespoke device."""
    db_bytes = setups.scaled_db_bytes() // 4
    log_name = "%s.log" % device_kind
    if device_kind == "fusionio":
        data_target = make_fusionio(sim, capacity_bytes=int(db_bytes * 3))
        data_devices = (data_target,)
        log_device = make_fusionio(sim, capacity_bytes=units.GIB,
                                   name=log_name)
    else:
        data_target, data_devices = setups.make_data_target(
            sim, device_kind, int(db_bytes * 3))
        log_device = setups.make_device(sim, device_kind,
                                        capacity_bytes=units.GIB,
                                        name=log_name)
    engine = engine_cls(sim, setups.file_system(sim, data_target, barriers),
                        setups.file_system(sim, log_device, barriers), config)
    return engine, data_devices


def run(world, ops=None):
    if ops is None:
        ops = setups.ops_scale(60)
    sizes = dict(page_size=8 * units.KIB,
                 buffer_pool_bytes=setups.scaled(10) // 4)
    cases = (
        ("InnoDB doublewrite (SSD, barriers)", "ssd-a", True,
         InnoDBEngine, InnoDBConfig(doublewrite=True, **sizes)),
        ("PostgreSQL full-page writes (SSD, barriers)", "ssd-a", True,
         PostgresEngine, PostgresConfig(full_page_writes=True, **sizes)),
        ("FusionIO atomic writes, no DWB (barriers)", "fusionio", True,
         InnoDBEngine, InnoDBConfig(doublewrite=False, **sizes)),
        ("DuraSSD, no DWB, no barriers", "durassd", False,
         InnoDBEngine, InnoDBConfig(doublewrite=False, **sizes)),
    )
    results = []
    for label, device_kind, barriers, engine_cls, config in cases:
        engine, devices = _engine_world(world(label), device_kind, barriers,
                                        engine_cls, config)
        results.append((label, _linkbench_tps(engine, devices, ops)))
    return results


def run_sqlite_comparison(world, txns=300):
    """The embedded-engine extreme: journal vs journal-off on DuraSSD,
    each mode on ``world(label)``."""
    results = []
    for journal_mode, barriers, label in (
            ("rollback", True, "rollback journal, barriers (classic)"),
            ("rollback", False, "rollback journal, nobarrier (DuraSSD)"),
            ("off", False, "journal OFF, nobarrier (DuraSSD atomic)")):
        sim = world(label)
        target, _members = setups.make_data_target(sim, "durassd", units.GIB)
        fs = setups.file_system(sim, target, barriers)
        engine = SQLiteEngine(sim, fs, SQLiteConfig(
            journal_mode=journal_mode))
        from repro.sim.rng import make_rng
        rng = make_rng(17)

        def body():
            for _ in range(txns):
                pages = [rng.randrange(engine.config.n_pages)
                         for _ in range(2)]
                yield from engine.write_transaction(pages)

        process = sim.process(body())
        sim.run_until(process)
        results.append({
            "label": label,
            "tps": txns / sim.now,
            "barriers": engine.counters["barriers"],
            "journal_pages": engine.counters["journal_pages"],
        })
    return results


def format_table(results):
    headers = ["mechanism", "TPS", "write p99 ms", "barriers", "host MiB"]
    rows = [[label, round(r["tps"]), round(r["write_p99_ms"], 1),
             r["barriers"], round(r["host_mib"], 1)]
            for label, r in results]
    return render_table(
        "Atomic-page-write mechanisms under the same update load",
        headers, rows)


def format_sqlite_table(results):
    headers = ["SQLite mode", "txn/s", "barriers", "journal pages"]
    rows = [[r["label"], round(r["tps"]), r["barriers"],
             r["journal_pages"]] for r in results]
    return render_table("Embedded-engine journal cost", headers, rows)
