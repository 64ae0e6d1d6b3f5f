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
from ..devices import make_durassd, make_fusionio, make_ssd_a
from ..host import FileSystem
from ..sim import units
from ..workloads.linkbench import LinkBenchConfig, LinkBenchWorkload
from . import setups
from .tableio import render_table


def _linkbench_tps(engine, data_device, ops):
    workload = LinkBenchWorkload(
        engine, LinkBenchConfig(db_bytes=setups.scaled_db_bytes() // 4))
    result = workload.run(clients=32, ops_per_client=ops, warmup_ops=10)
    return {
        "tps": result.tps,
        "write_p99_ms": result.writes.percentile(0.99) * 1e3,
        "barriers": data_device.counters["flushes"],
        "host_mib": (data_device.counters["blocks_written"]
                     * units.LBA_SIZE / units.MIB),
    }


def _engine_world(device_maker, barriers, engine_cls, config, spec, worlds):
    sim = setups.fresh_world(spec=spec, worlds=worlds)
    db_bytes = setups.scaled_db_bytes() // 4
    data_device = device_maker(sim, capacity_bytes=int(db_bytes * 3))
    log_device = device_maker(sim, capacity_bytes=units.GIB)
    data_fs = FileSystem(sim, data_device, barriers=barriers)
    log_fs = FileSystem(sim, log_device, barriers=barriers)
    engine = engine_cls(sim, data_fs, log_fs, config)
    return engine, data_device


def run(ops=None, spec=setups.DEFAULT_SPEC, worlds=None):
    if ops is None:
        ops = setups.ops_scale(60)
    page = 8 * units.KIB
    buffer_bytes = setups.scaled(10) // 4
    results = []

    engine, device = _engine_world(
        make_ssd_a, True, InnoDBEngine,
        InnoDBConfig(page_size=page, buffer_pool_bytes=buffer_bytes,
                     doublewrite=True), spec, worlds)
    results.append(("InnoDB doublewrite (SSD, barriers)",
                    _linkbench_tps(engine, device, ops)))

    engine, device = _engine_world(
        make_ssd_a, True, PostgresEngine,
        PostgresConfig(page_size=page, buffer_pool_bytes=buffer_bytes,
                       full_page_writes=True), spec, worlds)
    results.append(("PostgreSQL full-page writes (SSD, barriers)",
                    _linkbench_tps(engine, device, ops)))

    engine, device = _engine_world(
        make_fusionio, True, InnoDBEngine,
        InnoDBConfig(page_size=page, buffer_pool_bytes=buffer_bytes,
                     doublewrite=False), spec, worlds)
    results.append(("FusionIO atomic writes, no DWB (barriers)",
                    _linkbench_tps(engine, device, ops)))

    engine, device = _engine_world(
        make_durassd, False, InnoDBEngine,
        InnoDBConfig(page_size=page, buffer_pool_bytes=buffer_bytes,
                     doublewrite=False), spec, worlds)
    results.append(("DuraSSD, no DWB, no barriers",
                    _linkbench_tps(engine, device, ops)))
    return results


def run_sqlite_comparison(txns=300, spec=setups.DEFAULT_SPEC, worlds=None):
    """The embedded-engine extreme: journal vs journal-off on DuraSSD."""
    results = []
    for journal_mode, barriers, label in (
            ("rollback", True, "rollback journal, barriers (classic)"),
            ("rollback", False, "rollback journal, nobarrier (DuraSSD)"),
            ("off", False, "journal OFF, nobarrier (DuraSSD atomic)")):
        sim = setups.fresh_world(spec=spec, worlds=worlds)
        device = make_durassd(sim, capacity_bytes=units.GIB)
        fs = FileSystem(sim, device, barriers=barriers)
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
