"""Ablation benches for the design choices the paper argues in prose.

These go beyond the numbered tables/figures:

* **write amplification / lifetime** (Sections 1 and 6): the paper
  claims avoiding redundant writes plus 4KB pages cuts the data written
  to flash by more than 50%, prolonging device life.
* **capacitor budget** (Section 3.1): the dump must cover the buffer
  pool + mapping delta; an under-provisioned bank loses acked data.
* **mapping granularity** (Section 3.1.2): 4KB mapping doubles the
  small-write drain rate by pairing, at ~1% DRAM cost.
* **flush-vs-ordered-NCQ** (Section 3.3): how much throughput the
  no-flush design recovers compared with flushing on every barrier.
"""

from ..core import CapacitorBank, DuraSSD
from ..devices import IORequest
from ..devices.presets import durassd_spec
from ..failures import PowerFailureInjector, check_device, check_write_order
from ..host import FioJob, run_fio
from ..sim import units
from ..sim.rng import make_rng
from ..workloads.linkbench import LinkBenchConfig, LinkBenchWorkload
from . import setups
from .tableio import render_table


# --- write amplification & lifetime ------------------------------------------
def run_write_amplification(world, ops_per_client=None):
    """Bytes written to flash per logical page update, across the four
    Figure-5 configurations (plus the page-size effect)."""
    results = []
    cases = [
        ("ON/ON 16KB (default)", True, True, 16 * units.KIB),
        ("ON/OFF 16KB", True, False, 16 * units.KIB),
        ("OFF/OFF 16KB", False, False, 16 * units.KIB),
        ("OFF/OFF 4KB (best)", False, False, 4 * units.KIB),
    ]
    for label, barrier, doublewrite, page_size in cases:
        sim = world(label)
        engine, devices = setups.mysql_setup(sim, page_size, barrier,
                                             doublewrite, buffer_gb=10)
        workload = LinkBenchWorkload(
            engine, LinkBenchConfig(db_bytes=setups.scaled_db_bytes()))
        ops = ops_per_client if ops_per_client is not None \
            else setups.ops_scale(60)
        workload.run(clients=64, ops_per_client=ops, warmup_ops=10)
        data_device = devices[0]
        flushed = engine.counters["pages_flushed"]
        host_blocks = data_device.counters["blocks_written"]
        nand_pages = data_device.ftl.counters["nand_page_writes"]
        nand_bytes = nand_pages * data_device.array.geometry.page_size
        results.append({
            "label": label,
            "logical_page_flushes": flushed,
            "host_bytes": host_blocks * units.LBA_SIZE,
            "nand_bytes": nand_bytes,
            "bytes_per_flush": (nand_bytes / flushed) if flushed else 0.0,
        })
    return results


def format_write_amplification(results):
    headers = ["configuration", "page flushes", "host MB", "NAND MB",
               "NAND KB/flush"]
    rows = [[r["label"], r["logical_page_flushes"],
             round(r["host_bytes"] / units.MIB, 1),
             round(r["nand_bytes"] / units.MIB, 1),
             round(r["bytes_per_flush"] / units.KIB, 1)]
            for r in results]
    default = results[0]["bytes_per_flush"]
    best = results[-1]["bytes_per_flush"]
    saved = 100.0 * (1 - best / default) if default else 0.0
    table = render_table(
        "Ablation: write amplification / device lifetime", headers, rows)
    return table + ("\nflash bytes per logical flush, default vs best: "
                    "-%.0f%% (paper: 'reduced more than 50%%')" % saved)


# --- capacitor budget sweep ------------------------------------------------------
def run_capacitor_sweep(world, counts=(0, 1, 2, 4, 8, 15), writes=400):
    """Acked 4KB writes lost at power failure vs capacitor count."""
    results = []
    for count in counts:
        sim = world(count)
        bank = CapacitorBank(count=count)
        device = DuraSSD(sim, durassd_spec(), capacitors=bank)
        device.record_acks = True

        def hammer(device=device):
            for i in range(writes):
                request = IORequest("write", i % device.exported_lbas, 1,
                                    payload=[("w", i)])
                yield device.submit(request)

        process = sim.process(hammer())
        sim.run_until(process)
        injector = PowerFailureInjector(sim, [device])
        injector.execute_cut()
        injector.reboot_all()
        report = check_device(device)
        results.append({
            "capacitors": count,
            "budget_mib": bank.dump_budget_bytes / units.MIB,
            "acked_writes": writes,
            "lost": len(report.lost_writes) + len(report.stale_blocks),
            "dump_fit": device.recovery_manager.last_dump_fit,
        })
    return results


def format_capacitor_sweep(results):
    headers = ["capacitors", "budget MiB", "acked writes", "lost blocks",
               "dump fit"]
    rows = [[r["capacitors"], round(r["budget_mib"], 1), r["acked_writes"],
             r["lost"], "yes" if r["dump_fit"] else "NO"]
            for r in results]
    return render_table(
        "Ablation: capacitor budget vs durability", headers, rows)


# --- mapping granularity (pairing) -------------------------------------------------
def run_mapping_granularity(world, ios=2000):
    """Sustained 4KB random-write drain with 4KB vs 8KB mapping."""
    results = []
    for unit in (4 * units.KIB, 8 * units.KIB):
        sim = world(unit)
        device = DuraSSD(sim, durassd_spec()._replace(mapping_unit=unit))
        filesystem = setups.file_system(sim, device, False)
        job = FioJob(rw="randwrite", block_size=4 * units.KIB,
                     numjobs=64, ios_per_job=max(10, ios // 64),
                     fsync_every=0)
        iops = run_fio(sim, filesystem, job).iops
        mapping_entries = device.ftl.exported_slots
        results.append({
            "mapping": "%dKB" % (unit // units.KIB),
            "iops": iops,
            "mapping_entries": mapping_entries,
            "map_dram_mib": mapping_entries * 4 / units.MIB,
        })
    return results


def format_mapping_granularity(results):
    headers = ["mapping unit", "4KB write IOPS", "map entries", "map DRAM MiB"]
    rows = [[r["mapping"], round(r["iops"]), r["mapping_entries"],
             round(r["map_dram_mib"], 1)] for r in results]
    speedup = results[0]["iops"] / max(1e-9, results[1]["iops"])
    table = render_table(
        "Ablation: 4KB-over-8KB mapping (write pairing)", headers, rows)
    return table + ("\npairing speed-up: %.2fx for 2x mapping DRAM "
                    "(paper: ~1%% device cost)" % speedup)


# --- flush semantics alternatives (Section 3.3) -----------------------------------
def run_flush_semantics(world, ios=1500):
    """fsync-heavy throughput on DuraSSD under three barrier policies,
    and the write-order violations a power cut after the run leaves.

    Four fio jobs keep several commands in flight, so the unordered
    queue (seeded) has later arrivals to let overtake; each case sets
    the NCQ's ordering, the world the rest.
    """
    jobs = 4
    cases = [
        ("flush every fsync (barrier on)", True, True),
        ("no flush, ordered NCQ (nobarrier)", False, True),
        ("no flush, unordered NCQ", False, False),
    ]
    results = []
    for label, barriers, ordered in cases:
        sim = world(label)
        queues = setups.spec_of(sim).topology._replace(ordered=ordered)
        rng = make_rng(("ablation-flush", label))
        target, members = setups.make_data_target(
            sim, "durassd", queue_model=queues, rng=rng)
        for device in members:
            device.record_acks = True
        filesystem = setups.file_system(sim, target, barriers,
                                        queue_model=queues, rng=rng)
        job = FioJob(rw="randwrite", block_size=4 * units.KIB,
                     numjobs=jobs,
                     ios_per_job=max(10, setups.ops_scale(ios) // jobs),
                     fsync_every=1)
        iops = run_fio(sim, filesystem, job).iops
        injector = PowerFailureInjector(sim, list(members))
        injector.execute_cut()
        injector.reboot_all()
        violations = sum(len(check_write_order(device))
                         for device in members)
        results.append({"label": label, "iops": iops,
                        "order_violations": violations})
    return results


def format_flush_semantics(results):
    headers = ["barrier policy", "fsync-per-write IOPS",
               "order violations after power cut"]
    rows = [[r["label"], round(r["iops"]), r["order_violations"]]
            for r in results]
    return render_table(
        "Ablation: flush-cache vs ordered-NCQ (Section 3.3)",
        headers, rows)


# --- GC victim policy (Section 3.1.1's wear-aware scheduling) ----------------
def run_victim_policies(world, rounds=400):
    """Wear spread and GC effort under a hot/cold skew, greedy vs
    cost-benefit victim selection."""
    from ..flash import FlashArray, FlashGeometry, FlashTiming, PageMappingFTL
    results = []
    for policy in ("greedy", "cost-benefit"):
        sim = world(policy)
        geometry = FlashGeometry(channels=2, packages_per_channel=2,
                                 chips_per_package=2, planes_per_chip=2,
                                 blocks_per_plane=8, pages_per_block=16,
                                 page_size=8 * units.KIB)
        array = FlashArray(sim, geometry, FlashTiming(), lanes=8)
        ftl = PageMappingFTL(sim, array, mapping_unit=4 * units.KIB,
                             victim_policy=policy)
        rng = make_rng(23)

        def churn():
            for round_no in range(rounds):
                hot = [(rng.randrange(32), round_no) for _ in range(12)]
                cold = [(32 + rng.randrange(256), round_no)
                        for _ in range(2)]
                yield from ftl.write_slots(hot + cold)

        process = sim.process(churn())
        sim.run_until(process)
        min_wear, max_wear, total = ftl.wear()
        results.append({
            "policy": policy,
            "gc_runs": ftl.counters["gc_runs"],
            "moved_slots": ftl.counters["gc_moved_slots"],
            "wear_min": min_wear,
            "wear_max": max_wear,
            "wear_total": total,
        })
    return results


def format_victim_policies(results):
    headers = ["victim policy", "GC runs", "slots moved", "wear min/max",
               "total erases"]
    rows = [[r["policy"], r["gc_runs"], r["moved_slots"],
             "%d/%d" % (r["wear_min"], r["wear_max"]), r["wear_total"]]
            for r in results]
    return render_table(
        "Ablation: GC victim policy under hot/cold skew", headers, rows)
