"""Host-level scaling: LinkBench vs stripe width, and log placement.

The paper's win is device-level parallelism behind a durable cache;
this table shows host-level parallelism compounding it.  Two results:

* **Stripe sweep** — LinkBench throughput and p99 write latency over a
  data target striped 1/2/4 wide, in durable-cache mode (nobarrier, the
  DuraSSD configuration) and flush-cache mode (barriers on).
* **Log-placement ablation** — the same world at stripe width 2 with
  the WAL *colocated* on the shared data stripe (two file systems over
  region views of one volume, so every log fsync flushes the shared
  members) versus *dedicated* (the paper's separate log drive).
* **Mirroring overhead** — the width-1 world with its data target
  replicated across 2 checksum-verified mirrors (RAID-1 with
  read-repair): the integrity tax in TPS and p99 relative to the bare
  single device.
* **Interface sweep** — the width-1 world behind each host queue
  model: the calibrated single-queue SATA NCQ versus NVMe multi-queue
  at 1/2/4 submission queues (log stream pinned to the last SQ).

Usage::

    python -m repro scaling                   # full sweep + ablation
    python -m repro scaling --smoke --out smoke.json   # CI: width 1/2
    python -m repro scaling --smoke --interface nvme --sq 2 --out nvme.json

The world flags every bench takes (``--interface``, ``--sq``,
``--queue-depth``, ``--gray-faults`` ...) shape every cell; each cell
then sets its own stripe width, mirror count or interface.

The JSON report (ops/s, p99 seconds and simulated seconds per
configuration) is the repo's perf trajectory record: future changes
land against these numbers.  A run reproduces it byte for byte, and
only the committed configuration — the full sweep in the default world
at the default scale, ``REPRO_QUICK`` unset — may write
``BENCH_scaling.json``; any other run needs ``--out``.
"""

import json
import os

from ..db.innodb import InnoDBConfig, InnoDBEngine
from ..host import QueueTopology, RegionView, StripedVolume
from ..sim import units
from ..workloads.linkbench import LinkBenchConfig, LinkBenchWorkload
from . import setups
from .tableio import render_table

#: the committed perf record ``regress`` diffs against
BASELINE_PATH = "BENCH_scaling.json"

WIDTHS = (1, 2, 4)

#: (label, barriers) — durable-cache mode is the paper's nobarrier run
MODES = (("durable-cache", False), ("flush-cache", True))

DEVICE_KIND = "durassd"
CLIENTS = 128
BASE_OPS_PER_CLIENT = 120
PAGE_SIZE = 8 * units.KIB

#: small enough that LinkBench misses hit the data target (~16% miss
#: ratio at scale 256) — the regime where host parallelism shows; a
#: fully cached pool measures the CPU model, not the I/O stack
BUFFER_GB = 2

ABLATION_WIDTH = 2

MIRROR_WIDTH = 2

#: NVMe submission-queue counts swept by the interface section
SQ_COUNTS = (1, 2, 4)


def _measure(engine, sim, clients, ops_per_client):
    """Run LinkBench against a built engine; returns a result record."""
    if ops_per_client is None:
        ops_per_client = setups.ops_scale(BASE_OPS_PER_CLIENT)
    workload = LinkBenchWorkload(
        engine, LinkBenchConfig(db_bytes=setups.scaled_db_bytes()))
    result = workload.run(clients=clients, ops_per_client=ops_per_client,
                          warmup_ops=20)
    return {
        "tps": result.tps,
        "p99_write_s": result.writes.percentile(0.99),
        "sim_seconds": sim.now,
    }


def _mode(barriers):
    return "flush-cache" if barriers else "durable-cache"


def _run_cell(spec, worlds, barriers, clients, ops_per_client):
    """LinkBench on the paper's MySQL world (dedicated log drive,
    doublewrite on) built from ``spec``."""
    sim = setups.fresh_world(spec=spec, worlds=worlds)
    engine, _devices = setups.mysql_setup(sim, PAGE_SIZE, barriers, True,
                                          buffer_gb=BUFFER_GB,
                                          device_kind=DEVICE_KIND)
    return _measure(engine, sim, clients, ops_per_client)


def run_width(width, barriers, clients=CLIENTS, ops_per_client=None,
              spec=setups.DEFAULT_SPEC, worlds=None):
    """One stripe-sweep cell: striped data target + dedicated log."""
    record = _run_cell(spec._replace(data_devices=width, mirror=1), worlds,
                       barriers, clients, ops_per_client)
    record.update({"width": width, "mode": _mode(barriers)})
    return record


def run_placement(colocated, width=ABLATION_WIDTH, clients=CLIENTS,
                  ops_per_client=None, barriers=True,
                  spec=setups.DEFAULT_SPEC, worlds=None):
    """One log-placement arm at stripe width ``width``.

    Colocated: data and WAL carve region views out of *one* shared
    stripe, so a log fsync flushes members holding data writes too.
    Dedicated: the paper's separate log device.  Barriers default on —
    placement matters most when fsync really flushes.
    """
    spec = spec._replace(data_devices=width, mirror=1)
    if colocated:
        sim = setups.fresh_world(spec=spec, worlds=worlds)
        db_bytes = setups.scaled_db_bytes()
        data_bytes = int(db_bytes * 2.5)
        log_bytes = max(units.GIB, db_bytes // 4)
        member_bytes = -(-(data_bytes + log_bytes) // width)
        members = tuple(
            setups.make_device(sim, DEVICE_KIND,
                               capacity_bytes=member_bytes,
                               name="%s.d%d" % (DEVICE_KIND, index))
            for index in range(width))
        volume = StripedVolume(sim, members,
                               timeout_policy=spec.timeout_policy(),
                               queue_model=spec.topology)
        data_blocks = units.lba_count(data_bytes)
        data_fs = setups.file_system(
            sim, RegionView(volume, 0, data_blocks, name="shared.data"),
            barriers)
        log_fs = setups.file_system(
            sim, RegionView(volume, data_blocks,
                            volume.exported_lbas - data_blocks,
                            name="shared.log"),
            barriers)
        config = InnoDBConfig(page_size=PAGE_SIZE,
                              buffer_pool_bytes=setups.scaled(BUFFER_GB))
        engine = InnoDBEngine(sim, data_fs, log_fs, config)
        record = _measure(engine, sim, clients, ops_per_client)
    else:
        record = _run_cell(spec, worlds, barriers, clients, ops_per_client)
    record.update({"width": width,
                   "config": "colocated" if colocated else "dedicated"})
    return record


def run_mirror(mirror, barriers=False, clients=CLIENTS,
               ops_per_client=None, spec=setups.DEFAULT_SPEC, worlds=None):
    """One mirroring cell: ``mirror`` replicated data devices (RAID-1,
    block checksums, read-repair) plus the dedicated log drive.
    ``mirror`` 1 is the bare single-device world — the overhead
    baseline."""
    record = _run_cell(spec._replace(data_devices=1, mirror=mirror), worlds,
                       barriers, clients, ops_per_client)
    record.update({"mirror": mirror, "mode": _mode(barriers)})
    return record


def run_interface(interface, sq=1, barriers=False, clients=CLIENTS,
                  ops_per_client=None, spec=setups.DEFAULT_SPEC, worlds=None):
    """One interface-sweep cell: the width-1 world behind a named host
    interface.

    ``interface`` is ``"sata"`` (the calibrated single NCQ — the
    reference cell) or ``"nvme"`` with ``sq`` submission queues; under
    NVMe with several queues the log stream pins to the last SQ, so
    redo flushes never queue behind data-page writes.  The cell keeps
    ``spec``'s queue depth and replaces only the interface, so the
    sweep is self-describing and reruns exactly.
    """
    if interface == "sata":
        sq = 1
    topology = QueueTopology.for_interface(interface, sq,
                                           spec.topology.queue_depth)
    record = _run_cell(spec._replace(data_devices=1, mirror=1,
                                     topology=topology),
                       worlds, barriers, clients, ops_per_client)
    record.update({"interface": interface, "sq": sq,
                   "mode": _mode(barriers)})
    return record


def run_all(widths=WIDTHS, ops_per_client=None, ablation=True,
            sq_counts=SQ_COUNTS, spec=setups.DEFAULT_SPEC, worlds=None):
    """The full sweep under ``spec``; returns the JSON-ready report
    dict."""
    throughput = []
    for label, barriers in MODES:
        for width in widths:
            record = run_width(width, barriers,
                               ops_per_client=ops_per_client, spec=spec,
                               worlds=worlds)
            throughput.append(record)
            print("  %-13s width=%d  %8.0f tps  p99=%.2fms  (sim %.2fs)"
                  % (label, width, record["tps"],
                     record["p99_write_s"] * 1e3, record["sim_seconds"]))
    placement = []
    mirroring = []
    if ablation:
        for colocated in (False, True):
            record = run_placement(colocated, width=max(
                w for w in widths if w <= ABLATION_WIDTH),
                ops_per_client=ops_per_client, spec=spec, worlds=worlds)
            placement.append(record)
            print("  log %-10s width=%d  %8.0f tps  p99=%.2fms"
                  % (record["config"], record["width"], record["tps"],
                     record["p99_write_s"] * 1e3))
        for mirror in (1, MIRROR_WIDTH):
            record = run_mirror(mirror, ops_per_client=ops_per_client,
                                spec=spec, worlds=worlds)
            mirroring.append(record)
            print("  mirror=%d      %8.0f tps  p99=%.2fms"
                  % (mirror, record["tps"],
                     record["p99_write_s"] * 1e3))
    interfaces = []
    if sq_counts:
        cells = [("sata", 1)] + [("nvme", sq) for sq in sq_counts]
        for interface, sq in cells:
            record = run_interface(interface, sq,
                                   ops_per_client=ops_per_client,
                                   spec=spec, worlds=worlds)
            interfaces.append(record)
            print("  %-5s sq=%d     %8.0f tps  p99=%.2fms"
                  % (interface, sq, record["tps"],
                     record["p99_write_s"] * 1e3))
    return {
        "benchmark": "scaling",
        "workload": "linkbench",
        "device": DEVICE_KIND,
        "clients": CLIENTS,
        "page_size": PAGE_SIZE,
        "scale_factor": setups.scale_factor(),
        "throughput": throughput,
        "log_placement": placement,
        "mirroring": mirroring,
        "interfaces": interfaces,
    }


def format_table(report):
    by_mode = {}
    for record in report["throughput"]:
        by_mode.setdefault(record["mode"], []).append(record)
    widths = sorted({r["width"] for r in report["throughput"]})
    headers = ["mode"] + ["w=%d" % w for w in widths]
    rows = []
    for label, _barriers in MODES:
        records = {r["width"]: r for r in by_mode.get(label, [])}
        rows.append([label] + [round(records[w]["tps"])
                               if w in records else "-" for w in widths])
        rows.append(["  p99 ms"] + ["%.2f" % (records[w]["p99_write_s"]
                                              * 1e3)
                                    if w in records else "-"
                                    for w in widths])
    table = render_table("Scaling: LinkBench TPS vs stripe width",
                         headers, rows)
    lines = [table]
    if report["log_placement"]:
        lines.append("log placement (width %d, barriers on):"
                     % report["log_placement"][0]["width"])
        for record in report["log_placement"]:
            lines.append("  %-10s %8.0f tps  p99=%.2fms"
                         % (record["config"], record["tps"],
                            record["p99_write_s"] * 1e3))
    mirroring = report.get("mirroring", ())
    if mirroring:
        lines.append("mirroring overhead (durable-cache, checksummed "
                     "RAID-1):")
        base = next((r for r in mirroring if r["mirror"] == 1), None)
        for record in mirroring:
            cost = ""
            if base is not None and record["mirror"] > 1 \
                    and base["tps"]:
                cost = "  (%+.1f%% tps)" % (
                    (record["tps"] - base["tps"]) / base["tps"] * 100)
            lines.append("  mirror=%d   %8.0f tps  p99=%.2fms%s"
                         % (record["mirror"], record["tps"],
                            record["p99_write_s"] * 1e3, cost))
    interfaces = report.get("interfaces", ())
    if interfaces:
        lines.append("host interface (width 1, durable-cache):")
        for record in interfaces:
            label = record["interface"] if record["interface"] == "sata" \
                else "%s sq=%d" % (record["interface"], record["sq"])
            lines.append("  %-10s %8.0f tps  p99=%.2fms"
                         % (label, record["tps"],
                            record["p99_write_s"] * 1e3))
    return "\n".join(lines)


def baseline_refusal(out_path, smoke, ops, spec):
    """Why this run may not write ``out_path``, or ``None``.

    A file named like the committed baseline is written only by the
    committed configuration, so no smoke, rescaled or reshaped run can
    overwrite the record ``regress`` diffs against.
    """
    if os.path.basename(out_path) != BASELINE_PATH:
        return None
    reasons = [name for name, differs in (
        ("--smoke", smoke),
        ("--ops", ops is not None),
        ("REPRO_QUICK", setups.quick_mode()),
        ("REPRO_SCALE", setups.scale_factor() != setups.DEFAULT_SCALE),
        ("world flags", spec != setups.DEFAULT_SPEC)) if differs]
    if not reasons:
        return None
    return ("%s is the committed full sweep; a run with %s may not "
            "overwrite it (pass --out PATH)"
            % (BASELINE_PATH, ", ".join(reasons)))


def main(smoke=False, ops=None, out_path=BASELINE_PATH,
         spec=setups.DEFAULT_SPEC, worlds=None):
    """``python -m repro scaling``: run the sweep, write its JSON report
    to ``out_path`` and gate on striping beating width 1."""
    if smoke:
        widths = (1, 2)
        sq_counts = (1, 2)
        ops = ops if ops is not None else 12
    else:
        widths = WIDTHS
        sq_counts = SQ_COUNTS
    report = run_all(widths=widths, ops_per_client=ops,
                     sq_counts=sq_counts, spec=spec, worlds=worlds)
    print()
    print(format_table(report))
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print("\nwrote %s" % out_path)
    # The acceptance gate: host striping must help where the durable
    # cache removes the flush bottleneck.
    durable = {r["width"]: r["tps"] for r in report["throughput"]
               if r["mode"] == "durable-cache"}
    top = max(w for w in durable)
    if durable[top] <= durable[min(durable)]:
        print("FAIL: width %d (%.0f tps) did not beat width %d (%.0f tps)"
              % (top, durable[top], min(durable), durable[min(durable)]))
        return 1
    return 0
