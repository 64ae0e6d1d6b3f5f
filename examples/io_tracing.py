"""Tracing the I/O stream: what fsync frequency does to a device.

Runs the same LinkBench-ish workload in the default and the
DuraSSD-best configuration with the cross-layer telemetry hub enabled,
and prints what the device actually saw: command counts, flush-cache
cadence, and read latency histograms (the paper's tail-latency story,
visualised).  A Chrome trace of each run is written to
``benchmarks/output/`` — load it at https://ui.perfetto.dev to see
every layer's spans.

The spans on the "device" track carry every command plus its causal
parents — which transaction caused each flush-cache stall.

Run:  python examples/io_tracing.py
"""

import os

from repro.bench.charts import render_latency_histogram
from repro.db import InnoDBConfig, InnoDBEngine
from repro.devices import make_durassd
from repro.host import FileSystem
from repro.sim import LatencyRecorder, Simulator, units
from repro.telemetry import Telemetry
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload


def traced_run(barriers, doublewrite, page_size):
    telemetry = Telemetry(enabled=True)
    sim = Simulator(telemetry)
    data_device = make_durassd(sim, capacity_bytes=units.GIB)
    data_fs = FileSystem(sim, data_device, barriers=barriers)
    log_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                        barriers=barriers)
    engine = InnoDBEngine(sim, data_fs, log_fs,
                          InnoDBConfig(page_size=page_size,
                                       buffer_pool_bytes=8 * units.MIB,
                                       doublewrite=doublewrite))
    workload = LinkBenchWorkload(
        engine, LinkBenchConfig(db_bytes=128 * units.MIB))
    result = workload.run(clients=32, ops_per_client=50, warmup_ops=10)
    return telemetry, result


def describe(label, telemetry, result):
    reads = telemetry.spans("dev.read")
    writes = telemetry.spans("dev.write")
    flushes = telemetry.spans("dev.flush_cache")
    print("=== %s ===" % label)
    print("  TPS %.0f | devices saw %d reads, %d writes, %d flush-cache"
          % (result.tps, len(reads), len(writes), len(flushes)))
    if len(flushes) > 1:
        starts = sorted(span["ts"] for span in flushes)
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        print("  mean gap between flush-cache commands: %.1fms"
              % (sum(gaps) / len(gaps) * 1e3))
    read_latency = LatencyRecorder("dev.read")
    read_latency.extend(span["dur"] for span in reads)
    if read_latency.count:
        print("  device read latency: mean %.2fms, p99 %.2fms"
              % (read_latency.mean * 1e3,
                 read_latency.percentile(0.99) * 1e3))
        print(render_latency_histogram(read_latency, buckets=8, width=30))
    blocks = sum(span["attrs"].get("nblocks", 0) for span in writes)
    print("  bytes written to the devices: %.1f MiB"
          % (blocks * units.LBA_SIZE / units.MIB))
    print()


#: trace dumps land in benchmarks/output/, never the repo root
OUTPUT_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "output")


def main():
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    default_path = os.path.join(OUTPUT_DIR, "io_tracing_default.json")
    best_path = os.path.join(OUTPUT_DIR, "io_tracing_best.json")
    telemetry, result = traced_run(True, True, 16 * units.KIB)
    describe("MySQL default: barriers ON, doublewrite ON, 16KB",
             telemetry, result)
    telemetry.write_chrome_trace(default_path)
    telemetry, result = traced_run(False, False, 4 * units.KIB)
    describe("DuraSSD best: barriers OFF, doublewrite OFF, 4KB",
             telemetry, result)
    telemetry.write_chrome_trace(best_path)
    print("chrome traces: %s, %s" % (default_path, best_path))


if __name__ == "__main__":
    main()
