"""Write-burst absorption and tail tolerance (Sections 2.3 and 4.3.1).

The paper's motivation for a large durable write cache: "a write buffer
as large as 0.1% of the storage can absorb write bursts and process
them without stall" — but only if it is safe to *keep* dirty data
buffered, which a volatile cache running with barriers is not.

The experiment: a steady stream of 4KB reads measures latency while a
burst of writes (with the fsync policy of each configuration) slams the
device.  Reported per configuration: read P50/P99 during the burst and
the burst's own completion time.  DuraSSD with barriers off absorbs the
burst at cache speed and barely disturbs the readers; the safe volatile
configuration stalls them behind flush-cache commands.
"""

from ..sim import LatencyRecorder, units
from ..sim.rng import make_rng
from . import setups
from .tableio import render_table

#: (label, device kind, barriers, fsync period during the burst)
CONFIGURATIONS = [
    ("volatile SSD, barriers on (safe)", "ssd-a", True, 8),
    ("volatile SSD, barriers off (UNSAFE)", "ssd-a", False, 8),
    ("DuraSSD, barriers off (safe)", "durassd", False, 8),
]


def run_one(sim, device_kind, barriers, fsync_period, burst_writes=600,
            reader_count=8):
    target, _members = setups.make_data_target(sim, device_kind, units.GIB)
    filesystem = setups.file_system(sim, target, barriers)
    data = filesystem.create("data", 256 * units.MIB)
    from ..host.fio import _prefill_blank
    _prefill_blank(data)

    burst_window = {"start": None, "end": None}
    read_latency = LatencyRecorder("reads-during-burst")
    baseline_latency = LatencyRecorder("reads-baseline")

    def reader(index):
        rng = make_rng((41, index))
        while burst_window["end"] is None:
            offset = rng.randrange(data.nblocks) * units.LBA_SIZE
            begin = sim.now
            with sim.telemetry.span("burst.read", "workload", reader=index):
                yield from filesystem.pread(data, offset, 1)
            latency = sim.now - begin
            if burst_window["start"] is None:
                baseline_latency.record(latency)
            else:
                read_latency.record(latency)

    def burster():
        yield sim.timeout(0.05)  # let the readers establish a baseline
        rng = make_rng(42)
        burst_window["start"] = sim.now
        for index in range(burst_writes):
            offset = rng.randrange(data.nblocks) * units.LBA_SIZE
            with sim.telemetry.span("burst.write", "workload", i=index):
                yield from filesystem.pwrite(data, offset,
                                             [("burst", index)])
                if fsync_period and (index + 1) % fsync_period == 0:
                    yield from filesystem.fsync(data)
        burst_window["end"] = sim.now

    for index in range(reader_count):
        sim.process(reader(index))
    burst = sim.process(burster())
    sim.run_until(burst)
    return {
        "burst_seconds": burst_window["end"] - burst_window["start"],
        "read_p50_ms": read_latency.percentile(0.5) * 1e3,
        "read_p99_ms": (read_latency.percentile(0.99) * 1e3
                        if read_latency.count else 0.0),
        "baseline_p50_ms": baseline_latency.percentile(0.5) * 1e3,
        "reads_during_burst": read_latency.count,
    }


def run(world, burst_writes=None):
    """[(label, outcome)] per configuration, each on ``world(label)``."""
    if burst_writes is None:
        burst_writes = setups.ops_scale(600)
    return [(label, run_one(world(label), device_kind, barriers, period,
                            burst_writes=burst_writes))
            for label, device_kind, barriers, period in CONFIGURATIONS]


def format_table(results):
    headers = ["configuration", "burst time s", "read p50 ms",
               "read p99 ms", "baseline p50 ms"]
    rows = [[label, round(r["burst_seconds"], 3),
             round(r["read_p50_ms"], 2), round(r["read_p99_ms"], 2),
             round(r["baseline_p50_ms"], 2)]
            for label, r in results]
    table = render_table(
        "Write-burst absorption: read latency while a burst lands",
        headers, rows)
    safe_slow = results[0][1]
    durassd = results[2][1]
    note = ("\nburst drains %.0fx faster on DuraSSD-nobarrier; "
            "read p99 during the burst improves %.0fx"
            % (safe_slow["burst_seconds"] / max(1e-9,
                                                durassd["burst_seconds"]),
               safe_slow["read_p99_ms"] / max(1e-9, durassd["read_p99_ms"])))
    return table + note
