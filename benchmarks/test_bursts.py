"""Write-burst absorption / tail tolerance (Sections 2.3, 4.3.1)."""

from repro.bench import setups
from repro.telemetry import Telemetry

from conftest import regenerate


def test_burst_absorption(benchmark):
    telemetry = Telemetry(enabled=True)
    results = regenerate(benchmark, "bursts", telemetry=telemetry)
    safe_slow = results[0][1]
    durassd = results[2][1]
    # the durable cache absorbs the burst at cache speed
    assert durassd["burst_seconds"] < safe_slow["burst_seconds"] / 3
    # and the readers barely notice (tail tolerance)
    assert durassd["read_p99_ms"] < safe_slow["read_p99_ms"]
    # reads during the safe-slow burst visibly stall vs baseline
    assert safe_slow["read_p99_ms"] > 3 * safe_slow["baseline_p50_ms"]
    # telemetry rode along on the DuraSSD run: barriers off means the
    # burst was absorbed without a single flush-cache command, every
    # burst write was admitted to the durable cache, and the workload
    # spans nest down to the device track
    assert not telemetry.spans("dev.flush_cache")
    admits = telemetry.instants("cache.admit")
    assert len(admits) >= setups.ops_scale(600)
    write_spans = telemetry.spans("burst.write", track="workload")
    assert len(write_spans) == setups.ops_scale(600)
