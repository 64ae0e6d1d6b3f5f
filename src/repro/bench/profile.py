"""Simulator self-profiling reports: ``python -m repro profile``.

Answers *where the simulator's own wall-clock time goes* — the
measurement half of the "make the simulator faster than the hardware
it models" roadmap item.  Three passes over one traced scenario:

1. **Wall attribution** — a :class:`~repro.sim.profiler.SimProfiler`
   on a telemetry-disarmed world charges every processed event's wall
   time to a repro layer and callback target, with the event loop's own
   dispatch overhead attributed to ``sim``.
2. **Telemetry ablation** — the same seeded scenario rerun with the
   hub armed; the wall-time delta is the observability tax (the
   simulated results are identical by construction — the hub adds no
   events).
3. **Allocation accounting** — a third run under :mod:`tracemalloc`,
   grouped by layer: the object-churn half of the speed question.

The JSON report (``repro.profile/1``) is schema-checked by
``python -m repro validate --profile`` and carries its own
exactness bar: attributed layer shares must cover >= 95% of the
measured wall time or the CLI exits non-zero.

Usage::

    python -m repro profile figure5-small
    python -m repro profile table1 --out profile.md --json profile.json
    python -m repro profile figure5 --collapsed profile.folded --top 20
    python -m repro profile bursts --no-alloc --no-ablation

``--collapsed`` writes the attribution in collapsed-stack format —
one ``repro;layer;target <microseconds>`` line — consumable by
``flamegraph.pl`` or speedscope.  The simulator's speed baseline is
the repository benchmark, ``python3 benchmarks/perf/run.py``.
"""

import json
import time
import tracemalloc

from ..sim.profiler import SimProfiler
from ..telemetry import Telemetry
from . import setups
from .scenarios import TRACED

SCHEMA = "repro.profile/1"

#: attributed layer shares must cover this much of the measured wall
COVERAGE_FLOOR = 0.95

DEFAULT_TOP = 15

#: convenience aliases accepted by ``repro profile`` only (the traced
#: worlds are already scaled-down "small" variants of their benches)
ALIASES = {"figure5-small": "figure5", "table1-small": "table1"}


def _profiled_run(name, spec, worlds, telemetry=None):
    """Run one traced scenario with a fresh profiler riding the hub;
    returns ``(profiler, outcome, run_wall_seconds)``."""
    fn = TRACED.get(name)
    if telemetry is None:
        telemetry = Telemetry(enabled=False)
    profiler = SimProfiler()
    telemetry.profiler = profiler
    begin = time.perf_counter()
    outcome = fn(telemetry, spec, worlds)
    return profiler, outcome, time.perf_counter() - begin


def profile_scenario(name, alloc=True, ablation=True, top=DEFAULT_TOP,
                     spec=setups.DEFAULT_SPEC, worlds=None):
    """Build the full ``repro.profile/1`` report for one scenario.

    Returns ``(report, profiler)`` — the profiler is kept live so the
    CLI can emit its collapsed stacks without re-deriving them.
    """
    name = ALIASES.get(name, name)
    profiler, outcome, run_wall = _profiled_run(name, spec, worlds)
    summary = profiler.summary()
    report = {
        "schema": SCHEMA,
        "scenario": name,
        "outcome": outcome,
        "run_wall_seconds": run_wall,
        "hot": profiler.hot_targets(top),
        "telemetry_overhead": None,
        "allocations": None,
    }
    report.update(summary)
    if ablation:
        armed, _outcome, _wall = _profiled_run(
            name, spec, worlds, telemetry=Telemetry(enabled=True))
        base_wall = profiler.wall_seconds()
        armed_wall = armed.wall_seconds()
        report["telemetry_overhead"] = {
            "base_wall_s": base_wall,
            "armed_wall_s": armed_wall,
            "overhead_pct": ((armed_wall - base_wall) / base_wall * 100
                             if base_wall > 0 else 0.0),
            "base_events": profiler.steps,
            "armed_events": armed.steps,
        }
    if alloc:
        from ..sim.profiler import allocation_stats
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            churn, _outcome, _wall = _profiled_run(name, spec, worlds)
            stats = allocation_stats(before)
        finally:
            tracemalloc.stop()
        sim_s = churn.sim_seconds()
        stats["alloc_kib_per_sim_s"] = (stats["total_kib"] / sim_s
                                        if sim_s > 0 else 0.0)
        report["allocations"] = stats
    return report, profiler


# --- markdown -------------------------------------------------------------
def render_markdown(report):
    lines = ["# repro profile — %s" % report["scenario"], ""]
    lines.append("- outcome: %s" % report["outcome"])
    lines.append("- wall %.3fs for %.3f simulated seconds — real-time "
                 "factor **%.2fx**"
                 % (report["wall_seconds"], report["sim_seconds"],
                    report["real_time_factor"]))
    lines.append("- %d events processed (%.0f events/sec), %d scheduled"
                 % (report["steps"], report["events_per_sec"],
                    report["pushes"]))
    lines.append("- attribution coverage: %.1f%% of measured wall "
                 "(unattributed gap %.4fs)"
                 % (report["coverage"] * 100, report["gap_seconds"]))
    lines.append("")

    lines.append("## Wall time by layer")
    lines.append("")
    lines.append("| layer | wall s | share | events |")
    lines.append("|---|---:|---:|---:|")
    for row in report["layers"]:
        lines.append("| %s | %.4f | %.1f%% | %d |"
                     % (row["layer"], row["wall_s"], row["share"] * 100,
                        row["events"]))
    lines.append("")

    lines.append("## Hottest callback targets")
    lines.append("")
    lines.append("| layer | target | wall s | share | events |")
    lines.append("|---|---|---:|---:|---:|")
    for row in report["hot"]:
        lines.append("| %s | `%s` | %.4f | %.1f%% | %d |"
                     % (row["layer"], row["target"], row["wall_s"],
                        row["share"] * 100, row["events"]))
    lines.append("")

    lines.append("## Event types")
    lines.append("")
    lines.append("| type | wall s | processed | scheduled |")
    lines.append("|---|---:|---:|---:|")
    for row in report["event_types"]:
        lines.append("| %s | %.4f | %d | %d |"
                     % (row["type"], row["wall_s"], row["processed"],
                        row["scheduled"]))
    lines.append("")

    overhead = report["telemetry_overhead"]
    lines.append("## Telemetry overhead (hub armed vs disarmed)")
    lines.append("")
    if overhead is None:
        lines.append("not measured (`--no-ablation`).")
    else:
        lines.append("- disarmed: %.3fs, armed: %.3fs — overhead "
                     "**%+.1f%%**"
                     % (overhead["base_wall_s"], overhead["armed_wall_s"],
                        overhead["overhead_pct"]))
        lines.append("- events: %d disarmed vs %d armed (the hub adds "
                     "no simulation events)"
                     % (overhead["base_events"],
                        overhead["armed_events"]))
    lines.append("")

    allocations = report["allocations"]
    lines.append("## Allocations by layer (tracemalloc)")
    lines.append("")
    if allocations is None:
        lines.append("not measured (`--no-alloc`).")
    else:
        lines.append("- live at end of run: %.0f KiB (peak %.0f KiB, "
                     "%.0f KiB per simulated second)"
                     % (allocations["total_kib"], allocations["peak_kib"],
                        allocations["alloc_kib_per_sim_s"]))
        lines.append("")
        lines.append("| layer | KiB | blocks |")
        lines.append("|---|---:|---:|")
        for row in allocations["layers"]:
            lines.append("| %s | %.1f | %d |"
                         % (row["layer"], row["kib"], row["blocks"]))
    lines.append("")
    return "\n".join(lines)


def main(scenario=None, out_path=None, json_path=None, collapsed_path=None,
         top=DEFAULT_TOP, alloc=True, ablation=True,
         spec=setups.DEFAULT_SPEC, worlds=None):
    """``python -m repro profile``: profile one scenario (an alias
    resolves first)."""
    report, profiler = profile_scenario(ALIASES.get(scenario, scenario),
                                        alloc=alloc, ablation=ablation,
                                        top=top, spec=spec, worlds=worlds)
    markdown = render_markdown(report)
    if out_path is not None:
        with open(out_path, "w") as handle:
            handle.write(markdown)
        print("wrote %s" % out_path)
    else:
        print(markdown)
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("wrote %s" % json_path)
    if collapsed_path is not None:
        with open(collapsed_path, "w") as handle:
            handle.write(profiler.collapsed_stacks())
        print("wrote %s (collapsed stacks; feed to flamegraph.pl "
              "or speedscope)" % collapsed_path)
    # Self-check: the report must satisfy its own schema, including
    # the >= 95% attribution-coverage bar.
    from ..telemetry.validate import validate_profile_report
    errors = validate_profile_report(report)
    if errors:
        print("\nPROFILE INVALID:")
        for error in errors:
            print("  - %s" % error)
        return 1
    print("\n%s: %.2fx real time, %.0f events/sec, coverage %.1f%%"
          % (report["scenario"], report["real_time_factor"],
             report["events_per_sec"], report["coverage"] * 100))
    return 0
