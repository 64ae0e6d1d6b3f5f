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
``python -m repro.telemetry.validate --profile`` and carries its own
exactness bar: attributed layer shares must cover >= 95% of the
measured wall time or the CLI exits non-zero.

Usage::

    python -m repro profile figure5-small
    python -m repro profile table1 --out profile.md --json profile.json
    python -m repro profile figure5 --collapsed profile.folded --top 20
    python -m repro profile bursts --no-alloc --no-ablation

    python -m repro profile --speed                 # BENCH_speed.json
    python -m repro profile --speed --smoke         # CI wall-clock cell

``--collapsed`` writes the attribution in collapsed-stack format —
one ``repro;layer;target <microseconds>`` line — consumable by
``flamegraph.pl`` or speedscope.  ``--speed`` re-runs the scaling
sweep's width cells with the profiler attached and records real-time
factor and events/sec per cell: the pinned before/after for any future
speedup PR (``python -m repro regress`` reads it back as an advisory
wall-clock section).
"""

import json
import sys
import time
import tracemalloc

from ..sim.profiler import SimProfiler
from ..telemetry import Telemetry
from . import scaling, setups
from .scenarios import TRACED

SCHEMA = "repro.profile/1"

SPEED_PATH = "BENCH_speed.json"

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


# --- the speed benchmark --------------------------------------------------
def run_speed(smoke=False, ops_per_client=None, widths=None,
              spec=setups.DEFAULT_SPEC):
    """Re-run the scaling width cells with the profiler attached.

    Records per cell: TPS, simulated/wall seconds, processed events,
    events/sec and the real-time factor (``sim_seconds /
    wall_seconds``, same basis as BENCH_scaling.json so the regress
    advisory can diff fresh runs against this baseline without a
    profiler).  Operation counts pin to the scaling baseline's — speed
    is only comparable at identical work.
    """
    if widths is None:
        widths = (1,) if smoke else scaling.WIDTHS
    if ops_per_client is None:
        ops_per_client = scaling.BASE_OPS_PER_CLIENT
    spec = spec._replace(profile=True)
    worlds = []
    cells = []
    for label, barriers in scaling.MODES:
        for width in widths:
            record = scaling.run_width(width, barriers,
                                       ops_per_client=ops_per_client,
                                       spec=spec, worlds=worlds)
            profiler = worlds[-1].telemetry.profiler
            cell = {
                "mode": label,
                "width": width,
                "tps": record["tps"],
                "sim_seconds": record["sim_seconds"],
                "wall_seconds": record["wall_seconds"],
                "real_time_factor": (record["sim_seconds"]
                                     / record["wall_seconds"]),
                "events": profiler.steps,
                "events_per_sec": (profiler.steps
                                   / record["wall_seconds"]),
                "loop_wall_seconds": profiler.wall_seconds(),
            }
            cells.append(cell)
            print("  %-13s width=%d  rtf=%5.2fx  %8.0f ev/s  "
                  "(%d events, wall %.2fs)"
                  % (label, width, cell["real_time_factor"],
                     cell["events_per_sec"], cell["events"],
                     cell["wall_seconds"]))
    return {
        "benchmark": "speed",
        "workload": "linkbench",
        "clients": scaling.CLIENTS,
        "ops_per_client": ops_per_client,
        "scale_factor": setups.scale_factor(),
        "cells": cells,
    }


def _speed_main(args, spec):
    out_path = SPEED_PATH
    smoke = "--smoke" in args
    if smoke:
        args.remove("--smoke")
    ops = None
    if "--ops" in args:
        index = args.index("--ops")
        ops = int(args[index + 1])
        del args[index:index + 2]
    if "--out" in args:
        index = args.index("--out")
        out_path = args[index + 1]
        del args[index:index + 2]
    if args:
        print("unknown option: %r" % args[0])
        return 2
    if smoke and ops is None:
        ops = 12
    report = run_speed(smoke=smoke, ops_per_client=ops, spec=spec)
    with open(out_path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print("\nwrote %s" % out_path)
    # Sanity floor, not a perf gate: a simulator processing fewer than
    # 1000 events/sec has broken profiling, not slow hardware.
    if any(cell["events_per_sec"] < 1000 for cell in report["cells"]):
        print("FAIL: implausibly low events/sec — profiler broken?")
        return 1
    return 0


def main(argv, spec=setups.DEFAULT_SPEC, worlds=None):
    args = list(argv)
    if not args or args[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("scenarios:")
        for line in TRACED.listing():
            print(line)
        for alias, target in sorted(ALIASES.items()):
            print("  %-9s alias for %s" % (alias, target))
        return 0
    if args[0] == "--speed":
        return _speed_main(args[1:], spec)
    name = args.pop(0)
    out_path = json_path = collapsed_path = None
    alloc = ablation = True
    top = DEFAULT_TOP
    value_flags = ("--out", "--json", "--collapsed", "--top")
    while args:
        flag = args.pop(0)
        if flag in value_flags and not args:
            print("%s requires a value" % flag)
            return 2
        if flag == "--out":
            out_path = args.pop(0)
        elif flag == "--json":
            json_path = args.pop(0)
        elif flag == "--collapsed":
            collapsed_path = args.pop(0)
        elif flag == "--top":
            top = int(args.pop(0))
        elif flag == "--no-alloc":
            alloc = False
        elif flag == "--no-ablation":
            ablation = False
        else:
            print("unknown option: %r" % flag)
            return 2
    try:
        report, profiler = profile_scenario(ALIASES.get(name, name),
                                            alloc=alloc, ablation=ablation,
                                            top=top, spec=spec,
                                            worlds=worlds)
    except KeyError as error:
        print(error.args[0])
        return 2
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


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
