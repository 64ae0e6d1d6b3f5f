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

All three land in the ``profile`` section of the run's ``repro.run/1``
record, which ``python -m repro validate`` checks.  The section carries
its own exactness bar: attributed layer shares must cover >= 95% of the
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

import tracemalloc

from ..sim.profiler import allocation_stats
from . import runner, setups
from .scenarios import TRACED

DEFAULT_TOP = 15

#: convenience aliases accepted by ``repro profile`` only (the traced
#: worlds are already scaled-down "small" variants of their benches)
ALIASES = {"figure5-small": "figure5", "table1-small": "table1"}


def profile_scenario(name, alloc=True, ablation=True, top=DEFAULT_TOP,
                     spec=setups.DEFAULT_SPEC, worlds=None):
    """The ``repro.run/1`` record of one profiled scenario; its
    ``profile`` section also carries the telemetry ablation and the
    allocation pass.

    Returns ``(record, profiler)`` — the profiler is kept live so the
    CLI can emit its collapsed stacks without re-deriving them.
    """
    name = ALIASES.get(name, name)
    fn = TRACED.get(name)
    record, telemetry = runner.run(name, fn, spec, worlds, profile=True,
                                   top=top)
    profile = record["profile"]
    profile.update(telemetry_overhead=None, allocations=None)
    if ablation:
        armed = runner.run(name, fn, spec, worlds, spans=True,
                           profile=True)[0]["profile"]
        base_wall = profile["wall_seconds"]
        armed_wall = armed["wall_seconds"]
        profile["telemetry_overhead"] = {
            "base_wall_s": base_wall,
            "armed_wall_s": armed_wall,
            "overhead_pct": ((armed_wall - base_wall) / base_wall * 100
                             if base_wall > 0 else 0.0),
            "base_events": profile["steps"],
            "armed_events": armed["steps"],
        }
    if alloc:
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            churn = runner.run(name, fn, spec, worlds,
                               profile=True)[0]["profile"]
            stats = allocation_stats(before)
        finally:
            tracemalloc.stop()
        sim_s = churn["sim_seconds"]
        stats["alloc_kib_per_sim_s"] = (stats["total_kib"] / sim_s
                                        if sim_s > 0 else 0.0)
        profile["allocations"] = stats
    return record, telemetry.profiler


# --- markdown -------------------------------------------------------------
def layer_table(profile):
    """A profile section's wall time by layer, as markdown rows."""
    return ["| layer | wall s | share | events |", "|---|---:|---:|---:|"] + [
        "| %s | %.4f | %.1f%% | %d |"
        % (row["layer"], row["wall_s"], row["share"] * 100, row["events"])
        for row in profile["layers"]]


def render_markdown(record):
    """The profile section as markdown: layers, hot targets, event
    types, the telemetry ablation and allocations."""
    report = record["profile"]
    lines = ["# repro profile — %s" % record["scenario"], ""]
    lines.append("- outcome: %s" % record["outcome"])
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
    lines.extend(layer_table(report))
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
    resolves first); exits non-zero below the 95% coverage floor."""
    record, profiler = profile_scenario(scenario, alloc=alloc,
                                        ablation=ablation, top=top,
                                        spec=spec, worlds=worlds)
    errors = runner.write_views(record, render_markdown(record), out_path,
                                json_path)
    if collapsed_path is not None:
        with open(collapsed_path, "w") as handle:
            handle.write(profiler.collapsed_stacks())
        print("wrote %s (collapsed stacks; feed to flamegraph.pl "
              "or speedscope)" % collapsed_path)
    if errors:
        return 1
    profile = record["profile"]
    print("\n%s: %.2fx real time, %.0f events/sec, coverage %.1f%%"
          % (record["scenario"], profile["real_time_factor"],
             profile["events_per_sec"], profile["coverage"] * 100))
    return 0
