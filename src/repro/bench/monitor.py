"""Continuous-metrics dashboards: ``python -m repro monitor <scenario>``.

Runs a traced scenario with windowed metrics armed (spans stay off —
counters snapshot at window boundaries and add no simulation events),
pulls every device's SMART-style health report, evaluates the default
bench SLO rules over the collected windows, and renders a dashboard:
per-window series, device health, and fired alerts.

Usage::

    python -m repro monitor figure5
    python -m repro monitor figure5 --interval 0.005 --json dash.json
    python -m repro monitor table1 --gray-faults gc-storm --prom m.prom
    python -m repro monitor bursts --csv series.csv --quiet

The world flags every bench takes (``--gray-faults``, ``--devices``,
``--interface`` ...) shape the scenario's world; ``--profile`` embeds a
simulator self-profile in the dashboard.

The run is the same world ``repro trace`` builds, so numbers line up
with traces and the benches; with metrics disabled (every other CLI
path) the instruments are shared no-ops and results stay byte-identical.
"""

import json

from ..telemetry import (
    MetricsRegistry,
    SLOMonitor,
    Telemetry,
    default_bench_rules,
)
from ..telemetry import series as series_mod
from . import setups
from .scenarios import TRACED

SCHEMA = "repro.monitor/1"

DEFAULT_INTERVAL = 0.01

#: cap on dashboard windows; longer runs are rolled up to stay readable
MAX_DASHBOARD_WINDOWS = 64


def run_scenario(name, interval=DEFAULT_INTERVAL, rules=None,
                 spec=setups.DEFAULT_SPEC, worlds=None):
    """Run one traced scenario of ``spec`` under windowed metrics.

    Returns ``(report, registry)`` — the dashboard report dict plus the
    live registry for the exporters.  With ``spec.profile`` a
    :class:`~repro.sim.SimProfiler` rides the world, the registry gains
    ``sim.real_time_factor`` / ``sim.events_per_sec`` gauge series, and
    the report carries a ``profile`` wall-attribution summary.
    """
    fn = TRACED.get(name)
    registry = MetricsRegistry(interval=interval)
    telemetry = Telemetry(enabled=False, metrics=registry)
    profiler = None
    if spec.profile:
        from ..sim import SimProfiler
        profiler = SimProfiler()
        telemetry.profiler = profiler
    outcome = fn(telemetry, spec, worlds)
    registry.finish()
    monitor = SLOMonitor(registry,
                         default_bench_rules() if rules is None else rules)
    outcomes = monitor.evaluate()
    alerts = sorted((episode for rule in outcomes
                     for episode in rule.episodes),
                    key=lambda episode: episode.fired_at)
    windows = registry.windows
    report = {
        "schema": SCHEMA,
        "scenario": name,
        "outcome": outcome,
        "interval_s": interval,
        "windows": len(windows),
        "duration_s": windows[-1].t1 if windows else 0.0,
        "series": series_mod.series_json(
            registry, max_windows=MAX_DASHBOARD_WINDOWS),
        "smart": telemetry.smart_reports(),
        "slo": {
            "rules": [rule.to_json() for rule in outcomes],
            "alerts": [episode.to_json() for episode in alerts],
        },
    }
    if profiler is not None:
        report["profile"] = profiler.summary()
    return report, registry


# --- markdown dashboard ---------------------------------------------------
def _flatten(prefix, value, rows):
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten("%s.%s" % (prefix, key) if prefix else key,
                     value[key], rows)
    else:
        rows.append((prefix, value))


def _fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def render_markdown(report):
    """The dashboard as markdown: SLO verdicts, alerts, SMART, series."""
    lines = ["# repro monitor — %s" % report["scenario"], ""]
    lines.append("- outcome: %s" % report["outcome"])
    lines.append("- windows: %d x %.4gs (%.4gs simulated)"
                 % (report["windows"], report["interval_s"],
                    report["duration_s"]))
    lines.append("")

    lines.append("## SLO rules")
    lines.append("")
    lines.append("| rule | objective | windows | violations | alerts |")
    lines.append("|---|---|---:|---:|---:|")
    for rule in report["slo"]["rules"]:
        lines.append("| %s | `%s` | %d | %d | %d |"
                     % (rule["rule"]["name"], rule["objective"],
                        rule["evaluations"], rule["violations"],
                        len(rule["episodes"])))
    lines.append("")

    alerts = report["slo"]["alerts"]
    lines.append("## Alerts")
    lines.append("")
    if not alerts:
        lines.append("none fired.")
    for alert in alerts:
        cleared = ("cleared %.4gs" % alert["cleared_at_s"]
                   if alert["cleared_at_s"] is not None
                   else "still firing at end of run")
        lines.append("- **%s** fired %.4gs, %s — worst %s over %d "
                     "window(s) (`%s`)"
                     % (alert["rule"], alert["fired_at_s"], cleared,
                        _fmt(alert["worst_value"]),
                        alert["violating_windows"], alert["objective"]))
    lines.append("")

    lines.append("## Device health (SMART)")
    for smart in report["smart"]:
        lines.append("")
        lines.append("### %s (%s)" % (smart.get("device", "?"),
                                      smart.get("model", "?")))
        lines.append("")
        lines.append("| attribute | value |")
        lines.append("|---|---|")
        rows = []
        for key in sorted(smart):
            if key in ("device", "model"):
                continue
            _flatten(key, smart[key], rows)
        for key, value in rows:
            lines.append("| %s | %s |" % (key, _fmt(value)))
    lines.append("")

    profile = report.get("profile")
    if profile is not None:
        lines.append("## Simulator self-profile")
        lines.append("")
        lines.append("- %.3fs wall for %.3fs simulated — real-time "
                     "factor **%.2fx**, %.0f events/sec"
                     % (profile["wall_seconds"], profile["sim_seconds"],
                        profile["real_time_factor"],
                        profile["events_per_sec"]))
        lines.append("")
        lines.append("| layer | wall s | share | events |")
        lines.append("|---|---:|---:|---:|")
        for row in profile["layers"]:
            lines.append("| %s | %.4f | %.1f%% | %d |"
                         % (row["layer"], row["wall_s"],
                            row["share"] * 100, row["events"]))
        lines.append("")

    lines.append("## Series")
    lines.append("")
    lines.append("| metric | labels | kind | last | total delta |")
    lines.append("|---|---|---|---:|---:|")
    for entry in report["series"]:
        points = entry["windows"]
        if not points:
            continue
        last = points[-1]
        if entry["kind"] == "histogram":
            final = "%d obs / %.6gs" % (last["count"], last["sum"])
            total = str(sum(point["delta_count"] for point in points))
        elif entry["kind"] == "counter":
            final = _fmt(last["value"])
            total = _fmt(sum(point["delta"] for point in points))
        else:
            final = _fmt(last["value"])
            total = "-"
        lines.append("| %s | %s | %s | %s | %s |"
                     % (entry["name"],
                        series_mod.labels_text(entry["labels"]) or "-",
                        entry["kind"], final, total))
    lines.append("")
    return "\n".join(lines)


def main(scenario, interval=DEFAULT_INTERVAL, out_path=None, json_path=None,
         prom_path=None, csv_path=None, quiet=False,
         spec=setups.DEFAULT_SPEC, worlds=None):
    """``python -m repro monitor``: run one scenario under windowed
    metrics and write its dashboard and exports."""
    report, registry = run_scenario(scenario, interval=interval, spec=spec,
                                    worlds=worlds)
    markdown = render_markdown(report)
    if out_path is not None:
        with open(out_path, "w") as handle:
            handle.write(markdown)
        print("wrote %s" % out_path)
    elif not quiet:
        print(markdown)
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("wrote %s" % json_path)
    if prom_path is not None:
        with open(prom_path, "w") as handle:
            handle.write(series_mod.to_prometheus(registry))
        print("wrote %s" % prom_path)
    if csv_path is not None:
        with open(csv_path, "w") as handle:
            handle.write("\n".join(series_mod.csv_lines(registry)) + "\n")
        print("wrote %s" % csv_path)
    alerts = report["slo"]["alerts"]
    print("%s: %d window(s), %d instrument(s), %d alert(s)%s"
          % (scenario, report["windows"], len(report["series"]), len(alerts),
             " — " + ", ".join(sorted(set(a["rule"] for a in alerts)))
             if alerts else ""))
    return 0
