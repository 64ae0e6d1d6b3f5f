"""Continuous-metrics dashboards: ``python -m repro monitor <scenario>``.

Runs a traced scenario with windowed metrics armed (spans stay off —
counters snapshot at window boundaries and add no simulation events),
pulls every device's SMART-style health report, evaluates the default
bench SLO rules over the collected windows, and renders the run's
``repro.run/1`` record (its ``metrics`` section) as a dashboard:
per-window series, device health, and fired alerts.

Usage::

    python -m repro monitor figure5
    python -m repro monitor figure5 --interval 0.005 --json dash.json
    python -m repro monitor table1 --gray-faults gc-storm --prom m.prom
    python -m repro monitor bursts --csv series.csv --quiet

The world flags every bench takes (``--gray-faults``, ``--devices``,
``--interface`` ...) shape the scenario's world; ``--profile`` adds a
simulator self-profile (the record's ``profile`` section) to the
dashboard.

The run is the same world ``repro trace`` builds, so numbers line up
with traces and the benches; with metrics disabled (every other CLI
path) the instruments are shared no-ops and results stay byte-identical.
"""

from ..telemetry import series as series_mod
from . import runner, setups
from .profile import layer_table
from .scenarios import TRACED

DEFAULT_INTERVAL = 0.01


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


def render_markdown(record):
    """The dashboard as markdown: SLO verdicts, alerts, SMART, series."""
    metrics = record["metrics"]
    lines = ["# repro monitor — %s" % record["scenario"], ""]
    lines.append("- outcome: %s" % record["outcome"])
    lines.append("- windows: %d x %.4gs (%.4gs simulated)"
                 % (metrics["windows"], metrics["interval_s"],
                    metrics["duration_s"]))
    lines.append("")

    lines.append("## SLO rules")
    lines.append("")
    lines.append("| rule | objective | windows | violations | alerts |")
    lines.append("|---|---|---:|---:|---:|")
    for rule in metrics["slo"]["rules"]:
        lines.append("| %s | `%s` | %d | %d | %d |"
                     % (rule["rule"]["name"], rule["objective"],
                        rule["evaluations"], rule["violations"],
                        len(rule["episodes"])))
    lines.append("")

    alerts = metrics["slo"]["alerts"]
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
    for smart in metrics["smart"]:
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

    profile = record.get("profile")
    if profile is not None:
        lines.append("## Simulator self-profile")
        lines.append("")
        lines.append("- %.3fs wall for %.3fs simulated — real-time "
                     "factor **%.2fx**, %.0f events/sec"
                     % (profile["wall_seconds"], profile["sim_seconds"],
                        profile["real_time_factor"],
                        profile["events_per_sec"]))
        lines.append("")
        lines.extend(layer_table(profile))
        lines.append("")

    lines.append("## Series")
    lines.append("")
    lines.append("| metric | labels | kind | last | total delta |")
    lines.append("|---|---|---|---:|---:|")
    for entry in metrics["series"]:
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
    record, telemetry = runner.run(scenario, TRACED.get(scenario), spec,
                                   worlds, metrics=interval,
                                   profile=spec.profile)
    runner.write_views(record, render_markdown(record), out_path,
                       json_path, quiet, check=False)
    registry = telemetry.metrics
    if prom_path is not None:
        with open(prom_path, "w") as handle:
            handle.write(series_mod.to_prometheus(registry))
        print("wrote %s" % prom_path)
    if csv_path is not None:
        with open(csv_path, "w") as handle:
            handle.write("\n".join(series_mod.csv_lines(registry)) + "\n")
        print("wrote %s" % csv_path)
    metrics = record["metrics"]
    alerts = metrics["slo"]["alerts"]
    print("%s: %d window(s), %d instrument(s), %d alert(s)%s"
          % (scenario, metrics["windows"], len(metrics["series"]),
             len(alerts),
             " — " + ", ".join(sorted(set(a["rule"] for a in alerts)))
             if alerts else ""))
    return 0
