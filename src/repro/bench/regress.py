"""Perf-regression gate: ``python -m repro regress``.

Re-runs the scaling benchmark's configurations and diffs the fresh
numbers against the committed ``BENCH_scaling.json`` baseline.  The
simulation is deterministic, so on an unchanged tree the fresh run
reproduces the baseline exactly; a model or stack change that moves
TPS down or p99 up beyond tolerance fails the gate (exit 1), which is
the CI hook that keeps the repo's perf trajectory honest.

Usage::

    python -m repro regress                   # full sweep vs baseline
    python -m repro regress --smoke           # CI: width-1 cells only
    python -m repro regress --tps-tol 0.05 --p99-tol 0.10
    python -m repro regress --baseline BENCH_scaling.json --json diff.json

Tolerances are relative: ``--tps-tol 0.05`` fails a >5% TPS drop.
Improvements never fail the gate (they are reported; refresh the
baseline deliberately via ``python -m repro scaling``).

When a committed ``BENCH_speed.json`` exists (``python -m repro
profile --speed``), the gate also prints an **advisory** wall-clock
section: the fresh run's real-time factor per matched cell against the
speed baseline.  Wall time is host-dependent — a slower machine is not
a regression — so this section never fails the gate; it exists so a
perf-motivated change can show its wall-clock win in the same output
that proves the simulated metrics did not move.
"""

import json

from . import scaling, setups

BASELINE_PATH = scaling.BASELINE_PATH

SPEED_PATH = "BENCH_speed.json"

#: the sweep's operation count when the baseline was recorded (the JSON
#: predates this gate and does not carry it)
DEFAULT_OPS = scaling.BASE_OPS_PER_CLIENT

TPS_TOLERANCE = 0.02
P99_TOLERANCE = 0.05
SMOKE_TOLERANCE = 0.25


SECTIONS = ("throughput", "log_placement", "mirroring", "interfaces")


def _key(record):
    if "interface" in record:
        return ("interfaces", record["interface"], record["sq"])
    if "mirror" in record:
        return ("mirroring", record["mode"], record["mirror"])
    if "mode" in record:
        return ("throughput", record["mode"], record["width"])
    return ("log_placement", record["config"], record["width"])


def compare(baseline, fresh, tps_tol=TPS_TOLERANCE, p99_tol=P99_TOLERANCE):
    """Diff two scaling reports; returns ``(rows, failures)``.

    Each row is one metric of one matched configuration.  A failure is
    a TPS drop or a p99 rise beyond its relative tolerance; baseline
    cells the fresh run did not cover (``--smoke``) are skipped.
    """
    fresh_by_key = {_key(r): r for section in SECTIONS
                    for r in fresh.get(section, ())}
    rows, failures = [], []
    for section in SECTIONS:
        for base_rec in baseline.get(section, ()):
            key = _key(base_rec)
            fresh_rec = fresh_by_key.get(key)
            if fresh_rec is None:
                continue
            for metric, tolerance, bad_sign in (("tps", tps_tol, -1),
                                                ("p99_write_s", p99_tol,
                                                 +1)):
                base_val = base_rec[metric]
                new_val = fresh_rec[metric]
                delta = ((new_val - base_val) / base_val if base_val
                         else 0.0)
                failed = delta * bad_sign > tolerance
                rows.append({"key": "/".join(str(part) for part in key),
                             "metric": metric, "baseline": base_val,
                             "fresh": new_val, "delta": delta,
                             "tolerance": tolerance, "failed": failed})
                if failed:
                    failures.append(rows[-1])
    return rows, failures


def run_fresh(baseline, smoke=False, spec=setups.DEFAULT_SPEC, worlds=None):
    """Re-run the configurations the baseline records under ``spec``.

    Operation counts are pinned to the baseline's (never quick-scaled):
    TPS and p99 are only comparable at identical work.
    """
    if setups.scale_factor() != baseline.get("scale_factor"):
        raise RuntimeError(
            "REPRO_SCALE=%d does not match baseline scale_factor=%s; "
            "the gate would diff incomparable worlds"
            % (setups.scale_factor(), baseline.get("scale_factor")))
    ops = baseline.get("ops_per_client", DEFAULT_OPS)
    widths = sorted({r["width"] for r in baseline.get("throughput", ())})
    if smoke:
        widths = widths[:1]
    throughput = []
    for label, barriers in scaling.MODES:
        for width in widths:
            record = scaling.run_width(width, barriers,
                                       ops_per_client=ops, spec=spec,
                                       worlds=worlds)
            throughput.append(record)
            print("  ran %-13s width=%d  %8.0f tps  p99=%.2fms"
                  % (label, width, record["tps"],
                     record["p99_write_s"] * 1e3))
    placement = []
    mirroring = []
    if not smoke:
        for base_rec in baseline.get("log_placement", ()):
            record = scaling.run_placement(
                base_rec["config"] == "colocated",
                width=base_rec["width"], ops_per_client=ops, spec=spec,
                worlds=worlds)
            placement.append(record)
            print("  ran log %-10s width=%d  %8.0f tps  p99=%.2fms"
                  % (record["config"], record["width"], record["tps"],
                     record["p99_write_s"] * 1e3))
        for base_rec in baseline.get("mirroring", ()):
            record = scaling.run_mirror(
                base_rec["mirror"],
                barriers=base_rec["mode"] == "flush-cache",
                ops_per_client=ops, spec=spec, worlds=worlds)
            mirroring.append(record)
            print("  ran mirror=%d      %8.0f tps  p99=%.2fms"
                  % (record["mirror"], record["tps"],
                     record["p99_write_s"] * 1e3))
    interfaces = []
    if not smoke:
        for base_rec in baseline.get("interfaces", ()):
            record = scaling.run_interface(
                base_rec["interface"], base_rec["sq"],
                barriers=base_rec["mode"] == "flush-cache",
                ops_per_client=ops, spec=spec, worlds=worlds)
            interfaces.append(record)
            print("  ran %-5s sq=%d     %8.0f tps  p99=%.2fms"
                  % (record["interface"], record["sq"], record["tps"],
                     record["p99_write_s"] * 1e3))
    return {"throughput": throughput, "log_placement": placement,
            "mirroring": mirroring, "interfaces": interfaces}


def wall_clock_advisory(fresh, speed_path=SPEED_PATH):
    """Advisory real-time-factor lines vs the committed speed baseline.

    Matches the fresh throughput records to ``BENCH_speed.json`` cells
    by (mode, width) and compares real-time factors (``sim_seconds /
    wall_seconds``).  Returns printable lines — or an explanatory
    one-liner when there is no baseline.  Never fails the gate: wall
    time depends on the host, and the regress run itself carries
    measurement noise a deterministic simulation does not.
    """
    try:
        with open(speed_path) as handle:
            speed = json.load(handle)
    except OSError:
        return ["  (no %s — run `python -m repro profile --speed` to "
                "record one)" % speed_path]
    by_cell = {(cell["mode"], cell["width"]): cell
               for cell in speed.get("cells", ())}
    lines = []
    for record in fresh.get("throughput", ()):
        cell = by_cell.get((record["mode"], record["width"]))
        if cell is None or not record.get("wall_seconds"):
            continue
        fresh_rtf = record["sim_seconds"] / record["wall_seconds"]
        base_rtf = cell["real_time_factor"]
        delta = ((fresh_rtf - base_rtf) / base_rtf * 100
                 if base_rtf else 0.0)
        lines.append("  %-13s width=%d  rtf %5.2fx vs baseline %5.2fx "
                     "(%+.0f%%)"
                     % (record["mode"], record["width"], fresh_rtf,
                        base_rtf, delta))
    if not lines:
        return ["  (no fresh cells match %s)" % speed_path]
    return lines


def format_rows(rows):
    lines = ["%-32s %-12s %12s %12s %8s" % ("configuration", "metric",
                                            "baseline", "fresh",
                                            "delta")]
    for row in rows:
        lines.append("%-32s %-12s %12.4f %12.4f %+7.2f%%%s"
                     % (row["key"], row["metric"], row["baseline"],
                        row["fresh"], row["delta"] * 100,
                        "  FAIL" if row["failed"] else ""))
    return "\n".join(lines)


def main(baseline_path=BASELINE_PATH, json_path=None, smoke=False,
         tps_tol=None, p99_tol=None, spec=setups.DEFAULT_SPEC, worlds=None):
    """``python -m repro regress``: diff a fresh run against the
    baseline; an explicit tolerance wins over ``smoke``'s looser one."""
    if tps_tol is None:
        tps_tol = SMOKE_TOLERANCE if smoke else TPS_TOLERANCE
    if p99_tol is None:
        p99_tol = SMOKE_TOLERANCE if smoke else P99_TOLERANCE
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except OSError as error:
        print("cannot read baseline %s: %s" % (baseline_path, error))
        return 2
    try:
        fresh = run_fresh(baseline, smoke=smoke, spec=spec, worlds=worlds)
    except RuntimeError as error:
        print(str(error))
        return 2
    rows, failures = compare(baseline, fresh, tps_tol=tps_tol,
                             p99_tol=p99_tol)
    print()
    print(format_rows(rows))
    print("\nwall clock (advisory — never fails the gate):")
    for line in wall_clock_advisory(fresh):
        print(line)
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump({"baseline": baseline_path, "rows": rows,
                       "fresh": fresh}, handle, indent=2, sort_keys=True)
        print("wrote %s" % json_path)
    if failures:
        print("\nREGRESSION: %d metric(s) beyond tolerance "
              "(tps %.0f%%, p99 %.0f%%)"
              % (len(failures), tps_tol * 100, p99_tol * 100))
        return 1
    print("\nno regression: %d metrics within tolerance "
          "(tps %.0f%%, p99 %.0f%%)"
          % (len(rows), tps_tol * 100, p99_tol * 100))
    return 0
