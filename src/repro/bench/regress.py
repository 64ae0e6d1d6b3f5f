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
baseline deliberately with a full ``python -m repro scaling``, the one
run allowed to write it).
"""

import json

from . import scaling, setups

BASELINE_PATH = scaling.BASELINE_PATH

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
    """Re-run the baseline's sweep under ``spec``; ``smoke`` runs width 1
    only, with no ablation and no interface cells.

    Operation counts are pinned to the baseline's (never quick-scaled):
    TPS and p99 are only comparable at identical work.
    """
    if setups.scale_factor() != baseline.get("scale_factor"):
        raise RuntimeError(
            "REPRO_SCALE=%d does not match baseline scale_factor=%s; "
            "the gate would diff incomparable worlds"
            % (setups.scale_factor(), baseline.get("scale_factor")))
    widths = sorted({r["width"] for r in baseline.get("throughput", ())})
    sq_counts = tuple(r["sq"] for r in baseline.get("interfaces", ())
                      if r["interface"] == "nvme")
    if smoke:
        widths, sq_counts = widths[:1], ()
    return scaling.run_all(
        widths=widths, ablation=not smoke, sq_counts=sq_counts,
        ops_per_client=baseline.get("ops_per_client", DEFAULT_OPS),
        spec=spec, worlds=worlds)


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
