"""Compare benchmark runs of two commits, or summarise runs of one.

Each file is the ``--json`` report of one ``run.py`` invocation.  Files
are grouped by directory, in the order the directories first appear::

    python3 benchmarks/perf/compare.py parent/*.json change/*.json
    python3 benchmarks/perf/compare.py runs/*.json [--json summary.json]

With two groups the first is the parent and the second the change; the
i-th files of the two groups (in name order) form the i-th pair, so
name the runs in the order they were made and alternate which side runs
first.  For every metric and workload it prints each side's median and
quartiles, the share of pairs the change wins (ties count for neither)
and a verdict:

* ``improved``: the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json`` (for a per-layer metric,
  which has no bound: the parent wins 9 of 10 pairs by more than its
  interquartile range);
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound, and not every change run beats every
  parent run;
* ``unchanged``: none of these.

It exits 1 when any verdict is ``worse``.  With one group it prints each
metric's median, quartiles and spread: the form of ``baseline.json``.
"""

import argparse
import json
import os
import sys

import run

WIN_SHARE = 0.9


def load_group(paths):
    """{(workload, metric): [value per file]} and the files' summaries."""
    values = {}
    walls = []
    for path in sorted(paths):
        report = run.load_json(path)
        walls.append(report["wall_s"])
        for workload in report["workloads"]:
            for name, value in run.metric_values(workload).items():
                values.setdefault((workload["workload"], name), []).append(
                    value)
    return values, walls


def stats(values):
    q1, median, q3 = run.quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def verdict(parent, change, better, bound):
    """The verdict on one metric of one workload, with its evidence."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c - p) * sign > 0)
    losses = sum(1 for p, c in pairs if (c - p) * sign < 0)
    p, c = stats(parent), stats(change)
    gain = (c["median"] - p["median"]) * sign
    iqr = p["q3"] - p["q1"]
    row = {"parent": p, "change": c, "wins": wins, "pairs": len(pairs),
           "change_pct": (100.0 * (c["median"] - p["median"]) / p["median"]
                          if p["median"] else 0.0)}
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > iqr:
        row["verdict"] = "improved"
    elif bound is None:
        row["verdict"] = ("worse" if pairs and losses >= WIN_SHARE
                          * len(pairs) and -gain > iqr else "unchanged")
    elif -gain > bound * abs(p["median"]):
        row["verdict"] = "worse"
    elif (max(p["spread"], c["spread"]) > bound
          and not min(x * sign for x in change)
          > max(x * sign for x in parent)):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(parent_paths, change_paths, spec):
    """One row per metric and workload measured on both sides."""
    parent, _ = load_group(parent_paths)
    change, _ = load_group(change_paths)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in sorted(set(parent) & set(change)):
        metric = metrics[key[1]]
        row = verdict(parent[key], change[key], metric["better"],
                      metric.get("bound"))
        rows.append(dict(row, workload=key[0], metric=key[1]))
    return rows


def summarise(paths):
    values, walls = load_group(paths)
    return {"runs": len(walls), "wall_s": stats(walls),
            "metrics": [dict(stats(values[key]), workload=key[0],
                             metric=key[1]) for key in sorted(values)]}


def print_comparison(rows):
    print("%-20s %-28s %28s %28s %7s %8s  %s" % (
        "workload", "metric", "parent median [q1, q3]",
        "change median [q1, q3]", "wins", "change", "verdict"))
    for row in rows:
        p, c = row["parent"], row["change"]
        print("%-20s %-28s %10.5g [%-7.5g %7.5g] %10.5g [%-7.5g %7.5g] "
              "%3d/%-3d %+7.2f%%  %s" % (
                  row["workload"], row["metric"], p["median"], p["q1"],
                  p["q3"], c["median"], c["q1"], c["q3"], row["wins"],
                  row["pairs"], row["change_pct"], row["verdict"]))


def print_summary(summary):
    print("%d runs, wall median %.1f s" % (summary["runs"],
                                           summary["wall_s"]["median"]))
    print("%-20s %-28s %12s %12s %12s %8s" % (
        "workload", "metric", "median", "q1", "q3", "spread"))
    for row in summary["metrics"]:
        print("%-20s %-28s %12.6g %12.6g %12.6g %7.2f%%" % (
            row["workload"], row["metric"], row["median"], row["q1"],
            row["q3"], 100 * row["spread"]))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Compare run.py --json reports of two commits.")
    parser.add_argument("files", nargs="+")
    parser.add_argument("--json", metavar="OUT",
                        help="also write the table here as JSON")
    args = parser.parse_args(argv)
    groups = {}
    for path in args.files:
        groups.setdefault(os.path.dirname(os.path.abspath(path)),
                          []).append(path)
    if len(groups) > 2:
        parser.error("files come from %d directories; want 1 or 2"
                     % len(groups))
    sides = list(groups.values())
    if len(sides) == 1:
        table = summarise(sides[0])
        print_summary(table)
        status = 0
    else:
        table = compare(sides[0], sides[1], run.load_json(run.SPEC_PATH))
        print_comparison(table)
        status = 1 if any(r["verdict"] == "worse" for r in table) else 0
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
