"""The repository benchmark: simulator cost and simulated results.

Run from the root of a checkout (no install needed)::

    python3 benchmarks/perf/run.py [--workload W ...] [--seed S]
                                   [--seconds S | --repeat N] [--trace [0|1]]
                                   [--smoke] [--json OUT] [--write-expect]

Each repeat of a workload runs in a fresh single-threaded worker process
(:mod:`worker`), one at a time.  A run makes ``--repeat`` repeats, or as
many as nominally fit in ``--seconds``.  It reports the host cost of the
best repeat, the median set-up time and memory, and the simulated
results, which every repeat must reproduce exactly.  ``--trace`` adds one
traced repeat that splits the measured phase across the simulator's
layers (:mod:`layers`).

The benchmark checks what it measures: every repeat must reproduce the
others exactly, at the default seed each must match ``expect.json``,
each workload asserts it exercised what it claims, and a traced repeat
must reproduce the untraced one and its span counts the public counters.
A failed check marks every op of the repeat failed and the run exits 1.
A worker that cannot run at all (for example when ``src`` is missing)
ends the run with exit code 2 before any result is printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` untraced, its per-layer metrics with
``--trace``.  With more than one workload ``metrics`` maps each
workload to its metrics.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECT_PATH = os.path.join(HERE, "expect.json")

WORKLOADS = ("linkbench-durable", "linkbench-flush", "linkbench-telemetry",
             "fio-gc", "torture-sweep")

#: the seed ``expect.json`` was recorded at
DEFAULT_SEED = 1

#: nominal wall seconds of one full-size repeat, which turns --seconds
#: into a repeat count that does not depend on how fast the code is
REPEAT_S = 1.5

#: a workload's repeats, traced one included, end within this many
#: seconds, or the run fails: a one-workload run must end in 180 s
RUN_BUDGET_S = 170

#: the traced run's self time must cover its measured phase this closely
CLOSURE = (0.98, 1.02)


class WorkerError(Exception):
    """A worker process crashed, hung or printed no record."""


def spawn(workload, seed, smoke, trace, deadline):
    """Run one repeat in a fresh process and return its record."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    if trace:
        command.append("--trace")
    # REPRO_* knobs of the caller must not reach the worlds.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    try:
        # run() kills the worker and waits for it when the time is up.
        done = subprocess.run(command, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError("%s worker still running at the %d s budget"
                          % (workload, RUN_BUDGET_S))
    if done.returncode != 0:
        raise WorkerError("%s worker exited %d:\n%s" % (
            workload, done.returncode, done.stderr.strip()))
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerError("%s worker printed no record" % workload)


def load_json(path):
    with open(path) as handle:
        return json.load(handle)


def units_of(spec):
    """{metric name: unit} for every metric ``spec`` declares."""
    return {metric["name"]: metric["unit"]
            for metric in spec["end_to_end"] + spec["per_layer"]}


def quartiles(values):
    """(q1, median, q3) of ``values``, as ``statistics.quantiles`` has them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def host_samples(records):
    """Per-repeat host costs of the untraced repeats."""
    return {
        "host_ops_per_cpu_s": [r["fingerprint"]["host_ops"] / r["phase_cpu_s"]
                               for r in records],
        "setup_s": [r["setup_cpu_s"] for r in records],
        "peak_rss_mib": [r["peak_rss_mib"] for r in records],
    }


def end_to_end(records):
    """The end-to-end metrics of the untraced repeats.

    Throughput is the best repeat's, as ``timeit`` reports: on a shared
    host, interference only ever adds CPU time, and it comes in bursts
    that shift a median of a few repeats by 10% while the best of ten
    short ones stays within a few percent.  Set-up time and memory are
    medians.
    """
    samples = host_samples(records)
    return {
        "host_ops_per_cpu_s": max(samples["host_ops_per_cpu_s"]),
        "setup_s": statistics.median(samples["setup_s"]),
        "peak_rss_mib": statistics.median(samples["peak_rss_mib"]),
        "sim_ops_per_s": records[0]["fingerprint"]["sim_ops_per_s"],
    }


def per_layer(records, traced):
    """The per-layer metrics: counts from the untraced fingerprint, time
    split and simulated durations from the traced repeat."""
    fingerprint = records[0]["fingerprint"]
    trace = traced["trace"]
    # A fingerprint's per-layer counts are its "<layer>.<name>" keys.
    metrics = {name: value for name, value in fingerprint.items()
               if "." in name}
    metrics["sim.events"] = records[0]["events"]
    metrics["sim.events_per_op"] = (records[0]["events"]
                                    / fingerprint["host_ops"])
    metrics["sim.processes"] = trace["processes"]
    metrics["devices.submits"] = trace["calls"].get("StorageDevice.submit", 0)
    # Each layer's share of traced self time, applied to the best
    # untraced repeat's CPU seconds: what the layer costs untraced.
    self_s = trace["self_s"]
    traced_s = sum(self_s.values())
    cpu_s = min(r["phase_cpu_s"] for r in records)
    for layer in layers.LAYERS:
        metrics[layer + ".self_cpu_s"] = (self_s.get(layer, 0.0) / traced_s
                                          * cpu_s)
    for name, percentiles in trace["sim_ms"].items():
        for key, value in percentiles.items():
            metrics["%s_sim_ms_%s" % (name, key)] = value
    wall_s = min(r["phase_wall_s"] for r in records)
    metrics["trace.overhead"] = traced["phase_wall_s"] / wall_s - 1
    metrics["trace.closure"] = traced_s / traced["phase_wall_s"]
    return metrics


def span_problems(fingerprint, traced):
    """Where the traced repeat's spans disagree with the public counters
    or fail to cover its measured phase."""
    calls = traced["trace"]["calls"]
    problems = []
    closure = sum(traced["trace"]["self_s"].values()) / traced["phase_wall_s"]
    if not CLOSURE[0] <= closure <= CLOSURE[1]:
        problems.append("trace.closure %.4f outside %s" % (closure, CLOSURE))
    # A power cut drops calls in flight before their counters move, so
    # spans match counters only on a workload without cuts.
    if fingerprint["failures.trials"]:
        return problems
    pairs = (("FileSystem.fsync + fdatasync spans",
              calls.get("FileSystem.fsync", 0)
              + calls.get("FileSystem.fdatasync", 0),
              "host.fsyncs", fingerprint["host.fsyncs"]),
             ("StorageDevice.submit spans",
              calls.get("StorageDevice.submit", 0),
              "devices.reads + devices.writes",
              fingerprint["devices.reads"] + fingerprint["devices.writes"]))
    for span, spans, counter, count in pairs:
        if spans != count:
            problems.append("%s %d != %s %d" % (span, spans, counter, count))
    return problems


def diff(expected, got):
    """Human-readable differences between two fingerprints."""
    return ["%s: expected %r, got %r" % (key, expected.get(key), got.get(key))
            for key in sorted(set(expected) | set(got))
            if expected.get(key) != got.get(key)]


def run_workload(workload, args, expect):
    """All repeats of one workload; returns its report."""
    deadline = time.monotonic() + RUN_BUDGET_S
    records = [spawn(workload, args.seed, args.smoke, False, deadline)
               for _ in range(args.repeat)]
    traced = (spawn(workload, args.seed, args.smoke, True, deadline)
              if args.trace else None)

    problems = []
    failed = [r["fingerprint"]["failed"] for r in records]
    reference = records[0]["fingerprint"]
    for index, record in enumerate(records):
        fingerprint = record["fingerprint"]
        wrong = ["repeat %d: %s" % (index, check)
                 for check in record["checks"]]
        if expect is not None:
            wrong += ["repeat %d vs expect.json: %s" % (index, line)
                      for line in diff(expect, fingerprint)]
        elif fingerprint != reference:
            wrong += ["repeat %d vs repeat 0: %s" % (index, line)
                      for line in diff(reference, fingerprint)]
        if wrong:
            problems += wrong
            failed[index] = fingerprint["ops"]
    attempted = sum(r["fingerprint"]["ops"] for r in records)
    if traced is not None:
        attempted += traced["fingerprint"]["ops"]
        wrong = ["traced vs untraced: %s" % line
                 for line in diff(reference, traced["fingerprint"])]
        wrong += span_problems(reference, traced)
        problems += wrong
        failed.append(traced["fingerprint"]["ops"] if wrong
                      else traced["fingerprint"]["failed"])
    report = {
        "workload": workload, "seed": args.seed, "smoke": args.smoke,
        "repeats": records, "traced": traced, "problems": problems,
        "attempted": attempted, "failed": sum(failed),
        "end_to_end": end_to_end(records),
    }
    if traced is not None:
        report["per_layer"] = per_layer(records, traced)
    return report


def print_report(report, units):
    records = report["repeats"]
    print("== %s (seed %d%s): %d repeats%s ==" % (
        report["workload"], report["seed"],
        ", smoke" if report["smoke"] else "", len(records),
        " + 1 traced" if report["traced"] else ""))
    samples = host_samples(records)
    for name, value in report["end_to_end"].items():
        spread = ""
        if name in samples and len(records) > 1:
            q1, median, q3 = quartiles(samples[name])
            spread = "   repeats: median %.6g, q1 %.6g, q3 %.6g" % (
                median, q1, q3)
        print("  %-28s %14.6g %-10s%s" % (name, value, units[name], spread))
    # The simulated latencies are checked like every simulated result,
    # but are not metrics: on fio-gc they do not vary with the seed.
    fingerprint = records[0]["fingerprint"]
    print("  simulated latency: p50 %.6g ms, p%g %.6g ms, of %d samples" % (
        fingerprint["sim_p50_ms"], fingerprint["sim_tail_q"] * 100,
        fingerprint["sim_tail_ms"], fingerprint["sim_samples"]))
    print("  %-28s %14d of %d ops attempted" % (
        "failed", report["failed"], report["attempted"]))
    for name, value in sorted(report.get("per_layer", {}).items()):
        print("  %-28s %14.6g %s" % (name, value, units[name]))
    for problem in report["problems"]:
        print("  FAIL %s" % problem)


def metric_values(report):
    """{metric name: reported value} of one workload's report."""
    return {**report["end_to_end"], **report.get("per_layer", {})}


def result_metrics(report, names, units):
    """``{name: {"value", "unit"}}`` for the declared ``names``."""
    values = metric_values(report)
    missing = sorted(set(names) - set(values))
    if missing:
        raise KeyError("declared metrics not measured: %s" % missing)
    return {name: {"value": values[name], "unit": units[name]}
            for name in names}


def write_expect(reports, smoke):
    """Record the runs' fingerprints as the expected results."""
    expect = (load_json(EXPECT_PATH) if os.path.exists(EXPECT_PATH)
              else {"seed": DEFAULT_SEED})
    size = expect.setdefault("smoke" if smoke else "full", {})
    for report in reports:
        size[report["workload"]] = report["repeats"][0]["fingerprint"]
    with open(EXPECT_PATH, "w") as handle:
        json.dump(expect, handle, indent=1, sort_keys=True)
        handle.write("\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="run as many untraced repeats as nominally "
                             "fit in this many seconds, at least 3")
    parser.add_argument("--repeat", type=int,
                        help="run exactly this many untraced repeats")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one traced repeat and report per-layer "
                             "metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, for tests")
    parser.add_argument("--json", metavar="OUT",
                        help="write every repeat's record here")
    parser.add_argument("--write-expect", action="store_true",
                        help="record this run's results in expect.json "
                             "(default seed only)")
    args = parser.parse_args(argv)
    if args.repeat is None:
        args.repeat = max(3, round(args.seconds / REPEAT_S))
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.write_expect and args.seed != DEFAULT_SEED:
        parser.error("--write-expect records the default seed %d only"
                     % DEFAULT_SEED)
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("no simulator source at %s" % SRC, file=sys.stderr)
        return 2
    started = time.monotonic()
    # Build: byte-compile once, so that set-up time never includes
    # compiling, even where the environment tells imports not to cache.
    for path in (SRC, HERE):
        compileall.compile_dir(path, quiet=1)
    spec = load_json(SPEC_PATH)
    units = units_of(spec)
    names = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    expected = {}
    if args.seed == DEFAULT_SEED and not args.write_expect:
        expected = load_json(EXPECT_PATH)["smoke" if args.smoke else "full"]

    reports = []
    for workload in args.workload or WORKLOADS:
        try:
            report = run_workload(workload, args, expected.get(workload))
        except WorkerError as error:
            print(error, file=sys.stderr)
            return 2
        print_report(report, units)
        reports.append(report)
    if args.write_expect:
        write_expect(reports, args.smoke)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"nproc": os.cpu_count(),
                       "python": sys.version.split()[0],
                       "wall_s": time.monotonic() - started,
                       "workloads": reports}, handle, sort_keys=True)

    metrics = {r["workload"]: result_metrics(r, names, units)
               for r in reports}
    result = {
        "correct": not any(r["problems"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": (metrics[reports[0]["workload"]] if len(reports) == 1
                    else metrics),
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
