"""Checks on the benchmark itself, at ``--smoke`` sizes (a few seconds).

Run with ``python -m pytest benchmarks/perf -q`` from the repository root.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import run  # noqa: E402

#: a printed metric line: two-space indent, name, value, unit
METRIC_LINE = re.compile(r"^  ([a-z][\w.]*) +(-?[\d.e+-]+|\d+) ")


def invoke(*args, root=run.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "perf", "run.py"),
         *args], cwd=root, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload at smoke size, with one traced repeat each."""
    out = tmp_path_factory.mktemp("perf") / "traced.json"
    done = invoke("--smoke", "--repeat", "2", "--trace", "--json", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout, run.load_json(out)


def test_printed_metrics_are_declared(traced):
    stdout, _ = traced
    spec = run.load_json(run.SPEC_PATH)
    names = set(run.units_of(spec))
    printed = {match.group(1) for match in map(METRIC_LINE.match,
                                               stdout.splitlines())
               if match and match.group(1) != "failed"}
    assert printed == names
    result = json.loads(stdout.splitlines()[-1])
    layer_names = {m["name"] for m in spec["per_layer"]}
    for metrics in result["metrics"].values():
        assert set(metrics) == layer_names
    assert result["correct"] and result["failed"] == 0


def test_untraced_result_line_has_end_to_end_metrics():
    done = invoke("--smoke", "--workload", "fio-gc", "--seed", "5",
                  "--seconds", "4", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    spec = run.load_json(run.SPEC_PATH)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


def test_trace_reproduces_the_untraced_fingerprint(traced):
    _, report = traced
    for workload in report["workloads"]:
        assert workload["traced"]["fingerprint"] == \
            workload["repeats"][0]["fingerprint"], workload["workload"]
        assert not workload["problems"]
        closure = workload["per_layer"]["trace.closure"]
        assert run.CLOSURE[0] <= closure <= run.CLOSURE[1]


def test_span_counts_equal_public_counters(traced):
    _, report = traced
    checked = 0
    for workload in report["workloads"]:
        fingerprint = workload["repeats"][0]["fingerprint"]
        if fingerprint["failures.trials"]:
            continue  # power cuts drop calls in flight
        calls = workload["traced"]["trace"]["calls"]
        assert (calls.get("FileSystem.fsync", 0)
                + calls.get("FileSystem.fdatasync", 0)
                == fingerprint["host.fsyncs"])
        assert calls["StorageDevice.submit"] == (
            fingerprint["devices.reads"] + fingerprint["devices.writes"])
        checked += 1
    assert checked == len(run.WORKLOADS) - 1


def copy_benchmark(root, with_src=True):
    shutil.copytree(HERE, root / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.SPEC_PATH, root / "BENCHMARK.json")
    if with_src:
        os.symlink(run.SRC, root / "src")


def test_perturbed_expectation_fails_the_run(tmp_path):
    copy_benchmark(tmp_path)
    path = tmp_path / "benchmarks" / "perf" / "expect.json"
    expect = run.load_json(path)
    expect["smoke"]["linkbench-durable"]["sim_p50_ms"] *= 1.000001
    path.write_text(json.dumps(expect))
    done = invoke("--smoke", "--workload", "linkbench-durable",
                  "--repeat", "2", root=str(tmp_path))
    assert done.returncode == 1
    assert "vs expect.json: sim_p50_ms" in done.stdout
    result = json.loads(done.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_without_the_simulator_source_no_result_is_printed(tmp_path):
    copy_benchmark(tmp_path, with_src=False)
    done = invoke("--workload", "fio-gc", root=str(tmp_path))
    assert done.returncode not in (0, 1)
    assert not done.stdout.strip()


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    ([10.0] * 10, [12.0] * 10, "higher", 0.05, "improved"),
    ([10.0] * 10, [8.0] * 10, "higher", 0.05, "worse"),
    ([10.0, 10.1] * 5, [10.05, 10.0] * 5, "higher", 0.05, "unchanged"),
    ([8.0, 12.0] * 5, [12.0, 8.0] * 5, "higher", 0.05, "unresolved"),
    ([5.0] * 10, [4.0] * 10, "lower", None, "improved"),
    ([5.0] * 10, [6.0] * 10, "lower", None, "worse"),
])
def test_compare_verdicts(parent, change, better, bound, expected):
    assert compare.verdict(parent, change, better, bound)["verdict"] == \
        expected
