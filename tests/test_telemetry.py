"""Tests for the cross-layer telemetry subsystem.

Covers the guarantees the subsystem documents: causal span integrity
under concurrent processes, zero-perturbation probe sampling,
byte-identical determinism, zero overhead when disabled, and the
exporter / validator formats.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.bursts import run_one
from repro.bench.table1 import measure_cell
from repro.devices import make_durassd, make_ssd_a
from repro.sim import Simulator, units
from repro.telemetry import (
    NULL_SPAN,
    Telemetry,
    chrome_trace_events,
    render_flamegraph,
    render_summary,
    validate_chrome_trace,
    validate_trace_file,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def enabled_sim():
    telemetry = Telemetry(enabled=True)
    return Simulator(telemetry), telemetry


# --- span context ---------------------------------------------------------
class TestSpanContext:
    def test_nested_spans_in_one_process(self):
        sim, telemetry = enabled_sim()

        def body():
            with telemetry.span("outer", "host") as outer:
                yield sim.timeout(1.0)
                with telemetry.span("inner", "device") as inner:
                    yield sim.timeout(0.5)
                assert inner.parent_id == outer.span_id

        sim.process(body())
        sim.run()
        outer, = telemetry.spans("outer")
        inner, = telemetry.spans("inner")
        assert inner["parent"] == outer["id"]
        assert outer["ts"] == 0.0 and outer["dur"] == 1.5
        assert inner["ts"] == 1.0 and inner["dur"] == 0.5

    def test_spawned_process_inherits_span(self):
        sim, telemetry = enabled_sim()

        def child():
            with telemetry.span("child", "flash"):
                yield sim.timeout(0.1)

        def parent():
            with telemetry.span("parent", "db"):
                yield sim.process(child())

        sim.process(parent())
        sim.run()
        parent_span, = telemetry.spans("parent")
        child_span, = telemetry.spans("child")
        assert child_span["parent"] == parent_span["id"]

    def test_concurrent_processes_keep_independent_contexts(self):
        # Two interleaving processes must never see each other's spans
        # as ambient parents, no matter how their yields interleave.
        sim, telemetry = enabled_sim()

        def worker(name, delay):
            with telemetry.span("root." + name, "workload"):
                for _ in range(5):
                    yield sim.timeout(delay)
                    with telemetry.span("step." + name, "host"):
                        yield sim.timeout(delay / 2)

        sim.process(worker("a", 0.3))
        sim.process(worker("b", 0.2))
        sim.run()
        for name in ("a", "b"):
            root, = telemetry.spans("root." + name)
            steps = telemetry.spans("step." + name)
            assert len(steps) == 5
            assert all(step["parent"] == root["id"] for step in steps)
            # children are timed inside the parent window
            for step in steps:
                assert step["ts"] >= root["ts"]
                assert step["ts"] + step["dur"] <= root["ts"] + root["dur"]

    def test_span_outside_any_process_uses_ambient_stack(self):
        sim, telemetry = enabled_sim()
        with telemetry.span("setup", "workload") as outer:
            with telemetry.span("nested", "workload") as inner:
                assert inner.parent_id == outer.span_id
        assert telemetry._ambient is None

    def test_instant_links_to_current_span(self):
        sim, telemetry = enabled_sim()

        def body():
            with telemetry.span("op", "workload") as span:
                yield sim.timeout(0.1)
                telemetry.instant("mark", "device", detail=7)
                assert span is not NULL_SPAN

        sim.process(body())
        sim.run()
        instant, = telemetry.instants("mark")
        op, = telemetry.spans("op")
        assert instant["parent"] == op["id"]
        assert instant["attrs"] == {"detail": 7}

    def test_disabled_hub_hands_out_null_span(self):
        sim = Simulator()  # default: disabled hub
        span = sim.telemetry.span("anything", "host")
        assert span is NULL_SPAN
        with span as inner:
            inner.annotate(ignored=True)
        assert sim.telemetry.events == []


# --- probes ---------------------------------------------------------------
class TestProbes:
    def test_samples_on_simulated_time_grid(self):
        sim, telemetry = enabled_sim()
        state = {"value": 0}
        telemetry.add_probe("gauge", lambda: state["value"], "device")

        def body():
            for i in range(5):
                yield sim.timeout(0.005)
                state["value"] = i + 1

        sim.process(body())
        sim.run()
        samples = telemetry.samples("gauge")
        assert [s["ts"] for s in samples] == pytest.approx(
            [i * 0.002 for i in range(len(samples))])
        # the grid point at t=0.004 sees the state set at t=0.005? no —
        # state changes *at* 0.005, so 0.004 still reads the old value
        by_ts = {round(s["ts"], 9): s["value"] for s in samples}
        assert by_ts[0.004] == 0
        assert by_ts[0.006] == 1

    def test_sampling_adds_no_events_and_never_advances_clock(self):
        sim, telemetry = enabled_sim()
        telemetry.add_probe("gauge", lambda: 1, "device")

        def body():
            yield sim.timeout(0.0107)

        sim.process(body())
        sim.run()
        assert sim.now == 0.0107  # not rounded up to a sample point
        assert len(telemetry.samples("gauge")) == 6  # 0.000 .. 0.010

    def test_duplicate_probe_names_get_deterministic_suffixes(self):
        sim, telemetry = enabled_sim()
        first = telemetry.add_probe("occupancy", lambda: 1, "device")
        second = telemetry.add_probe("occupancy", lambda: 2, "device")
        third = telemetry.add_probe("occupancy", lambda: 3, "device")
        assert (first, second, third) == \
            ("occupancy", "occupancy#2", "occupancy#3")

    def test_two_devices_register_distinct_probe_names(self):
        sim, telemetry = enabled_sim()
        make_durassd(sim, capacity_bytes=64 * units.MIB)
        make_durassd(sim, capacity_bytes=64 * units.MIB)
        names = {probe.name for probe in telemetry.probes}
        assert "device.cache_occupancy" in names
        assert "device.cache_occupancy#2" in names

    def test_disabled_hub_ignores_probes(self):
        sim = Simulator()
        assert sim.telemetry.add_probe("x", lambda: 1) is None
        assert sim.telemetry.probes == []


# --- determinism ----------------------------------------------------------
class TestDeterminism:
    def test_same_seed_gives_byte_identical_jsonl(self):
        streams = []
        for _ in range(2):
            telemetry = Telemetry(enabled=True)
            measure_cell("durassd", "on", 8, ios=40, telemetry=telemetry)
            streams.append(telemetry.jsonl())
        assert streams[0] == streams[1]
        assert streams[0]  # non-empty

    def test_trace_covers_all_four_stack_layers(self):
        telemetry = Telemetry(enabled=True)
        measure_cell("durassd", "on", 8, ios=40, telemetry=telemetry)
        assert {"workload", "host", "device", "flash"} <= \
            set(telemetry.tracks())


# --- zero overhead --------------------------------------------------------
class TestZeroOverhead:
    def test_table1_cell_is_identical_with_telemetry(self):
        bare = measure_cell("durassd", "on", 8, ios=60)
        traced = measure_cell("durassd", "on", 8, ios=60,
                              telemetry=Telemetry(enabled=True))
        disabled = measure_cell("durassd", "on", 8, ios=60,
                                telemetry=Telemetry(enabled=False))
        assert bare == traced == disabled

    def test_burst_run_is_identical_with_telemetry(self):
        bare = run_one(make_ssd_a, True, 8, burst_writes=120)
        traced = run_one(make_ssd_a, True, 8, burst_writes=120,
                         telemetry=Telemetry(enabled=True))
        assert bare == traced


# --- exporters ------------------------------------------------------------
GOLDEN_EVENTS = [
    {"type": "span", "id": 1, "parent": None, "name": "op.write",
     "track": "workload", "ts": 0.0, "dur": 0.002, "attrs": {"n": 1}},
    {"type": "span", "id": 2, "parent": 1, "name": "fs.fsync",
     "track": "host", "ts": 0.0005, "dur": 0.001, "attrs": {}},
    {"type": "instant", "id": 3, "parent": 2, "name": "cache.admit",
     "track": "device", "ts": 0.001, "attrs": {"lba": 7}},
    {"type": "sample", "name": "ncq.depth", "track": "host",
     "ts": 0.002, "value": 3},
]


class TestExporters:
    def test_chrome_trace_golden(self):
        trace = chrome_trace_events(GOLDEN_EVENTS)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        # one process_name + one thread_name per track, stable tids
        tracks = {e["args"]["name"] for e in metadata
                  if e["name"] == "thread_name"}
        assert tracks == {"workload", "host", "device"}
        spans = [e for e in events if e["ph"] == "X"]
        assert [s["name"] for s in spans] == ["op.write", "fs.fsync"]
        assert spans[0]["ts"] == 0.0 and spans[0]["dur"] == 2000.0
        assert spans[1]["ts"] == 500.0 and spans[1]["dur"] == 1000.0
        counter, = [e for e in events if e["ph"] == "C"]
        assert counter["name"] == "ncq.depth"
        assert counter["args"] == {"value": 3}
        instant, = [e for e in events if e["ph"] == "i"]
        assert instant["name"] == "cache.admit"

    def test_written_trace_file_validates(self, tmp_path):
        telemetry = Telemetry(enabled=True)
        measure_cell("durassd", "on", 8, ios=40, telemetry=telemetry)
        path = str(tmp_path / "trace.json")
        telemetry.write_chrome_trace(path)
        errors, stats = validate_trace_file(
            path, min_tracks=4,
            require_tracks=("workload", "host", "device", "flash"))
        assert errors == []
        assert stats["events"] > 0

    def test_jsonl_round_trips(self, tmp_path):
        telemetry = Telemetry(enabled=True)
        measure_cell("durassd", "on", 8, ios=40, telemetry=telemetry)
        path = str(tmp_path / "events.jsonl")
        telemetry.write_jsonl(path)
        with open(path) as handle:
            parsed = [json.loads(line) for line in handle]
        assert parsed == telemetry.events

    def test_flamegraph_and_summary_render(self):
        flame = render_flamegraph(GOLDEN_EVENTS)
        assert "workload/op.write" in flame
        assert "host/fs.fsync" in flame
        summary = render_summary(GOLDEN_EVENTS)
        assert "ncq.depth" in summary
        assert "workload" in summary

    def test_render_summary_empty(self):
        summary = render_summary([])
        assert "0 spans, 0 probe samples, 0 instants" in summary
        assert "(no spans)" in summary


# --- validator ------------------------------------------------------------
class TestValidator:
    def test_rejects_non_object(self):
        assert validate_chrome_trace([1, 2, 3])

    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({"foo": []})

    def test_rejects_bad_phase_and_missing_dur(self):
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "X", "name": "y", "pid": 1, "tid": 1, "ts": 0},
        ]}
        errors = validate_chrome_trace(bad)
        assert any("phase" in error for error in errors)
        assert any("dur" in error for error in errors)

    def test_requires_named_tracks(self):
        trace = chrome_trace_events(GOLDEN_EVENTS)
        assert validate_chrome_trace(trace, require_tracks=("flash",))
        assert not validate_chrome_trace(trace,
                                         require_tracks=("host", "device"))

    def test_min_tracks(self):
        trace = chrome_trace_events(GOLDEN_EVENTS)
        assert not validate_chrome_trace(trace, min_tracks=3)
        assert validate_chrome_trace(trace, min_tracks=4)


# --- CLI ------------------------------------------------------------------
class TestTraceCLI:
    def test_trace_table1_end_to_end(self, tmp_path):
        out = str(tmp_path / "trace.json")
        jsonl = str(tmp_path / "events.jsonl")
        env = dict(os.environ)
        env["REPRO_QUICK"] = "1"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "table1",
             "--out", out, "--jsonl", jsonl],
            capture_output=True, text=True, timeout=300, env=env,
            cwd=REPO_ROOT)
        assert result.returncode == 0, result.stderr[-2000:]
        errors, stats = validate_trace_file(
            out, min_tracks=4,
            require_tracks=("workload", "host", "device", "flash"))
        assert errors == []
        # parent/child timing nests correctly in the JSONL stream
        with open(jsonl) as handle:
            events = [json.loads(line) for line in handle]
        spans = {e["id"]: e for e in events if e["type"] == "span"}
        nested = 0
        for span in spans.values():
            parent = spans.get(span["parent"])
            if parent is None:
                continue
            nested += 1
            assert span["ts"] >= parent["ts"] - 1e-12
            assert span["ts"] + span["dur"] \
                <= parent["ts"] + parent["dur"] + 1e-12
        assert nested > 0

    def test_trace_unknown_scenario(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "nope"],
            capture_output=True, text=True, timeout=60, cwd=REPO_ROOT)
        assert result.returncode == 2

    def test_validator_cli(self, tmp_path):
        telemetry = Telemetry(enabled=True)
        measure_cell("durassd", "on", 8, ios=30, telemetry=telemetry)
        path = str(tmp_path / "trace.json")
        telemetry.write_chrome_trace(path)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "validate", path,
             "--min-tracks", "4"],
            capture_output=True, text=True, timeout=120, cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout
