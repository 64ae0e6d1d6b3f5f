"""Tests for the cross-layer telemetry subsystem.

Covers the guarantees the subsystem documents: causal span integrity
under concurrent processes, zero-perturbation probe sampling,
byte-identical determinism, zero overhead when disabled, and the
exporter / validator formats.
"""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.bursts import run_one
from repro.bench.table1 import measure_cell
from repro.devices import make_durassd
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
from trace_digest import canonical_digest

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
            measure_cell(Simulator(telemetry), "durassd", "on", 8, ios=40)
            streams.append(telemetry.jsonl())
        assert streams[0] == streams[1]
        assert streams[0]  # non-empty

    def test_trace_covers_all_four_stack_layers(self):
        telemetry = Telemetry(enabled=True)
        measure_cell(Simulator(telemetry), "durassd", "on", 8, ios=40)
        assert {"workload", "host", "device", "flash"} <= \
            set(telemetry.tracks())


#: sha256 of the JSONL stream and of the Chrome trace of
#: :func:`pinned_linkbench_world`.  Recorded again each time commands
#: began to be served further down in the issuing process (to the queue
#: model, then into the device): span IDs and the order of same-instant
#: records moved (the canonical digests below did not)
PINNED_JSONL_SHA256 = \
    "12529f02468d18744efcad3dfb972b73ffe09a4ae1ca8fa81f21b9a1dcd2b4a1"
PINNED_CHROME_SHA256 = \
    "dbecd8be128cc5cc91e1f1a00f8870b325c323f475c339e403bea4d20e32d810"

#: the span-ID-free digests (``trace_digest.canonical_digest``) of the
#: same two files: what the world recorded, whatever order its
#: same-instant entries fired in
PINNED_JSONL_CANONICAL = \
    "8c10a34a2bbf0c078b5735aeecd05c996ebbbb09441e063dcb2ac6fe5fd031b2"
PINNED_CHROME_CANONICAL = \
    "18827c18a17d476339e13900d116ed16d87db7d07abdeceb5d2235728c23a81d"


def pinned_linkbench_world(monkeypatch):
    """The ``repro trace figure5`` world at quick size: LinkBench on
    MySQL defaults, 16 clients x 10 ops.  Its stream has spans on five
    tracks, spans annotated while open (``depth``, ``group_commit``),
    instants, and probe samples with and without attrs."""
    from repro.bench.figure5 import run_config

    monkeypatch.setenv("REPRO_SCALE", "256")
    monkeypatch.delenv("REPRO_QUICK", raising=False)
    telemetry = Telemetry(enabled=True)
    run_config(Simulator(telemetry), True, True, 16 * units.KIB, clients=16,
               ops_per_client=10)
    return telemetry


def sha256_of(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class TestPinnedStream:
    def test_jsonl_and_chrome_trace_digests(self, tmp_path, monkeypatch):
        telemetry = pinned_linkbench_world(monkeypatch)
        jsonl = str(tmp_path / "events.jsonl")
        chrome = str(tmp_path / "trace.json")
        telemetry.write_jsonl(jsonl)
        telemetry.write_chrome_trace(chrome)
        assert sha256_of(jsonl) == PINNED_JSONL_SHA256
        assert sha256_of(chrome) == PINNED_CHROME_SHA256
        assert hashlib.sha256(telemetry.jsonl().encode()).hexdigest() \
            == PINNED_JSONL_SHA256

    def test_canonical_digests(self, tmp_path, monkeypatch):
        telemetry = pinned_linkbench_world(monkeypatch)
        chrome = tmp_path / "trace.json"
        telemetry.write_chrome_trace(str(chrome))
        assert canonical_digest(telemetry.jsonl()) == PINNED_JSONL_CANONICAL
        assert canonical_digest(chrome.read_bytes()) \
            == PINNED_CHROME_CANONICAL


# --- the event log --------------------------------------------------------
def small_traced_world():
    """Spans (nested, annotated while open), instants, and samples of
    one attr-free and one attributed probe."""
    sim, telemetry = enabled_sim()
    state = {"depth": 0}
    telemetry.add_probe("gauge", lambda: state["depth"], "host")
    telemetry.add_probe("cache", lambda: state["depth"] * 2, "device",
                        device="durassd.0")

    def worker(index):
        with telemetry.span("op.write", "workload", client=index) as op:
            yield sim.timeout(0.003)
            state["depth"] += 1
            with telemetry.span("fs.fsync", "host") as fsync:
                telemetry.instant("cache.admit", "device", lba=index)
                yield sim.timeout(0.001)
                fsync.annotate(journalled=True)
            op.annotate(depth=state["depth"])

    for index in range(3):
        sim.process(worker(index))
    sim.run()
    return telemetry


class TestEventLog:
    def test_len_matches_iteration(self):
        events = small_traced_world().events
        assert len(events) == sum(1 for _ in events) == len(list(events))

    def test_indexing_slicing_and_equality_match_the_list(self):
        events = small_traced_world().events
        listed = list(events)
        assert [events[i] for i in range(len(events))] == listed
        assert events[-1] == listed[-1]
        assert events[-len(events)] == listed[0]
        for window in (slice(1, 5), slice(None, None, 2), slice(-3, None),
                       slice(4, 1)):
            assert events[window] == listed[window]
        assert events == listed and listed == events
        assert events != listed[:-1]
        assert events != listed[:-1] + [dict(listed[-1], ts=-1.0)]
        with pytest.raises(IndexError):
            events[len(events)]

    def test_accessors_equal_filtering_the_list(self):
        telemetry = small_traced_world()
        listed = list(telemetry.events)

        def of(kind, name=None, track=None):
            return [event for event in listed if event["type"] == kind
                    and (name is None or event["name"] == name)
                    and (track is None or event["track"] == track)]

        assert telemetry.spans() == of("span")
        assert telemetry.spans("fs.fsync") == of("span", "fs.fsync")
        assert telemetry.spans(track="workload") \
            == of("span", track="workload")
        assert telemetry.spans("fs.fsync", track="workload") == []
        assert telemetry.instants() == of("instant")
        assert telemetry.instants("cache.admit", "device") \
            == of("instant", "cache.admit", "device")
        assert telemetry.samples() == of("sample")
        assert telemetry.samples("cache") == of("sample", "cache")
        assert telemetry.span_durations("op.write") \
            == [event["dur"] for event in of("span", "op.write")]
        assert telemetry.tracks() \
            == list(dict.fromkeys(event["track"] for event in listed))

    def test_reads_return_fresh_dicts(self):
        telemetry = small_traced_world()
        events = telemetry.events
        index = next(i for i, event in enumerate(events)
                     if event["type"] == "span")
        first = events[index]
        pristine = json.loads(json.dumps(first))
        first["name"] = "mutated"
        first["attrs"]["extra"] = 1
        for event in events:
            event["ts"] = -1.0
        telemetry.spans()[0]["attrs"].clear()
        telemetry.samples("cache")[0]["attrs"]["device"] = "other"
        assert events[index] == pristine
        assert all(event["ts"] >= 0 for event in events)
        assert telemetry.spans()[0] == pristine
        assert telemetry.samples("cache")[0]["attrs"] \
            == {"device": "durassd.0"}

    def test_one_record_per_span_instant_and_sample(self):
        telemetry = small_traced_world()
        assert len(telemetry.spans("op.write")) == 3
        assert len(telemetry.spans("fs.fsync")) == 3
        assert len(telemetry.instants("cache.admit")) == 3
        gauge = telemetry.samples("gauge")
        assert len(gauge) == len(telemetry.samples("cache"))
        assert [event["ts"] for event in gauge] \
            == [i * telemetry.sample_interval for i in range(len(gauge))]
        assert len(telemetry.events) == 9 + 2 * len(gauge)
        # attrs added while a span is open land on its single record
        for fsync in telemetry.spans("fs.fsync"):
            assert fsync["attrs"] == {"journalled": True}
        assert [op["attrs"] for op in telemetry.spans("op.write")] \
            == [{"client": 0, "depth": 3}, {"client": 1, "depth": 3},
                {"client": 2, "depth": 3}]
        for sample in gauge:
            assert "attrs" not in sample

    def test_span_dicts_keep_the_stream_shape(self):
        telemetry = small_traced_world()
        span = telemetry.spans("op.write")[0]
        assert list(span) == ["type", "id", "parent", "name", "track", "ts",
                              "dur", "attrs"]
        instant = telemetry.instants()[0]
        assert list(instant) == ["type", "id", "parent", "name", "track",
                                 "ts", "attrs"]
        sample = telemetry.samples("cache")[0]
        assert list(sample) == ["type", "name", "track", "ts", "value",
                                "attrs"]

    def test_log_is_read_only(self):
        events = small_traced_world().events
        assert not hasattr(events, "append")
        with pytest.raises(TypeError):
            events[0] = {}
        with pytest.raises(TypeError):
            hash(events)


# --- the log round-trips what was recorded -------------------------------
ATTR_VALUES = st.one_of(
    st.integers(min_value=-2**70, max_value=2**70),
    st.integers(min_value=2**63, max_value=2**80),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.tuples(st.integers(), st.text(max_size=2)),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
ATTRS = st.dictionaries(st.sampled_from(["lba", "op", "size", "ok"]),
                        ATTR_VALUES, max_size=3)
NAMES = st.sampled_from(["op.write", "fs.fsync", "dev.flush"])
TRACKS = st.sampled_from(["workload", "host", "device"])
#: ``None`` takes the ambient span; "enclosing" passes the enclosing
#: Span object; an int is an explicit parent id
PARENTS = st.one_of(st.none(), st.just("enclosing"),
                    st.integers(min_value=1, max_value=2**62))
DELAYS = st.floats(min_value=0.0, max_value=10.0)
LEAVES = st.one_of(
    st.tuples(st.just("instant"), NAMES, TRACKS, ATTRS, DELAYS),
    st.tuples(st.just("sample"), ATTR_VALUES, ATTR_VALUES, DELAYS))
PROGRAMS = st.lists(st.recursive(
    LEAVES,
    lambda children: st.tuples(
        st.just("span"), NAMES, TRACKS, ATTRS, PARENTS, ATTRS, DELAYS,
        st.lists(children, max_size=3)),
    max_leaves=12), max_size=6)


def record_program(program):
    """Drive ``program`` through a hub outside any process, and build
    the list of event dicts a plain list-of-dicts log would hold."""
    sim, telemetry = enabled_sim()
    sample_values = [None, None]
    telemetry.add_probe("gauge", lambda: sample_values[0], "host")
    telemetry.add_probe("cache", lambda: sample_values[1], "device",
                        device="durassd.0")
    expected = []
    open_spans = []

    def drive(items):
        for item in items:
            sim.now += item[-2] if item[0] == "span" else item[-1]
            if item[0] == "instant":
                _, name, track, attrs, _delay = item
                telemetry.instant(name, track, **attrs)
                expected.append({
                    "type": "instant", "id": telemetry._span_counter,
                    "parent": open_spans[-1].span_id if open_spans else None,
                    "name": name, "track": track, "ts": sim.now,
                    "attrs": dict(attrs)})
            elif item[0] == "sample":
                sample_values[:] = item[1:3]
                telemetry.sample_now()
                expected.append({"type": "sample", "name": "gauge",
                                 "track": "host", "ts": sim.now,
                                 "value": item[1]})
                expected.append({"type": "sample", "name": "cache",
                                 "track": "device", "ts": sim.now,
                                 "value": item[2],
                                 "attrs": {"device": "durassd.0"}})
            else:
                _, name, track, attrs, parent, later, _delay, children = item
                if parent == "enclosing":
                    parent = open_spans[-1] if open_spans else None
                with telemetry.span(name, track, parent=parent,
                                    **attrs) as span:
                    start = sim.now
                    if parent is None:
                        parent_id = (open_spans[-1].span_id if open_spans
                                     else None)
                    else:
                        parent_id = getattr(parent, "span_id", parent)
                    open_spans.append(span)
                    drive(children)
                    span.annotate(**later)
                    open_spans.pop()
                expected.append({
                    "type": "span", "id": span.span_id, "parent": parent_id,
                    "name": name, "track": track, "ts": start,
                    "dur": sim.now - start, "attrs": {**attrs, **later}})

    drive(program)
    return telemetry, expected


class TestEventLogRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(PROGRAMS)
    def test_log_reads_back_a_list_of_dicts(self, program):
        telemetry, expected = record_program(program)
        events = telemetry.events
        # repr pins types, not just equality: True is not 1, 5 not 5.0
        assert repr(list(events)) == repr(expected)
        assert len(events) == len(expected)
        assert repr([events[i] for i in range(-len(events), len(events))]) \
            == repr(expected + expected)
        assert repr(events[::-2]) == repr(expected[::-2])
        assert events == expected
        for kind, select in (("span", telemetry.spans),
                             ("instant", telemetry.instants)):
            for name in (None, "fs.fsync"):
                for track in (None, "host"):
                    assert repr(select(name, track)) == repr([
                        event for event in expected if event["type"] == kind
                        and name in (None, event["name"])
                        and track in (None, event["track"])])
        assert repr(telemetry.samples("cache")) == repr(
            [event for event in expected if event["type"] == "sample"
             and event["name"] == "cache"])
        assert telemetry.tracks() == list(dict.fromkeys(
            event["track"] for event in expected))
        assert telemetry.jsonl() == "".join(
            json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            for event in expected)

    def test_int_clock_reads_back_as_the_float_the_kernel_keeps(self):
        # run(until=5) leaves the clock at 5.0, never at the int 5, so a
        # timestamp never changes type on its way through the log.
        sim, telemetry = enabled_sim()
        sim.run(until=5)
        assert type(sim.now) is float
        telemetry.instant("tick", "host")
        with telemetry.span("after", "host"):
            pass
        assert [(type(event["ts"]), event["ts"]) for event in
                telemetry.events] == [(float, 5.0), (float, 5.0)]
        assert telemetry.jsonl().count('"ts":5.0') == 2

    def test_closed_spans_retain_under_100_bytes_each(self):
        sim, telemetry = enabled_sim()
        count = 20_000
        with telemetry.span("warm", "device", lba=0, size=4096, op="write"):
            pass   # intern the shape and name strings before measuring
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(count):
                sim.now = index * 1e-6
                with telemetry.span("dev." + "write", "device",
                                    lba=index % 256, size=4096, op="write"):
                    pass
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(telemetry.spans("dev.write")) == count
        assert retained / count < 100, retained / count


# --- zero overhead --------------------------------------------------------
class TestZeroOverhead:
    def test_table1_cell_is_identical_with_telemetry(self):
        bare = measure_cell(Simulator(), "durassd", "on", 8, ios=60)
        traced = measure_cell(Simulator(Telemetry(enabled=True)),
                              "durassd", "on", 8, ios=60)
        disabled = measure_cell(Simulator(Telemetry(enabled=False)),
                                "durassd", "on", 8, ios=60)
        assert bare == traced == disabled

    def test_burst_run_is_identical_with_telemetry(self):
        bare = run_one(Simulator(), "ssd-a", True, 8, burst_writes=120)
        traced = run_one(Simulator(Telemetry(enabled=True)), "ssd-a", True,
                         8, burst_writes=120)
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
        measure_cell(Simulator(telemetry), "durassd", "on", 8, ios=40)
        path = str(tmp_path / "trace.json")
        telemetry.write_chrome_trace(path)
        errors, stats = validate_trace_file(
            path, min_tracks=4,
            require_tracks=("workload", "host", "device", "flash"))
        assert errors == []
        assert stats["events"] > 0

    def test_jsonl_round_trips(self, tmp_path):
        telemetry = Telemetry(enabled=True)
        measure_cell(Simulator(telemetry), "durassd", "on", 8, ios=40)
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
        measure_cell(Simulator(telemetry), "durassd", "on", 8, ios=30)
        path = str(tmp_path / "trace.json")
        telemetry.write_chrome_trace(path)
        result = subprocess.run(
            [sys.executable, "-m", "repro", "validate", path,
             "--min-tracks", "4"],
            capture_output=True, text=True, timeout=120, cwd=REPO_ROOT)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "OK" in result.stdout
