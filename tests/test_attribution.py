"""Tests for the tail-latency attribution engine.

Covers the exactness guarantee (blame partitions sum to wall time), the
first-claim-wins treatment of concurrent children, critical-path
extraction, anomaly-episode detection, the explain report schema and
its acceptance checks, and the perf-regression gate's comparison logic.
The end-to-end class runs a real traced LinkBench world — gray faults
armed, striped data target — and asserts every completed command's
child spans cover its wall time (the satellite regression).
"""

import math

import pytest

from conftest import run_process
from repro.bench import explain, setups
from repro.bench.runner import envelope
from repro.bench.figure5 import run_config
from repro.bench.regress import compare
from repro.devices import IORequest, make_durassd
from repro.failures.grayfaults import GrayFaultModel, GrayFaultProfile
from repro.host import SataNcq, StripedVolume
from repro.host.lifecycle import TimeoutPolicy
from repro.sim import Simulator, units
from repro.telemetry import Telemetry
from repro.telemetry import report as report_mod
from repro.telemetry.anomaly import detect, tag_requests
from repro.telemetry.attribution import (
    CATEGORIES,
    BlameTable,
    SpanIndex,
    _percentile,
    attribute_requests,
    blame,
    decompose,
)
from repro.telemetry.critical_path import (
    critical_chain,
    render_timeline,
    slowest,
    timeline_dict,
)
from repro.telemetry.validate import (
    validate_probe_attrs,
    validate_run_record,
)

_NEXT_ID = iter(range(1, 1 << 20))


def span(name, ts, dur, parent=None, track="workload", **attrs):
    """A synthetic hub span event; returns the event dict."""
    return {"type": "span", "id": next(_NEXT_ID),
            "parent": parent["id"] if parent else None,
            "name": name, "track": track, "ts": float(ts),
            "dur": float(dur), "attrs": attrs}


def sample(name, ts, value, **attrs):
    event = {"type": "sample", "name": name, "track": "device",
             "ts": float(ts), "value": value}
    if attrs:
        event["attrs"] = attrs
    return event


def categories_of(segments):
    return [(seg.start, seg.end, seg.category) for seg in segments]


class TestDecompose:
    def test_gaps_belong_to_the_parent(self):
        root = span("op.GET", 0.0, 10.0)
        kids = [span("op.cpu", 1.0, 2.0, parent=root),
                span("fs.fsync", 5.0, 4.0, parent=root)]
        index = SpanIndex([root] + kids)
        segments = decompose(root, index)
        assert categories_of(segments) == [
            (0.0, 1.0, "other"), (1.0, 3.0, "cpu"), (3.0, 5.0, "other"),
            (5.0, 9.0, "fs_syscall"), (9.0, 10.0, "other")]

    def test_concurrent_children_claim_first_come_first_served(self):
        # A striped fan-out: two fragments overlap; the second only
        # claims the time past the first's completion — no double count.
        root = span("ncq.slot", 0.0, 10.0)
        kids = [span("dev.write", 2.0, 4.0, parent=root),
                span("dev.read", 4.0, 4.0, parent=root)]
        index = SpanIndex([root] + kids)
        totals = blame(root, index)
        assert totals["device_io"] == pytest.approx(6.0)
        assert totals["ncq_queue"] == pytest.approx(4.0)
        assert totals["other"] == 0.0

    def test_child_clipped_to_parent_window(self):
        root = span("fs.fsync", 0.0, 5.0)
        index = SpanIndex([root, span("dev.write", 3.0, 10.0, parent=root)])
        totals = blame(root, index)
        assert totals["fs_syscall"] == pytest.approx(3.0)
        assert totals["device_io"] == pytest.approx(2.0)

    def test_unmapped_span_inherits_nearest_mapped_ancestor(self):
        root = span("fs.fsync", 0.0, 10.0)
        mystery = span("mystery.helper", 2.0, 6.0, parent=root)
        leaf = span("flash.program", 4.0, 2.0, parent=mystery)
        index = SpanIndex([root, mystery, leaf])
        totals = blame(root, index)
        assert totals["fs_syscall"] == pytest.approx(8.0)
        assert totals["nand"] == pytest.approx(2.0)
        assert totals["other"] == 0.0

    def test_fully_shadowed_child_claims_nothing(self):
        root = span("ncq.slot", 0.0, 10.0)
        kids = [span("dev.write", 1.0, 6.0, parent=root),
                span("dev.read", 2.0, 3.0, parent=root)]  # inside sibling
        index = SpanIndex([root] + kids)
        segments = decompose(root, index)
        assert [seg.span["name"] for seg in segments] == [
            "ncq.slot", "dev.write", "ncq.slot"]

    def test_partition_always_sums_to_wall_time(self):
        root = span("op.UPDATE", 0.125, 7.375)
        level1 = [span("wal.flush_to", 0.5, 3.0, parent=root),
                  span("bp.flush_batch", 2.0, 4.5, parent=root)]
        level2 = [span("fs.fsync", 0.75, 2.5, parent=level1[0]),
                  span("dwb.flush", 2.25, 3.0, parent=level1[1]),
                  span("dev.write", 2.5, 1.0, parent=level1[1])]
        index = SpanIndex([root] + level1 + level2)
        totals = blame(root, index)
        residue = math.fsum(totals.values()) - root["dur"]
        assert abs(residue) < 1e-9
        assert sum(1 for v in totals.values() if v > 0.0) >= 3

    def test_roots_ignore_other_tracks_and_known_parents(self):
        a = span("op.GET", 0.0, 1.0)
        b = span("fs.fsync", 0.0, 1.0, parent=a, track="host")
        orphan = dict(span("op.PUT", 2.0, 1.0))
        orphan["parent"] = 999999  # parent never recorded -> still a root
        index = SpanIndex([a, b, orphan])
        names = {event["name"] for event in index.roots("workload")}
        assert names == {"op.GET", "op.PUT"}

    def test_attribute_requests_filters_by_prefix(self):
        events = [span("op.GET", 0.0, 1.0), span("warmup", 1.0, 1.0)]
        _index, requests = attribute_requests(events, name_prefix="op.")
        assert [r.name for r in requests] == ["op.GET"]
        assert requests[0].residue() == pytest.approx(0.0, abs=1e-12)


class TestBlameTable:
    def _requests(self):
        events = []
        for start in range(4):
            root = span("op.GET", start * 10.0, 8.0)
            events.append(root)
            events.append(span("fs.fsync", start * 10.0 + 1.0,
                               2.0 + start, parent=root))
        _index, requests = attribute_requests(events)
        return requests

    def test_shares_sum_to_one(self):
        table = BlameTable(self._requests())
        assert math.fsum(table.share(cat) for cat in CATEGORIES) \
            == pytest.approx(1.0)

    def test_rows_sorted_by_total_and_drop_zeros(self):
        rows = BlameTable(self._requests()).rows()
        totals = [row["total_s"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        assert {row["category"] for row in rows} \
            == {"fs_syscall", "other"}

    def test_histogram_counts_every_nonzero_sample(self):
        table = BlameTable(self._requests())
        assert sum(table.histogram("fs_syscall")) == 4

    def test_as_dict_is_json_shaped(self):
        data = BlameTable(self._requests()).as_dict()
        assert data["requests"] == 4
        assert data["wall_s"] == pytest.approx(32.0)
        assert set(data["latency"]) == {"p50", "p99", "p999"}

    def test_percentile_is_float_safe_at_small_n(self):
        ordered = [float(i) for i in range(1, 31)]
        # 0.1 * 30 == 3.0000000000000004: a naive ceil says rank 4.
        assert _percentile(ordered, 0.1) == 3.0
        assert _percentile([float(i) for i in range(1, 11)], 0.7) == 7.0
        assert _percentile([float(i) for i in range(1, 11)], 0.9) == 9.0


class TestCriticalPath:
    def _world(self):
        root = span("op.UPDATE", 0.0, 10.0)
        wal = span("wal.flush_to", 1.0, 8.0, parent=root)
        fsync = span("fs.fsync", 2.0, 6.0, parent=wal)
        dev = span("dev.write", 3.0, 2.0, parent=fsync)
        index, requests = attribute_requests([root, wal, fsync, dev])
        return index, requests[0]

    def test_chain_follows_the_biggest_claimant(self):
        index, request = self._world()
        chain = critical_chain(request, index)
        assert [event["name"] for event, _secs in chain] == [
            "op.UPDATE", "wal.flush_to", "fs.fsync", "dev.write"]
        # the root's accumulated claim is the whole request
        assert chain[0][1] == pytest.approx(10.0)

    def test_slowest_breaks_ties_by_completion_order(self):
        a = span("op.A", 0.0, 2.0)
        b = span("op.B", 5.0, 2.0)
        c = span("op.C", 9.0, 1.0)
        _index, requests = attribute_requests([a, b, c])
        top = slowest(requests, k=2)
        assert [r.name for r in top] == ["op.A", "op.B"]

    def test_render_timeline_mentions_chain_and_segments(self):
        index, request = self._world()
        text = render_timeline(request, index)
        assert "op.UPDATE" in text
        assert "critical chain:" in text
        assert "wal.flush_to" in text

    def test_timeline_dict_segments_sum_to_latency(self):
        index, request = self._world()
        record = timeline_dict(request, index)
        total = math.fsum(seg["dur_s"] for seg in record["segments"])
        assert total == pytest.approx(record["latency_s"], abs=1e-9)
        assert record["critical_chain"][0]["span"] == "op.UPDATE"


class TestAnomaly:
    def test_gc_storm_detected_and_corroborated(self):
        events = [span("op.GET", 0.0, 100.0)]
        for i in range(5):
            events.append(span("ftl.gc", 40.0 + i, 0.8, track="flash"))
        events.append(sample("ftl.gc_runs", 41.0, 7))
        events.append(sample("ftl.gc_runs", 2.0, 0))  # outside: ignored
        episodes = detect(events)
        kinds = {e.kind for e in episodes}
        assert "gc_storm" in kinds
        storm = next(e for e in episodes if e.kind == "gc_storm")
        assert storm.start <= 40.0 + 0.5 and storm.end >= 44.0
        assert storm.probes["ftl.gc_runs"]["max"] == 7

    def test_steady_state_background_is_suppressed(self):
        # A barrier on every group commit is flush-cache steady state,
        # not a convoy: only windows far above the typical hot score
        # should surface as episodes.
        events = [span("op.GET", 0.0, 100.0)]
        for i in range(100):  # one routine flush per second
            at = i + 0.25
            events.append(span("fs.barrier", at, 0.1, track="host"))
            events.append(span("dev.flush_cache", at, 0.1,
                               track="device"))
            events.append(span("flush.drain", at, 0.1, track="device"))
        for i in range(30):   # the actual convoy: a pile-up at t=50
            events.append(span("dev.flush_cache", 50.0 + i * 0.01, 0.005,
                               track="device"))
        episodes = [e for e in detect(events) if e.kind == "flush_convoy"]
        assert len(episodes) == 1
        assert episodes[0].overlaps(50.0, 50.5)

    def test_quiet_trace_has_no_episodes(self):
        events = [span("op.GET", 0.0, 10.0),
                  span("dev.write", 1.0, 2.0, track="device")]
        assert detect(events) == []

    def test_tag_requests_marks_overlapping_lifetimes(self):
        overlapping = span("op.A", 39.0, 3.0)
        disjoint = span("op.B", 0.0, 5.0)
        events = [overlapping, disjoint]
        for i in range(5):
            events.append(span("ftl.gc", 40.0 + i, 0.8, track="flash"))
        _index, requests = attribute_requests(events)
        tagged = tag_requests(requests, detect(events))
        assert tagged == 1
        by_name = {r.name: r.tags for r in requests}
        assert by_name["op.A"] == ["gc_storm"]
        assert by_name["op.B"] == []


def synthetic_report():
    """A small two-mode explain record built from synthetic span trees."""
    def mode_events(slow):
        # roots are fully covered by mapped children, as in real traces
        events = []
        for i in range(6):
            at = i * 10.0
            root = span("op.GET", at, 4.0 if slow else 2.0)
            events.append(root)
            events.append(span("op.cpu", at, 1.0, parent=root))
            if slow:
                events.append(span("fs.barrier", at + 1.0, 2.0,
                                   parent=root))
                events.append(span("wal.flush_to", at + 3.0, 1.0,
                                   parent=root))
            else:
                events.append(span("dev.write", at + 1.0, 1.0,
                                   parent=root))
        return events

    spec = setups.DEFAULT_SPEC
    modes = {label: envelope("synthetic/" + label, spec, outcome={"tps": tps},
                             blame=report_mod.analyze(mode_events(slow),
                                                      top_k=2))
             for label, slow, tps in (("flush-cache", True, 100),
                                      ("durable-cache", False, 300))}
    return envelope("synthetic", spec, meta={"clients": 1}, modes=modes,
                    delta=report_mod.blame_delta(
                        modes["flush-cache"]["blame"],
                        modes["durable-cache"]["blame"],
                        "flush-cache", "durable-cache"))


def checks(report):
    """Every mode's blame-section problems, in one list."""
    return [problem for mode in report["modes"].values()
            for problem in report_mod.check(mode["blame"])]


class TestReport:
    def test_build_passes_its_own_checks(self):
        report = synthetic_report()
        assert checks(report) == []
        assert validate_run_record(report) == []

    def test_delta_orders_collapsing_categories_first(self):
        report = synthetic_report()
        delta = report["delta"]
        assert delta["base"] == "flush-cache"
        shares = {row["category"]: row["delta"]
                  for row in delta["shares"]}
        assert shares["flush_cache"] < 0  # collapses in durable mode
        assert delta["shares"][0]["delta"] == min(
            row["delta"] for row in delta["shares"])

    def test_check_flags_broken_residue_and_other_budget(self):
        report = synthetic_report()
        analysis = report["modes"]["flush-cache"]["blame"]
        analysis["max_residue_s"] = 0.5
        problems = report_mod.check(analysis)
        assert any("does not sum" in p for p in problems)
        analysis["max_residue_s"] = 0.0
        analysis["other_share"] = 0.25
        problems = report_mod.check(analysis)
        assert any("'other' share" in p for p in problems)

    def test_check_flags_per_request_gap(self):
        report = synthetic_report()
        record = report["modes"]["flush-cache"]["blame"]["requests"][0]
        record["blame"]["other"] = record["blame"].get("other", 0.0) + 1.0
        assert any("off by" in p for p in checks(report))
        assert any("off by" in p for p in validate_run_record(report))

    def test_validate_rejects_wrong_schema_and_missing_keys(self):
        report = synthetic_report()
        report["schema"] = "bogus/9"
        errors = validate_run_record(report)
        assert any("schema" in e for e in errors)
        report = synthetic_report()
        del report["modes"]["flush-cache"]["blame"]["blame"]["causes"]
        del report["modes"]["flush-cache"]["blame"]["episodes"]
        errors = validate_run_record(report)
        assert any("missing 'causes'" in e for e in errors)
        assert any("missing 'episodes'" in e for e in errors)
        assert validate_run_record([]) \
            == ["record must be a JSON object"]

    def test_validate_flags_request_count_mismatch(self):
        report = synthetic_report()
        report["modes"]["flush-cache"]["blame"]["requests"].pop()
        errors = validate_run_record(report)
        assert any("mismatch" in e for e in errors)

    def test_markdown_renders_tables_and_delta(self):
        text = report_mod.render_markdown(synthetic_report())
        assert "# Latency attribution: synthetic" in text
        assert "| cause | total s | share |" in text
        assert "## Delta: durable-cache vs flush-cache" in text
        assert "Critical chain:" in text


class TestRegressCompare:
    def _baseline(self):
        return {
            "scale_factor": 256,
            "throughput": [
                {"mode": "durable-cache", "width": 1,
                 "tps": 20000.0, "p99_write_s": 0.020},
                {"mode": "flush-cache", "width": 1,
                 "tps": 2000.0, "p99_write_s": 0.230},
            ],
            "log_placement": [
                {"config": "dedicated", "width": 2,
                 "tps": 2500.0, "p99_write_s": 0.200},
            ],
        }

    def test_identical_runs_pass(self):
        base = self._baseline()
        rows, failures = compare(base, base)
        assert failures == []
        assert len(rows) == 6  # 3 configurations x 2 metrics

    def test_tps_drop_beyond_tolerance_fails(self):
        base = self._baseline()
        fresh = self._baseline()
        fresh["throughput"][0]["tps"] *= 0.5
        _rows, failures = compare(base, fresh)
        assert len(failures) == 1
        assert failures[0]["metric"] == "tps"
        assert failures[0]["key"] == "throughput/durable-cache/1"

    def test_p99_rise_fails_but_improvement_passes(self):
        base = self._baseline()
        fresh = self._baseline()
        fresh["throughput"][1]["p99_write_s"] *= 1.5   # regression
        fresh["throughput"][0]["p99_write_s"] *= 0.5   # improvement
        fresh["throughput"][0]["tps"] *= 2.0           # improvement
        _rows, failures = compare(base, fresh)
        assert [f["key"] for f in failures] == ["throughput/flush-cache/1"]

    def test_uncovered_baseline_cells_are_skipped(self):
        base = self._baseline()
        fresh = {"throughput": [base["throughput"][0]],
                 "log_placement": []}
        rows, failures = compare(base, fresh)
        assert failures == []
        assert {row["key"] for row in rows} \
            == {"throughput/durable-cache/1"}

    def test_tolerances_are_knobs(self):
        base = self._baseline()
        fresh = self._baseline()
        fresh["throughput"][0]["tps"] *= 0.9  # -10%
        _rows, failures = compare(base, fresh, tps_tol=0.15)
        assert failures == []
        _rows, failures = compare(base, fresh, tps_tol=0.05)
        assert len(failures) == 1


class TestValidateProbeAttrs:
    def test_distinct_instances_with_device_attrs_pass(self):
        events = [sample("ncq.depth", 0.0, 1, device="a"),
                  sample("ncq.depth#2", 0.0, 2, device="b"),
                  sample("ncq.depth", 1.0, 3, device="a")]
        assert validate_probe_attrs(events) == []

    def test_family_without_identifying_attrs_fails(self):
        events = [sample("bp.dirty", 0.0, 1),
                  sample("bp.dirty#2", 0.0, 2)]
        errors = validate_probe_attrs(events)
        assert any("no identifying attrs" in e for e in errors)

    def test_two_instances_sharing_attrs_fail(self):
        events = [sample("ncq.depth", 0.0, 1, device="a"),
                  sample("ncq.depth#2", 0.0, 2, device="a")]
        errors = validate_probe_attrs(events)
        assert any("identical attrs" in e for e in errors)

    def test_inconsistent_attrs_within_one_probe_fail(self):
        events = [sample("ncq.depth", 0.0, 1, device="a"),
                  sample("ncq.depth", 1.0, 2, device="b")]
        errors = validate_probe_attrs(events)
        assert any("inconsistent attrs" in e for e in errors)

    def test_chrome_counter_form_is_understood(self):
        events = [{"ph": "C", "name": "ncq.depth", "pid": 1, "ts": 0,
                   "args": {"value": 3, "device": "a"}},
                  {"ph": "C", "name": "ncq.depth#2", "pid": 1, "ts": 0,
                   "args": {"value": 1, "device": "b"}}]
        assert validate_probe_attrs(events) == []

    def test_mismatched_family_keysets_fail(self):
        events = [sample("bp.dirty", 0.0, 1, device="a"),
                  sample("bp.dirty#2", 0.0, 2, device="b", lane=1)]
        errors = validate_probe_attrs(events)
        assert any("disagree on attr keys" in e for e in errors)

    def test_contracted_family_requires_exact_attr_keys(self):
        # queue.depth must carry device + queue; a queue-less sample
        # violates the multi-queue contract even though it is
        # internally consistent.
        events = [sample("queue.depth", 0.0, 1, device="a"),
                  sample("queue.depth#2", 0.0, 2, device="b")]
        errors = validate_probe_attrs(events)
        assert any("attr keys must be exactly" in e for e in errors)

    def test_contracted_families_pass_with_exact_keys(self):
        events = [sample("queue.depth", 0.0, 1, device="a", queue=0),
                  sample("queue.depth#2", 0.0, 2, device="a", queue=1),
                  sample("ncq.depth", 0.0, 3, device="b")]
        assert validate_probe_attrs(events) == []

    def test_legacy_depth_probe_must_stay_device_only(self):
        events = [sample("ncq.depth", 0.0, 1, device="a", queue=0)]
        errors = validate_probe_attrs(events)
        assert any("attr keys must be exactly" in e for e in errors)


def _slot_coverage(events):
    """Decompose every completed ncq.slot span; returns the span list
    and the worst (residue, uncovered-after-service) pair."""
    index = SpanIndex(events)
    slots = [e for e in index.spans if e["name"] == "ncq.slot"]
    worst_residue = 0.0
    worst_uncovered = 0.0
    for slot in slots:
        segments = decompose(slot, index)
        # contiguous tiling of the whole window
        assert segments[0].start == slot["ts"]
        assert segments[-1].end == slot["ts"] + slot["dur"]
        for before, after in zip(segments, segments[1:]):
            assert after.start == before.end
        residue = abs(math.fsum(seg.duration for seg in segments)
                      - slot["dur"])
        worst_residue = max(worst_residue, residue)
        # nothing under a command maps to 'other'
        assert all(seg.category != "other" for seg in segments)
        # once service starts, child spans cover every instant: any
        # slot-owned time past the first child is an instrumentation
        # hole (an unwrapped abort/reset/backoff wait would show here)
        kids = index.children_of(slot)
        if kids:
            first_child = kids[0]["ts"]
            uncovered = math.fsum(
                seg.duration for seg in segments
                if seg.span is slot and seg.start >= first_child)
            worst_uncovered = max(worst_uncovered, uncovered)
    return slots, worst_residue, worst_uncovered


@pytest.mark.slow
class TestSpanCoverageEndToEnd:
    """Satellite regression: completed commands' child spans cover
    their wall time, under retries/resets and striped fan-out."""

    def test_gray_striped_commands_fully_covered(self):
        spec = setups.WorldSpec(data_devices=2, gray_faults="stalls")
        telemetry = Telemetry(enabled=True)
        run_config(setups.fresh_world(telemetry, spec), False, False,
                   16 * units.KIB, clients=16, ops_per_client=12)
        events = telemetry.events
        slots, worst_residue, worst_uncovered = _slot_coverage(events)
        assert slots, "no ncq.slot spans recorded"
        assert worst_residue < 1e-9
        assert worst_uncovered == 0.0
        index = SpanIndex(events)
        # the gray gate actually delayed commands, under a span
        names = {e["name"] for e in index.spans}
        assert "lifecycle.attempt" in names
        assert "dev.fault_delay" in names, \
            "gray stalls never held a command"
        # every volume command tiles exactly too
        fanouts = [e for e in index.spans if e["name"] == "vol.submit"]
        assert fanouts, "width-2 stripe never saw a command"
        for fanout in fanouts:
            segments = decompose(fanout, index)
            assert abs(math.fsum(seg.duration for seg in segments)
                       - fanout["dur"]) < 1e-9

    def test_striped_fanout_is_span_covered(self):
        # A write spanning two stripe chunks fans out to both members
        # concurrently; first-claim-wins must cover the whole command
        # without double-counting the overlap.
        telemetry = Telemetry(enabled=True)
        sim = Simulator(telemetry)
        members = tuple(make_durassd(sim, capacity_bytes=64 * units.MIB,
                                     name="d%d" % i) for i in range(2))
        volume = StripedVolume(sim, members)

        def worker():
            request = IORequest("write", 0, 16,
                                payload=["b%d" % i for i in range(16)])
            yield volume.submit(request)

        run_process(sim, worker())
        index = SpanIndex(telemetry.events)
        fanout, = (e for e in index.spans if e["name"] == "vol.submit")
        assert fanout["attrs"]["fragments"] == 2
        slots = [k for k in index.children_of(fanout)
                 if k["name"] == "ncq.slot"]
        assert len(slots) == 2
        segments = decompose(fanout, index)
        assert abs(math.fsum(seg.duration for seg in segments)
                   - fanout["dur"]) < 1e-9
        assert all(seg.category != "other" for seg in segments)
        # both members' spans overlap in time, yet claims are disjoint
        starts = sorted(s["ts"] for s in slots)
        ends = sorted(s["ts"] + s["dur"] for s in slots)
        assert starts[1] < ends[0], "fragments did not run concurrently"

    def test_abort_reset_retry_is_span_covered(self):
        # Deterministic ladder: the device hangs from t=0 (curable), so
        # the first attempt must time out, abort, soft-reset and retry —
        # and every one of those waits must sit under a span, or the
        # coverage invariant below breaks.
        telemetry = Telemetry(enabled=True)
        sim = Simulator(telemetry)
        device = make_durassd(sim, capacity_bytes=64 * units.MIB)
        device.inject_gray_faults(GrayFaultModel(
            GrayFaultProfile(hang_at=0.0, hang_permanent=False)))
        queue = SataNcq(
            sim, device, depth=4,
            timeout_policy=TimeoutPolicy(deadline=5e-3, max_attempts=3,
                                         backoff_base=1e-4, seed=1))

        def worker():
            yield queue.submit(IORequest("write", 0, 1, payload=["x"]))

        run_process(sim, worker())
        assert queue.lifecycle.counters["resets"] >= 1
        slots, worst_residue, worst_uncovered = _slot_coverage(
            telemetry.events)
        assert len(slots) == 1
        assert worst_residue < 1e-9
        assert worst_uncovered == 0.0
        index = SpanIndex(telemetry.events)
        kid_names = [k["name"] for k in index.children_of(slots[0])]
        assert kid_names.count("lifecycle.attempt") >= 2
        assert "lifecycle.backoff" in kid_names
        assert any(e["name"] == "lifecycle.reset" for e in index.spans)
        # the retried command's blame names the gray failure
        totals = blame(slots[0], index)
        assert totals["gray_fault"] > 0.0
        assert totals["other"] == 0.0

    def test_healthy_commands_fully_covered(self):
        telemetry = Telemetry(enabled=True)
        run_config(Simulator(telemetry), True, True, 16 * units.KIB,
                   clients=8, ops_per_client=10)
        slots, worst_residue, worst_uncovered = _slot_coverage(
            telemetry.events)
        assert slots
        assert worst_residue < 1e-9
        assert worst_uncovered == 0.0


@pytest.mark.slow
class TestExplainEndToEnd:
    def test_linkbench_quick_reproduces_the_paper_delta(self):
        report = explain.run_scenario("linkbench", quick=True, top_k=3)
        assert checks(report) == []
        assert validate_run_record(report) == []
        flush = report["modes"]["flush-cache"]["blame"]
        durable = report["modes"]["durable-cache"]["blame"]

        def share(analysis, category):
            rows = {row["category"]: row["share"]
                    for row in analysis["blame"]["causes"]}
            return rows.get(category, 0.0)

        flush_total = sum(share(flush, cat)
                          for cat in ("flush_cache", "doublewrite",
                                      "wal_fsync"))
        durable_total = sum(share(durable, cat)
                            for cat in ("flush_cache", "doublewrite",
                                        "wal_fsync"))
        assert flush_total > 0.3
        assert durable_total < 0.1  # the durable cache collapses them
        assert flush["blame"]["latency"]["p99"] \
            > durable["blame"]["latency"]["p99"]
        assert report["delta"]["shares"][0]["delta"] < 0
