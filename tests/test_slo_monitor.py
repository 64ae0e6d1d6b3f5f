"""Tests for SLO rules, alert episodes, SMART reports, and the chaos
harness's gray-failure detection verdicts.

The detection contract under test: the monitor sees only
host-observable metrics (timeouts, retries, escalations, read-only
state, in-flight age) — never the injection schedule — and a seeded
gray-fault run must fire an alert whose detection latency (first fire
minus first injection) lands in the chaos verdict, while a fault-free
run fires nothing.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.figure5 import run_config
from repro.devices import make_durassd, make_hdd
from repro.failures import chaos as harness
from repro.sim import Simulator, units
from repro.telemetry import (
    MetricsRegistry,
    SLOMonitor,
    SLORule,
    Telemetry,
    default_bench_rules,
    default_chaos_rules,
)
from repro.telemetry import series as series_mod
from repro.telemetry.validate import RUN_SCHEMA, validate_run_record

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def metric_sim(interval=0.01):
    registry = MetricsRegistry(interval=interval)
    telemetry = Telemetry(enabled=False, metrics=registry)
    return Simulator(telemetry), registry


def drive_gauge(values, interval=0.01):
    """A registry whose ``test.level`` gauge takes ``values``, one per
    window."""
    sim, registry = metric_sim(interval)
    state = {"value": values[0]}
    registry.gauge("test.level", fn=lambda: state["value"])

    def body():
        for value in values:
            state["value"] = value
            yield sim.timeout(interval)

    sim.process(body())
    sim.run()
    return registry


# --- rule basics ----------------------------------------------------------
class TestSLORule:
    def test_rejects_unknown_op_stat_mode(self):
        with pytest.raises(ValueError):
            SLORule("r", "m", op="~")
        with pytest.raises(ValueError):
            SLORule("r", "m", stat="p42")
        with pytest.raises(ValueError):
            SLORule("r", "m", mode="blink")

    def test_objective_text_and_holds(self):
        rule = SLORule("lat", "host.cmd_latency", stat="p99", op="<",
                       threshold=0.05)
        assert rule.objective_text() == "p99(host.cmd_latency) < 0.05"
        assert rule.holds(0.01)
        assert not rule.holds(0.06)

    def test_json_round_trip(self):
        rule = SLORule("burn", "host.timeouts", stat="delta", op="==",
                       threshold=0.0, mode="burn", lookback=6, budget=0.3)
        clone = SLORule.from_json(rule.to_json())
        assert clone.to_json() == rule.to_json()


# --- threshold and burn state machines ------------------------------------
class TestThresholdAlerts:
    def test_fire_after_for_windows_and_clear(self):
        registry = drive_gauge([0, 1, 1, 1, 0, 0, 1])
        rule = SLORule("level", "test.level", op="==", threshold=0.0,
                       for_windows=2, clear_windows=2)
        outcome, = SLOMonitor(registry, [rule]).evaluate()
        assert outcome.evaluations == 7
        assert outcome.violations == 4
        episode, = outcome.episodes
        # violations start in window 2 (t1=0.02); the second consecutive
        # one fires the alert at window 3's boundary
        assert episode.fired_at == pytest.approx(0.03)
        # two healthy windows (5, 6) clear it at window 6's boundary
        assert episode.cleared_at == pytest.approx(0.06)
        assert episode.violating_windows >= 2

    def test_single_bad_window_below_for_windows_never_fires(self):
        registry = drive_gauge([0, 1, 0, 1, 0])
        rule = SLORule("level", "test.level", op="==", threshold=0.0,
                       for_windows=2)
        outcome, = SLOMonitor(registry, [rule]).evaluate()
        assert outcome.violations == 2
        assert outcome.episodes == []

    def test_unclosed_episode_reports_none_cleared(self):
        registry = drive_gauge([0, 1, 1, 1])
        rule = SLORule("level", "test.level", op="==", threshold=0.0)
        outcome, = SLOMonitor(registry, [rule]).evaluate()
        episode, = outcome.episodes
        assert episode.cleared_at is None

    def test_worst_value_tracks_most_violating(self):
        registry = drive_gauge([0, 3, 7, 5, 0])
        rule = SLORule("level", "test.level", op="<", threshold=1.0)
        outcome, = SLOMonitor(registry, [rule]).evaluate()
        episode, = outcome.episodes
        assert episode.worst_value == 7

    def test_rule_on_absent_metric_evaluates_nothing(self):
        registry = drive_gauge([0, 0])
        rule = SLORule("ghost", "no.such.metric", op="<", threshold=1.0)
        outcome, = SLOMonitor(registry, [rule]).evaluate()
        assert outcome.evaluations == 0
        assert outcome.episodes == []


class TestBurnAlerts:
    def test_burn_fires_on_budget_fraction_not_streak(self):
        # alternating violations never build a 3-streak but burn 50%
        registry = drive_gauge([1, 0, 1, 0, 1, 0, 1, 0])
        threshold_rule = SLORule("streak", "test.level", op="==",
                                 threshold=0.0, for_windows=3)
        burn_rule = SLORule("burn", "test.level", op="==", threshold=0.0,
                            mode="burn", lookback=4, budget=0.4)
        streak, burn = SLOMonitor(
            registry, [threshold_rule, burn_rule]).evaluate()
        assert streak.episodes == []
        assert len(burn.episodes) >= 1

    def test_burn_clears_when_rate_drops(self):
        registry = drive_gauge([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        burn_rule = SLORule("burn", "test.level", op="==", threshold=0.0,
                            mode="burn", lookback=4, budget=0.5)
        outcome, = SLOMonitor(registry, [burn_rule]).evaluate()
        episode, = outcome.episodes
        assert episode.cleared_at is not None


# --- chaos detection verdicts --------------------------------------------
class TestChaosDetection:
    def run(self, profile, **kwargs):
        scenario = harness.chaos_scenario(
            engine="innodb", device="durassd", profile=profile, seed=3,
            ops=kwargs.pop("ops", 60), **kwargs)
        return harness.run_chaos(scenario)

    def test_gc_storm_fires_and_reports_detection_latency(self):
        result = self.run("gc-storm")
        assert result.completed
        assert result.slo_rules_evaluated > 0
        assert result.alerts, "gc-storm run fired no SLO alert"
        assert result.first_fault_s is not None
        assert result.detection_latency_s is not None
        assert result.detection_latency_s >= 0.0
        first = result.alerts[0]
        assert first["fired_at_s"] == pytest.approx(
            result.first_fault_s + result.detection_latency_s)
        payload = result.to_json()
        assert payload["alerts"] == result.alerts
        assert payload["detection_latency_s"] \
            == result.detection_latency_s

    def test_fault_free_run_fires_no_alert(self):
        result = self.run("none")
        assert result.completed
        assert result.slo_rules_evaluated > 0
        assert result.alerts == []
        assert result.first_fault_s is None
        assert result.detection_latency_s is None
        assert not any(violation.startswith("slo:")
                       for violation in result.violations)

    def test_default_chaos_rules_are_symptom_only(self):
        # host.*/db.* lifecycle symptoms plus the host-side integrity
        # and scrub counters — all observable without reading the
        # injection models.
        for rule in default_chaos_rules():
            assert rule.metric.split(".")[0] in ("host", "db",
                                                 "integrity", "scrub"), \
                "chaos detection must not read injection internals"


# --- cross-check against span attribution ---------------------------------
class TestCrossCheck:
    def test_wal_fsync_counter_agrees_with_span_counts(self):
        registry = MetricsRegistry(interval=0.005)
        telemetry = Telemetry(enabled=True, metrics=registry)
        run_config(True, True, 16 * units.KIB, clients=8,
                   ops_per_client=10, telemetry=telemetry)
        registry.finish()
        fsyncs = series_mod.counter_total(registry, "db.wal_fsyncs")
        spans = telemetry.spans("wal.write_out")
        assert fsyncs > 0
        assert fsyncs == len(spans)
        # and the windowed series carries the same total as the final
        # cumulative counter
        _kind, values = series_mod.aggregate_window_values(
            registry, "db.wal_fsyncs")
        assert values[-1] == fsyncs


# --- SMART reports --------------------------------------------------------
class TestSmartReports:
    def test_ssd_smart_covers_cache_media_and_mapping(self):
        sim = Simulator()
        device = make_durassd(sim, capacity_bytes=units.GIB)
        report = device.smart()
        assert report["device"] == device.name
        assert report["durable_cache"] is True
        cache = report["cache"]
        assert cache["capacity_slots"] > 0
        media = report["media"]
        for key in ("erase_count_max", "media_wear_pct", "free_blocks",
                    "grown_bad_blocks", "write_amplification", "gc_runs"):
            assert key in media
        assert media["write_amplification"] >= 1.0
        assert "dirty_entries" in report["mapping"]
        assert "durability" in report
        assert sim.telemetry.smart_sources == [device]

    def test_hdd_smart_has_cache_but_no_flash_media(self):
        sim = Simulator()
        device = make_hdd(sim, capacity_bytes=units.GIB)
        report = device.smart()
        assert "cache" in report
        assert "media" not in report

    def test_smart_reports_collects_every_device(self):
        sim = Simulator()
        first = make_durassd(sim, capacity_bytes=units.GIB)
        second = make_hdd(sim, capacity_bytes=units.GIB, name="hdd.log")
        reports = sim.telemetry.smart_reports()
        assert [r["device"] for r in reports] \
            == [first.name, second.name]


# --- bench rules and the monitor CLI --------------------------------------
class TestMonitor:
    def test_default_bench_rules_validate(self):
        rules = default_bench_rules()
        assert rules
        names = {rule.name for rule in rules}
        assert "p99_write" in names and "waf" in names

    def test_monitor_cli_end_to_end(self, tmp_path):
        dash_json = str(tmp_path / "dash.json")
        dash_md = str(tmp_path / "dash.md")
        prom = str(tmp_path / "metrics.prom")
        csv = str(tmp_path / "metrics.csv")
        env = dict(os.environ)
        env["REPRO_QUICK"] = "1"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "monitor", "table1",
             "--json", dash_json, "--out", dash_md,
             "--prom", prom, "--csv", csv],
            capture_output=True, text=True, timeout=300, env=env,
            cwd=REPO_ROOT)
        assert result.returncode == 0, result.stderr[-2000:]
        with open(dash_json) as handle:
            report = json.load(handle)
        assert validate_run_record(report) == []
        assert report["scenario"] == "table1"
        assert report["metrics"]["windows"] >= 1
        assert report["metrics"]["smart"], \
            "dashboard carries no SMART reports"
        with open(dash_md) as handle:
            markdown = handle.read()
        assert "## SLO rules" in markdown
        assert "## Device health (SMART)" in markdown
        with open(prom) as handle:
            assert handle.read().startswith("# TYPE repro_")
        with open(csv) as handle:
            assert handle.readline().strip() == series_mod.CSV_HEADER

    def test_monitor_cli_unknown_scenario(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "monitor", "nope"],
            capture_output=True, text=True, timeout=60, cwd=REPO_ROOT)
        assert result.returncode == 2

    @staticmethod
    def _record(series):
        """A monitor run record whose ``metrics`` section has ``series``."""
        return {"schema": RUN_SCHEMA, "scenario": "x", "spec": {},
                "outcome": None,
                "metrics": {"windows": 2, "series": series, "smart": [],
                            "slo": {"rules": [{"evaluations": 3}],
                                    "alerts": []}}}

    def test_validator_rejects_empty_series(self):
        errors = validate_run_record(self._record([]))
        assert any("series" in error for error in errors)

    def test_validator_rejects_a_window_that_is_no_object(self):
        errors = validate_run_record(self._record(
            [{"name": "x", "kind": "gauge", "labels": {}, "windows": [1]}]))
        assert any("t0 < t1" in error for error in errors)

    def test_validator_rejects_nonmonotone_windows(self):
        errors = validate_run_record(self._record(
            [{"name": "x", "kind": "gauge", "labels": {},
              "windows": [{"t0": 0.0, "t1": 0.01, "value": 1},
                          {"t0": 0.005, "t1": 0.02, "value": 2}]}]))
        assert any("overlap" in error for error in errors)
