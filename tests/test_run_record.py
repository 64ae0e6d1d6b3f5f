"""The ``repro.run/1`` record: one runner, one schema, one validator.

``repro trace|explain|monitor|profile`` each render the record that
:func:`repro.bench.runner.run` returns, and
:func:`repro.telemetry.validate.validate_run_record` checks any of them:
the envelope once, then each section the record carries.
"""

import json

import pytest

from repro.__main__ import build_parser, world_spec
from repro.bench import explain, runner
from repro.bench.scenarios import TRACED
from repro.bench.setups import WorldSpec
from repro.telemetry.validate import SECTIONS, validate_run_record


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "1")


def table1_record(spec=WorldSpec(), **instruments):
    return runner.run("table1", TRACED.get("table1"), spec, **instruments)


@pytest.fixture(scope="module")
def explain_record():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_QUICK", "1")
        return explain.run_scenario("linkbench", quick=True, top_k=2)


class TestRunner:
    def test_each_instrument_adds_its_section(self, quick):
        record, telemetry = table1_record(spans=True, metrics=0.01,
                                          profile=True)
        assert set(record) == {"schema", "scenario", "spec", "outcome",
                               "trace", "metrics", "profile"}
        assert record["trace"]["events"] == len(telemetry.events)
        assert telemetry.profiler is not None
        # The 95% coverage floor is left to the CI profile job: on a
        # loaded host, preemption between steps lands in the gap.
        assert [error for error in validate_run_record(record)
                if "cover" not in error] == []

    def test_disarmed_run_has_no_section_and_is_rejected(self, quick):
        record, telemetry = table1_record()
        assert not telemetry.enabled
        assert not set(record) & set(SECTIONS)
        assert any("no section" in error
                   for error in validate_run_record(record))

    def test_record_spec_rebuilds_the_world(self, quick):
        args = build_parser().parse_args(
            ["table1", "--interface", "nvme", "--sq", "4",
             "--queue-depth", "8", "--gray-faults", "mild"])
        spec = world_spec(args)
        record = json.loads(json.dumps(
            table1_record(spec, metrics=0.01)[0]))
        rebuilt = WorldSpec.from_json(record["spec"])
        assert rebuilt == spec
        assert rebuilt.topology.affinity == {"log": 3}
        assert table1_record(rebuilt, metrics=0.01)[0]["outcome"] \
            == record["outcome"]


def test_monitor_exit_status_ignores_the_record_checks(quick, monkeypatch,
                                                       capsys):
    """``monitor`` exits 0 as it always has: a profiled record's wall-clock
    coverage floor is checked by ``repro profile``, not here."""
    from repro.bench import monitor
    from repro.telemetry import validate
    monkeypatch.setattr(validate, "PROFILE_COVERAGE_FLOOR", 2.0)
    assert monitor.main("table1", quiet=True,
                        spec=WorldSpec(profile=True)) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_monitor_windows_are_the_spec_interval(quick, tmp_path):
    """One knob sets monitor's window: the record's ``metrics.interval_s``
    is the ``--metrics-interval`` its own ``spec`` carries."""
    from repro.__main__ import main
    path = tmp_path / "d.json"
    assert main(["monitor", "table1", "--metrics-interval", "0.005",
                 "--quiet", "--json", str(path)]) == 0
    record = json.loads(path.read_text())
    assert record["metrics"]["interval_s"] == 0.005
    assert record["spec"]["metrics_interval"] == 0.005


class TestValidateRunRecord:
    def test_explain_record_is_valid(self, explain_record):
        assert validate_run_record(explain_record) == []
        for mode in explain_record["modes"].values():
            assert {"trace", "blame"} <= set(mode)

    def test_wrong_schema_is_rejected(self, explain_record):
        record = dict(explain_record, schema="repro.explain/1")
        assert validate_run_record(record) \
            == ["schema must be 'repro.run/1' (got 'repro.explain/1')"]

    def test_record_with_no_section_is_rejected(self, explain_record):
        record = {key: value for key, value in explain_record.items()
                  if key not in SECTIONS}
        errors = validate_run_record(record)
        assert len(errors) == 1 and "no section" in errors[0]

    def test_bad_mode_is_named(self, explain_record):
        modes = dict(explain_record["modes"])
        bad = modes["durable-cache"]
        short = dict(bad["blame"], requests=bad["blame"]["requests"][1:])
        modes["durable-cache"] = dict(bad, blame=short)
        errors = validate_run_record(dict(explain_record, modes=modes))
        assert errors == ["modes: mode 'durable-cache': blame: request "
                          "list/count mismatch"]

    def test_empty_trace_section_is_rejected(self, explain_record):
        mode = explain_record["modes"]["flush-cache"]
        errors = validate_run_record(dict(mode, trace={"events": 0,
                                                       "tracks": []}))
        assert errors == ["trace: needs a positive 'events' count and the "
                          "named 'tracks'"]
