"""One run record behind ``repro trace|explain|monitor|profile``.

:func:`run` arms one hub with the instruments a command asks for, runs
one scenario and returns a ``repro.run/1`` record: ``schema``,
``scenario``, ``spec`` (the world spec as JSON) and ``outcome``, plus a
``trace``, ``blame``, ``metrics`` or ``profile`` section per armed
instrument.  The commands render the record, and
:func:`repro.telemetry.validate.validate_run_record` checks any of them.
"""

import json
import time

from ..sim.profiler import SimProfiler, aggregate
from ..telemetry import MetricsRegistry, SLOMonitor, Telemetry, \
    default_bench_rules
from ..telemetry import series as series_mod
from ..telemetry.report import analyze
from ..telemetry.validate import RUN_SCHEMA, validate_run_record
from . import setups

#: cap on dashboard windows; longer runs are rolled up to stay readable
MAX_DASHBOARD_WINDOWS = 64


def envelope(scenario, spec, **sections):
    """A ``repro.run/1`` record of ``scenario`` run under ``spec``."""
    return dict({"schema": RUN_SCHEMA, "scenario": scenario,
                 "spec": spec.to_json()}, **sections)


def _metrics(telemetry):
    """The ``metrics`` section: windows, SLO verdicts, SMART reports."""
    registry = telemetry.metrics
    registry.finish()
    outcomes = SLOMonitor(registry, default_bench_rules()).evaluate()
    alerts = sorted((episode for rule in outcomes
                     for episode in rule.episodes),
                    key=lambda episode: episode.fired_at)
    windows = registry.windows
    return {
        "interval_s": registry.interval,
        "windows": len(windows),
        "duration_s": windows[-1].t1 if windows else 0.0,
        "series": series_mod.series_json(
            registry, max_windows=MAX_DASHBOARD_WINDOWS),
        "smart": telemetry.smart_reports(),
        "slo": {
            "rules": [rule.to_json() for rule in outcomes],
            "alerts": [episode.to_json() for episode in alerts],
        },
    }


def run(scenario, fn, spec=setups.DEFAULT_SPEC, worlds=None, spans=False,
        sample_interval=0.002, blame=None, metrics=None, profile=False,
        top=None):
    """Run ``fn(telemetry, spec, worlds)`` on a hub armed with
    ``spans``, ``blame=K`` (K tail timelines; implies spans),
    ``metrics=S`` (S-second windows) and ``profile`` (``top`` targets,
    or :func:`aggregate`'s default); returns ``(record, telemetry)``,
    the hub live for the exporters."""
    registry = None if metrics is None else MetricsRegistry(interval=metrics)
    telemetry = Telemetry(enabled=spans or blame is not None,
                          sample_interval=sample_interval, metrics=registry)
    if profile:
        telemetry.profiler = SimProfiler()
    begin = time.perf_counter()
    outcome = fn(telemetry, spec, worlds)
    run_wall = time.perf_counter() - begin
    record = envelope(scenario, spec, outcome=outcome)
    if telemetry.enabled:
        record["trace"] = {"events": len(telemetry.events),
                           "tracks": telemetry.tracks()}
    if blame is not None:
        record["blame"] = analyze(telemetry.events, top_k=blame)
    if registry is not None:
        record["metrics"] = _metrics(telemetry)
    if profile:
        pooled = (aggregate([telemetry.profiler]) if top is None
                  else aggregate([telemetry.profiler], top=top))
        record["profile"] = dict(pooled, run_wall_seconds=run_wall)
    return record, telemetry


def write_views(record, markdown, out_path=None, json_path=None,
                quiet=False, check=True):
    """The commands' shared tail: markdown to ``out_path`` (or stdout
    unless ``quiet``), the record to ``json_path``, then (with
    ``check``) its own checks; returns their problems, each printed as
    ``FAIL:``."""
    if out_path is not None:
        with open(out_path, "w") as handle:
            handle.write(markdown)
        print("wrote %s" % out_path)
    elif not quiet:
        print(markdown)
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
        print("wrote %s" % json_path)
    errors = validate_run_record(record) if check else []
    for error in errors:
        print("FAIL: %s" % error)
    return errors
