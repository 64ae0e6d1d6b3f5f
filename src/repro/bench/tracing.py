"""Traced scenarios for ``python -m repro trace <experiment>``.

Each scenario builds one quick, representative world of the named
experiment with an *enabled* telemetry hub, runs it, and hands the hub
back.  The CLI then writes a Chrome ``trace_event`` JSON (load it at
``ui.perfetto.dev`` or ``chrome://tracing``), optionally the raw JSONL
event stream, and prints an ASCII summary and flamegraph.

Scenarios are deliberately small — a trace of a few hundred operations
is readable; a trace of a full benchmark sweep is not.  To trace a full
benchmark run instead, use ``python -m repro <experiment> --telemetry``.
"""

from ..telemetry import Telemetry
from . import setups
from .scenarios import TRACED


def run_scenario(name, sample_interval=0.002, spec=setups.DEFAULT_SPEC,
                 worlds=None):
    """Run a traced scenario; returns ``(telemetry, outcome_line)``."""
    fn = TRACED.get(name)
    telemetry = Telemetry(enabled=True, sample_interval=sample_interval)
    outcome = fn(telemetry, spec, worlds)
    return telemetry, outcome


def main(scenario, out_path="trace.json", jsonl_path=None,
         sample_interval=0.002, quiet=False, spec=setups.DEFAULT_SPEC,
         worlds=None):
    """``python -m repro trace``: run one traced scenario and write its
    Chrome trace (plus the JSONL stream with ``jsonl_path``)."""
    telemetry, outcome = run_scenario(scenario,
                                      sample_interval=sample_interval,
                                      spec=spec, worlds=worlds)
    telemetry.write_chrome_trace(out_path)
    print(outcome)
    print("chrome trace: %s (%d events, tracks: %s)"
          % (out_path, len(telemetry.events), ", ".join(telemetry.tracks())))
    if jsonl_path is not None:
        telemetry.write_jsonl(jsonl_path)
        print("jsonl events: %s" % jsonl_path)
    if not quiet:
        print()
        print(telemetry.render_summary())
        from ..telemetry import render_flamegraph
        print()
        print(render_flamegraph(telemetry.events))
    return 0
