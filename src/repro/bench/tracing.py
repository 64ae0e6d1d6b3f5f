"""Span traces: ``python -m repro trace <experiment>``.

The runner (:mod:`repro.bench.runner`) runs one traced scenario, a
quick, representative world of the named experiment, with spans armed.
The command then writes a Chrome ``trace_event`` JSON (load it at
``ui.perfetto.dev`` or ``chrome://tracing``), optionally the raw JSONL
event stream, and prints an ASCII summary and flamegraph.

Scenarios are deliberately small — a trace of a few hundred operations
is readable; a trace of a full benchmark sweep is not.  To trace a full
benchmark run instead, use ``python -m repro <experiment> --telemetry``.
"""

from ..telemetry import render_flamegraph
from . import runner, setups
from .scenarios import TRACED


def main(scenario, out_path="trace.json", jsonl_path=None,
         sample_interval=0.002, quiet=False, spec=setups.DEFAULT_SPEC,
         worlds=None):
    """``python -m repro trace``: run one traced scenario and write its
    Chrome trace (plus the JSONL stream with ``jsonl_path``)."""
    record, telemetry = runner.run(scenario, TRACED.get(scenario), spec,
                                   worlds, spans=True,
                                   sample_interval=sample_interval)
    telemetry.write_chrome_trace(out_path)
    print(record["outcome"])
    print("chrome trace: %s (%d events, tracks: %s)"
          % (out_path, record["trace"]["events"],
             ", ".join(record["trace"]["tracks"])))
    if jsonl_path is not None:
        telemetry.write_jsonl(jsonl_path)
        print("jsonl events: %s" % jsonl_path)
    if not quiet:
        print()
        print(telemetry.render_summary())
        print()
        print(render_flamegraph(telemetry.events))
    return 0
