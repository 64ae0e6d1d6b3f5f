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

#: the shared traced-scenario registry (see repro.bench.scenarios)
SCENARIOS = TRACED


def run_scenario(name, sample_interval=0.002, spec=setups.DEFAULT_SPEC,
                 worlds=None):
    """Run a traced scenario; returns ``(telemetry, outcome_line)``."""
    fn = SCENARIOS.get(name)
    telemetry = Telemetry(enabled=True, sample_interval=sample_interval)
    outcome = fn(telemetry, spec, worlds)
    return telemetry, outcome


def main(argv, spec=setups.DEFAULT_SPEC, worlds=None):
    """``python -m repro trace <experiment> [--out X] [--jsonl Y]``."""
    args = list(argv)
    if not args or args[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("scenarios:")
        for line in SCENARIOS.listing():
            print(line)
        print("\noptions: --out PATH (default trace.json), --jsonl PATH,"
              "\n         --sample-interval SECONDS, --quiet")
        return 0
    name = args.pop(0)
    out, jsonl_path, quiet = "trace.json", None, False
    sample_interval = 0.002
    while args:
        flag = args.pop(0)
        if flag in ("--out", "--jsonl", "--sample-interval") and not args:
            print("%s requires a value" % flag)
            return 2
        if flag == "--out":
            out = args.pop(0)
        elif flag == "--jsonl":
            jsonl_path = args.pop(0)
        elif flag == "--sample-interval":
            try:
                sample_interval = float(args.pop(0))
            except ValueError:
                print("--sample-interval wants seconds, e.g. 0.002")
                return 2
            if sample_interval <= 0:
                print("--sample-interval must be positive")
                return 2
        elif flag == "--quiet":
            quiet = True
        else:
            print("unknown option: %r" % flag)
            return 2
    try:
        telemetry, outcome = run_scenario(name,
                                          sample_interval=sample_interval,
                                          spec=spec, worlds=worlds)
    except KeyError as error:
        print(error.args[0])
        return 2
    telemetry.write_chrome_trace(out)
    print(outcome)
    print("chrome trace: %s (%d events, tracks: %s)"
          % (out, len(telemetry.events), ", ".join(telemetry.tracks())))
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
