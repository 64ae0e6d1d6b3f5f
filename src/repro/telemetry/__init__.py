"""Cross-layer telemetry: causal spans, time-series probes, exporters.

One :class:`Telemetry` hub is threaded through a
:class:`~repro.sim.Simulator` (``Simulator(telemetry=...)``) and every
layer of the stack reports into it:

* **causal spans** follow one logical operation across layers — a
  LinkBench transaction down through the WAL append, the fsync, the
  file-system barrier, the NCQ slot, the device cache admit, the FTL
  mapping update and the flash program — with parent/child links and
  per-layer timing.  Span context is carried on simulation processes,
  so child processes inherit the span of whoever spawned them without
  any signature changes.
* **time-series probes** are gauges sampled on *simulated* time (write
  cache occupancy, NCQ depth, capacitor headroom, GC activity, dirty
  pages, doublewrite traffic).  Sampling piggybacks on clock advances,
  so it adds no events to the simulation and cannot perturb it.
* **exporters** turn the event stream into a JSONL file, a Chrome
  ``trace_event`` JSON (open it in Perfetto or ``chrome://tracing``)
  or an ASCII flamegraph/summary for terminals.

A disabled hub costs one attribute check per instrumentation site:
every site tests ``telemetry.enabled`` before it builds a span, never
touches the event heap, and never consumes randomness — simulation
results are byte-identical with telemetry absent, disabled or enabled.

Quick start::

    from repro.sim import Simulator
    from repro.telemetry import Telemetry

    tel = Telemetry()                    # enabled hub
    sim = Simulator(telemetry=tel)
    ... build devices / file systems / engines on ``sim`` ...
    ... run the workload ...
    tel.write_chrome_trace("trace.json")  # -> Perfetto
    tel.write_jsonl("events.jsonl")
    print(tel.render_summary())
"""

from .attribution import (
    CATEGORIES,
    BlameTable,
    SpanIndex,
    attribute_requests,
)
from .export import (
    chrome_trace_events,
    render_flamegraph,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)
from .histogram import DEFAULT_LOG_EDGES, LogHistogram, nearest_rank
from .hub import NULL_SPAN, EventLog, Span, Telemetry
from .metrics import NULL_INSTRUMENT, MetricsRegistry
from .probes import Probe
from .slo import SLOMonitor, SLORule, default_bench_rules, default_chaos_rules
from .validate import validate_chrome_trace, validate_trace_file

__all__ = [
    "CATEGORIES",
    "BlameTable",
    "DEFAULT_LOG_EDGES",
    "EventLog",
    "LogHistogram",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_SPAN",
    "Probe",
    "SLOMonitor",
    "SLORule",
    "Span",
    "SpanIndex",
    "Telemetry",
    "default_bench_rules",
    "default_chaos_rules",
    "nearest_rank",
    "attribute_requests",
    "chrome_trace_events",
    "render_flamegraph",
    "render_summary",
    "validate_chrome_trace",
    "validate_trace_file",
    "write_chrome_trace",
    "write_jsonl",
]
