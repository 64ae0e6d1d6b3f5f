"""The telemetry hub: span context, probe sampling, event collection.

Design constraints (tested, not aspirational):

* **No globals.**  All state lives on one :class:`Telemetry` instance
  owned by a :class:`~repro.sim.Simulator`.  Two simulators never share
  telemetry state.
* **Deterministic.**  Events are appended in simulation order, span ids
  are a per-hub counter, and probe sampling happens at fixed points of
  the *simulated* clock — two runs with the same seed produce
  byte-identical JSONL streams.
* **Nothing recorded, nothing paid.**  Every instrumentation site tests
  ``enabled`` before it builds a span's arguments, so a disabled hub is
  not even called on the command path; every entry point also
  short-circuits on ``self.enabled``.  A disabled hub never allocates a
  span, schedules an event or reads a probe, so simulation outputs are
  identical with or without it.

Span context propagation
------------------------
The simulation kernel runs one process at a time.  Each
:class:`~repro.sim.engine.Process` carries a ``span`` attribute:

* opening a span inside a process pushes it as that process's current
  span (restored when the span closes — a per-process span stack);
* spawning a process *inherits* the spawner's current span, so causality
  follows ``sim.process(...)`` fan-out across layers for free.

A span is therefore safe to hold open across ``yield``s: interleaved
processes each see their own context.

The event log
-------------
``Telemetry.events`` is an :class:`EventLog`: every record is one
fixed-width binary row in a single ``bytearray``, so an armed hub keeps
no per-record dict, tuple, boxed id or timestamp, and no closed
:class:`Span` alive.  Reading it — iteration, indexing, slicing, ``==``
against a list — yields the same event dicts a list of dicts would,
freshly built on every read.
"""

import json
import struct
from collections.abc import Sequence

from .metrics import MetricsRegistry
from .probes import Probe


class Span:
    """One timed, named unit of work on a layer track.

    Use as a context manager (works across generator ``yield``s)::

        with sim.telemetry.span("fs.fsync", "host", file=name) as span:
            ...
            span.annotate(journalled=True)
    """

    __slots__ = ("telemetry", "span_id", "parent_id", "name", "track",
                 "start", "end", "attrs", "_process", "_saved")

    def __init__(self, telemetry, name, track, parent_id, attrs):
        self.telemetry = telemetry
        telemetry._span_counter += 1
        self.span_id = telemetry._span_counter
        self.parent_id = parent_id
        self.name = name
        self.track = track
        self.start = None
        self.end = None
        self.attrs = attrs
        self._process = None
        self._saved = None

    @property
    def duration(self):
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    def annotate(self, **attrs):
        """Attach attributes discovered mid-span.  The record is written
        when the span closes, so later annotations are not recorded."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        telemetry = self.telemetry
        sim = telemetry.sim
        process = sim.active_process
        if self.parent_id is None:
            ambient = process.span if process is not None \
                else telemetry._ambient
            if ambient is not None:
                self.parent_id = ambient.span_id
        self._process = process
        if process is not None:
            self._saved = process.span
            process.span = self
        else:
            self._saved = telemetry._ambient
            telemetry._ambient = self
        self.start = sim.now
        return self

    def __exit__(self, exc_type, exc, tb):
        telemetry = self.telemetry
        if self._process is not None:
            self._process.span = self._saved
        else:
            telemetry._ambient = self._saved
        self.end = end = telemetry.sim.now
        # EventLog._append_event, inlined: closing a span is the armed
        # hub's hottest path.
        log = telemetry.events
        attrs = self.attrs
        shape = (SPAN, self.name, self.track, tuple(attrs))
        index = log._shape_index.get(shape)
        if index is None:
            index = log._intern(shape)
        values = log._values
        log._rows += _pack_row(index, self.span_id, self.parent_id or 0,
                               self.start, end, len(values))
        values.extend(attrs.values())
        return False

    def __repr__(self):
        return "<Span %d %s/%s [%s..%s]>" % (
            self.span_id, self.track, self.name, self.start, self.end)


class _NullSpan:
    """Shared, stateless no-op stand-in returned by a disabled hub."""

    __slots__ = ()
    span_id = None
    parent_id = None
    start = None
    end = None
    duration = None

    def annotate(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


#: the single no-op span every disabled hub hands out
NULL_SPAN = _NullSpan()


#: record kinds, stored as the event's ``type`` string
SPAN, INSTANT, SAMPLE = "span", "instant", "sample"


#: one record: shape index, span id, parent id (0 for none: span ids
#: start at 1), start, end (the start again for instants and samples),
#: and the offset of the record's first attr value (a sample's value) in
#: the value list.  Times are doubles: the simulator's clock is a float.
_ROW = struct.Struct("<IQQddI")
_pack_row = _ROW.pack


class EventLog(Sequence):
    """Append-only, read-only sequence of one hub's recorded events.

    Each record is one :data:`_ROW` in a single ``bytearray``.  What
    records share lives once in a shape table: ``(kind, name, track,
    attr keys)`` for spans and instants, ``(SAMPLE, probe)`` for probe
    samples, which take name, track and attrs from their
    :class:`~repro.telemetry.probes.Probe`.  Attr values (and sample
    values) go, in order, into one flat list of the objects recorded,
    so every value reads back as exactly what was written.  Every read
    builds fresh dicts, so mutating one never changes a later read.
    """

    __slots__ = ("_rows", "_values", "_shapes", "_shape_index")

    def __init__(self):
        self._rows = bytearray()
        self._values = []
        self._shapes = []        # shape index -> shape
        self._shape_index = {}   # shape -> shape index

    def _intern(self, shape):
        """The index of a shape not yet in the table, now added."""
        index = self._shape_index[shape] = len(self._shapes)
        self._shapes.append(shape)
        return index

    def _append_event(self, kind, name, track, span_id, parent_id, start,
                      end, attrs):
        shape = (kind, name, track, tuple(attrs))
        index = self._shape_index.get(shape)
        if index is None:
            index = self._intern(shape)
        values = self._values
        self._rows += _pack_row(index, span_id, parent_id, start, end,
                                len(values))
        values.extend(attrs.values())

    def _append_sample(self, probe, ts, value):
        shape = (SAMPLE, probe)
        index = self._shape_index.get(shape)
        if index is None:
            index = self._intern(shape)
        values = self._values
        self._rows += _pack_row(index, 0, 0, ts, ts, len(values))
        values.append(value)

    def _event(self, row):
        """The event dict of one unpacked row, freshly built."""
        index, span_id, parent_id, start, end, offset = row
        shape = self._shapes[index]
        kind = shape[0]
        if kind == SAMPLE:
            probe = shape[1]
            event = {"type": SAMPLE, "name": probe.name,
                     "track": probe.track, "ts": start,
                     "value": self._values[offset]}
            if probe.attrs:
                # Only probes registered with attrs carry the key, so
                # streams from attr-free worlds are byte-identical to
                # before attrs existed.
                event["attrs"] = dict(probe.attrs)
            return event
        _, name, track, keys = shape
        event = {"type": kind, "id": span_id, "parent": parent_id or None,
                 "name": name, "track": track, "ts": start}
        if kind == SPAN:
            event["dur"] = end - start
        event["attrs"] = dict(zip(keys,
                                  self._values[offset:offset + len(keys)]))
        return event

    def _unpacked(self):
        """Every row, unpacked, from a snapshot of the log."""
        return _ROW.iter_unpack(bytes(self._rows))

    def select(self, kind, name=None, track=None):
        """Event dicts of one kind, optionally filtered by name and
        track; filters run on the shape table, before any dict is
        built."""
        if kind == SAMPLE:
            wanted = {index for index, shape in enumerate(self._shapes)
                      if shape[0] == SAMPLE
                      and (name is None or shape[1].name == name)
                      and (track is None or shape[1].track == track)}
        else:
            wanted = {index for index, shape in enumerate(self._shapes)
                      if shape[0] == kind
                      and (name is None or shape[1] == name)
                      and (track is None or shape[2] == track)}
        if not wanted:
            return []
        return [self._event(row) for row in self._unpacked()
                if row[0] in wanted]

    def tracks(self):
        """Distinct track names, in first-appearance order.  Shapes are
        indexed in the order their first record was written, so the
        shape table alone gives that order."""
        return list(dict.fromkeys(
            shape[1].track if shape[0] == SAMPLE else shape[2]
            for shape in self._shapes))

    def __len__(self):
        return len(self._rows) // _ROW.size

    def __iter__(self):
        return map(self._event, self._unpacked())

    def __getitem__(self, index):
        rows = range(len(self))[index]
        if isinstance(rows, range):
            return [self._row_event(row) for row in rows]
        return self._row_event(rows)

    def _row_event(self, row):
        return self._event(_ROW.unpack_from(self._rows, row * _ROW.size))

    def __eq__(self, other):
        if isinstance(other, (EventLog, list)):
            return len(self) == len(other) and list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        return "<EventLog %d events>" % len(self)


class Telemetry:
    """Collects spans, instants and probe samples from one simulator.

    Parameters
    ----------
    enabled:
        A disabled hub ignores everything (the default hub a bare
        ``Simulator()`` creates is disabled).
    sample_interval:
        Simulated seconds between probe samples.  Sampling rides on
        clock advances — it adds no events to the simulation.
    metrics:
        An optional :class:`~repro.telemetry.metrics.MetricsRegistry`
        collecting windowed Counter/Gauge/Histogram series.  Defaults
        to a disabled registry, so instrumented layers can register
        unconditionally.  Metrics are independent of ``enabled`` —
        a hub can collect windows while spans stay off.
    """

    def __init__(self, enabled=True, sample_interval=0.002, metrics=None):
        self.enabled = enabled
        self.sample_interval = sample_interval
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry(enabled=False)
        self.sim = None
        #: every recorded event, in deterministic append order
        self.events = EventLog()
        self.probes = []
        self._probe_names = set()
        self._span_counter = 0
        self._ambient = None       # span stack for code outside processes
        self._next_sample_at = 0.0
        #: devices that can render a SMART-style smart() self-report
        self.smart_sources = []
        #: a :class:`~repro.sim.profiler.SimProfiler` to attach to the
        #: simulator this hub binds to (set it *before* building the
        #: Simulator).  None — the default — costs one attribute check
        #: at construction and nothing thereafter.
        self.profiler = None

    # --- wiring ---------------------------------------------------------
    def _bind(self, sim):
        if self.sim is not None and self.sim is not sim:
            raise ValueError("telemetry hub is already bound to a simulator")
        self.sim = sim
        self.metrics._bind(sim)

    def _next_span_id(self):
        self._span_counter += 1
        return self._span_counter

    # --- spans ----------------------------------------------------------
    def span(self, name, track, parent=None, **attrs):
        """A context-manager span on ``track``; parent defaults to the
        active process's current span (explicit ``parent`` overrides)."""
        if not self.enabled:
            return NULL_SPAN
        if self.sim is None:
            raise RuntimeError("telemetry is not bound to a Simulator")
        parent_id = parent.span_id if isinstance(parent, Span) else parent
        return Span(self, name, track, parent_id, attrs)

    def instant(self, name, track, **attrs):
        """A zero-duration event, causally linked to the current span."""
        if not self.enabled:
            return
        process = self.sim.active_process
        ambient = process.span if process is not None else self._ambient
        now = self.sim.now
        self.events._append_event(
            INSTANT, name, track, self._next_span_id(),
            ambient.span_id if ambient is not None else 0, now, now, attrs)

    # --- probes ---------------------------------------------------------
    def add_probe(self, name, fn, track="probe", **attrs):
        """Register a gauge sampled every ``sample_interval`` simulated
        seconds.  Duplicate names get a deterministic ``#n`` suffix (two
        devices both expose ``device.cache_occupancy``); returns the
        final name, or None on a disabled hub.  Keyword ``attrs``
        identify the instance (``device="durassd.0"``) and ride along on
        every sample event of the probe."""
        if not self.enabled:
            return None
        base, n = name, 1
        while name in self._probe_names:
            n += 1
            name = "%s#%d" % (base, n)
        self._probe_names.add(name)
        self.probes.append(Probe(name, track, fn, attrs))
        if self.sim is not None:
            self.sim._arm_telemetry_tick()
        return name

    # --- SMART self-reports ----------------------------------------------
    def register_smart(self, device):
        """Register a device exposing ``smart()`` so monitors can pull
        health reports without holding device handles.  Always on: the
        cost is one list append per device, at build time."""
        self.smart_sources.append(device)

    def smart_reports(self):
        """``smart()`` of every registered device, in build order."""
        return [device.smart() for device in self.smart_sources]

    def sample_now(self):
        """Force one sample of every probe at the current instant."""
        if not self.enabled:
            return
        self._sample_all(self.sim.now if self.sim is not None else 0.0)

    def _sample_all(self, ts):
        append = self.events._append_sample
        for probe in self.probes:
            append(probe, ts, probe.fn())

    def _on_clock_advance(self, when):
        """Called by the simulator just before ``now`` jumps to ``when``.

        Samples every probe at each grid point the jump crosses.  State
        is constant between events, so the value recorded for grid time
        ``t`` is exactly the simulated state at ``t``.
        """
        if self.probes:
            while self._next_sample_at <= when:
                self._sample_all(self._next_sample_at)
                self._next_sample_at += self.sample_interval
        self.metrics._advance(when)

    # --- accessors ------------------------------------------------------
    def spans(self, name=None, track=None):
        """Recorded span events, optionally filtered."""
        return self.events.select(SPAN, name, track)

    def span_durations(self, name=None, track=None):
        """Durations (seconds) of matching spans, in completion order."""
        return [event["dur"] for event in self.spans(name, track)]

    def samples(self, name=None):
        """Recorded probe samples, optionally filtered by probe name."""
        return self.events.select(SAMPLE, name)

    def instants(self, name=None, track=None):
        return self.events.select(INSTANT, name, track)

    def tracks(self):
        """Distinct track names, in first-appearance order."""
        return self.events.tracks()

    # --- export ---------------------------------------------------------
    def jsonl(self):
        """The full event stream as canonical JSONL text."""
        return "".join(json.dumps(event, sort_keys=True,
                                  separators=(",", ":")) + "\n"
                       for event in self.events)

    def write_jsonl(self, path):
        from .export import write_jsonl
        write_jsonl(self.events, path)

    def write_chrome_trace(self, path):
        from .export import write_chrome_trace
        write_chrome_trace(self.events, path)

    def render_summary(self, width=72):
        from .export import render_summary
        return render_summary(self.events, width=width)
