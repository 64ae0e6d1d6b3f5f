"""Continuous metrics: Counter/Gauge/Histogram instruments in windows.

The attribution engine (:mod:`repro.telemetry.attribution`) answers
*why was this request slow* after the fact; this module answers *what
is the system's health right now*.  A :class:`MetricsRegistry` holds
named instruments — optionally labelled (``device="durassd.0"``) — and
a periodic collector snapshots every instrument into fixed windows of
*simulated* time.  Like probe sampling, window collection rides on
clock advances: it adds no events to the simulation and consumes no
randomness, so a metered run is event-for-event identical to an
unmetered one.

Disabled registries
-------------------
A disabled registry (the default on every hub) hands out one shared
no-op instrument, stores nothing, and never arms the simulator's
telemetry tick.  Instrumented layers therefore register metrics
unconditionally.  Updates that run once per command or per operation
test ``enabled`` first, so the disabled path is one attribute check;
elsewhere an update may call the no-op instrument.

Instrument kinds
----------------
* :class:`Counter` — monotonically nondecreasing total.  Most counters
  in the stack are *callback* counters reading an existing counter dict
  (``fn=lambda: self.counters["flushes"]``), so the hot path is not
  touched at all; explicit ``inc()`` counters are for new code.
* :class:`Gauge` — an instantaneous value, usually a callback.
* :class:`Histogram` — log-spaced latency buckets
  (:data:`~repro.telemetry.histogram.DEFAULT_LOG_EDGES`) with sum,
  count and max; ``observe()`` from the measuring site.

Windows hold *cumulative* snapshots taken at each window's end
boundary; per-window deltas and rates are derived by
:mod:`repro.telemetry.series` and the SLO monitor.
"""

from .histogram import LogHistogram


class _NullInstrument:
    """Shared no-op stand-in for every instrument kind on a disabled
    registry (same pattern as :data:`~repro.telemetry.hub.NULL_SPAN`)."""

    __slots__ = ()

    def inc(self, amount=1):
        pass

    def set(self, value):
        pass

    def observe(self, value):
        pass


#: the single no-op instrument every disabled registry hands out
NULL_INSTRUMENT = _NullInstrument()


class Counter:
    """A monotone total; either explicit (``inc``) or callback-backed."""

    kind = "counter"
    __slots__ = ("name", "labels", "fn", "value")

    def __init__(self, name, labels, fn=None):
        self.name = name
        self.labels = labels
        self.fn = fn
        self.value = 0.0

    def inc(self, amount=1):
        if self.fn is not None:
            raise ValueError("counter %r reads a callback; inc() is for "
                             "explicit counters" % self.name)
        self.value += amount

    def read(self):
        return float(self.fn()) if self.fn is not None else self.value

    snapshot = read


class Gauge:
    """An instantaneous value; callback-backed or explicitly ``set``."""

    kind = "gauge"
    __slots__ = ("name", "labels", "fn", "value")

    def __init__(self, name, labels, fn=None):
        self.name = name
        self.labels = labels
        self.fn = fn
        self.value = 0.0

    def set(self, value):
        if self.fn is not None:
            raise ValueError("gauge %r reads a callback; set() is for "
                             "explicit gauges" % self.name)
        self.value = value

    def read(self):
        return float(self.fn()) if self.fn is not None else self.value

    snapshot = read


class Histogram:
    """Log-spaced buckets + sum/count/max; ``observe()`` per sample."""

    kind = "histogram"
    __slots__ = ("name", "labels", "hist")

    def __init__(self, name, labels, edges=None):
        self.name = name
        self.labels = labels
        self.hist = LogHistogram(edges)

    @property
    def edges(self):
        return self.hist.edges

    def observe(self, value):
        self.hist.observe(value)

    def snapshot(self):
        return self.hist.snapshot()


class Window:
    """One collection window ``[t0, t1)`` with cumulative snapshots of
    every instrument, keyed by ``(name, labels-tuple)``."""

    __slots__ = ("t0", "t1", "values")

    def __init__(self, t0, t1, values):
        self.t0 = t0
        self.t1 = t1
        self.values = values

    def __repr__(self):
        return "<Window %.6f..%.6f (%d instruments)>" % (
            self.t0, self.t1, len(self.values))


def _key(name, labels):
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Instruments + the periodic window collector.

    Attach one to a hub (``Telemetry(metrics=MetricsRegistry(...))``);
    the hub binds it to the simulator and dispatches clock advances.
    Registering the same name+labels twice returns the existing
    instrument, so layers never need to coordinate.
    """

    def __init__(self, enabled=True, interval=0.01):
        if interval <= 0:
            raise ValueError("metrics interval must be positive: %r"
                             % (interval,))
        self.enabled = enabled
        self.interval = interval
        self.sim = None
        self._instruments = {}     # key -> instrument
        self._order = []           # registration order, deterministic
        self.windows = []
        self._next_window_at = interval
        self._last_closed = 0.0
        self._finished_at = None

    @property
    def active(self):
        """True when this registry collects anything at all."""
        return self.enabled

    # --- wiring ---------------------------------------------------------
    def _bind(self, sim):
        if self.sim is not None and self.sim is not sim:
            raise ValueError("metrics registry is already bound to a "
                             "simulator")
        self.sim = sim
        if self.enabled:
            sim._arm_telemetry_tick()

    # --- registration ---------------------------------------------------
    def _register(self, factory, name, labels):
        if not self.enabled:
            return NULL_INSTRUMENT
        key = _key(name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = factory(name, dict(labels))
            self._instruments[key] = instrument
            self._order.append(key)
        return instrument

    def counter(self, name, fn=None, **labels):
        return self._register(lambda n, l: Counter(n, l, fn), name, labels)

    def gauge(self, name, fn=None, **labels):
        return self._register(lambda n, l: Gauge(n, l, fn), name, labels)

    def histogram(self, name, edges=None, **labels):
        return self._register(lambda n, l: Histogram(n, l, edges),
                              name, labels)

    def instruments(self):
        """All instruments in registration order."""
        return [self._instruments[key] for key in self._order]

    def get(self, name, **labels):
        return self._instruments.get(_key(name, labels))

    # --- collection -----------------------------------------------------
    def _snapshot_all(self):
        return {key: self._instruments[key].snapshot()
                for key in self._order}

    def _close_window(self, t1):
        # t0 is the previous boundary as closed, not ``t1 - interval``:
        # the subtraction drifts off the accumulated boundary by float
        # dust and adjacent windows would no longer be contiguous.
        self.windows.append(Window(self._last_closed, t1,
                                   self._snapshot_all()))
        self._last_closed = t1

    def _advance(self, when):
        """Close every window boundary the clock jump crosses (called
        from the hub's ``_on_clock_advance``)."""
        if not self.enabled or not self._instruments:
            return
        while self._next_window_at <= when:
            self._close_window(self._next_window_at)
            self._next_window_at += self.interval

    def finish(self, now=None):
        """Close a trailing partial window at ``now`` (default: the
        bound simulator's clock), so short runs lose no data.  Safe to
        call repeatedly; only the first call appends."""
        if not self.enabled or not self._instruments:
            return
        if now is None:
            now = self.sim.now if self.sim is not None else 0.0
        self._advance(now)
        if self._finished_at == now:
            return
        # The width guard drops float-dust slivers (a boundary landing
        # 1e-18 under ``now``) that would explode per-window rates.
        if now - self._last_closed > self.interval * 1e-6:
            self.windows.append(Window(self._last_closed, now,
                                       self._snapshot_all()))
            self._last_closed = now
        elif self.windows:
            # The run ended exactly on a boundary, whose window closed
            # when the clock *arrived* there — before the last events at
            # that instant ran.  Refresh its snapshot so end-of-run
            # totals include them.
            last = self.windows[-1]
            self.windows[-1] = Window(last.t0, last.t1,
                                      self._snapshot_all())
        self._finished_at = now
