"""Simulator self-profiling: where the *wall-clock* time goes.

Every other telemetry layer observes *simulated* time; this module
observes the simulator itself.  A :class:`SimProfiler` attaches to one
:class:`~repro.sim.Simulator` and attributes host wall time and event
counts to repro layers (sim/host/device/flash/db/telemetry/workload)
and to the concrete callback targets (the generator or function each
event resumes), so "the DES runs 4x slower than real time" becomes
"62% of the wall clock is WAL-writer resumes in the db layer".

Near-zero overhead when off
---------------------------
Attaching installs *instance-level* overrides of ``Simulator.step`` and
``Simulator._push``.  A simulator without one pushes and pops its
entries inline: the kernel's push sites pay one ``_profiler is None``
check, and ``run``/``run_until`` pop entries due now without calling
``step``.  Once the profiler is attached, every push goes through
``_push`` (so push counts per event class are exact) and the run loops
hand every entry to ``step``, since they pop inline only while ``step``
is the class's own.  The overrides wrap the class methods rather than
copy them, so the engine stays the only code that picks the next event.
The profiler
measures only host wall time and never touches the event queue, the
clock or any randomness, so a profiled run's simulated
results (ops, TPS, telemetry export) are byte-identical to an
unprofiled run (``tests/test_determinism.py`` proves it).

Attribution model
-----------------
``step()`` takes one event off the queue and processes it; the
profiler times the whole step with ``time.perf_counter`` and charges it
to the code the event runs:

* a live :class:`~repro.sim.engine.Process` queued to wake itself (its
  start, or its resume after an already-fired event) is charged to its
  own generator;
* otherwise the event's first callback target: a process resume
  (``_resume`` — the overwhelmingly common case) is charged to the
  *generator* it resumes, resolved through the generator's code object
  to a repro layer and a ``module:qualname`` label;
* a resumed generator suspended in ``yield from`` is followed down to
  the innermost generator, so db code a workload client delegates to is
  charged to ``db``, not to the client;
* any other callback is charged through its own code object;
* time spent inside the telemetry tick (probe sampling + metrics
  windows) is carved out and charged to the ``telemetry`` layer;
* the gap between consecutive steps — the ``while`` check, the step
  dispatch, the profiler's own clock reads — is the event loop itself,
  charged to ``sim`` as ``engine:event-loop``.  Gaps longer than
  :data:`GAP_CHARGE_LIMIT` are driver work *between* ``run()`` calls,
  not loop overhead; they stay unattributed (``gap_wall``) so they
  cannot inflate the sim layer.

Resolution happens once per code object and is cached, so steady-state
cost is two ``perf_counter`` calls and a handful of dict updates per
event.

Wall-clock instruments
----------------------
When the attached simulator's hub carries an *enabled* metrics
registry, the profiler registers gauge instruments so ``repro
monitor`` dashboards can chart the simulator's own efficiency:

* ``sim.real_time_factor`` — simulated seconds per wall second
  (> 1 means the simulator outruns the hardware it models);
* ``sim.events_per_sec`` — processed events per wall second;
* ``sim.wall_seconds`` — wall time spent in the event loop so far;
* ``sim.alloc_kib`` — currently traced allocations (only meaningful
  while :mod:`tracemalloc` is running; 0 otherwise).

Allocation accounting
---------------------
:func:`allocation_stats` groups a :mod:`tracemalloc` snapshot (or the
delta between two snapshots) by repro layer — the churn half of the
"why is the simulator slow" question.
"""

import os
import time
import tracemalloc

from .engine import Process

#: repro sub-package -> profile layer.  ``core`` is the DuraSSD device
#: internals, so it reports as ``device``; everything outside the repro
#: package (tests, examples, workload drivers defined inline) is
#: ``other``.
PACKAGE_LAYERS = {
    "sim": "sim",
    "host": "host",
    "devices": "device",
    "core": "device",
    "flash": "flash",
    "db": "db",
    "telemetry": "telemetry",
    "workloads": "workload",
    "failures": "failure",
    "bench": "bench",
}

_REPRO_MARKER = "%srepro%s" % (os.sep, os.sep)

#: inter-step gaps up to this many seconds are event-loop overhead and
#: charged to ``sim``; anything longer is python running between
#: ``sim.run()`` calls and stays unattributed.
GAP_CHARGE_LIMIT = 50e-6


def layer_of_path(filename):
    """The profile layer a source path belongs to."""
    index = filename.rfind(_REPRO_MARKER)
    if index < 0:
        return "other"
    rest = filename[index + len(_REPRO_MARKER):]
    package = rest.split(os.sep, 1)[0]
    if package.endswith(".py"):       # a module directly under repro/
        return "other"
    return PACKAGE_LAYERS.get(package, "other")


def _label_of(code):
    """A stable ``module:qualname`` label for a code object."""
    filename = code.co_filename
    index = filename.rfind(_REPRO_MARKER)
    if index >= 0:
        module = filename[index + len(_REPRO_MARKER):]
        if module.endswith(".py"):
            module = module[:-3]
        module = module.replace(os.sep, ".")
    else:
        module = os.path.basename(filename)
        if module.endswith(".py"):
            module = module[:-3]
    qualname = getattr(code, "co_qualname", code.co_name)
    return "%s:%s" % (module, qualname)


class SimProfiler:
    """Wall-clock and event-count attribution for one simulator.

    Attach explicitly (``profiler.attach(sim)``) or ride the hub:
    setting ``telemetry.profiler = SimProfiler()`` before building
    ``Simulator(telemetry)`` attaches during construction, which is how
    the bench ``--profile`` flag reaches worlds it never sees built.
    """

    def __init__(self):
        self.sim = None
        self._attached = False
        #: wall seconds / popped events per layer
        self.layer_wall = {}
        self.layer_events = {}
        #: wall seconds / popped events per (layer, target-label)
        self.target_wall = {}
        self.target_events = {}
        #: wall seconds / popped events per event class name
        self.event_type_wall = {}
        self.event_type_count = {}
        #: events *scheduled* (queue pushes) per event class name
        self.push_count = {}
        #: wall seconds inside the telemetry tick (probes + metrics)
        self.tick_wall = 0.0
        #: unattributed wall seconds: inter-step gaps too long to be
        #: loop overhead (driver python between ``run()`` calls)
        self.gap_wall = 0.0
        self.steps = 0
        #: wall seconds of telemetry tick inside the current step
        self._step_tick = 0.0
        self._first_t0 = None
        self._last_t1 = None
        self._sim_t0 = 0.0
        self._code_cache = {}

    # --- wiring ---------------------------------------------------------
    def attach(self, sim):
        """Install the profiling step/push on ``sim`` (instance-level,
        so other simulators keep the untouched class methods)."""
        if self._attached:
            raise ValueError("profiler is already attached to a simulator")
        if sim._profiler is not None:
            raise ValueError("simulator already carries a profiler")
        self.sim = sim
        self._attached = True
        self._sim_t0 = sim.now
        sim._profiler = self
        sim.step = self._make_step(sim)
        sim._push = self._make_push(sim)
        if sim._tick is not None:
            sim._tick = self._timed_tick(sim._tick)
        metrics = sim.telemetry.metrics
        if metrics.enabled:
            self._register_instruments(metrics)
        return self

    def detach(self):
        """Restore the simulator's class-level step/push.  Collected
        numbers (and the ``sim`` reference, for ``sim_seconds``) stay."""
        if not self._attached:
            return
        sim = self.sim
        del sim.step
        del sim._push
        sim._tick = getattr(sim._tick, "__wrapped__", sim._tick)
        sim._profiler = None
        self._attached = False

    def _register_instruments(self, metrics):
        metrics.gauge("sim.real_time_factor", fn=self.real_time_factor)
        metrics.gauge("sim.events_per_sec", fn=self.events_per_sec)
        metrics.gauge("sim.wall_seconds", fn=self.wall_seconds)
        metrics.gauge("sim.alloc_kib", fn=_traced_kib)

    # --- the hot path ---------------------------------------------------
    def _make_step(self, sim):
        perf = time.perf_counter
        base_step = type(sim).step
        next_event = sim._next_event
        classify = self._classify
        layer_wall = self.layer_wall
        layer_events = self.layer_events
        target_wall = self.target_wall
        target_events = self.target_events
        type_wall = self.event_type_wall
        type_count = self.event_type_count
        loop_key = ("sim", "engine:event-loop")
        gap_limit = GAP_CHARGE_LIMIT

        def step():
            t0 = perf()
            last_t1 = self._last_t1
            if last_t1 is not None:
                gap = t0 - last_t1
                if gap <= gap_limit:
                    # The while check, the dispatch, the clock reads:
                    # the event loop's own cost, attributed to sim.
                    layer_wall["sim"] = layer_wall.get("sim", 0.0) + gap
                    target_wall[loop_key] = (
                        target_wall.get(loop_key, 0.0) + gap)
                else:
                    self.gap_wall += gap
            event = next_event()
            layer, label = classify(event)
            cls = event.__class__.__name__
            self._step_tick = 0.0
            base_step(sim)
            t1 = perf()
            tick_dt = self._step_tick
            dt = t1 - t0 - tick_dt
            layer_wall[layer] = layer_wall.get(layer, 0.0) + dt
            layer_events[layer] = layer_events.get(layer, 0) + 1
            key = (layer, label)
            target_wall[key] = target_wall.get(key, 0.0) + dt
            target_events[key] = target_events.get(key, 0) + 1
            type_wall[cls] = type_wall.get(cls, 0.0) + dt
            type_count[cls] = type_count.get(cls, 0) + 1
            if tick_dt:
                self.tick_wall += tick_dt
                layer_wall["telemetry"] = (
                    layer_wall.get("telemetry", 0.0) + tick_dt)
            self.steps += 1
            if self._first_t0 is None:
                self._first_t0 = t0
            self._last_t1 = t1

        return step

    def _make_push(self, sim):
        base_push = type(sim)._push
        counts = self.push_count

        def _push(event, delay):
            cls = event.__class__.__name__
            counts[cls] = counts.get(cls, 0) + 1
            base_push(sim, event, delay)

        return _push

    def _timed_tick(self, tick):
        """Wrap the simulator's clock-advance tick so the step that runs
        it can carve its wall time out and charge it to telemetry."""
        perf = time.perf_counter

        def timed(when):
            t0 = perf()
            tick(when)
            self._step_tick += perf() - t0

        timed.__wrapped__ = tick
        return timed

    def _classify(self, event):
        """``(layer, label)`` for the code the event runs: a resumed
        process runs the innermost generator it is suspended in,
        anything else its first callback target."""
        if isinstance(event, Process) and (event._cancelled
                                           or event.is_alive):
            # The process's own entry: a cancelled wake runs nothing, a
            # live one resumes the process itself.
            callback = None if event._cancelled else event._resume
        else:
            callback = event.callbacks[0] if event.callbacks else None
        if callback is None:
            return ("sim", "engine:(no-callback)")
        target = getattr(callback, "__self__", None)
        if isinstance(target, Process):
            # The resume runs the innermost generator of a ``yield
            # from`` chain; an awaited non-generator ends the walk.
            generator = target._generator
            while getattr(generator.gi_yieldfrom, "gi_code", None):
                generator = generator.gi_yieldfrom
            code = generator.gi_code
        else:
            function = getattr(callback, "__func__", callback)
            code = getattr(function, "__code__", None)
            if code is None:
                return ("other", "(opaque-callback)")
        cached = self._code_cache.get(code)
        if cached is None:
            cached = (layer_of_path(code.co_filename), _label_of(code))
            self._code_cache[code] = cached
        return cached

    # --- derived figures ------------------------------------------------
    def wall_seconds(self):
        """Wall clock spanned by the profiled event loop (first step
        start to last step end)."""
        if self._first_t0 is None:
            return 0.0
        return self._last_t1 - self._first_t0

    def sim_seconds(self):
        """Simulated seconds advanced while attached."""
        if self.sim is None:
            return 0.0
        return self.sim.now - self._sim_t0

    def real_time_factor(self):
        """Simulated seconds per wall second; > 1 means the simulator
        outruns the hardware it models."""
        wall = self.wall_seconds()
        return self.sim_seconds() / wall if wall > 0 else 0.0

    def events_per_sec(self):
        wall = self.wall_seconds()
        return self.steps / wall if wall > 0 else 0.0

    def pushes(self):
        return sum(self.push_count.values())

    def attributed_seconds(self):
        """Wall seconds charged to some layer (everything inside the
        profiled steps; the remainder is inter-step loop overhead)."""
        return sum(self.layer_wall.values())

    def coverage(self):
        """Attributed share of the measured wall time (the acceptance
        bar is >= 0.95)."""
        wall = self.wall_seconds()
        return self.attributed_seconds() / wall if wall > 0 else 0.0

    # --- reports --------------------------------------------------------
    def layer_table(self):
        """Layers sorted by wall time: name, wall_s, share, events."""
        wall = self.wall_seconds()
        rows = []
        for layer in sorted(self.layer_wall,
                            key=lambda name: -self.layer_wall[name]):
            seconds = self.layer_wall[layer]
            rows.append({"layer": layer, "wall_s": seconds,
                         "share": seconds / wall if wall > 0 else 0.0,
                         "events": self.layer_events.get(layer, 0)})
        return rows

    def hot_targets(self, top=15):
        """The ``top`` hottest callback targets across all layers."""
        wall = self.wall_seconds()
        ordered = sorted(self.target_wall.items(),
                         key=lambda item: (-item[1], item[0]))
        return [{"layer": layer, "target": label,
                 "wall_s": seconds,
                 "share": seconds / wall if wall > 0 else 0.0,
                 "events": self.target_events.get((layer, label), 0)}
                for (layer, label), seconds in ordered[:top]]

    def event_type_table(self):
        """Event classes sorted by wall time, with push/pop counts."""
        names = sorted(set(self.event_type_count) | set(self.push_count),
                       key=lambda name: -self.event_type_wall.get(name,
                                                                  0.0))
        return [{"type": name,
                 "wall_s": self.event_type_wall.get(name, 0.0),
                 "processed": self.event_type_count.get(name, 0),
                 "scheduled": self.push_count.get(name, 0)}
                for name in names]

    def collapsed_stacks(self):
        """The target attribution in collapsed-stack format (one
        ``frame;frame value`` line per target, value in microseconds) —
        feed it to ``flamegraph.pl`` or speedscope."""
        lines = []
        ordered = sorted(self.target_wall.items(),
                         key=lambda item: (-item[1], item[0]))
        for (layer, label), seconds in ordered:
            micros = int(round(seconds * 1e6))
            if micros <= 0:
                continue
            lines.append("repro;%s;%s %d"
                         % (layer, label.replace(";", ":"), micros))
        return "\n".join(lines) + ("\n" if lines else "")

    def summary(self):
        """The JSON-ready attribution summary for one simulator."""
        return {
            "steps": self.steps,
            "pushes": self.pushes(),
            "wall_seconds": self.wall_seconds(),
            "sim_seconds": self.sim_seconds(),
            "real_time_factor": self.real_time_factor(),
            "events_per_sec": self.events_per_sec(),
            "attributed_seconds": self.attributed_seconds(),
            "tick_wall_seconds": self.tick_wall,
            "gap_seconds": self.gap_wall,
            "coverage": self.coverage(),
            "layers": self.layer_table(),
            "event_types": self.event_type_table(),
        }


def aggregate(profilers):
    """Merge the summaries of several profiled worlds (a bench table's
    ``--profile`` run builds one world per cell) into one report of the
    same shape; rates are recomputed over the pooled totals."""
    layer_wall, layer_events = {}, {}
    target_wall, target_events = {}, {}
    type_wall, type_proc, type_sched = {}, {}, {}
    steps = pushes = 0
    wall = sim_s = attributed = tick = gap = 0.0
    for profiler in profilers:
        steps += profiler.steps
        pushes += profiler.pushes()
        wall += profiler.wall_seconds()
        sim_s += profiler.sim_seconds()
        attributed += profiler.attributed_seconds()
        tick += profiler.tick_wall
        gap += profiler.gap_wall
        for layer, seconds in profiler.layer_wall.items():
            layer_wall[layer] = layer_wall.get(layer, 0.0) + seconds
        for layer, count in profiler.layer_events.items():
            layer_events[layer] = layer_events.get(layer, 0) + count
        for key, seconds in profiler.target_wall.items():
            target_wall[key] = target_wall.get(key, 0.0) + seconds
        for key, count in profiler.target_events.items():
            target_events[key] = target_events.get(key, 0) + count
        for name, seconds in profiler.event_type_wall.items():
            type_wall[name] = type_wall.get(name, 0.0) + seconds
        for name, count in profiler.event_type_count.items():
            type_proc[name] = type_proc.get(name, 0) + count
        for name, count in profiler.push_count.items():
            type_sched[name] = type_sched.get(name, 0) + count
    layers = [{"layer": layer, "wall_s": layer_wall[layer],
               "share": layer_wall[layer] / wall if wall > 0 else 0.0,
               "events": layer_events.get(layer, 0)}
              for layer in sorted(layer_wall,
                                  key=lambda name: -layer_wall[name])]
    names = sorted(set(type_proc) | set(type_sched),
                   key=lambda name: -type_wall.get(name, 0.0))
    event_types = [{"type": name, "wall_s": type_wall.get(name, 0.0),
                    "processed": type_proc.get(name, 0),
                    "scheduled": type_sched.get(name, 0)}
                   for name in names]
    hot = [{"layer": layer, "target": label, "wall_s": seconds,
            "share": seconds / wall if wall > 0 else 0.0,
            "events": target_events.get((layer, label), 0)}
           for (layer, label), seconds
           in sorted(target_wall.items(),
                     key=lambda item: (-item[1], item[0]))[:15]]
    return {
        "worlds": len(profilers),
        "hot": hot,
        "steps": steps,
        "pushes": pushes,
        "wall_seconds": wall,
        "sim_seconds": sim_s,
        "real_time_factor": sim_s / wall if wall > 0 else 0.0,
        "events_per_sec": steps / wall if wall > 0 else 0.0,
        "attributed_seconds": attributed,
        "tick_wall_seconds": tick,
        "gap_seconds": gap,
        "coverage": attributed / wall if wall > 0 else 0.0,
        "layers": layers,
        "event_types": event_types,
    }


def _traced_kib(_filters=()):
    """Currently traced allocation KiB, 0 when tracemalloc is off."""
    if not tracemalloc.is_tracing():
        return 0.0
    return tracemalloc.get_traced_memory()[0] / 1024.0


def allocation_stats(before=None):
    """Group live allocations by repro layer.

    Call while :mod:`tracemalloc` is tracing.  With ``before`` (a
    snapshot taken earlier) the figures are the *delta* since that
    snapshot — the allocation cost of the code that ran in between.
    Returns ``{"layers": [...], "total_kib": ..., "peak_kib": ...}``.
    """
    if not tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc is not tracing; call "
                           "tracemalloc.start() around the profiled run")
    snapshot = tracemalloc.take_snapshot()
    snapshot = snapshot.filter_traces([
        tracemalloc.Filter(False, tracemalloc.__file__),
    ])
    if before is not None:
        stats = snapshot.compare_to(before, "filename")
        sized = [(stat.traceback[0].filename, stat.size_diff,
                  stat.count_diff) for stat in stats]
    else:
        stats = snapshot.statistics("filename")
        sized = [(stat.traceback[0].filename, stat.size, stat.count)
                 for stat in stats]
    per_layer = {}
    for filename, size, count in sized:
        layer = layer_of_path(filename)
        entry = per_layer.setdefault(layer, [0, 0])
        entry[0] += size
        entry[1] += count
    layers = [{"layer": layer, "kib": size / 1024.0, "blocks": count}
              for layer, (size, count)
              in sorted(per_layer.items(), key=lambda item: -item[1][0])]
    total = sum(size for size, _count in per_layer.values())
    return {
        "layers": layers,
        "total_kib": total / 1024.0,
        "peak_kib": tracemalloc.get_traced_memory()[1] / 1024.0,
    }
