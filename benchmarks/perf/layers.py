"""Per-layer attribution of host time for one traced benchmark run.

:func:`install` patches class attributes of the simulator from outside
the program, so it is called only in the traced worker process, before
the world is built.  From then on a span opens on each resume of:

* every :meth:`Simulator.process` root generator, charged to the repro
  package its code object lives in;
* every public entry listed in :data:`ENTRIES` and :data:`FUNCTIONS`,
  whether it is reached through ``yield from`` or called directly.

``Simulator.step`` itself opens a ``sim`` span, so ``sim`` self time is
the event loop outside every other span.  A layer's self time is the
time its spans cover minus their nested spans; the :class:`Tracer`
keeps one "current layer" and charges each clock interval to it, which
computes exactly that with one clock read per span boundary.

Wrappers forward ``send``, ``throw`` and ``close`` and keep return
values, so the simulation is unchanged: the traced run must reproduce
the untraced run's fingerprint exactly.
"""

import sys
import time
from collections import Counter, defaultdict

#: repro packages reported as layers; code anywhere else is ``other``
LAYERS = ("sim", "workloads", "db", "host", "devices", "core", "flash",
          "failures", "telemetry")

#: (module, class, methods, layer): public entries wrapped on the class
#: and on every subclass that overrides them
ENTRIES = (
    ("repro.db.innodb", "InnoDBEngine",
     ("read_rank", "scan", "modify_rank", "commit", "abort"), "db"),
    ("repro.db.wal", "WriteAheadLog", ("flush_to",), "db"),
    ("repro.host.filesystem", "FileSystem",
     ("pwrite", "pread", "fsync", "fdatasync", "append"), "host"),
    ("repro.host.queues", "QueueModel", ("submit", "flush"), "host"),
    ("repro.devices.base", "StorageDevice", ("submit", "flush_cache"),
     "devices"),
    ("repro.flash.ftl", "PageMappingFTL", ("read_slot", "write_slots"),
     "flash"),
    ("repro.flash.chip", "FlashArray", ("program", "read", "erase"), "flash"),
    ("repro.core.recovery", "RecoveryManager", ("dump", "replay"), "core"),
    # Span enter/exit and the clock-advance sampler are where an armed
    # hub spends its time; span() alone only builds the object.
    ("repro.telemetry.hub", "Telemetry",
     ("span", "instant", "_on_clock_advance"), "telemetry"),
    ("repro.telemetry.hub", "Span", ("__enter__", "__exit__"), "telemetry"),
)

#: (module, function, layer): module-level entries; every module that
#: imported the function by name is patched too
FUNCTIONS = (
    ("repro.db.dbrecovery", "recover", "failures"),
    ("repro.failures.checker", "check_device", "failures"),
)

#: entry -> distribution its simulated durations are pooled into, for
#: the ``*_sim_ms_*`` metrics (fsync and fdatasync share one counter)
SIM_TIMED = {"InnoDBEngine.commit": "db.commit",
             "FileSystem.fsync": "host.fsync",
             "FileSystem.fdatasync": "host.fsync",
             "StorageDevice.submit": "devices.submit"}

_MARKER = "/repro/"


class Tracer:
    """Charges host wall time to the layer whose span is innermost."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.sim_durations = defaultdict(list)
        self.processes = 0
        self.layer = "other"
        self.stack = []
        self.mark = clock()

    def enter(self, layer):
        now = self.clock()
        self.self_s[self.layer] += now - self.mark
        self.stack.append(self.layer)
        self.layer = layer
        self.mark = now

    def leave(self):
        now = self.clock()
        self.self_s[self.layer] += now - self.mark
        self.layer = self.stack.pop()
        self.mark = now

    def restart(self):
        """Forget self time so far: the measured phase starts now."""
        self.self_s.clear()
        self.mark = self.clock()

    def snapshot(self):
        """Self seconds per layer up to now."""
        now = self.clock()
        self.self_s[self.layer] += now - self.mark
        self.mark = now
        return dict(self.self_s)


class Traced:
    """A generator proxy that opens a span around every resume."""

    __slots__ = ("tracer", "gen", "layer", "sink", "sim", "began")

    def __init__(self, tracer, gen, layer, sink=None, sim=None):
        self.tracer = tracer
        self.gen = gen
        self.layer = layer
        self.sink = sink
        self.sim = sim
        self.began = sim.now if sim is not None else None

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self.gen.send, None)

    def send(self, value):
        return self._resume(self.gen.send, value)

    def throw(self, *exc_info):
        return self._resume(self.gen.throw, *exc_info)

    def close(self):
        self.tracer.enter(self.layer)
        try:
            self.gen.close()
        finally:
            self.tracer.leave()

    def _resume(self, resume, *args):
        tracer = self.tracer
        tracer.enter(self.layer)
        try:
            return resume(*args)
        except StopIteration:
            if self.sink is not None:
                self.sink.append(self.sim.now - self.began)
            raise
        finally:
            tracer.leave()


_LAYER_OF_CODE = {}


def layer_of(code):
    """The layer a code object belongs to: its repro package."""
    layer = _LAYER_OF_CODE.get(code)
    if layer is None:
        path = code.co_filename.replace("\\", "/")
        index = path.rfind(_MARKER)
        package = path[index + len(_MARKER):].split("/", 1)[0] \
            if index >= 0 else ""
        layer = package if package in LAYERS else "other"
        _LAYER_OF_CODE[code] = layer
    return layer


def _wrap(tracer, function, name, layer):
    import inspect

    from repro.sim.engine import Event

    sink = (tracer.sim_durations[SIM_TIMED[name]] if name in SIM_TIMED
            else None)
    calls = tracer.calls
    if inspect.isgeneratorfunction(function):
        def traced(*args, **kwargs):
            calls[name] += 1
            sim = args[0].sim if sink is not None else None
            return Traced(tracer, function(*args, **kwargs), layer, sink, sim)
        return traced

    def traced(*args, **kwargs):
        calls[name] += 1
        tracer.enter(layer)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.leave()
        if sink is not None and isinstance(result, Event):
            # Appended before the caller's own waiter, and it only reads
            # the clock, so the event's other callbacks run unchanged.
            began = result.sim.now
            result.callbacks.append(
                lambda event: sink.append(event.sim.now - began))
        return result
    return traced


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def install(tracer):
    """Patch the simulator so every resume and entry call reports to
    ``tracer``.  Irreversible: call it only in a throwaway process."""
    import importlib

    from repro.sim.engine import Process, Simulator

    init = Process.__init__

    def process_init(self, sim, generator):
        tracer.processes += 1
        if not isinstance(generator, Traced):
            code = getattr(generator, "gi_code", None)
            generator = Traced(tracer, generator,
                               layer_of(code) if code else "other")
        init(self, sim, generator)

    step = Simulator.step

    def simulator_step(self):
        tracer.enter("sim")
        try:
            step(self)
        finally:
            tracer.leave()

    Process.__init__ = process_init
    Simulator.step = simulator_step
    for module_name, class_name, methods, layer in ENTRIES:
        base = getattr(importlib.import_module(module_name), class_name)
        for cls in _subclasses(base):
            for method in methods:
                if method in vars(cls):
                    setattr(cls, method,
                            _wrap(tracer, vars(cls)[method],
                                  "%s.%s" % (class_name, method), layer))
    for module_name, function_name, layer in FUNCTIONS:
        original = getattr(importlib.import_module(module_name),
                           function_name)
        traced = _wrap(tracer, original,
                       "%s.%s" % (module_name.rsplit(".", 1)[1],
                                  function_name), layer)
        for module in list(sys.modules.values()):
            if getattr(module, function_name, None) is original:
                setattr(module, function_name, traced)
