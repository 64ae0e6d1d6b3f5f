"""A small discrete-event simulation kernel.

The kernel follows the familiar generator-coroutine style: a *process*
is a Python generator that ``yield``s :class:`Event` objects and is
resumed when they fire.  A process may also ``yield`` a bare
non-negative number: it sleeps that many simulated seconds, exactly as
if it had yielded ``sim.timeout(delay)``, but without building an
event.  ``sim.timeout()`` stays for the delays that are raced or
awaited as events (deadlines, :class:`AnyOf`, ``run_until``).  The
kernel is deliberately minimal — just enough to model an I/O stack —
and fully deterministic: events scheduled for the same instant fire in
schedule order.

The queue has two parts.  A wake-up due at the current instant (a
zero-delay trigger, a process start, a resume after an already-fired
event) goes on a FIFO; any later one goes on a heap ordered by
``(time, schedule order)``.  When the clock advances, the heap entries
due at the new instant move to the FIFO in schedule order, ahead of
anything pushed from then on, so the two parts together fire exactly
in ``(time, schedule order)``.

Same-instant order is deterministic for a given program: one seeded
world always fires the same entries in the same order.  It is not
promised across a refactor that drops entries — a process spawned only
to be awaited, a hop on an already-fired event — since the entries left
then fire in a new order within an instant.  What such a change must
keep is what the model computes: every device command and completion
time, every simulated number and the final clock (the schedule,
command-order and trace pins of the test suite), while the count of
processed entries may fall.

The hot paths are written out inline: events, timeouts and processes
push themselves onto the queue, and :meth:`Simulator.run` pops the
entries due now without calling :meth:`Simulator.step`.  Both fall back
to the methods while a :class:`~repro.sim.profiler.SimProfiler` (or any
other hook on ``step``) is attached, so it still sees every push and
every pop.  Neither changes which entries exist or their order.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield delay
...     log.append((sim.now, name))
>>> p1 = sim.process(worker(sim, 'a', 2.0))
>>> p2 = sim.process(worker(sim, 'b', 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from collections import deque
from heapq import heappop, heappush
from itertools import count

from ..telemetry.hub import Telemetry


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class StopSimulation(Exception):
    """Raised inside a callback to halt :meth:`Simulator.run` immediately.

    The power-failure injector uses this to freeze the simulated world at
    the instant the power is cut.
    """


_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* (with a value or an exception) exactly once;
    at its scheduled instant it becomes *processed* and its callbacks run.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING

    @property
    def triggered(self):
        return self._state >= _TRIGGERED

    @property
    def processed(self):
        return self._state == _PROCESSED

    @property
    def ok(self):
        """True when the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self):
        """The value (or exception) the event was triggered with."""
        return self._value

    def succeed(self, value=None, delay=0.0):
        """Trigger the event successfully, firing after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        sim = self.sim
        if delay or sim._profiler is not None:
            sim._push(self, delay)
        else:
            sim._queue.append(self)
        return self

    def fail(self, exception, delay=0.0):
        """Trigger the event with an exception to be thrown into waiters."""
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._state = _TRIGGERED
        self.sim._push(self, delay)
        return self

    def _process(self):
        self._state = _PROCESSED
        callbacks = self.callbacks
        if callbacks:
            self.callbacks = []
            for callback in callbacks:
                callback(self)


#: The wake a new process is queued with: an already-processed outcome of
#: ``None``, so starting the generator is resuming it with ``send(None)``.
_START = Event(None)
_START._state = _PROCESSED

#: The wake of a process sleeping on a bare delay: the same outcome,
#: told apart so an interrupt knows the entry is due at ``_due``.
_SLEEP = Event(None)
_SLEEP._state = _PROCESSED


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise SimulationError("negative timeout: %r" % delay)
        # Timeouts are the most common event: set the fields and push
        # here rather than through Event.__init__ and Simulator._push.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        if sim._profiler is not None:
            sim._push(self, delay)
            return
        now = sim.now
        when = now + delay
        if when == now:
            sim._queue.append(self)
        else:
            heappush(sim._heap, (when, next(sim._sequence), self))


class Interrupted(Exception):
    """Thrown into a process that was interrupted.

    ``cause`` carries whatever the interrupter supplied (for example the
    power-failure record).
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Runs a generator, resuming it whenever the yielded event fires.

    The process itself is an event: it triggers with the generator's
    return value, or fails with its uncaught exception, so processes can
    wait on each other.

    It is also its own queue entry.  While the process is alive, an entry
    *wakes* it, resuming the generator with the outcome held in
    ``_wake``: :data:`_START` for the first resume, :data:`_SLEEP` after
    a bare delay, or the event yielded when that event had already
    fired.  Once the process has finished, its entry fires its waiters
    as any event's does.
    """

    __slots__ = ("_generator", "_waiting_on", "_wake", "_due", "_stale",
                 "span")

    def __init__(self, sim, generator):
        if not hasattr(generator, "send"):
            raise SimulationError("process requires a generator, got %r" % (generator,))
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING
        self._generator = generator
        self._waiting_on = None
        # When a bare-delay sleep is due.
        self._due = 0.0
        # Due times of queued wakes that interrupt() cancelled; each
        # still fires (and counts as a processed event) but does nothing.
        self._stale = None
        # Telemetry span context: a spawned process inherits the span of
        # whoever spawned it, so causality follows process fan-out.
        creator = sim._active_process
        self.span = creator.span if creator is not None \
            else sim.telemetry._ambient
        # Start at the current instant (deterministically ordered).
        self._wake = _START
        if sim._profiler is None:
            sim._queue.append(self)
        else:
            sim._push(self, 0.0)

    @property
    def is_alive(self):
        return self._state == _PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupted` into the process at the current instant.

        The process is stopped at once: a queued wake is cancelled and it
        is unhooked from the event it waits on, so nothing resumes it
        before the interrupt arrives.  The interrupt arrives as a queue
        entry of its own, in schedule order.  A process that has not
        started yet gets the exception before running any of its code.
        """
        if self._state != _PENDING:
            return
        self._unhook()
        poke = Event(self.sim)
        poke.callbacks.append(lambda event: self._deliver(Interrupted(cause)))
        poke.succeed()

    def _unhook(self):
        """Make sure no queued wake or waited-on event resumes the process."""
        wake = self._wake
        if wake is not None:
            self._wake = None
            # Every other wake is queued on the FIFO, due now.
            due = self._due if wake is _SLEEP else self.sim.now
            if self._stale is None:
                self._stale = [due]
            else:
                self._stale.append(due)
        target = self._waiting_on
        if target is not None:
            self._waiting_on = None
            if self._resume in target.callbacks:
                target.callbacks.remove(self._resume)

    def _deliver(self, exception):
        if self._state != _PENDING:
            return
        # An interrupt delivered earlier in this instant may have let the
        # process wait again; this one unwinds that wait.
        self._unhook()
        self._throw(exception)

    def _stale_at(self, when):
        """True when the process's entry firing at ``when`` is a wake
        that :meth:`interrupt` cancelled.  A cancelled wake is always
        older than any live entry due at the same instant (the process
        queues again only after it was cancelled), so the first entry
        to fire at a cancelled wake's due time is that wake."""
        stale = self._stale
        return bool(stale) and when in stale

    def _process(self):
        stale = self._stale
        if stale and self.sim.now in stale:
            stale.remove(self.sim.now)
        elif self._state == _PENDING:
            wake = self._wake
            self._wake = None
            self._resume(wake)
        else:
            # Finished: fire the waiters, as Event._process does.
            self._state = _PROCESSED
            callbacks = self.callbacks
            if callbacks:
                self.callbacks = []
                for callback in callbacks:
                    callback(self)

    def _throw(self, exception):
        sim = self.sim
        previous = sim._active_process
        sim._active_process = self
        try:
            try:
                result = self._generator.throw(exception)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into waiters
                self._terminate(exc)
                return
        finally:
            sim._active_process = previous
        self._wait_on(result)

    def _resume(self, event):
        self._waiting_on = None
        sim = self.sim
        previous = sim._active_process
        sim._active_process = self
        try:
            try:
                if event._ok:
                    result = self._generator.send(event._value)
                else:
                    result = self._generator.throw(event._value)
            except StopIteration as stop:
                # self.succeed(stop.value), written out.
                self._value = stop.value
                self._state = _TRIGGERED
                if sim._profiler is None:
                    sim._queue.append(self)
                else:
                    sim._push(self, 0.0)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into waiters
                self._terminate(exc)
                return
        finally:
            sim._active_process = previous
        if result.__class__ is float and result >= 0.0:
            # A bare delay, inline: the process is its own timer entry.
            now = sim.now
            when = now + result
            self._wake = _SLEEP
            self._due = when
            if sim._profiler is not None:
                sim._push(self, result)
            elif when == now:
                sim._queue.append(self)
            else:
                heappush(sim._heap, (when, next(sim._sequence), self))
        elif not isinstance(result, Event):
            self._wait_on(result)
        elif result._state != _PROCESSED:
            # The common case, inline: wait on an event yet to fire.
            result.callbacks.append(self._resume)
            self._waiting_on = result
        else:
            # Already fired (an immediate resource grant, say): queue
            # the process itself, as _wait_on does.
            self._wake = result
            if sim._profiler is None:
                sim._queue.append(self)
            else:
                sim._push(self, 0.0)

    def _wait_on(self, result):
        if not isinstance(result, Event):
            if result.__class__ in (int, float) and result >= 0:
                self._wake = _SLEEP
                self._due = self.sim.now + result
                self.sim._push(self, result)
            elif result.__class__ in (int, float):
                self._throw(SimulationError("negative delay: %r" % (result,)))
            elif hasattr(result, "send"):
                self._throw(SimulationError(
                    "process yielded a generator, %r: serve it in this "
                    "process with 'yield from', or start it with "
                    "sim.process() and yield that" % (result,)))
            else:
                self._throw(SimulationError(
                    "process yielded neither an event nor a delay: %r"
                    % (result,)))
            return
        if result._state == _PROCESSED:
            # Already fired: queue the process itself to resume with the
            # same outcome, so ordering stays deterministic.
            self._wake = result
            self.sim._push(self, 0.0)
        else:
            result.callbacks.append(self._resume)
            self._waiting_on = result

    def _terminate(self, exc):
        if self.callbacks or isinstance(exc, StopSimulation):
            self.fail(exc)
        else:
            # Nobody is waiting on this process; surfacing the error at
            # the simulator level beats swallowing it.
            raise exc


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim, events):
        super().__init__(sim)
        self._children = list(events)
        self._remaining = 0
        for event in self._children:
            if not isinstance(event, Event):
                raise SimulationError("AllOf requires events, got %r" % (event,))
        pending = [event for event in self._children if not event.processed]
        self._remaining = len(pending)
        if not self._remaining:
            self._finish()
        else:
            for event in pending:
                event.callbacks.append(self._child_done)

    def _child_done(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if not self._remaining:
            self._finish()

    def _finish(self):
        for event in self._children:
            if not event._ok:
                self.fail(event._value)
                return
        self.succeed([event._value for event in self._children])


class AnyOf(Event):
    """Fires with (index, value) of the first child event to fire."""

    __slots__ = ("_children",)

    def __init__(self, sim, events):
        super().__init__(sim)
        self._children = list(events)
        done = [e for e in self._children if e.processed]
        if done:
            first = done[0]
            index = self._children.index(first)
            if first._ok:
                self.succeed((index, first._value))
            else:
                self.fail(first._value)
            return
        for event in self._children:
            event.callbacks.append(self._child_done)

    def _child_done(self, event):
        if self.triggered:
            return
        index = self._children.index(event)
        if event._ok:
            self.succeed((index, event._value))
        else:
            self.fail(event._value)


class Simulator:
    """The event loop: a clock plus a queue of triggered events.

    ``telemetry`` is the observability hub every layer reports into
    (:mod:`repro.telemetry`); when omitted a disabled hub is installed,
    whose calls all short-circuit — the simulation behaves identically
    with telemetry absent, disabled or enabled.
    """

    def __init__(self, telemetry=None):
        self.now = 0.0
        # Entries due now, in schedule order; later ones on the heap.
        self._queue = deque()
        self._heap = []
        self._sequence = count()
        self._stopped = False
        self._active_process = None
        # Determinism fingerprint: two runs of the same seeded world must
        # process the same number of events in the same order.  It counts
        # queue entries: one per wake-up, cancelled ones included.  Replay
        # harnesses compare this cheap counter to detect divergence.
        self.processed_events = 0
        # Probe-sampling hook: armed only when an enabled hub has probes
        # registered, so the common path pays one None check per step.
        self._tick = None
        # Self-profiler seam: a SimProfiler attaches by *replacing*
        # step/_push with instance-level overrides.  The kernel pushes
        # inline and run() pops inline until one is attached; from then
        # on every push goes through _push and every pop through step.
        self._profiler = None
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry(enabled=False)
        self.telemetry._bind(self)
        if self.telemetry.profiler is not None:
            self.telemetry.profiler.attach(self)
        if self.telemetry.probes:
            self._arm_telemetry_tick()

    @property
    def active_process(self):
        """The process whose generator is currently executing, if any."""
        return self._active_process

    @property
    def due_now(self):
        """True while other entries are due at the current instant: a
        process that yields ``0.0`` then resumes after all of them."""
        return bool(self._queue)

    def _arm_telemetry_tick(self):
        self._tick = self.telemetry._on_clock_advance
        if self._profiler is not None:
            # The profiler charges probe sampling to telemetry, not to
            # the event whose step advanced the clock.
            self._tick = self._profiler._timed_tick(self._tick)

    # --- scheduling -----------------------------------------------------
    def _push(self, event, delay):
        now = self.now
        when = now + delay
        if when == now:
            # Due now (a delay can vanish in the float addition): after
            # everything already queued for this instant.
            self._queue.append(event)
        else:
            heappush(self._heap, (when, next(self._sequence), event))

    def schedule(self, delay, callback):
        """Run ``callback(sim)`` after ``delay``; returns the underlying event."""
        event = Event(self)
        event.callbacks.append(lambda _event: callback(self))
        event.succeed(delay=delay)
        return event

    # --- factories ------------------------------------------------------
    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def process(self, generator):
        return Process(self, generator)

    def all_of(self, events):
        return AllOf(self, events)

    def any_of(self, events):
        return AnyOf(self, events)

    # --- execution ------------------------------------------------------
    def peek(self):
        """Time of the next event, or None when the queue is empty."""
        if self._queue:
            return self.now
        return self._heap[0][0] if self._heap else None

    def _next_event(self):
        """The entry the next :meth:`step` processes, or None when idle."""
        if self._queue:
            return self._queue[0]
        return self._heap[0][2] if self._heap else None

    def step(self):
        """Process exactly one event."""
        queue = self._queue
        if queue:
            event = queue.popleft()
        else:
            heap = self._heap
            when, _seq, event = heappop(heap)
            # The rest of this instant's heap entries go to the FIFO in
            # schedule order: they were pushed at an earlier clock, so
            # they precede every push made from here on.
            while heap and heap[0][0] == when:
                queue.append(heappop(heap)[2])
            if self._tick is not None and when > self.now:
                # Sample telemetry probes at every grid instant the clock
                # is about to jump over.  State is constant between
                # events, so this observes without adding events or
                # perturbing anything.
                self._tick(when)
            self.now = when
        self.processed_events += 1
        event._process()

    def _pops_inline(self):
        """True while :meth:`step` is the kernel's own: run loops may
        then pop entries due now themselves.  A hooked step (the
        profiler's instance override, a tracer's class patch) must see
        every entry, so the loops call it for each one."""
        return getattr(self.step, "__func__", None) is _STEP

    def run(self, until=None):
        """Run until the queue drains or the clock passes ``until``.

        A callback raising :class:`StopSimulation` halts the run at the
        current instant (used by the power-failure injector); the
        exception is absorbed and :meth:`run` returns normally.
        """
        self._stopped = False
        if until is not None:
            # The clock stays a float: ``run(until=5)`` must not leave
            # an int ``now`` for the telemetry log to read back as 5.0.
            until = float(until)
        step = self.step
        queue = self._queue
        heap = self._heap
        inline = self._pops_inline()
        try:
            while queue or heap:
                if queue:
                    if inline:
                        # step() on a non-empty FIFO, minus the call.
                        self.processed_events += 1
                        queue.popleft()._process()
                        continue
                elif until is not None and heap[0][0] > until:
                    if self._tick is not None and until > self.now:
                        self._tick(until)
                    self.now = until
                    return
                step()
        except StopSimulation:
            self._stopped = True
        if until is not None and self.now < until and not self._stopped:
            if self._tick is not None:
                self._tick(until)
            self.now = until

    def run_until(self, event):
        """Run until ``event`` is processed (for worlds with perpetual
        background processes that would keep :meth:`run` spinning).

        Raises if the queue drains first, or re-raises the event's
        exception when it failed.
        """
        self._stopped = False
        step = self.step
        queue = self._queue
        heap = self._heap
        inline = self._pops_inline()
        try:
            while event._state != _PROCESSED:
                if queue and inline:
                    self.processed_events += 1
                    queue.popleft()._process()
                elif queue or heap:
                    step()
                else:
                    raise SimulationError("queue drained before the event fired")
        except StopSimulation:
            self._stopped = True
            return
        if not event._ok:
            raise event._value

    @property
    def stopped(self):
        """True when the last run() was halted by StopSimulation."""
        return self._stopped


#: The kernel's own step, which :meth:`Simulator._pops_inline` compares
#: the bound step against.
_STEP = Simulator.step
