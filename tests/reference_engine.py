"""A reference event kernel: heap-only scheduling, one event per wake-up.

This is the kernel of :mod:`repro.sim.engine` as it was before processes
started queueing themselves and same-instant wake-ups moved to a FIFO:
every triggered event, process bootstrap and already-fired relay is one
``(time, sequence, event)`` entry on a binary heap, and a process that
yields a bare delay waits on a :class:`Timeout` of that delay.  It keeps only what
ordering depends on (no telemetry, profiler or interrupts) and exists so
``tests/test_sim_order.py`` can check that the production kernel fires
every wake-up in the same order.
"""

import heapq
from itertools import count

from repro.sim import resources
from repro.sim.engine import SimulationError

_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


class Event:
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
        return self._ok

    @property
    def value(self):
        return self._value

    def succeed(self, value=None, delay=0.0):
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        self.sim._push(self, delay)
        return self

    def fail(self, exception, delay=0.0):
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        self._value = exception
        self._ok = False
        self._state = _TRIGGERED
        self.sim._push(self, delay)
        return self

    def _process(self):
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise SimulationError("negative timeout: %r" % delay)
        super().__init__(sim)
        self._value = value
        self._state = _TRIGGERED
        sim._push(self, delay)


class Process(Event):
    def __init__(self, sim, generator):
        super().__init__(sim)
        self._generator = generator
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, event):
        try:
            if event._ok:
                result = self._generator.send(event._value)
            else:
                result = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            if not self.callbacks:
                raise
            self.fail(exc)
            return
        if isinstance(result, (int, float)):
            result = Timeout(self.sim, result)
        if result.processed:
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            if result._ok:
                relay.succeed(result._value)
            else:
                relay.fail(result._value)
        else:
            result.callbacks.append(self._resume)


class AllOf(Event):
    def __init__(self, sim, events):
        super().__init__(sim)
        self._children = list(events)
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
    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = count()
        self.processed_events = 0

    def _push(self, event, delay):
        heapq.heappush(self._heap, (self.now + delay, next(self._sequence), event))

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

    def peek(self):
        return self._heap[0][0] if self._heap else None

    def step(self):
        when, _seq, event = heapq.heappop(self._heap)
        self.now = when
        self.processed_events += 1
        event._process()

    def run(self, until=None):
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                return
            self.step()
        if until is not None and self.now < until:
            self.now = until


class Resource(resources.Resource):
    """:class:`repro.sim.Resource`, handing out this kernel's events."""

    def acquire(self):
        event = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event
