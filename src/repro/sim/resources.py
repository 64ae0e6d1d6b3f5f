"""Synchronisation primitives for simulation processes.

These mirror the usual concurrency toolbox: a counted :class:`Resource`
(semaphore with FIFO fairness), a :class:`Store` (unbounded FIFO queue of
items), and a :class:`Mutex` convenience wrapper.
"""

from collections import deque

from .engine import _PROCESSED, Event, SimulationError


class Resource:
    """A capacity-limited resource acquired and released by processes.

    Usage inside a process::

        grant = yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim, capacity=1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters = deque()
        # What acquire() returns on a free unit: an already-processed
        # event whose value is the resource.  Yielding it queues the
        # acquirer at once, where a fresh grant event would have gone.
        self._grant = Event(sim)
        self._grant._value = self
        self._grant._state = _PROCESSED

    @property
    def in_use(self):
        return self._in_use

    @property
    def queue_length(self):
        return len(self._waiters)

    def acquire(self):
        """Return an event that fires when a unit is granted.

        Yield it at once: a free unit is granted on the spot, as an
        already-processed event, so the acquirer resumes in the same
        schedule slot a fresh grant event would have fired in.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._grant
        event = Event(self.sim)
        self._waiters.append(event)
        return event

    def release(self):
        """Return one unit; hands it to the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed(self)
        else:
            self._in_use -= 1

    def cancel(self, event):
        """Withdraw an acquire request, or release it if already granted.

        A process interrupted while waiting on :meth:`acquire` leaves its
        event queued; a later :meth:`release` would hand the unit to that
        dead waiter and leak it forever.  ``cancel`` makes an abandoned
        acquire safe either way: a still-queued request is simply removed,
        a granted one is released back.
        """
        if event.triggered:
            self.release()
        else:
            try:
                self._waiters.remove(event)
            except ValueError:
                pass

    def acquire_guarded(self):
        """Generator: acquire a unit, withdrawing the request on interrupt.

        Use with ``yield from`` inside a process that may be interrupted
        (aborted commands, device resets) while queued for the resource::

            yield from resource.acquire_guarded()
            try:
                ...
            finally:
                resource.release()
        """
        grant = self.acquire()
        try:
            yield grant
        except BaseException:
            self.cancel(grant)
            raise


class Mutex(Resource):
    """A Resource of capacity one."""

    def __init__(self, sim):
        super().__init__(sim, capacity=1)


class Store:
    """An unbounded FIFO channel between producer and consumer processes."""

    def __init__(self, sim):
        self.sim = sim
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        """Deposit an item; wakes the longest-waiting getter immediately."""
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item)
        else:
            self._items.append(item)

    def get(self):
        """Return an event that fires with the next item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def peek_all(self):
        """A snapshot list of queued items (for introspection in tests)."""
        return list(self._items)
