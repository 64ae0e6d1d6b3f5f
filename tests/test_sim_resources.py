"""Unit tests for Resource, Mutex and Store."""

import pytest

from repro.devices import WRITE, IORequest, make_durassd
from repro.flash import FlashArray, FlashGeometry, FlashTiming
from repro.host import SataNcq
from repro.sim import Interrupted, Resource, SimulationError, Store

from conftest import run_process


class TestResource:
    def test_capacity_grants_immediately(self, sim):
        resource = Resource(sim, capacity=2)

        def worker():
            yield resource.acquire()
            return sim.now

        assert run_process(sim, worker()) == 0.0

    def test_contention_serialises(self, sim):
        resource = Resource(sim, capacity=1)
        log = []

        def worker(name, hold):
            yield resource.acquire()
            try:
                yield sim.timeout(hold)
                log.append((sim.now, name))
            finally:
                resource.release()

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 1.0))
        sim.run()
        assert log == [(2.0, "a"), (3.0, "b")]

    def test_fifo_fairness(self, sim):
        resource = Resource(sim, capacity=1)
        order = []

        def worker(name):
            yield resource.acquire()
            try:
                order.append(name)
                yield sim.timeout(1.0)
            finally:
                resource.release()

        for name in ("first", "second", "third"):
            sim.process(worker(name))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_release_without_acquire_is_error(self, sim):
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_queue_length_reporting(self, sim):
        resource = Resource(sim, capacity=1)
        resource.acquire()
        resource.acquire()
        resource.acquire()
        assert resource.in_use == 1
        assert resource.queue_length == 2

    def test_bad_capacity_rejected(self, sim):
        with pytest.raises(SimulationError):
            Resource(sim, capacity=0)


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("item")

        def consumer():
            value = yield store.get()
            return value

        assert run_process(sim, consumer()) == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        arrived = []

        def consumer():
            value = yield store.get()
            arrived.append((sim.now, value))

        def producer():
            yield sim.timeout(5.0)
            store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert arrived == [(5.0, "late")]

    def test_fifo_order(self, sim):
        store = Store(sim)
        for item in (1, 2, 3):
            store.put(item)
        received = []

        def consumer():
            for _ in range(3):
                value = yield store.get()
                received.append(value)

        run_process(sim, consumer())
        assert received == [1, 2, 3]

    def test_len_and_peek(self, sim):
        store = Store(sim)
        store.put("x")
        store.put("y")
        assert len(store) == 2
        assert store.peek_all() == ["x", "y"]


class TestImmediateGrant:
    """A free unit is granted on the spot: ``acquire()`` returns an
    already-processed event, and yielding it queues the acquirer where
    a fresh grant event would have fired."""

    def test_uncontended_acquire_is_a_processed_grant(self, sim):
        resource = Resource(sim, capacity=2)
        grant = resource.acquire()
        assert grant.processed and grant.triggered and grant.ok
        assert grant.value is resource
        assert resource.in_use == 1
        waiter = Resource(sim, capacity=1)
        waiter.acquire()
        queued = waiter.acquire()
        assert not queued.triggered

    def test_grant_resumes_in_schedule_order(self, sim):
        """The grant wake goes behind everything already due now."""
        resource = Resource(sim, capacity=1)
        log = []

        def early():
            log.append("early")
            yield sim.timeout(0.0)

        def acquirer():
            sim.process(early())
            value = yield resource.acquire()
            log.append(("granted", value is resource))
            resource.release()

        run_process(sim, acquirer())
        assert log == ["early", ("granted", True)]


def _flash(op):
    def start(sim):
        array = FlashArray(sim, FlashGeometry(), FlashTiming(), lanes=2)
        return (getattr(array, op)(3),
                array._lane_resources[array.lane_of_page(3)])
    return start


def _guarded(sim):
    resource = Resource(sim, capacity=1)

    def holder():
        yield from resource.acquire_guarded()
        try:
            yield 1.0
        finally:
            resource.release()
    return holder(), resource


def _link(sim):
    device = make_durassd(sim)
    request = IORequest(WRITE, 0, 1, payload=["x"])
    return device.serve(request), device._link


def _ncq_slot(sim):
    queue = SataNcq(sim, make_durassd(sim), depth=1)
    request = IORequest(WRITE, 0, 1, payload=["x"])
    return queue.serve(request), queue._slots


#: every guarded acquire: the generator and the inlined per-command ones
ACQUIRERS = {
    "acquire_guarded": _guarded,
    "device link": _link,
    "ncq slot": _ncq_slot,
    "flash program": _flash("program"),
    "flash read": _flash("read"),
}


class TestGuardedAcquireUnderInterrupt:
    """An interrupted acquirer gives its unit back exactly once, whether
    it was granted (a free unit is taken without yielding, so the
    interrupt finds it holding the unit) or still waiting (then it only
    leaves the queue: the holder and the waiters ahead of it keep their
    places)."""

    @pytest.mark.parametrize("name", sorted(ACQUIRERS))
    @pytest.mark.parametrize("contended", [False, True])
    def test_unit_released_once_and_next_waiter_served(self, sim, name,
                                                        contended):
        acquirer, resource = ACQUIRERS[name](sim)
        outcome, granted = [], []

        def blocker():
            yield resource.acquire()
            yield sim.timeout(0.5)
            resource.release()

        def user(delay):
            if delay:
                yield sim.timeout(delay)
            yield from resource.acquire_guarded()
            granted.append(sim.now)
            yield sim.timeout(0.1)
            resource.release()

        def victim():
            try:
                yield from acquirer
            except Interrupted:
                outcome.append((sim.now, "interrupted"))

        def interrupter(process):
            # Runs after the victim's start: it holds the unit or waits.
            process.interrupt("abort")
            yield sim.timeout(0.0)

        if contended:
            sim.process(blocker())
            sim.process(user(0.0))  # queued ahead of the victim
        process = sim.process(victim())
        sim.process(interrupter(process))
        sim.process(user(1.0))
        sim.run()
        assert outcome == [(0.0, "interrupted")]
        assert granted == ([0.5, 1.0] if contended else [1.0])
        assert resource.in_use == 0 and resource.queue_length == 0
