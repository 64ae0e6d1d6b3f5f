"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Interrupted, SimulationError, Simulator, StopSimulation

from conftest import run_process


class TestClockAndTimeouts:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        run_process(sim, self._sleep(sim, 2.5))
        assert sim.now == 2.5

    @staticmethod
    def _sleep(sim, delay):
        yield sim.timeout(delay)

    def test_timeouts_fire_in_order(self, sim):
        log = []

        def waiter(delay, name):
            yield sim.timeout(delay)
            log.append(name)

        sim.process(waiter(3.0, "c"))
        sim.process(waiter(1.0, "a"))
        sim.process(waiter(2.0, "b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_same_instant_fifo(self, sim):
        """Events at the same instant fire in schedule order."""
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda _s, n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_run_until_stops_early(self, sim):
        done = []

        def late():
            yield sim.timeout(10.0)
            done.append(True)

        sim.process(late())
        sim.run(until=5.0)
        assert sim.now == 5.0
        assert not done

    def test_run_until_then_continue(self, sim):
        done = []

        def late():
            yield sim.timeout(10.0)
            done.append(True)

        sim.process(late())
        sim.run(until=5.0)
        sim.run()
        assert done == [True]
        assert sim.now == 10.0

    def test_run_until_beyond_queue_advances_clock(self, sim):
        sim.process(self._sleep(sim, 1.0))
        sim.run(until=100.0)
        assert sim.now == 100.0


class TestEvents:
    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed("payload")
        value = run_process(sim, self._wait(event))
        assert value == "payload"

    @staticmethod
    def _wait(event):
        result = yield event
        return result

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_raises_in_waiter(self, sim):
        event = sim.event()
        event.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            run_process(sim, self._wait(event))

    def test_fail_requires_exception(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")

    def test_wait_on_already_processed_event(self, sim):
        """A process can wait on an event that fired long ago."""
        event = sim.event()
        event.succeed(41)
        sim.run()
        assert event.processed
        value = run_process(sim, self._wait(event))
        assert value == 41


class TestProcesses:
    def test_return_value_propagates(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "result"

        def parent():
            value = yield sim.process(child())
            return value + "!"

        assert run_process(sim, parent()) == "result!"

    def test_exception_propagates_to_waiter(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise RuntimeError("child died")

        def parent():
            yield sim.process(child())

        with pytest.raises(RuntimeError, match="child died"):
            run_process(sim, parent())

    def test_unwaited_failure_surfaces(self, sim):
        def doomed():
            yield sim.timeout(1.0)
            raise RuntimeError("nobody is listening")

        sim.process(doomed())
        with pytest.raises(RuntimeError, match="nobody is listening"):
            sim.run()

    def test_yield_non_event_is_error(self, sim):
        def bad():
            yield "soon"

        with pytest.raises(SimulationError):
            run_process(sim, bad())

    def test_negative_delay_is_error(self, sim):
        for delay in (-1e-9, -3):
            def bad(delay=delay):
                yield delay

            with pytest.raises(SimulationError, match="negative delay"):
                run_process(sim, bad())

    def test_bare_delay_sleeps_like_a_timeout(self, sim):
        log = []

        def sleeper(name, delay):
            value = yield delay
            log.append((sim.now, name, value))

        sim.process(sleeper("float", 2.5))
        sim.process(sleeper("int", 1))
        sim.process(sleeper("zero", 0.0))
        sim.run()
        assert log == [(0.0, "zero", None), (1.0, "int", None),
                       (2.5, "float", None)]
        # three starts, three wakes and three finishes; no timeouts
        assert sim.processed_events == 9

    def test_interrupted_bare_sleep_leaves_a_stale_entry(self, sim):
        """The heap entry of a bare sleep cut short by an interrupt
        still fires at its due time: it counts as a processed event and
        does nothing, even after the process slept again past it and
        woke at the same instant."""
        log = []

        def sleeper():
            try:
                yield 5.0
            except Interrupted:
                log.append(("interrupted", sim.now))
            yield 4.0  # due at 5.0 too, scheduled after the stale entry
            log.append(("woke", sim.now))
            yield 2.0
            log.append(("woke", sim.now))

        process = sim.process(sleeper())
        sim.schedule(1.0, lambda _s: process.interrupt())
        sim.run()
        assert log == [("interrupted", 1.0), ("woke", 5.0), ("woke", 7.0)]
        # start, the schedule() callback, the interrupt, the stale
        # entry, two wakes and the finish
        assert sim.processed_events == 7
        assert not process._stale

    def test_interrupt_wakes_process(self, sim):
        caught = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupted as interrupt:
                caught.append((sim.now, interrupt.cause))

        process = sim.process(sleeper())
        sim.schedule(1.0, lambda _s: process.interrupt("power cut"))
        sim.run()
        assert caught == [(1.0, "power cut")]

    def test_process_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_interrupt_before_first_resume_throws_into_unstarted_generator(
            self, sim):
        """Interrupted in the instant it was created, a child never runs
        its body: its start is cancelled and the exception is thrown in
        before its first line, so it cannot sleep on a stale timer."""
        log = []

        def child():
            log.append("started")
            try:
                yield sim.timeout(1.0)
            except Interrupted:
                yield sim.timeout(5.0)
            log.append(("woke", sim.now))

        def parent():
            process = sim.process(child())
            process.interrupt("early")
            try:
                yield process
            except Interrupted as interrupt:
                log.append(("interrupted", sim.now, interrupt.cause))

        sim.process(parent())
        sim.run()
        assert log == [("interrupted", 0.0, "early")]
        assert sim.now == 0.0

    def test_two_interrupts_in_one_instant_each_unwind_one_wait(self, sim):
        """The second interrupt unwinds the wait the first one's handler
        started; no stale timer resumes the process later."""
        log = []

        def sleeper():
            while True:
                began = sim.now
                try:
                    yield sim.timeout(5.0)
                except Interrupted as interrupt:
                    log.append(("interrupted", sim.now, interrupt.cause))
                    continue
                log.append(("slept", sim.now - began))
                return

        process = sim.process(sleeper())

        def poke(_sim):
            process.interrupt("a")
            process.interrupt("b")

        sim.schedule(1.0, poke)
        sim.run()
        assert log == [("interrupted", 1.0, "a"), ("interrupted", 1.0, "b"),
                       ("slept", 5.0)]
        assert sim.now == 6.0

    def test_cancelled_wake_never_fires_a_finished_process_early(self, sim):
        """The second interrupt cancels the wake the first one's handler
        queued; that stale entry must not pass the process's result to
        its waiters ahead of wake-ups queued before the process ended."""
        log = []
        fired = sim.event()
        fired.succeed()
        go = sim.event()

        def target():
            try:
                yield sim.timeout(5.0)
            except Interrupted:
                try:
                    yield fired
                except Interrupted:
                    go.succeed()
            return "done"

        def observer(process):
            log.append((yield process))

        def bystander():
            yield go
            log.append("bystander")

        process = sim.process(target())
        sim.process(observer(process))
        sim.process(bystander())

        def poke(_sim):
            process.interrupt("a")
            process.interrupt("b")

        sim.schedule(1.0, poke)
        sim.run()
        assert log == ["bystander", "done"]
        assert sim.now == 5.0

    def test_cancelled_start_still_counts_as_a_processed_event(self, sim):
        def child():
            yield sim.timeout(1.0)

        def parent():
            process = sim.process(child())
            process.interrupt()
            try:
                yield process
            except Interrupted:
                pass

        sim.process(parent())
        sim.run()
        # parent start, child's cancelled start, the interrupt, the
        # child's failure reaching parent, the parent's finish
        assert sim.processed_events == 5


class TestCompositeEvents:
    def test_all_of_waits_for_every_child(self, sim):
        def worker(delay):
            yield sim.timeout(delay)
            return delay

        def parent():
            children = [sim.process(worker(d)) for d in (3.0, 1.0, 2.0)]
            values = yield sim.all_of(children)
            return values

        assert run_process(sim, parent()) == [3.0, 1.0, 2.0]
        assert sim.now == 3.0

    def test_all_of_empty_fires_immediately(self, sim):
        def parent():
            values = yield sim.all_of([])
            return values

        assert run_process(sim, parent()) == []

    def test_all_of_fails_fast(self, sim):
        def ok():
            yield sim.timeout(5.0)

        def bad():
            yield sim.timeout(1.0)
            raise ValueError("first failure")

        def parent():
            yield sim.all_of([sim.process(ok()), sim.process(bad())])

        with pytest.raises(ValueError, match="first failure"):
            run_process(sim, parent())

    def test_any_of_returns_first(self, sim):
        def worker(delay, name):
            yield sim.timeout(delay)
            return name

        def parent():
            index, value = yield sim.any_of(
                [sim.process(worker(2.0, "slow")),
                 sim.process(worker(1.0, "fast"))])
            return index, value, sim.now

        assert run_process(sim, parent()) == (1, "fast", 1.0)


class TestStopSimulation:
    def test_stop_halts_run(self, sim):
        log = []

        def stopper(_s):
            raise StopSimulation()

        sim.schedule(1.0, lambda _s: log.append("early"))
        sim.schedule(2.0, stopper)
        sim.schedule(3.0, lambda _s: log.append("late"))
        sim.run()
        assert log == ["early"]
        assert sim.now == 2.0
        assert sim.stopped

    def test_determinism_across_runs(self):
        """Two identical simulations produce identical event traces."""
        def trace():
            sim = Simulator()
            log = []

            def worker(name, delay):
                for i in range(3):
                    yield sim.timeout(delay)
                    log.append((sim.now, name, i))

            sim.process(worker("x", 1.5))
            sim.process(worker("y", 1.0))
            sim.run()
            return log

        assert trace() == trace()
