"""Tests for the lock manager and deadlock detection."""

import pytest

from repro.db.locks import DeadlockError, LockManager
from repro.db import InnoDBConfig, InnoDBEngine
from repro.devices import make_durassd
from repro.host import FileSystem
from repro.sim import Simulator, units
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload

from conftest import run_process


class TestBasicLocking:
    def test_uncontended_grant(self, sim):
        manager = LockManager(sim)
        run_process(sim, manager.acquire("t1", "k"))
        assert manager.owner_of("k") == "t1"
        assert manager.held_by("t1") == {"k"}

    def test_reentrant(self, sim):
        manager = LockManager(sim)
        run_process(sim, manager.acquire("t1", "k"))
        run_process(sim, manager.acquire("t1", "k"))
        assert manager.counters["acquires"] == 1

    def test_contended_waits_fifo(self, sim):
        manager = LockManager(sim)
        order = []

        def worker(txn, hold):
            yield from manager.acquire(txn, "k")
            order.append(txn)
            yield sim.timeout(hold)
            manager.release(txn, "k")

        for index, txn in enumerate(("a", "b", "c")):
            sim.process(worker(txn, 0.001))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_release_requires_ownership(self, sim):
        manager = LockManager(sim)
        with pytest.raises(ValueError):
            manager.release("t1", "k")

    def test_release_all(self, sim):
        manager = LockManager(sim)
        run_process(sim, manager.acquire("t1", "a"))
        run_process(sim, manager.acquire("t1", "b"))
        manager.release_all("t1")
        assert manager.owner_of("a") is None
        assert manager.owner_of("b") is None
        assert manager.held_by("t1") == set()

    def test_release_frees_the_entry(self, sim):
        manager = LockManager(sim)
        run_process(sim, manager.acquire("t1", "k"))
        manager.release("t1", "k")
        assert manager._locks == {}
        assert manager.owner_of("k") is None
        with pytest.raises(ValueError):
            manager.release("t1", "k")
        run_process(sim, manager.acquire("t2", "k"))
        assert manager.owner_of("k") == "t2"

    def test_release_hands_off_to_waiter(self, sim):
        manager = LockManager(sim)
        run_process(sim, manager.acquire("t1", "k"))
        granted = []

        def waiter():
            yield from manager.acquire("t2", "k")
            granted.append(sim.now)

        sim.process(waiter())
        sim.schedule(0.005, lambda _s: manager.release("t1", "k"))
        sim.run()
        assert granted and granted[0] == pytest.approx(0.005)


class TestDeadlockDetection:
    def test_two_txn_cycle_detected(self, sim):
        manager = LockManager(sim)
        run_process(sim, manager.acquire("t1", "a"))
        run_process(sim, manager.acquire("t2", "b"))
        caught = []

        def t1_second():
            yield from manager.acquire("t1", "b")  # waits on t2

        def t2_second():
            try:
                yield from manager.acquire("t2", "a")  # closes the cycle
            except DeadlockError as error:
                caught.append(error)
                manager.release_all("t2")

        sim.process(t1_second())
        sim.process(t2_second())
        sim.run()
        assert len(caught) == 1
        assert manager.counters["deadlocks"] == 1
        # t1 eventually got "b" once t2 aborted
        assert manager.owner_of("b") == "t1"

    def test_three_txn_cycle_detected(self, sim):
        manager = LockManager(sim)
        for txn, key in (("t1", "a"), ("t2", "b"), ("t3", "c")):
            run_process(sim, manager.acquire(txn, key))
        caught = []

        def wait_for(txn, key):
            try:
                yield from manager.acquire(txn, key)
            except DeadlockError as error:
                caught.append((txn, error))
                manager.release_all(txn)

        sim.process(wait_for("t1", "b"))
        sim.process(wait_for("t2", "c"))
        sim.process(wait_for("t3", "a"))   # t3 -> t1 -> t2 -> t3
        sim.run()
        assert len(caught) == 1
        assert caught[0][0] == "t3"

    def test_chain_without_cycle_is_fine(self, sim):
        manager = LockManager(sim)
        run_process(sim, manager.acquire("t1", "a"))

        def t2():
            yield from manager.acquire("t2", "a")
            manager.release_all("t2")

        def t3():
            yield from manager.acquire("t3", "a")
            manager.release_all("t3")

        sim.process(t2())
        sim.process(t3())
        sim.schedule(0.001, lambda _s: manager.release_all("t1"))
        sim.run()
        assert manager.counters["deadlocks"] == 0


class TestEngineIntegration:
    def _engine(self, sim):
        data_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                             barriers=False)
        log_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                            barriers=False)
        return InnoDBEngine(sim, data_fs, log_fs,
                            InnoDBConfig(buffer_pool_bytes=2 * units.MIB))

    def test_engine_deadlock_victim_can_abort_and_retry(self, sim):
        """Two transactions locking two hot leaves in opposite order:
        one dies, aborts, retries, and both eventually commit."""
        engine = self._engine(sim)
        table = engine.create_table("t", 100_000, 200)
        # two ranks far enough apart to live on different leaves
        rank_a, rank_b = 10, 90_000
        outcomes = []

        def txn_in_order(first, second, name):
            while True:
                txn = engine.begin()
                try:
                    yield from engine.modify_rank(txn, table, first)
                    yield sim.timeout(0.002)  # widen the race window
                    yield from engine.modify_rank(txn, table, second)
                except DeadlockError:
                    engine.abort(txn)
                    yield sim.timeout(0.001)
                    continue
                yield from engine.commit(txn)
                outcomes.append(name)
                return

        done = sim.all_of([
            sim.process(txn_in_order(rank_a, rank_b, "forward")),
            sim.process(txn_in_order(rank_b, rank_a, "backward"))])
        sim.run_until(done)
        assert sorted(outcomes) == ["backward", "forward"]
        assert engine.counters["aborts"] >= 1
        assert engine.counters["commits"] == 2

    def test_lock_table_is_empty_after_a_linkbench_run(self):
        sim = Simulator()
        engine = self._engine(sim)
        workload = LinkBenchWorkload(
            engine, LinkBenchConfig(db_bytes=32 * units.MIB, seed=3))
        workload.run(clients=16, ops_per_client=20, warmup_ops=2)
        assert engine.locks.counters["acquires"] > 0
        assert engine.locks._locks == {}
        assert engine.locks._held == {}
        assert engine.locks._waiting_on == {}
