"""Tests for the host command lifecycle: deadlines, abort/reset/retry."""

import pytest

from repro.devices import IORequest, make_durassd, make_ssd_a
from repro.failures.grayfaults import GrayFaultModel, GrayFaultProfile
from repro.host import FileSystem, SataNcq
from repro.host.lifecycle import DeviceTimeoutError, TimeoutPolicy
from repro.sim import Simulator, units
from repro.sim.rng import make_rng

from conftest import run_process


def fast_policy(**overrides):
    """A policy scaled to simulated device latencies (µs-ms)."""
    params = dict(deadline=5e-3, max_attempts=3, backoff_base=1e-4,
                  seed=1)
    params.update(overrides)
    return TimeoutPolicy(**params)


class TestTimeoutPolicy:
    def test_json_roundtrip(self):
        policy = TimeoutPolicy(deadline=0.1, max_attempts=7,
                               backoff_base=1e-3, backoff_factor=3.0,
                               jitter=0.25, seed=5)
        clone = TimeoutPolicy.from_json(policy.to_json())
        assert clone.to_json() == policy.to_json()

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeoutPolicy(deadline=0)
        with pytest.raises(ValueError):
            TimeoutPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            TimeoutPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            TimeoutPolicy(jitter=1.5)

    def test_backoff_grows_and_is_seeded(self):
        policy = TimeoutPolicy(backoff_base=1e-3, backoff_factor=2.0,
                               jitter=0.5)
        first = policy.backoff(1, make_rng(1))
        third = policy.backoff(3, make_rng(1))
        assert third > first
        assert policy.backoff(2, make_rng(7)) \
            == policy.backoff(2, make_rng(7))


class TestPassthrough:
    def test_no_policy_means_legacy_path(self, sim):
        dev = make_ssd_a(sim)
        queue = SataNcq(sim, dev, depth=4)
        assert queue.lifecycle.policy is None

        def worker():
            yield queue.submit(IORequest("write", 0, 1, payload=["x"]))

        run_process(sim, worker())
        assert queue.lifecycle.counters["timeouts"] == 0

    def test_healthy_device_never_times_out(self, sim):
        dev = make_durassd(sim)
        queue = SataNcq(sim, dev, depth=4,
                             timeout_policy=fast_policy())

        def worker(i):
            yield queue.submit(IORequest("write", i, 1, payload=[i]))

        done = sim.all_of([sim.process(worker(i)) for i in range(16)])
        sim.run()
        assert done.processed
        assert queue.lifecycle.counters["timeouts"] == 0
        assert queue.lifecycle.counters["escalations"] == 0


class TestEscalationLadder:
    """The acceptance ladder: hung write -> deadline abort -> soft reset
    -> backoff retry -> completion, with no data harmed."""

    def test_curable_hang_full_ladder(self, sim):
        device = make_durassd(sim, capacity_bytes=64 * units.MIB)
        # Device hangs from the first command; the hang is curable, so
        # the host's abort + soft reset clears it and the retry
        # completes.
        device.inject_gray_faults(GrayFaultModel(
            GrayFaultProfile(hang_at=0.0, hang_permanent=False)))
        fs = FileSystem(sim, device, barriers=False,
                        timeout_policy=fast_policy())
        handle = fs.create("data", units.MIB)

        def use():
            yield from fs.pwrite(handle, 0, ["alpha", "beta"])
            return (yield from fs.pread(handle, 0, 2))

        assert run_process(sim, use()) == ["alpha", "beta"]
        counters = fs.queue.lifecycle.counters
        assert counters["timeouts"] >= 1
        assert counters["aborts"] >= 1
        assert counters["resets"] >= 1
        assert counters["retries"] >= 1
        assert counters["escalations"] == 0
        assert device.gray_faults.counters["cured_by_reset"] >= 1

    def test_permanent_hang_escalates(self, sim):
        device = make_durassd(sim, capacity_bytes=64 * units.MIB)
        device.inject_gray_faults(GrayFaultModel(
            GrayFaultProfile(hang_at=0.0, hang_permanent=True)))
        policy = fast_policy(max_attempts=2)
        fs = FileSystem(sim, device, barriers=False, timeout_policy=policy)
        handle = fs.create("data", units.MIB)

        def use():
            yield from fs.pwrite(handle, 0, ["alpha"])

        with pytest.raises(DeviceTimeoutError) as info:
            run_process(sim, use())
        assert info.value.attempts == policy.max_attempts
        counters = fs.queue.lifecycle.counters
        assert counters["escalations"] == 1
        assert counters["timeouts"] == policy.max_attempts

    def test_aborted_command_is_never_acked(self, sim):
        device = make_durassd(sim, capacity_bytes=64 * units.MIB)
        device.inject_gray_faults(GrayFaultModel(
            GrayFaultProfile(hang_at=0.0, hang_permanent=False)))
        device.record_acks = True
        fs = FileSystem(sim, device, barriers=False,
                        timeout_policy=fast_policy())
        handle = fs.create("data", units.MIB)

        def use():
            yield from fs.pwrite(handle, 0, ["v1"])

        run_process(sim, use())
        # The hung attempt was aborted before acking; only the retried
        # command acks, so the host's view has no phantom completion.
        lbas = [record.lba for record in device.ack_log]
        assert lbas.count(handle.base_lba) == 1


class TestSlotLeak:
    """Regression: interrupting a dispatch process mid-service (or while
    queued for a slot) must never leak NCQ slots."""

    def test_queue_reaches_full_depth_after_100_interrupts(self):
        sim = Simulator()
        device = make_ssd_a(sim, capacity_bytes=64 * units.MIB)
        queue = SataNcq(sim, device, depth=4)
        # Interrupt 100 dispatches at staggered instants: some are hit
        # while holding a slot mid-service, some while queued behind the
        # depth limit (acquire_guarded must withdraw those requests).
        victims = []
        for i in range(100):
            victims.append(queue.submit(
                IORequest("write", i, 1, payload=[i])))

        def watch(victim):
            # Consume the victim's failure so the cancelled dispatch
            # does not propagate out of sim.run().
            try:
                yield victim
            except BaseException:
                pass

        for victim in victims:
            sim.process(watch(victim))

        def assassin():
            for index, victim in enumerate(victims):
                yield sim.timeout(index * 1e-6)
                if victim.is_alive:
                    victim.interrupt("test-cancel")

        sim.process(assassin())
        sim.run()
        assert queue.outstanding == 0

        # The queue must still admit a full depth of concurrent work.
        def worker(i):
            yield queue.submit(IORequest("write", i, 1, payload=[i]))

        queue.max_observed_depth = 0
        done = sim.all_of([sim.process(worker(i)) for i in range(32)])
        sim.run()
        assert done.processed
        assert queue.max_observed_depth == queue.depth
        assert queue.outstanding == 0


class TestReorderWindow:
    """The unordered queue's dispatch reordering must be seed-stable."""

    @staticmethod
    def _ack_order(seed, commands=30):
        sim = Simulator()
        device = make_ssd_a(sim, capacity_bytes=64 * units.MIB)
        device.record_acks = True
        queue = SataNcq(sim, device, depth=8, ordered=False,
                             reorder_window=8, rng=make_rng(seed))

        def worker(i):
            yield queue.submit(IORequest("write", i, 1, payload=[i]))

        done = sim.all_of([sim.process(worker(i))
                           for i in range(commands)])
        sim.run()
        assert done.processed
        return [record.lba for record in device.ack_log]

    def test_same_seed_same_dispatch_order(self):
        assert self._ack_order(seed=5) == self._ack_order(seed=5)

    def test_different_seeds_reorder_differently(self):
        first = self._ack_order(seed=5)
        second = self._ack_order(seed=6)
        assert sorted(first) == sorted(second)  # same commands...
        assert first != second                  # ...different order

    def test_unordered_queue_actually_reorders(self):
        order = self._ack_order(seed=5)
        assert order != sorted(order)
