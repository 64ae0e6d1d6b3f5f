"""Tests for whole-device fail-stop failures: degraded-mode serving,
hot-spare online rebuild, and detected data loss.

The two load-bearing properties, asserted by the seeded sweeps below:

* **No acked write is ever lost while one mirror member survives** —
  each member is killed at every ack boundary of a write stream and
  every acked block must read back through the degraded volume.
* **A finished rebuild is byte-equivalent** — after the rebuilder
  drains, the spare's persistent state matches the survivor's for every
  tracked block, including writes fenced to the spare mid-rebuild.

A second failure during rebuild must *report* detected data loss —
loudly, via :class:`DetectedDataLossError` — never hang and never
fabricate an answer.
"""

import pytest

from repro.devices import IORequest, make_durassd
from repro.devices.base import DeviceDeadError
from repro.failures.death import (
    DEATH_PROFILES,
    DeviceDeathModel,
    DeviceDeathSchedule,
    make_death_schedule,
)
from repro.failures.injector import PowerFailureInjector
from repro.failures.torture import TortureScenario
from repro.host import MirroredVolume, Rebuilder, SataNcq, Scrubber
from repro.host.integrity import DetectedDataLossError
from repro.host.lifecycle import DeviceTimeoutError, TimeoutPolicy
from repro.sim import Simulator, units

from conftest import drain, run_process

MEMBER_BYTES = 4 * units.MIB


def make_member(sim, name):
    """A cache-less member: writes program NAND directly, so persistent
    state is comparable the instant a command completes."""
    return make_durassd(sim, capacity_bytes=MEMBER_BYTES,
                        cache_enabled=False, name=name)


def make_mirror(width=2):
    sim = Simulator()
    devices = [make_member(sim, "m%d" % index) for index in range(width)]
    return sim, MirroredVolume(sim, devices), devices


def write(sim, target, lba, value):
    def writer():
        yield target.submit(IORequest("write", lba, 1, payload=[value]))
    return run_process(sim, writer())


def read(sim, target, lba):
    def reader():
        request = yield target.submit(IORequest("read", lba, 1))
        return request.result[0]
    return run_process(sim, reader())


# --- the death schedule --------------------------------------------------
class TestDeathSchedule:
    def test_json_roundtrip(self):
        schedule = DeviceDeathSchedule(seed=3, die_at=2.5, stagger=1.0,
                                       grown_bad_limit=4,
                                       wear_limit_pct=0.5, horizon=8.0)
        clone = DeviceDeathSchedule.from_json(schedule.to_json())
        assert clone.to_json() == schedule.to_json()

    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceDeathSchedule(die_at=-1.0)
        with pytest.raises(ValueError):
            DeviceDeathSchedule(stagger=-0.1)
        with pytest.raises(ValueError):
            DeviceDeathSchedule(grown_bad_limit=0)
        with pytest.raises(ValueError):
            DeviceDeathSchedule(wear_limit_pct=0.0)
        with pytest.raises(ValueError):
            DeviceDeathSchedule(horizon=0.0)

    def test_quiet(self):
        assert DeviceDeathSchedule().quiet
        assert not DeviceDeathSchedule(die_at=1.0).quiet
        assert not DeviceDeathSchedule(wear_limit_pct=1.0).quiet

    def test_named_profiles(self):
        assert make_death_schedule("none").quiet
        double = make_death_schedule("double-death", seed=7)
        assert double.die_at is not None and double.stagger > 0
        assert double.seed == 7
        with pytest.raises(ValueError):
            make_death_schedule("sudden-disco")
        assert "none" in DEATH_PROFILES

    def test_stagger_orders_member_deaths(self):
        schedule = DeviceDeathSchedule(die_at=2.0, stagger=1.5)
        first = DeviceDeathModel(schedule, index=0)
        second = DeviceDeathModel(schedule, index=1)
        assert first.die_at == 2.0
        assert second.die_at == 5.0 - 1.5

    def test_smart_trip_thresholds(self):
        class Stub:
            cause = None

            def smart(self):
                return {"media": {"grown_bad_blocks": 3,
                                  "media_wear_pct": 0.5}}

            def fail_stop(self, cause):
                self.cause = cause

        stub = Stub()
        DeviceDeathModel(DeviceDeathSchedule(grown_bad_limit=2)) \
            .check_smart(stub)
        assert stub.cause == "smart-grown-bad-blocks"
        stub.cause = None
        DeviceDeathModel(DeviceDeathSchedule(wear_limit_pct=0.4)) \
            .check_smart(stub)
        assert stub.cause == "smart-wearout"
        stub.cause = None
        DeviceDeathModel(DeviceDeathSchedule(grown_bad_limit=10,
                                             wear_limit_pct=10.0)) \
            .check_smart(stub)
        assert stub.cause is None


# --- fail-stop device semantics ------------------------------------------
class TestFailStop:
    def test_sticky_and_idempotent(self, sim):
        device = make_member(sim, "dev")
        write(sim, device, 0, "v")
        device.fail_stop("controller-panic")
        died_at = device.died_at
        device.fail_stop("again")  # idempotent: first cause wins
        assert device.dead
        assert device.died_at == died_at
        assert device.death_cause == "controller-panic"

    def test_commands_fail_hard_after_death(self, sim):
        device = make_member(sim, "dev")
        device.fail_stop("test")
        with pytest.raises(DeviceDeadError) as info:
            read(sim, device, 0)
        assert "device dead" in str(info.value)
        assert "dev" in str(info.value)

    def test_death_survives_reboot(self, sim):
        device = make_member(sim, "dev")
        write(sim, device, 0, "v")
        device.fail_stop("test")
        injector = PowerFailureInjector(sim, [device])
        injector.execute_cut()
        injector.reboot_all()
        assert device.dead  # a reboot restores power, not life
        with pytest.raises(DeviceDeadError):
            write(sim, device, 1, "w")

    def test_death_aborts_inflight_commands(self, sim):
        device = make_member(sim, "dev")
        event = device.submit(IORequest("write", 0, 1, payload=["v"]))
        seen = []

        def waiter():
            try:
                yield event
            except DeviceDeadError:
                seen.append("dead")

        def killer():
            yield sim.timeout(1e-7)
            device.fail_stop("test")

        sim.process(waiter())
        sim.process(killer())
        sim.run()
        assert seen == ["dead"]

    def test_scheduled_death_model(self, sim):
        device = make_member(sim, "dev")
        model = DeviceDeathModel(DeviceDeathSchedule(die_at=0.005))
        device.inject_death(model)
        drain(sim, until=0.01)
        assert device.dead
        assert device.death_cause == "scheduled-death"
        assert model.counters["deaths"] == 1
        assert model.first_fault_time == pytest.approx(0.005)

    def test_smart_reports_liveness(self, sim):
        device = make_member(sim, "dev")
        report = device.smart()
        assert report["alive"] is True
        assert report["died_at_s"] is None
        device.fail_stop("worn-out")
        report = device.smart()
        assert report["alive"] is False
        assert report["death_cause"] == "worn-out"
        assert report["died_at_s"] == pytest.approx(device.died_at)


# --- the host escalation ladder ------------------------------------------
class TestHardErrors:
    def test_dead_device_skips_the_retry_ladder(self, sim):
        device = make_member(sim, "dev")
        policy = TimeoutPolicy(deadline=5e-3, max_attempts=3,
                               backoff_base=1e-4, seed=1)
        queue = SataNcq(sim, device, depth=4, timeout_policy=policy)
        device.fail_stop("test")

        def worker():
            yield queue.submit(IORequest("write", 0, 1, payload=["v"]))

        with pytest.raises(DeviceDeadError):
            run_process(sim, worker())
        counters = queue.lifecycle.counters
        assert counters["hard_errors"] == 1
        assert counters["timeouts"] == 0
        assert counters["retries"] == 0  # retrying a corpse cannot help

    def test_timeout_error_reports_liveness(self):
        # positional construction stays compatible; alive defaults True
        alive = DeviceTimeoutError("dev", "write", 3)
        assert alive.alive is True
        assert "[device alive]" in str(alive)
        dead = DeviceTimeoutError("dev", "write", 1, alive=False)
        assert "[device dead]" in str(dead)


# --- degraded-mode serving -----------------------------------------------
class TestDegradedMirror:
    def test_no_acked_write_lost_at_any_kill_point(self):
        """Kill each member at every ack boundary of a write stream:
        every acked block must read back while a survivor remains."""
        blocks = 6
        for width in (2, 3):
            for victim in range(width):
                for kill_after in range(blocks + 1):
                    sim, volume, devices = make_mirror(width)
                    for lba in range(blocks):
                        if lba == kill_after:
                            devices[victim].fail_stop("sweep")
                        write(sim, volume, lba, "v%d" % lba)
                    if kill_after == blocks:
                        devices[victim].fail_stop("sweep")
                    for lba in range(blocks):
                        assert read(sim, volume, lba) == "v%d" % lba, \
                            ("lost lba %d (width=%d victim=%d kill=%d)"
                             % (lba, width, victim, kill_after))
                    assert volume.members_dead() <= 1
                    assert volume.degraded

    def test_whole_volume_death_fails_hard(self):
        sim, volume, devices = make_mirror(2)
        write(sim, volume, 0, "v")
        for device in devices:
            device.fail_stop("sweep")
        with pytest.raises(DeviceDeadError):
            write(sim, volume, 1, "w")

    def test_flush_routes_around_the_corpse(self):
        sim, volume, devices = make_mirror(2)
        write(sim, volume, 0, "v")
        devices[0].fail_stop("sweep")

        def flusher():
            yield volume.flush()

        run_process(sim, flusher())  # must not hang or raise


# --- hot-spare rebuild ---------------------------------------------------
class TestRebuild:
    def test_rebuild_byte_equivalence(self):
        """After the rebuilder drains, the spare is byte-identical to
        the survivor on every tracked block — including blocks written
        before the death, while degraded, and mid-rebuild (the fence)."""
        sim, volume, devices = make_mirror(2)
        for lba in range(10):
            write(sim, volume, lba, "v%d" % lba)
        devices[0].fail_stop("dead")
        for lba in range(10, 14):
            write(sim, volume, lba, "v%d" % lba)  # degraded writes
        spare = make_member(sim, "spare")
        rebuilder = Rebuilder(sim, volume, spares=[spare], pace=1e-4)

        def late_writer():
            # lands while the rebuild is in flight: fenced to the spare
            yield sim.timeout(rebuilder.idle + 1e-4)
            for lba in range(14, 17):
                yield volume.submit(
                    IORequest("write", lba, 1, payload=["v%d" % lba]))

        sim.process(late_writer())
        drain(sim, until=5.0)
        assert volume.failover["rebuilds_completed"] == 1
        assert not volume.degraded
        assert volume.rebuild_remaining() == 0
        for lba in range(17):
            value = "v%d" % lba
            assert devices[1].read_persistent(lba) == value
            assert spare.read_persistent(lba) == value
        assert rebuilder.counters["completed"] == 1
        assert volume.mttr_samples and volume.mttr_samples[0] > 0

    def test_second_death_is_detected_data_loss(self):
        sim, volume, devices = make_mirror(2)
        for lba in range(8):
            write(sim, volume, lba, "v%d" % lba)
        devices[0].fail_stop("first")
        write(sim, volume, 8, "v8")  # volume notices the death
        spare = make_member(sim, "spare")
        volume.attach_spare(0, spare)
        devices[1].fail_stop("second")  # survivor dies, nothing copied
        with pytest.raises(DetectedDataLossError):
            read(sim, volume, 3)
        assert 3 in volume._lost
        # the loss is sticky: later reads keep failing loudly
        with pytest.raises(DetectedDataLossError):
            read(sim, volume, 3)

    def test_rebuild_skips_lost_blocks_and_terminates(self):
        sim, volume, devices = make_mirror(2)
        for lba in range(4):
            write(sim, volume, lba, "v%d" % lba)
        devices[0].fail_stop("first")
        write(sim, volume, 4, "v4")
        spare = make_member(sim, "spare")
        volume.attach_spare(0, spare)
        devices[1].fail_stop("second")

        def rebuild_all():
            losses = 0
            while True:
                lba = volume.next_rebuild_block(0)
                if lba is None:
                    return losses
                try:
                    yield from volume.rebuild_block(0, lba)
                except DetectedDataLossError:
                    losses += 1
            return losses

        losses = run_process(sim, rebuild_all())
        assert losses == 5  # every block reported, none copied
        assert volume.rebuild_remaining() == 0


# --- scrubber coordination (pause while repairing, re-verify after) ------
class TestScrubberCoordination:
    def test_pause_on_death_resume_with_reverify(self):
        sim, volume, devices = make_mirror(2)
        scrubber = Scrubber(sim, volume, escalate=None)
        volume.scrubber = scrubber
        for lba in range(6):
            write(sim, volume, lba, "v%d" % lba)
        devices[0].fail_stop("dead")
        write(sim, volume, 6, "v6")  # the fan-out notices the corpse
        assert scrubber.paused
        assert scrubber.counters["pauses"] == 1
        spare = make_member(sim, "spare")
        volume.attach_spare(0, spare)

        def rebuild_all():
            while True:
                lba = volume.next_rebuild_block(0)
                if lba is None:
                    return
                yield from volume.rebuild_block(0, lba)

        run_process(sim, rebuild_all())
        rebuilt = volume.finish_rebuild(0)
        assert rebuilt and not scrubber.paused
        drain(sim, until=sim.now + 1.0)
        assert scrubber.counters["reverified"] >= len(rebuilt)


# --- scenario plumbing ---------------------------------------------------
class TestScenarioFields:
    def test_death_fields_roundtrip(self):
        scenario = TortureScenario(mirror=2, spares=1,
                                   death=dict(die_at=1.0, stagger=0.5),
                                   death_target="data:1",
                                   rebuild_pace=1e-3)
        clone = TortureScenario.from_json(scenario.to_json())
        assert clone.death.die_at == 1.0
        assert clone.death.stagger == 0.5
        assert clone.death_target == "data:1"
        assert clone.spares == 1
        assert clone.rebuild_pace == 1e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            TortureScenario(spares=1)  # hot spares need a mirror
        with pytest.raises(ValueError):
            TortureScenario(mirror=2, death_target="data:5",
                            death=dict(die_at=1.0))
        with pytest.raises(ValueError):
            TortureScenario(death_target="sideways",
                            death=dict(die_at=1.0))
        with pytest.raises(ValueError):
            TortureScenario(mirror=2, rebuild_pace=0.0)
