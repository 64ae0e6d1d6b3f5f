"""Acceptance tests for the crash-consistency torture harness.

The headline assertions of the reproduction:

* a DuraSSD-backed InnoDB, barriers off, survives a power cut at *every*
  ack boundary of a 200-op LinkBench stream — including a second cut in
  the middle of either recovery pass — with zero invariant violations;
* the same sweep over a volatile-cache SSD with barriers off detects the
  paper's Table 1 anomalies (the detector is not vacuous);
* a failing schedule minimizes to a self-contained JSON artifact that
  reproduces its exact violation list from the JSON alone.
"""

import json

import pytest

from repro.devices import IORequest, make_durassd
from repro.failures import (
    TortureScenario,
    check_device,
    generate_ops,
    make_artifact,
    minimize,
    record,
    replay_artifact,
    run_trial,
    sweep,
    verify_determinism,
)
from repro.failures.campaign import TORTURE_FORMAT
from repro.failures.corruption import CorruptionModel
from repro.failures.grayfaults import GrayFaultProfile
from repro.failures.torture import build_world
from repro.sim import Simulator, units


class TestScenario:
    def test_json_roundtrip(self):
        scenario = TortureScenario(
            engine="innodb", device="ssd-a", barriers=False, ops=33, seed=5,
            fault_config={"seed": 2, "read_error_rate": 0.01})
        back = TortureScenario.from_json(scenario.to_json())
        assert back.to_json() == scenario.to_json()
        assert back.fault_config.read_error_rate == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            TortureScenario(engine="oracle")
        with pytest.raises(ValueError):
            TortureScenario(device="floppy")
        with pytest.raises(ValueError):
            TortureScenario(ops=0)
        with pytest.raises(ValueError):
            TortureScenario(capacitor_health=1.5)

    def test_ops_are_deterministic(self):
        scenario = TortureScenario(ops=50, seed=7)
        assert generate_ops(scenario) == generate_ops(scenario)

    def test_world_replay_is_deterministic(self):
        assert verify_determinism(TortureScenario(ops=40, seed=11))


class TestRecords:
    """Every campaign record validates on construction and on
    ``_replace``, and cannot be edited in place."""

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            TortureScenario()._replace(ops=0)
        with pytest.raises(ValueError):
            GrayFaultProfile()._replace(horizon=0)

    def test_records_are_immutable(self):
        scenario = TortureScenario()
        with pytest.raises(AttributeError):
            scenario.ops = 5
        assert scenario._replace(ops=5).ops == 5
        assert scenario.ops == 200

    def test_scenario_keeps_its_fields(self):
        assert len(TortureScenario._fields) == 28
        assert set(TortureScenario().to_json()) \
            == set(TortureScenario._fields)

    def test_default_pool_follows_the_database_under_replace(self):
        """An unset buffer pool stays unset in the record, and the world
        sizes it from the database it is built with."""
        grown = TortureScenario()._replace(db_bytes=8 * units.MIB)
        assert grown == TortureScenario(db_bytes=8 * units.MIB)
        assert grown.buffer_pool_bytes is None
        config = build_world(grown).engine.config
        assert config.buffer_pool_bytes == 2 * units.MIB
        pinned = TortureScenario(buffer_pool_bytes=64 * units.KIB)
        assert build_world(pinned).engine.config.buffer_pool_bytes \
            == 64 * units.KIB

    def test_gray_both_reads_as_all(self):
        data = dict(TortureScenario().to_json(), gray_target="both")
        assert TortureScenario.from_json(data).gray_target == "all"
        with pytest.raises(ValueError):
            TortureScenario(gray_target="both")


class TestFaultTargets:
    """One target grammar for gray faults, corruption and death."""

    GRAY = GrayFaultProfile(seed=3, gc_storm_rate=0.05)

    def test_gray_fault_on_one_mirror_member(self):
        world = build_world(TortureScenario(
            ops=5, mirror=2, gray_profile=self.GRAY, gray_target="data:1"))
        assert [device.gray_faults is not None
                for device in world.devices] == [False, True, False]

    def test_corruption_on_one_mirror_member(self):
        world = build_world(TortureScenario(
            ops=5, mirror=2, corruption={"seed": 1, "bit_rot_rate": 0.01},
            corruption_target="data:1"))
        models = [device.corruption for device in world.devices]
        assert models[0] is None and models[2] is None
        assert isinstance(models[1], CorruptionModel)
        assert models[1].salt == "data:1"

    @pytest.mark.parametrize("field", ["gray_target", "corruption_target",
                                       "death_target"])
    @pytest.mark.parametrize("target", ["both", "data:2", "data:01"])
    def test_every_kind_rejects_the_same_targets(self, field, target):
        with pytest.raises(ValueError):
            TortureScenario(mirror=2, **{field: target})


class TestSweep:
    def test_durassd_exhaustive_sweep_is_clean(self):
        """The tentpole: every cut point of a 200-op stream, nested cuts
        included, with barriers off — zero violations."""
        scenario = TortureScenario(engine="innodb", device="durassd",
                                   ops=200, seed=11)
        result = sweep(scenario, nested_stride=5)
        summary = result.summary()
        assert summary["mode"] == "exhaustive"
        assert summary["candidates"] >= 100
        assert summary["nested_trials"] > 0
        assert summary["expected_clean"] is True
        assert summary["violations"] == 0
        assert result.clean

    def test_volatile_no_barriers_finds_anomalies(self):
        """Negative control: the detector must catch the Table 1
        anomalies on an honest volatile-cache device."""
        scenario = TortureScenario(engine="innodb", device="ssd-a",
                                   barriers=False, ops=80, seed=11)
        result = sweep(scenario, max_trials=20, nested_stride=0)
        summary = result.summary()
        assert summary["expected_clean"] is False
        assert summary["violations"] >= 1
        # promise-free configuration: findings, not failures
        assert summary["failures"] == 0
        assert result.clean

    def test_sampled_mode_engages_above_cap(self):
        scenario = TortureScenario(engine="innodb", device="durassd",
                                   ops=120, seed=11)
        result = sweep(scenario, max_trials=15, nested_stride=0)
        summary = result.summary()
        assert summary["mode"] == "sampled"
        assert summary["trials"] == 15
        assert result.clean

    def test_degraded_durassd_still_sweeps_clean(self):
        """Transient faults + a weakened (but sufficient) capacitor bank:
        the firmware masks everything, the promise holds."""
        scenario = TortureScenario(
            engine="innodb", device="durassd", ops=60, seed=11,
            capacitor_health=0.6,
            fault_config={"seed": 4, "program_error_rate": 0.05,
                          "read_error_rate": 0.0005,
                          "initial_bad_blocks": 2})
        result = sweep(scenario, max_trials=10, nested_stride=3)
        assert result.summary()["expected_clean"] is True
        assert result.clean
        assert result.summary()["violations"] == 0

    def test_demoted_durassd_auto_enables_barriers(self):
        """Below the dump-energy threshold the device demotes itself; the
        auto barrier policy reacts, and with barriers + doublewrite the
        stack stays consistent on the now-volatile cache."""
        scenario = TortureScenario(engine="innodb", device="durassd",
                                   ops=60, seed=11, capacitor_health=0.01)
        result = sweep(scenario, max_trials=8, nested_stride=0)
        summary = result.summary()
        assert summary["expected_clean"] is True  # barriers took over
        assert summary["violations"] == 0


class TestNestedCuts:
    def test_crash_during_device_recovery(self):
        scenario = TortureScenario(engine="innodb", device="durassd",
                                   ops=60, seed=11)
        recording = record(scenario)
        performed = 0
        for cut_time in recording.cut_candidates[-12:-2]:
            trial = run_trial(scenario, recording.ops, cut_time,
                              nested=("device-recovery", 1))
            assert trial.fired
            assert trial.clean, trial.violations
            performed += trial.nested_performed
        assert performed > 0  # at least one replay really was interrupted

    def test_crash_during_db_recovery(self):
        scenario = TortureScenario(engine="innodb", device="ssd-a",
                                   barriers=True, doublewrite=True,
                                   ops=60, seed=11)
        recording = record(scenario)
        middle = recording.cut_candidates[len(recording.cut_candidates) // 2]
        trial = run_trial(scenario, recording.ops, middle,
                          nested=("db-recovery", 1))
        assert trial.fired
        assert trial.expected_clean
        assert trial.clean, trial.violations

    def test_interrupted_dump_replay_unit(self):
        """Device-level nested-crash protocol: an interrupted replay
        leaves the emergency flag set and the (merged) image intact, so
        the next reboot recovers everything."""
        sim = Simulator()
        device = make_durassd(sim)
        device.record_acks = True

        def body():
            for i in range(30):
                yield from device.submit(IORequest("write", i, 1,
                                                   payload=[("d", i)]))

        process = sim.process(body())
        sim.run_until(process)
        device.power_fail()
        device.reboot(interrupt_recovery_after=1)
        assert device.recovery_manager.needs_recovery()
        assert device.recovery_manager.interrupted_replays == 1
        with pytest.raises(RuntimeError):
            device.read_persistent(0)  # emergency flag still set
        device.power_fail()  # the nested cut, mid-recovery
        device.reboot()      # full replay from the merged image
        assert not device.recovery_manager.needs_recovery()
        assert check_device(device).clean


class TestMinimizeAndReplay:
    def test_minimize_produces_replayable_artifact(self):
        scenario = TortureScenario(engine="innodb", device="ssd-a",
                                   barriers=False, ops=60, seed=11)
        ops = generate_ops(scenario)
        artifact = minimize(scenario, ops,
                            predicate=lambda trial: not trial.clean)
        assert artifact is not None
        assert artifact["format"] == TORTURE_FORMAT
        assert 1 <= len(artifact["ops"]) < len(ops)
        assert artifact["violations"]
        # round-trip through the serialized form only
        trial = replay_artifact(json.dumps(artifact))
        assert trial.fired
        assert trial.violations == artifact["violations"]

    def test_minimize_returns_none_when_nothing_fails(self):
        scenario = TortureScenario(engine="innodb", device="durassd",
                                   ops=20, seed=11)
        ops = generate_ops(scenario)
        assert minimize(scenario, ops, probe_budget=3) is None

    def test_replay_artifact_rejects_foreign_json(self):
        with pytest.raises(ValueError):
            replay_artifact(json.dumps({"format": "bogus/9"}))

    def test_make_artifact_shape(self):
        scenario = TortureScenario(ops=5, seed=1)
        ops = generate_ops(scenario)
        recording = record(scenario, ops)
        cut = recording.cut_candidates[0]
        trial = run_trial(scenario, ops, cut)
        artifact = make_artifact(scenario, ops, trial)
        text = json.dumps(artifact)  # must be JSON-serializable
        parsed = json.loads(text)
        assert parsed["cut_time"] == cut
        assert parsed["nested"] is None
        assert parsed["scenario"]["device"] == "durassd"
