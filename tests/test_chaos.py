"""End-to-end tests for the gray-failure chaos harness."""

import json
import math

import pytest

from repro.failures import chaos
from repro.failures.campaign import make_artifact, replay_artifact
from repro.failures.grayfaults import GrayFaultProfile
from repro.failures.torture import TortureScenario, generate_ops

OPS = 30  # small streams keep the suite fast; profiles are rescaled


class TestScenario:
    def test_profiles_are_rescaled_to_the_stream(self):
        scenario = chaos.chaos_scenario(profile="hang", seed=1, ops=OPS)
        profile = scenario.gray_profile
        assert profile.horizon <= 0.1
        assert profile.hang_at is not None
        assert 0.0 < profile.hang_at < profile.horizon

    def test_scenario_roundtrips_through_torture_json(self):
        scenario = chaos.chaos_scenario(profile="gc-storm", seed=2, ops=OPS)
        clone = TortureScenario.from_json(scenario.to_json())
        assert clone.to_json() == scenario.to_json()

    def test_device_specific_deadlines(self):
        slow = chaos.chaos_scenario(device="hdd", seed=1, ops=OPS)
        fast = chaos.chaos_scenario(device="durassd", seed=1, ops=OPS)
        assert slow.timeout_policy.deadline > fast.timeout_policy.deadline


class TestRunChaos:
    def test_mild_profile_is_clean_and_bounded(self):
        scenario = chaos.chaos_scenario(profile="mild", seed=3, ops=OPS)
        result = chaos.run_chaos(scenario)
        assert result.completed
        assert result.clean
        assert result.ops_ok == OPS
        assert result.degradation_ratio is not None
        assert result.degradation_ratio <= chaos.DEFAULT_DEGRADATION_BOUND

    def test_curable_hang_exercises_the_ladder(self):
        scenario = chaos.chaos_scenario(profile="hang", seed=5, ops=40)
        result = chaos.run_chaos(scenario)
        assert result.completed and result.clean
        assert result.ops_ok == 40
        counters = result.host_counters["data"]
        assert counters["timeouts"] >= 1
        assert counters["resets"] >= 1
        assert counters["retries"] >= 1
        assert result.gray_counters["data"]["cured_by_reset"] >= 1
        assert not result.read_only

    def test_permanent_hang_demotes_to_read_only(self):
        scenario = chaos.chaos_scenario(profile="hang-permanent", seed=5,
                                        ops=40)
        result = chaos.run_chaos(scenario)
        # The workload completes (liveness), writes are rejected fast
        # once demoted, and the post-cut recovery still checks clean.
        assert result.completed
        assert result.read_only
        assert result.ops_rejected >= 1
        assert result.clean
        assert result.db_counters["escalations"] \
            >= result.scenario.to_json()["admission_control"] * 0 + 1

    def test_determinism(self):
        first = chaos.run_chaos(
            chaos.chaos_scenario(profile="mild", seed=7, ops=OPS))
        second = chaos.run_chaos(
            chaos.chaos_scenario(profile="mild", seed=7, ops=OPS))
        assert first.to_json() == second.to_json()

    def test_quiet_profile_skips_bound_check(self):
        scenario = chaos.chaos_scenario(profile="none", seed=1, ops=OPS)
        result = chaos.run_chaos(scenario)
        assert result.clean
        assert result.baseline_duration is None

    def test_missing_demotion_is_a_violation(self):
        # Expecting read-only against a healthy device must be reported
        # as a violation (this is how the harness proves the detector
        # itself works).
        scenario = chaos.chaos_scenario(profile="mild", seed=1, ops=OPS)
        result = chaos.run_chaos(scenario, expect_read_only=True)
        assert any(v.startswith("degrade:no-readonly-demotion")
                   for v in result.violations)


class TestArtifacts:
    def test_roundtrip_through_json_string(self):
        scenario = chaos.chaos_scenario(profile="hang-permanent", seed=5,
                                        ops=40)
        ops = generate_ops(scenario)
        original = chaos.run_chaos(scenario, ops)
        artifact = make_artifact(scenario, ops, original)
        replayed = replay_artifact(json.dumps(artifact))
        assert replayed.to_json() == original.to_json()

    def test_format_guard(self):
        with pytest.raises(ValueError):
            replay_artifact({"format": "bogus"})

    def test_minimize_shrinks_and_replays(self):
        scenario = chaos.chaos_scenario(profile="hang-permanent", seed=5,
                                        ops=40)
        ops = generate_ops(scenario)
        artifact = chaos.minimize_chaos(scenario, ops,
                                        predicate=lambda r: r.read_only)
        assert artifact is not None
        assert len(artifact["ops"]) < len(ops)
        replayed = replay_artifact(artifact)
        assert replayed.read_only

    def test_minimize_clean_run_returns_none(self):
        scenario = chaos.chaos_scenario(profile="mild", seed=9, ops=OPS)
        assert chaos.minimize_chaos(scenario, generate_ops(scenario)) is None


class TestHelpers:
    def test_horizon_guard_is_finite_and_generous(self):
        scenario = chaos.chaos_scenario(profile="hang-permanent", seed=1,
                                        ops=OPS)
        guard = chaos.horizon_guard(scenario, [None] * OPS)
        assert math.isfinite(guard)
        assert guard > 10.0

    def test_baseline_rejects_failing_ops(self):
        scenario = chaos.chaos_scenario(profile="none", seed=3, ops=OPS)
        ops = generate_ops(scenario)
        duration = chaos.baseline_duration(scenario, ops)
        assert duration > 0.0
