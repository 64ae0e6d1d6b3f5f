"""World specs: one immutable value describes a bench world.

Three claims:

1. **Round trip and validation** — a :class:`WorldSpec` survives JSON
   and rejects the combinations the CLI used to reject by hand.
2. **CLI mapping** — every world flag lands in the right spec field;
   bad combinations and bad flags of any command are usage errors
   (exit 2), not tracebacks, and every command has a ``--help``.
3. **No shared state** — a world depends only on its own spec, never on
   what the process built before it.
"""

import json

import pytest

from repro.__main__ import ORDER, build_parser, main, world_spec
from repro.bench import chaos, explain, profile, regress, scaling, setups, \
    table1
from repro.bench.scenarios import CORRUPTION_PROFILES, DEATH_PROFILES, \
    GRAY_PROFILES, TRACED
from repro.bench.setups import WorldSpec
from repro.host import MirroredVolume, NvmeMultiQueue, QueueTopology, SataNcq
from repro.sim import Simulator, units


class TestSpec:
    def test_default_is_the_calibrated_world(self):
        spec = WorldSpec()
        assert (spec.data_devices, spec.mirror, spec.dedicated_log) \
            == (1, 1, False)
        assert spec.topology == QueueTopology()
        assert spec.gray_faults is None
        assert spec.metrics_interval is None
        assert spec.profile is False
        assert spec.timeout_policy() is None
        assert setups.spec_of(Simulator()) == spec

    def test_json_round_trip(self):
        spec = WorldSpec(data_devices=3, dedicated_log=True,
                         topology=QueueTopology.for_interface("nvme", 4, 16),
                         gray_faults="stalls", gray_seed=7,
                         metrics_interval=0.25, profile=True)
        wire = json.loads(json.dumps(spec.to_json()))
        clone = WorldSpec.from_json(wire)
        assert clone == spec
        assert clone.to_json() == spec.to_json()
        assert clone.topology.affinity == {"log": 3}
        assert WorldSpec.from_json(WorldSpec().to_json()) == WorldSpec()

    def test_is_immutable(self):
        spec = WorldSpec()
        with pytest.raises(AttributeError):
            spec.mirror = 2

    @pytest.mark.parametrize("fields", [
        {"data_devices": 2, "mirror": 2},
        {"data_devices": 0},
        {"mirror": 0},
        {"gray_faults": "no-such-profile"},
        {"metrics_interval": 0.0},
    ])
    def test_bad_combinations_raise(self, fields):
        with pytest.raises(ValueError):
            WorldSpec(**fields)

    def test_replace_validates_too(self):
        with pytest.raises(ValueError):
            WorldSpec(mirror=2)._replace(data_devices=2)
        assert WorldSpec(mirror=2)._replace(data_devices=2, mirror=1) \
            == WorldSpec(data_devices=2)

    def test_gray_spec_arms_the_lifecycle_policy(self):
        policy = WorldSpec(gray_faults="mild", gray_seed=3).timeout_policy()
        assert policy is not None
        assert policy.deadline == 0.01


class TestWorldConstruction:
    def test_fresh_world_carries_its_spec(self):
        spec = WorldSpec(mirror=2)
        sim = setups.fresh_world(spec=spec)
        assert sim.spec is spec
        target, members = setups.make_data_target(sim, "durassd",
                                                  64 * units.MIB)
        assert isinstance(target, MirroredVolume)
        assert len(members) == 2

    def test_plain_simulator_builds_the_default_world(self):
        sim = Simulator()
        target, members = setups.make_data_target(sim, "durassd",
                                                  64 * units.MIB)
        assert target is members[0]

    def test_spec_topology_reaches_every_queue(self):
        spec = WorldSpec(topology=QueueTopology.for_interface("nvme", 2))
        sim = setups.fresh_world(spec=spec)
        engine, _devices = setups.mysql_setup(sim, 16 * units.KIB,
                                              barriers=False,
                                              doublewrite=False)
        for filesystem in (engine.data_fs, engine.log_fs):
            queue, = filesystem.target.queues
            assert isinstance(queue, NvmeMultiQueue)
            assert queue.affinity == {"log": 1}

    def test_armed_worlds_land_in_the_callers_list(self):
        worlds = []
        metered = setups.fresh_world(
            spec=WorldSpec(metrics_interval=0.5), worlds=worlds)
        setups.fresh_world(worlds=worlds)  # unarmed: not collected
        assert worlds == [metered]
        assert metered.telemetry.metrics.enabled
        assert not metered.telemetry.enabled


def _parse(*argv):
    return world_spec(build_parser().parse_known_args(list(argv))[0])


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a simulation started")
    monkeypatch.setattr(Simulator, "__init__", refuse)


#: the scenarios (or fault profiles) each command's ``--help`` lists
LISTINGS = {
    "trace": TRACED.names(),
    "monitor": TRACED.names(),
    "profile": TRACED.names() + sorted(profile.ALIASES),
    "explain": explain.SCENARIOS.names(),
    "chaos": GRAY_PROFILES.names(),
    "integrity": CORRUPTION_PROFILES.names(),
    "failover": DEATH_PROFILES.names(),
}


class TestCli:
    def test_no_flags_is_the_default_spec(self):
        assert _parse("table1") == WorldSpec()

    def test_every_flag_maps_to_its_field(self):
        spec = _parse("figure5", "--devices", "4", "--log-device",
                      "--interface", "nvme", "--sq", "3",
                      "--queue-depth", "8", "--gray-faults", "stalls",
                      "--metrics-interval", "0.05", "--profile")
        assert spec == WorldSpec(
            data_devices=4, dedicated_log=True,
            topology=QueueTopology(interface="nvme", submission_queues=3,
                                   queue_depth=8, affinity={"log": 2}),
            gray_faults="stalls", metrics_interval=0.05, profile=True)
        assert _parse("table5", "--mirror", "2").mirror == 2

    def test_gray_faults_none_is_healthy(self):
        assert _parse("table1", "--gray-faults", "none").gray_faults is None

    def test_world_commands_share_the_flags(self):
        for command in ("scaling", "regress", "explain", "monitor",
                        "profile", "trace", "all"):
            spec = _parse(command, "--interface", "nvme", "--sq", "2")
            assert spec.topology == QueueTopology.for_interface("nvme", 2)

    @pytest.mark.parametrize("argv", [
        ["table1", "--mirror", "2", "--devices", "2"],
        ["table1", "--interface", "scsi"],
        ["table1", "--sq", "0"],
        ["table1", "--devices", "0"],
        ["table1", "--gray-faults", "no-such-profile"],
        ["scaling", "--metrics-interval", "0"],
        ["table1", "--no-such-flag"],
        ["torture", "--ops"],
        ["torture", "innodb", "floppy"],
        ["chaos", "--mirror", "two"],
        ["chaos", "--profile", "no-such"],
        ["failover", "--pace"],
        ["failover", "--death", "double-death"],
        ["integrity", "--sead", "5"],
        ["scaling", "--smok"],
        ["scaling", "--out"],
        ["regress", "--tps-tol", "abc"],
        ["profile", "figure5", "--top", "abc"],
        ["profile", "--speed", "--ops"],
        ["explain", "linkbench", "--top"],
        ["monitor", "figure5", "--interval", "0"],
        ["trace", "nope"],
        ["validate", "--min-tracks", "abc", "x.json"],
        ["trace", "--out", "x.json"],
        ["profile", "figure5", "--speed"],
        ["scaling", "--smoke"],
        ["scaling", "--smoke", "--out", "BENCH_scaling.json"],
        ["scaling", "--devices", "2"],
    ])
    def test_bad_flags_are_usage_errors(self, argv, capsys, no_simulation):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ORDER + [
        "all", "scaling", "regress", "explain", "monitor", "profile",
        "trace", "torture", "chaos", "integrity", "failover", "validate"])
    def test_every_command_has_help(self, command, capsys, no_simulation):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: python -m repro %s " % command)
        for name in LISTINGS.get(command, ()):
            assert name in out

    def test_explicit_tolerance_wins_over_smoke(self, tmp_path,
                                                monkeypatch):
        cell = {"mode": "durable-cache", "width": 1, "tps": 100.0,
                "p99_write_s": 0.01}
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"scale_factor": setups.scale_factor(),
                                    "throughput": [cell]}))
        fresh = {"throughput": [dict(cell, tps=95.0)]}
        monkeypatch.setattr(regress, "run_fresh", lambda *_a, **_k: fresh)
        argv = ["regress", "--baseline", str(path), "--smoke"]
        assert main(argv) == 0  # a 5% drop is inside the smoke tolerance
        assert main(argv + ["--tps-tol", "0.01"]) == 1
        assert main(argv[:1] + ["--tps-tol", "0.01"] + argv[1:]) == 1

    @pytest.mark.parametrize("argv, seed", [
        (["chaos", "--smoke"], 11),
        (["chaos", "--smoke", "--seed", "0"], 0),
    ])
    def test_chaos_smoke_takes_an_explicit_seed_zero(self, argv, seed,
                                                     monkeypatch):
        calls = []
        monkeypatch.setattr(chaos, "smoke",
                            lambda **kwargs: calls.append(kwargs) or 0)
        assert main(argv) == 0
        assert calls == [{"ops": None, "seed": seed}]


class TestNoSharedState:
    def test_same_gray_cell_twice_gives_the_same_result(self):
        spec = WorldSpec(gray_faults="stalls")
        first = table1.measure_cell("durassd", "on", 8, ios=600, spec=spec)
        second = table1.measure_cell("durassd", "on", 8, ios=600, spec=spec)
        assert first == second
        # the first world after arming was already this world
        assert first == pytest.approx(1016.9, abs=0.05)

    @staticmethod
    def _cell(**kwargs):
        return scaling.run_width(1, False, clients=8, ops_per_client=10,
                                 **kwargs)

    def test_benches_back_to_back_share_nothing(self):
        alone = self._cell()
        scaling.run_mirror(
            2, clients=8, ops_per_client=10,
            spec=WorldSpec(topology=QueueTopology.for_interface("nvme", 2),
                           gray_faults="stalls"))
        assert self._cell() == alone

    def test_interface_cell_leaves_the_default_alone(self):
        """An NVMe sweep cell no longer switches later worlds to NVMe."""
        scaling.run_interface("nvme", 2, clients=4, ops_per_client=5)
        sim = setups.fresh_world()
        engine, _devices = setups.couchbase_setup(sim, 1, False)
        queue, = engine.filesystem.target.queues
        assert isinstance(queue, SataNcq)
