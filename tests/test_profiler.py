"""Simulator self-profiling: attribution, zero-overhead-off, reports.

The profiler's contract has three legs:

1. **Off is free** — an unprofiled simulator runs the untouched class
   methods (no instance-level ``step``/``_push`` overrides at all);
2. **On is honest** — every processed event is counted and charged to
   a layer, the attributed wall shares cover (nearly) all of the
   measured wall time, and detach restores the class path;
3. **Reports are schema-stable** — the ``profile`` section of the
   ``repro.run/1`` record the CLI emits passes its own checks, and the
   bench ``--profile`` aggregate does too.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.sim import SimProfiler, Simulator
from repro.sim.profiler import aggregate, allocation_stats, layer_of_path
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.validate import validate_run_record


def _pingpong(sim, rounds=50):
    """A tiny deterministic world with work in two generator targets."""
    def ping(sim):
        for _ in range(rounds):
            yield sim.timeout(1e-4)

    def pong(sim):
        for _ in range(rounds):
            yield sim.timeout(2e-4)

    sim.process(ping(sim))
    sim.process(pong(sim))


class TestZeroOverheadOff:
    def test_unprofiled_sim_has_no_instance_overrides(self):
        sim = Simulator()
        assert "step" not in vars(sim)
        assert "_push" not in vars(sim)
        assert sim._profiler is None

    def test_attach_installs_and_detach_restores(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        assert "step" in vars(sim)
        assert "_push" in vars(sim)
        assert sim._profiler is profiler
        profiler.detach()
        assert "step" not in vars(sim)
        assert "_push" not in vars(sim)
        assert sim._profiler is None
        # Collected numbers survive detach.
        assert profiler.sim is sim

    def test_double_attach_rejected(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        with pytest.raises(ValueError):
            profiler.attach(Simulator())
        with pytest.raises(ValueError):
            SimProfiler().attach(sim)
        profiler.detach()

    def test_hub_seam_attaches_at_construction(self):
        telemetry = Telemetry(enabled=False)
        telemetry.profiler = SimProfiler()
        sim = Simulator(telemetry)
        assert sim._profiler is telemetry.profiler
        assert telemetry.profiler.sim is sim

    def test_importing_the_world_builders_leaves_tracemalloc_out(self):
        """Every world pays for its imports: the profiler imports
        tracemalloc only when asked for allocation figures."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONTRACEMALLOC", None)
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, repro.bench.setups; "
             "print('tracemalloc' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert loaded.strip() == "False"


class TestAttribution:
    def test_every_event_counted_and_charged(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        _pingpong(sim)
        sim.run()
        assert profiler.steps == sim.processed_events
        assert profiler.steps > 100
        assert sum(profiler.layer_events.values()) == profiler.steps
        assert sum(profiler.event_type_count.values()) == profiler.steps
        # 50 rounds x 2 processes, every timeout push counted.
        assert profiler.push_count.get("Timeout", 0) == 100

    def test_profiled_results_identical_to_unprofiled(self):
        plain = Simulator()
        _pingpong(plain)
        plain.run()
        profiled = Simulator()
        SimProfiler().attach(profiled)
        _pingpong(profiled)
        profiled.run()
        assert profiled.now == plain.now
        assert profiled.processed_events == plain.processed_events

    def test_coverage_and_rates(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        _pingpong(sim)
        sim.run()
        assert profiler.wall_seconds() > 0
        assert profiler.sim_seconds() == pytest.approx(sim.now)
        assert 0.5 < profiler.coverage() <= 1.0 + 1e-9
        assert profiler.real_time_factor() > 0
        assert profiler.events_per_sec() > 0
        # Shares in the layer table sum to the coverage.
        shares = sum(row["share"] for row in profiler.summary()["layers"])
        assert shares == pytest.approx(profiler.coverage())

    def test_targets_resolve_to_test_code(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        _pingpong(sim)
        sim.run()
        targets = [row["target"]
                   for row in aggregate([profiler], top=50)["hot"]]
        assert any("ping" in target for target in targets)
        assert any("pong" in target for target in targets)
        # Test files live outside the repro package.
        layers = {row["layer"] for row in profiler.summary()["layers"]}
        assert "other" in layers

    def test_classification_is_cached(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        _pingpong(sim)
        sim.run()
        # Two generator code objects (+ engine-internal callbacks).
        assert 2 <= len(profiler._code_cache) <= 8

    def test_process_start_charged_to_its_own_generator(self):
        """A host-layer process spawned and awaited by workload code: its
        start runs its own generator, so it is charged to host, not to
        the workload code that waits on it."""
        from repro.devices import IORequest, make_durassd
        from repro.host import SataNcq

        namespace = {}
        exec(compile("def client(queue, request, spawned):\n"
                     "    command = queue.submit(request)\n"
                     "    spawned.append(command)\n"
                     "    return (yield command)\n",
                     os.path.join("src", "repro", "workloads", "loadgen.py"),
                     "exec"), namespace)
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        queue = SataNcq(sim, make_durassd(sim))
        spawned = []
        sim.process(namespace["client"](
            queue, IORequest("write", 0, 1, payload=["x"]), spawned))
        while not spawned:
            sim.step()
        command = spawned[0]
        assert command.callbacks, "the client waits on the command"
        assert profiler._classify(command) == (
            "host", "host.queues:SataNcq.serve")
        sim.run()
        assert profiler.steps == sim.processed_events
        # The client's own start and its resume when the command is done.
        assert profiler.target_events[
            ("workload", "workloads.loadgen:client")] == 2

    def test_resume_charged_to_the_innermost_generator(self):
        """A workload client delegating to db code with ``yield from``:
        the resume runs the db generator, so it is charged to db, not
        to the client that delegated."""
        namespace = {}
        exec(compile("def commit(sim, pending):\n"
                     "    event = sim.timeout(1e-4)\n"
                     "    pending.append(event)\n"
                     "    yield event\n",
                     os.path.join("src", "repro", "db", "wal.py"),
                     "exec"), namespace)
        exec(compile("def client(sim, commit, pending):\n"
                     "    yield from commit(sim, pending)\n",
                     os.path.join("src", "repro", "workloads", "loadgen.py"),
                     "exec"), namespace)
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        pending = []
        sim.process(namespace["client"](sim, namespace["commit"], pending))
        while not pending:
            sim.step()
        assert profiler._classify(pending[0]) == ("db", "db.wal:commit")
        sim.run()
        assert profiler.steps == sim.processed_events
        # The client's own start, then the resume inside commit.
        assert profiler.target_events[
            ("workload", "workloads.loadgen:client")] == 1
        assert profiler.target_events[("db", "db.wal:commit")] == 1

    def test_layer_of_path(self):
        sep = __import__("os").sep
        assert layer_of_path(sep.join(
            ["src", "repro", "devices", "base.py"])) == "device"
        assert layer_of_path(sep.join(
            ["src", "repro", "core", "cache.py"])) == "device"
        assert layer_of_path(sep.join(
            ["src", "repro", "workloads", "fio.py"])) == "workload"
        assert layer_of_path(sep.join(
            ["tests", "test_profiler.py"])) == "other"

    def test_collapsed_stack_format(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        _pingpong(sim)
        sim.run()
        text = profiler.collapsed_stacks()
        assert text.endswith("\n")
        for line in text.strip().split("\n"):
            frames, _space, value = line.rpartition(" ")
            assert frames.startswith("repro;")
            assert len(frames.split(";")) == 3
            assert int(value) > 0

    def test_gauges_register_on_enabled_metrics(self):
        telemetry = Telemetry(enabled=False,
                              metrics=MetricsRegistry(interval=0.01))
        telemetry.profiler = SimProfiler()
        sim = Simulator(telemetry)
        _pingpong(sim)
        sim.run()
        telemetry.metrics.finish()
        names = {instrument.name
                 for instrument in telemetry.metrics.instruments()}
        assert {"sim.real_time_factor", "sim.events_per_sec",
                "sim.wall_seconds", "sim.alloc_kib"} <= names


class TestSummaryAndAggregate:
    def _profiled_world(self):
        sim = Simulator()
        profiler = SimProfiler().attach(sim)
        _pingpong(sim)
        sim.run()
        return profiler

    def test_summary_shape(self):
        summary = self._profiled_world().summary()
        for key in ("steps", "pushes", "wall_seconds", "sim_seconds",
                    "real_time_factor", "events_per_sec", "coverage",
                    "gap_seconds", "layers", "event_types"):
            assert key in summary
        assert summary["layers"][0]["wall_s"] >= \
            summary["layers"][-1]["wall_s"]

    def test_aggregate_pools_worlds(self):
        first = self._profiled_world()
        second = self._profiled_world()
        pooled = aggregate([first, second])
        assert pooled["worlds"] == 2
        assert pooled["steps"] == first.steps + second.steps
        assert pooled["wall_seconds"] == pytest.approx(
            first.wall_seconds() + second.wall_seconds())
        assert pooled["hot"]
        assert 0.5 < pooled["coverage"] <= 1.0 + 1e-9

    def test_allocation_stats_groups_by_layer(self):
        import tracemalloc
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            self._profiled_world()
            stats = allocation_stats(before)
        finally:
            tracemalloc.stop()
        assert stats["total_kib"] >= 0
        assert stats["peak_kib"] > 0
        assert {row["layer"] for row in stats["layers"]}
        # Off tracing, the helper refuses instead of lying.
        with pytest.raises(RuntimeError):
            allocation_stats()


class TestBenchArming:
    def test_set_profile_arms_fresh_worlds(self):
        """A ``profile=True`` spec arms each world and hands it to the
        caller's list; the default spec arms nothing."""
        from repro.bench import setups
        worlds = []
        sim = setups.fresh_world(spec=setups.WorldSpec(profile=True),
                                 worlds=worlds)
        assert sim._profiler is not None
        assert worlds == [sim]
        assert setups.fresh_world(worlds=worlds)._profiler is None
        assert worlds == [sim]

    def test_set_profile_rides_explicit_hub(self):
        from repro.bench import setups
        telemetry = Telemetry(enabled=False)
        sim = setups.fresh_world(telemetry, setups.WorldSpec(profile=True))
        assert telemetry.profiler is sim._profiler


class TestProfileReport:
    @staticmethod
    def _structural_errors(report):
        """Validator errors minus the coverage-floor check: on a loaded
        host (the full suite runs beside other work) OS preemption
        between steps legitimately lands in the unattributed gap, so
        the 95% bar is enforced by the dedicated CI profile-smoke job,
        not here."""
        return [error for error in validate_run_record(report)
                if "cover" not in error]

    def test_scenario_report_validates(self, tmp_path):
        from repro.bench.profile import profile_scenario, render_markdown
        report, profiler = profile_scenario("figure5", alloc=False,
                                            ablation=False, top=5)
        assert self._structural_errors(report) == []
        assert report["profile"]["coverage"] > 0.5
        assert report["scenario"] == "figure5"
        assert len(report["profile"]["hot"]) <= 5
        markdown = render_markdown(report)
        assert "## Wall time by layer" in markdown
        assert "real-time factor" in markdown
        assert profiler.collapsed_stacks()
        # JSON round-trip keeps it valid (what CI's smoke job checks).
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(report))
        assert self._structural_errors(json.loads(path.read_text())) == []

    def test_alias_resolves(self):
        from repro.bench.profile import ALIASES
        assert ALIASES["figure5-small"] == "figure5"

    def test_validator_rejects_low_coverage(self):
        from repro.bench.profile import profile_scenario
        report, _profiler = profile_scenario("figure5", alloc=False,
                                             ablation=False)
        profile = report["profile"]
        profile["coverage"] = 0.5
        profile["layers"] = [dict(row, share=row["share"] * 0.5
                                  / profile["coverage"])
                             for row in profile["layers"]]
        errors = validate_run_record(report)
        assert any("cover" in error for error in errors)

    def test_validator_rejects_perturbing_ablation(self):
        from repro.bench.profile import profile_scenario
        report, _profiler = profile_scenario("figure5", alloc=False,
                                             ablation=False)
        report["profile"]["telemetry_overhead"] = {
            "base_wall_s": 1.0, "armed_wall_s": 1.1,
            "overhead_pct": 10.0, "base_events": 100,
            "armed_events": 101,
        }
        errors = validate_run_record(report)
        assert any("no events" in error for error in errors)
