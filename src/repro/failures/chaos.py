"""Gray-failure chaos harness: end-to-end degraded-mode verification.

The torture harness answers "does a power cut ever break a promise?";
this harness answers the same question for *gray* failures — devices
that stall, pause, storm or hang without ever failing stop
(:mod:`repro.failures.grayfaults`) — with the full tolerance stack
armed: host command deadlines, abort/soft-reset/retry
(:mod:`repro.host.lifecycle`) and database graceful degradation
(:mod:`repro.db.degrade`).

One chaos run asserts three properties:

1. **Liveness.**  The seeded operation stream completes — possibly with
   per-operation failures, but never a deadlock.  A watchdog horizon
   derived from the retry policy converts "stuck forever" into a
   reported violation instead of a hung simulation.
2. **Safety.**  After the stream, power is cut and the world recovers;
   every block-level and transaction-oracle invariant the configuration
   promises must hold — aborted/retried commands may never corrupt,
   lose or reorder acked data.
3. **Bounded degradation.**  Against curable fault profiles the run
   must finish within ``degradation_bound`` times the fault-free
   completion time of the identical world.  A permanent hang instead
   must drive the engine into read-only degraded mode
   (``expect_read_only``), not into a convoy.

A violating run minimizes to the shortest failing operation prefix and
round-trips through a self-contained JSON artifact.  The client, the
post-cut check, the verdict rule, the artifact codec and the bisection
are shared with the torture harness (:mod:`repro.failures.campaign`).
"""

import math

from ..host.lifecycle import TimeoutPolicy
from ..telemetry.hub import NULL_SPAN, Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.slo import SLOMonitor, default_chaos_rules
from .campaign import (
    CHAOS_FORMAT,
    Verdict,
    check_after_cut,
    check_reads,
    client,
    make_artifact,
    new_tally,
    run_uncut,
    shrink_prefix,
)
from .corruption import make_corruption_profile
from .death import make_death_schedule
from .grayfaults import GrayFaultProfile, make_profile
from .injector import PowerFailureInjector
from .torture import TortureScenario, build_world, generate_ops

#: default allowed completion-time inflation vs the fault-free run
DEFAULT_DEGRADATION_BOUND = 8.0

#: device commands a single database operation may plausibly escalate
#: (index-path reads, evictions, double writes, log flush, barriers)
_COMMANDS_PER_OP = 16


#: per-command deadline for chaos worlds, one per device kind: ~100x a
#: healthy command on each preset, but short enough that episode-scale
#: stalls escalate.  The HDD needs headroom for multi-millisecond seeks
#: under load.
CHAOS_DEADLINES = {"hdd": 0.2, "ssd-a": 0.01, "ssd-b": 0.01,
                   "durassd": 0.01}

#: seconds of simulated workload one LinkBench operation roughly takes
#: on the fast presets — used to rescale profile horizons to the stream
_SECONDS_PER_OP = 0.75e-3

#: metrics window length for the chaos SLO monitor: fine enough that a
#: timeout burst is localized to within ~half a deadline
CHAOS_METRICS_INTERVAL = 0.005


def chaos_scenario(device="durassd", profile="mild", seed=0, ops=120,
                   timeout_policy=None, admission_control=True,
                   horizon=None, corruption=None, mirror=1,
                   checksums=None, scrub=None, death=None, **world):
    """A fully seeded chaos world description (a gray
    :class:`~repro.failures.torture.TortureScenario`).

    ``profile`` is a name from :data:`repro.failures.grayfaults.PROFILES`
    or a :class:`GrayFaultProfile`.  Named profiles describe episode
    densities over a generic horizon; they are rescaled (horizon and
    hang instant, proportionally) onto this stream's expected duration
    so the episodes actually intersect the run.  The timeout policy
    defaults to a sim-scaled deadline seeded from ``seed`` so backoff
    jitter replays exactly.

    ``corruption`` is a name from
    :data:`repro.failures.corruption.CORRUPTION_PROFILES`, a config
    dict, or a :class:`~repro.failures.corruption.CorruptionConfig`.
    With corruption armed, host checksums default on and (on a mirrored
    topology, ``mirror >= 2``) the background scrubber defaults on, so
    the standard corruption chaos world is the fully defended one.

    ``death`` is a name from :data:`repro.failures.death.DEATH_PROFILES`
    or a :class:`~repro.failures.death.DeviceDeathSchedule`.  Named
    death profiles (like gray profiles) are scheduled on a generic
    horizon and rescaled (kill instant and stagger, proportionally)
    onto this stream's expected duration so the kill actually lands
    mid-run.

    ``world`` holds any other scenario field (``engine``, ``barriers``,
    ``gray_target``, ``stripe``, ``death_target``, ``spares``, ...).
    """
    if isinstance(corruption, str):
        corruption = make_corruption_profile(corruption, seed)
    if checksums is None:
        checksums = corruption is not None
    if scrub is None:
        scrub = mirror > 1 and checksums
    if horizon is None:
        horizon = max(0.02, ops * _SECONDS_PER_OP)
    if isinstance(profile, str):
        profile = make_profile(profile, seed)
        scale = horizon / profile.horizon
        profile = profile._replace(
            horizon=horizon,
            hang_at=(None if profile.hang_at is None
                     else profile.hang_at * scale))
    if isinstance(death, str):
        death = make_death_schedule(death, seed)
        scale = horizon / death.horizon
        death = death._replace(
            horizon=horizon, stagger=death.stagger * scale,
            die_at=None if death.die_at is None else death.die_at * scale)
    scenario = TortureScenario(
        device=device, ops=ops, seed=seed, timeout_policy=timeout_policy,
        gray_profile=profile, admission_control=admission_control,
        corruption=corruption, mirror=mirror, checksums=checksums,
        scrub=scrub, death=death, **world)
    if timeout_policy is None:
        scenario = scenario._replace(timeout_policy=TimeoutPolicy(
            deadline=CHAOS_DEADLINES[device], backoff_base=1e-3, seed=seed))
    return scenario


class ChaosResult(Verdict):
    """Outcome of one chaos run: op tallies, counters, verdict."""

    artifact_format = CHAOS_FORMAT

    def __init__(self, scenario):
        super().__init__()
        self.scenario = scenario
        self.ops_total = 0
        self.ops_ok = 0
        self.ops_timed_out = 0
        self.ops_rejected = 0
        self.ops_failed_hard = 0
        self.ops_corrupt_detected = 0
        self.completed = False
        self.read_only = False
        self.duration = 0.0
        self.baseline_duration = None
        self.degradation_ratio = None
        self.host_counters = {}
        self.gray_counters = {}
        self.db_counters = {}
        # SLO-monitor verdict: fired alert episodes, the first instant
        # an injection perturbed a command, and how long the monitor
        # took to notice (first fire minus first fault).
        self.alerts = []
        self.slo_rules_evaluated = 0
        self.first_fault_s = None
        self.detection_latency_s = None
        # Failover verdict: member deaths, degraded windows, rebuild
        # MTTR and detected data loss (None when nothing ever died).
        self.failover = None

    def to_json(self):
        return {
            "ops_total": self.ops_total,
            "ops_ok": self.ops_ok,
            "ops_timed_out": self.ops_timed_out,
            "ops_rejected": self.ops_rejected,
            "ops_failed_hard": self.ops_failed_hard,
            "ops_corrupt_detected": self.ops_corrupt_detected,
            "undetected_corrupt_reads": self.undetected_corrupt_reads,
            "integrity_expected": self.integrity_expected,
            "completed": self.completed,
            "read_only": self.read_only,
            "duration": self.duration,
            "baseline_duration": self.baseline_duration,
            "degradation_ratio": self.degradation_ratio,
            "expected_clean": self.expected_clean,
            "violations": list(self.violations),
            "host_counters": self.host_counters,
            "gray_counters": self.gray_counters,
            "db_counters": self.db_counters,
            "alerts": list(self.alerts),
            "slo_rules_evaluated": self.slo_rules_evaluated,
            "first_fault_s": self.first_fault_s,
            "detection_latency_s": self.detection_latency_s,
            "failover": self.failover,
        }

    def __repr__(self):
        return ("<ChaosResult ok=%d/%d timed_out=%d rejected=%d "
                "read_only=%r violations=%d>"
                % (self.ops_ok, self.ops_total, self.ops_timed_out,
                   self.ops_rejected, self.read_only, len(self.violations)))


def _merge_gray_counters(world):
    """Gray-fault counters summed per role (a striped data target has
    several member devices; their episode tallies merge)."""
    merged = {}
    roles = (("data", getattr(world, "data_devices",
                              (world.data_device,))),
             ("log", (world.log_device,)))
    for role, devices in roles:
        totals = {}
        for device in devices:
            if device.gray_faults is None:
                continue
            for key, value in device.gray_faults.counters.items():
                totals[key] = totals.get(key, 0) + value
        if totals:
            merged[role] = totals
    return merged


def _ladder_seconds(policy):
    """Worst-case seconds one command spends on the full escalation
    ladder (all deadlines, resets and maximal backoffs)."""
    backoff = sum(policy.backoff_base * policy.backoff_factor ** k
                  * (1.0 + policy.jitter)
                  for k in range(policy.max_attempts - 1))
    return policy.max_attempts * (policy.deadline + 0.01) + backoff


def horizon_guard(scenario, ops):
    """Watchdog instant: any run still going past this is stuck."""
    policy = scenario.timeout_policy or TimeoutPolicy()
    return 10.0 + len(ops) * _COMMANDS_PER_OP * _ladder_seconds(policy)


def baseline_duration(scenario, ops, telemetry=None):
    """Completion time of the identical world with no gray faults.

    The timeout policy stays armed so the comparison isolates the
    *faults*, not the lifecycle plumbing.
    """
    quiet = scenario._replace(gray_profile=None, corruption=None,
                              death=None, spares=0)
    world = build_world(quiet, telemetry)
    tally = run_uncut(world, ops)
    if tally["ok"] != len(ops):
        raise RuntimeError("fault-free baseline failed operations: %r"
                           % (tally,))
    return world.sim.now


def _first_fault_time(world):
    """Earliest instant any device's gray, corruption or death model
    perturbed a command (for corruption: the first silently injected
    fault; for death: the fail-stop instant)."""
    first = None
    for device in world.devices:
        for model in (device.gray_faults, device.corruption,
                      device.death):
            if model is None or model.first_fault_time is None:
                continue
            if first is None or model.first_fault_time < first:
                first = model.first_fault_time
    return first


def _evaluate_slo(world, scenario, profile, result):
    """Run the detection rules over the run's metric windows.

    The rules see only host-observable symptoms (timeout counters,
    read-only demotion, in-flight age) — detection latency measures the
    monitor genuinely *noticing*, not being told about the injection.
    A quiet profile firing any alert is a false-positive violation.
    """
    registry = world.sim.telemetry.metrics
    if not registry.active:
        return
    registry.finish(world.sim.now)
    policy = scenario.timeout_policy or TimeoutPolicy()
    monitor = SLOMonitor(registry, default_chaos_rules(policy.deadline))
    outcomes = monitor.evaluate()
    episodes = [episode for outcome in outcomes
                for episode in outcome.episodes]
    episodes.sort(key=lambda episode: episode.fired_at)
    result.slo_rules_evaluated = sum(
        1 for outcome in outcomes if outcome.evaluations)
    result.alerts = [episode.to_json() for episode in episodes]
    result.first_fault_s = _first_fault_time(world)
    if episodes and result.first_fault_s is not None:
        result.detection_latency_s = (episodes[0].fired_at
                                      - result.first_fault_s)
    corruption_quiet = (scenario.corruption is None
                        or scenario.corruption.quiet)
    death_quiet = scenario.death is None or scenario.death.quiet
    if profile.quiet and corruption_quiet and death_quiet and episodes:
        fired = sorted({episode.rule.name for episode in episodes})
        result.violations.append(
            "slo:false-positive:%s" % ",".join(fired))


def _drain_rebuild(world):
    """Let an in-flight rebuild finish (bounded) after the stream.

    The rebuilder is a background process; the client stream routinely
    completes while blocks are still being copied.  MTTR is a property
    of the repair, not of the stream length, so the simulation idles on
    until the spare is whole — or until a generous per-block bound says
    the rebuild is stuck (reported by the failover verdict)."""
    volume, rebuilder = world.volume, world.rebuilder
    if volume is None or rebuilder is None:
        return
    sim = world.sim

    def pending():
        if all(volume._dead):
            return False
        if volume.rebuild_remaining():
            return True
        # a dead member with a spare still pooled: the rebuilder will
        # claim it on its next idle tick — that counts as in-flight.
        return bool(rebuilder.spares) and any(volume._dead)

    if not pending():
        return
    backlog = max(volume.rebuild_remaining(),
                  len(volume.checksums.tracked()))
    deadline = sim.now + max(2.0, rebuilder.idle * 4
                             + backlog * (rebuilder.pace * 4 + 0.02))
    while pending() and sim.now < deadline:
        sim.run_until(sim.timeout(min(0.05, deadline - sim.now)))


def _evaluate_failover(world, scenario, result):
    """The death verdict: who died, how long the mirror ran degraded,
    whether the rebuild completed (and its MTTR), and — loudest of all
    — whether any acked block is now *detected lost*.

    Detected data loss voids the crash-consistency promise (the blocks
    are gone and the stack said so); it is always reported as a
    ``death:`` violation so a second-failure-during-rebuild cell can
    never silently pass."""
    deaths = [device for device in world.devices if device.dead]
    volume = world.volume
    if not deaths and volume is None:
        return
    if not deaths and not (volume.degraded or volume.mttr_samples):
        return
    info = {
        "devices_dead": [device.name for device in deaths],
        "first_death_s": None,
        "members_dead": 0,
        "degraded": False,
        "degraded_seconds": 0.0,
        "rebuilds_started": 0,
        "rebuilds_completed": 0,
        "blocks_copied": 0,
        "rebuild_remaining": 0,
        "rebuild_mttr_s": None,
        "data_loss_blocks": 0,
    }
    death_times = [device.died_at for device in deaths
                   if device.died_at is not None]
    if death_times:
        info["first_death_s"] = min(death_times)
    if volume is not None:
        window = volume.degraded_seconds
        if volume.degraded_since is not None:
            window += world.sim.now - volume.degraded_since
        info.update(
            members_dead=volume.members_dead(),
            degraded=volume.degraded,
            degraded_seconds=window,
            rebuilds_started=volume.failover["rebuilds_started"],
            rebuilds_completed=volume.failover["rebuilds_completed"],
            blocks_copied=volume.failover["blocks_copied"],
            rebuild_remaining=volume.rebuild_remaining(),
            rebuild_mttr_s=(volume.mttr_samples[0]
                            if volume.mttr_samples else None),
            data_loss_blocks=len(volume._lost))
        if volume._lost:
            result.expected_clean = False
            result.violations.append(
                "death:data-loss-detected:blocks=%d" % len(volume._lost))
        elif (deaths and world.rebuilder is not None
                and info["rebuilds_started"]
                and info["rebuilds_completed"]
                < info["rebuilds_started"]):
            result.violations.append(
                "death:rebuild-incomplete:remaining=%d"
                % info["rebuild_remaining"])
    result.failover = info


def _crash_checkable(world):
    """Can the post-stream crash/recovery safety check run at all?

    A fail-stopped log device, a dead unreplicated data path, or a
    mirror with no fully-populated surviving member cannot recover —
    the failover verdict (not the crash check) is the report for those
    worlds."""
    if world.log_device.dead:
        return False
    volume = world.volume
    if volume is not None:
        return any(not dead and not missing
                   for dead, missing in zip(volume._dead, volume._missing))
    return not any(device.dead for device in world.data_devices)


def run_chaos(scenario, ops=None, telemetry=None, baseline=None,
              crash_check=True, expect_read_only=None, monitor=True,
              metrics_interval=None):
    """One chaos run: liveness, then safety, then bounded degradation.

    ``baseline`` is the fault-free completion time (computed on demand
    when omitted and a bound applies).  ``expect_read_only`` overrides
    the default expectation (permanent-hang profiles must demote).
    With ``monitor`` on (and no caller-supplied ``telemetry``), the run
    collects windowed metrics and reports the SLO monitor's verdict —
    fired alerts and gray-failure detection latency.  Returns a
    :class:`ChaosResult`.
    """
    if ops is None:
        ops = generate_ops(scenario)
    profile = scenario.gray_profile or GrayFaultProfile()
    if expect_read_only is None:
        expect_read_only = bool(profile.hang_at is not None
                                and profile.hang_permanent)
    result = ChaosResult(scenario)
    result.ops_total = len(ops)
    own_hub = telemetry is None and monitor
    if own_hub:
        # Spans stay off; only the windowed metric collector runs.  The
        # hub must not leak into baseline_duration below — a hub binds
        # to exactly one simulator.
        telemetry = Telemetry(enabled=False, metrics=MetricsRegistry(
            interval=metrics_interval or CHAOS_METRICS_INTERVAL))
    world = build_world(scenario, telemetry)
    sim = world.sim
    result.expected_clean = world.expected_clean
    result.integrity_expected = world.integrity_expected
    tally = new_tally()
    stream = sim.process(client(world.workload, ops, tally))
    watchdog = sim.timeout(horizon_guard(scenario, ops))
    with (sim.telemetry.span("chaos.run", "failures",
                             device=scenario.device, ops=len(ops))
          if sim.telemetry.enabled else NULL_SPAN) as span:
        sim.run_until(sim.any_of([stream, watchdog]))
        world.engine.stop_cleaner()
        result.ops_ok = tally["ok"]
        result.ops_timed_out = tally["timed_out"]
        result.ops_rejected = tally["rejected"]
        result.ops_failed_hard = tally["dead"]
        result.ops_corrupt_detected = tally["corrupt"]
        check_reads(world, result)
        result.completed = stream.triggered
        result.duration = sim.now
        result.read_only = getattr(world.engine, "degradation",
                                   None) is not None \
            and world.engine.degradation.read_only
        result.host_counters = {
            "data": world.engine.data_fs.lifecycle_counters(),
            "log": world.engine.log_fs.lifecycle_counters(),
        }
        result.gray_counters = _merge_gray_counters(world)
        result.db_counters = dict(
            world.engine.degradation.counters) \
            if getattr(world.engine, "degradation", None) else {}
        if not result.completed:
            # Stuck behind the watchdog: a liveness violation however
            # the configuration is classified — the whole point of the
            # tolerance stack is that nothing hangs forever.
            result.expected_clean = True
            result.violations.append(
                "liveness:stuck-at-op-%d" % tally["completed"])
            _evaluate_slo(world, scenario, profile, result)
            _evaluate_failover(world, scenario, result)
            span.annotate(stuck=True)
            return result
        _drain_rebuild(world)
        _evaluate_slo(world, scenario, profile, result)
        _evaluate_failover(world, scenario, result)
        if expect_read_only and not result.read_only:
            result.violations.append(
                "degrade:no-readonly-demotion:escalations=%d"
                % result.db_counters.get("escalations", -1))
        # Bounded degradation (curable profiles only; a permanent hang
        # has no meaningful completion-time bound).
        bound = profile.degradation_bound
        if bound is None:
            bound = DEFAULT_DEGRADATION_BOUND
        if not profile.quiet and bound != math.inf:
            if baseline is None:
                baseline = baseline_duration(
                    scenario, ops, None if own_hub else telemetry)
            result.baseline_duration = baseline
            result.degradation_ratio = (result.duration / baseline
                                        if baseline else None)
            if result.degradation_ratio is not None \
                    and result.degradation_ratio > bound:
                result.violations.append(
                    "degradation:%.2fx>bound-%.2fx"
                    % (result.degradation_ratio, bound))
        if crash_check and _crash_checkable(world):
            # Safety: whatever aborts, resets and retries happened
            # mid-run, the acked state must survive a crash exactly as
            # it would have without gray faults.
            injector = PowerFailureInjector(sim, world.devices)
            injector.execute_cut()
            injector.reboot_all()
            check_after_cut(world, result.violations)
        span.annotate(violations=len(result.violations))
    return result


def minimize_chaos(scenario, ops, predicate=None, telemetry=None):
    """Shrink a violating run to its shortest failing operation prefix.

    Returns a replayable artifact dict, or ``None`` when not even the
    full stream violates.  ``predicate`` defaults to "any violation".
    """
    if predicate is None:
        predicate = lambda result: not result.clean

    def probe(prefix):
        result = run_chaos(scenario, prefix, telemetry=telemetry)
        return result if predicate(result) else None

    found = shrink_prefix(ops, probe)
    if found is None:
        return None
    length, result = found
    return make_artifact(scenario, ops[:length], result)
