"""Crash-consistency torture harness.

Systematically answers the paper's central claim — *a DuraSSD needs no
write barriers to be crash-safe* — by construction rather than by
argument:

1. **Record**: run a deterministic, seeded LinkBench operation stream
   against a freshly built world (engine + devices) and collect every
   ack boundary the devices reported.
2. **Sweep**: for each candidate cut point (the midpoints between
   consecutive distinct ack instants, plus one before the first and one
   after the last), rebuild the *identical* world, replay the same
   operation stream, cut power there, reboot, run device and database
   recovery, and check both block-level invariants
   (:mod:`repro.failures.checker`) and the transaction oracle
   (:mod:`repro.db.dbrecovery`).  Short runs sweep exhaustively; long
   ones take a seeded sample and refine failures by bisection.
   Selected trials additionally inject a *nested* cut in the middle of
   recovery — either interrupting the DuraSSD dump replay or the
   database redo pass — and recover again.
3. **Minimize**: a failing schedule is reduced to the shortest
   operation prefix plus the earliest failing cut point, and emitted as
   a self-contained JSON artifact that
   :func:`~repro.failures.campaign.replay_artifact` reproduces with no
   other inputs.

The verdict policy keys on ``StorageDevice.claims_durable_cache``: a
device claiming a durable cache must check clean at block level at
*every* cut point, and a configuration that promises durability (a
durable cache, or barriers on) must recover a consistent database.
Configurations that promise nothing (volatile cache, barriers off) are
still swept — their violations are what the paper's Table 1 anomaly
discussion is about — but they do not fail the sweep.
"""

from itertools import accumulate
from typing import NamedTuple

from ..db import dbrecovery
from ..db.commercial import CommercialConfig, CommercialEngine
from ..db.innodb import InnoDBConfig, InnoDBEngine
from ..devices import DEVICE_MAKERS
from ..host import (
    FileSystem,
    MirroredVolume,
    Rebuilder,
    Scrubber,
    StripedVolume,
    VerifyingTarget,
    as_target,
)
from ..host.lifecycle import TimeoutPolicy
from ..host.queues import INTERFACES, QueueTopology
from ..sim import Simulator, units
from ..sim.record import Record
from ..sim.rng import make_rng
from ..workloads.linkbench import (
    OPERATION_MIX,
    LinkBenchConfig,
    LinkBenchWorkload,
    NodeSampler,
)
from .campaign import (
    TORTURE_FORMAT,
    Verdict,
    check_after_cut,
    check_reads,
    client,
    make_artifact,
    new_tally,
    run_uncut,
    shrink_prefix,
)
from .corruption import CorruptionConfig, CorruptionModel
from .death import DeviceDeathModel, DeviceDeathSchedule
from .faults import FaultConfig, TransientFaultModel
from .grayfaults import GrayFaultModel, GrayFaultProfile
from .injector import PowerFailureInjector

#: Offset past the final ack for the "after everything was acked" cut.
_AFTER_LAST_ACK = 1e-7

ENGINES = ("innodb", "commercial")


def check_target(field, target, width):
    """The one fault-target grammar, for gray faults, corruption and
    death alike: ``data`` (every data member), ``data:<i>`` (member
    ``i`` of a stripe or a mirror ``width`` wide), ``log`` or ``all``.
    Raises ``ValueError`` naming ``field`` on anything else."""
    if target in ("data", "log", "all") \
            or target in ["data:%d" % i for i in range(width)]:
        return
    raise ValueError("%s must be data, log, all or data:<i> with "
                     "0 <= i < %d: %r" % (field, width, target))


def fault_targets(target, data_devices, log_device):
    """The ``(device, salt, index)`` of each device ``target`` hits.

    A salt names the device's role (``data:<i>``, ``log``), so models
    sharing one profile never share a random stream.  ``index`` orders
    staggered deaths: the device's position among the devices ``target``
    hits, so a lone ``log`` or ``data:<i>`` target dies first.
    """
    if target.startswith("data:"):
        hits = ((data_devices[int(target[5:])], target),)
    else:
        hits = ()
        if target != "log":
            hits = tuple((device, "data:%d" % index)
                         for index, device in enumerate(data_devices))
        if target != "data":
            hits += ((log_device, "log"),)
    return tuple((device, salt, index)
                 for index, (device, salt) in enumerate(hits))


class _ScenarioFields(NamedTuple):
    engine: str = "innodb"
    device: str = "durassd"
    #: None = auto: off when every device claims a durable cache (the
    #: paper's DuraSSD configuration), on otherwise.
    barriers: bool = None
    doublewrite: bool = True
    ops: int = 200
    seed: int = 11
    db_bytes: int = 2 * units.MIB
    page_size: int = 16 * units.KIB
    #: None: the larger of 16 pages and a quarter of the database
    buffer_pool_bytes: int = None
    fault_config: FaultConfig = None
    capacitor_health: float = 1.0
    workload: str = "linkbench"
    # Gray-failure wiring (repro.failures.grayfaults): all off by
    # default, so classic torture scenarios are untouched.
    timeout_policy: TimeoutPolicy = None
    gray_profile: GrayFaultProfile = None
    gray_target: str = "all"
    admission_control: bool = False
    stripe: int = 1
    # End-to-end integrity wiring (repro.failures.corruption,
    # repro.host.integrity): all off by default, so classic torture
    # scenarios build byte-identical worlds.
    corruption: CorruptionConfig = None
    corruption_target: str = "data"
    mirror: int = 1
    checksums: bool = False
    scrub: bool = False
    # Fail-stop device deaths and online repair (repro.failures.death,
    # repro.host.volume.Rebuilder): all off by default.
    death: DeviceDeathSchedule = None
    death_target: str = "data"
    spares: int = 0
    rebuild_pace: float = None
    # Host queue model (repro.host.queues): the default SATA NCQ builds
    # byte-identical classic worlds; "nvme" runs every queue-owning
    # target behind a multi-queue model instead.
    interface: str = "sata"
    submission_queues: int = 2


class TortureScenario(Record, _ScenarioFields):
    """A fully seeded, JSON-serializable description of one torture world.

    Everything a trial needs is here (plus the operation list, which
    :func:`generate_ops` derives deterministically from the seed), so a
    failure reproduces from the serialized scenario alone.  A nested
    fault config may be given as its JSON dict.
    """

    __slots__ = ()

    def _check(self):
        if self.engine == "commercial" and self.doublewrite:
            # the commercial engine has no DWB
            return self._replace(doublewrite=False)
        if self.engine not in ENGINES:
            raise ValueError("unknown engine: %r" % self.engine)
        if self.device not in DEVICE_MAKERS:
            raise ValueError("unknown device: %r" % self.device)
        if self.workload != "linkbench":
            raise ValueError("unknown workload: %r" % self.workload)
        if self.ops < 1:
            raise ValueError("ops must be >= 1")
        if not 0.0 <= self.capacitor_health <= 1.0:
            raise ValueError("capacitor_health must be in [0, 1]")
        if self.stripe < 1:
            raise ValueError("stripe width must be >= 1")
        if self.mirror < 1:
            raise ValueError("mirror width must be >= 1")
        if self.mirror > 1 and self.stripe > 1:
            raise ValueError("mirror and stripe are mutually exclusive")
        if self.scrub and not self.integrity_armed:
            raise ValueError("scrub needs checksums or a mirror to verify "
                             "against")
        width = max(self.stripe, self.mirror)
        check_target("gray_target", self.gray_target, width)
        check_target("corruption_target", self.corruption_target, width)
        check_target("death_target", self.death_target, width)
        if self.spares < 0:
            raise ValueError("spares must be >= 0")
        if self.spares and self.mirror <= 1:
            raise ValueError("hot spares need a mirror to rebuild")
        if self.rebuild_pace is not None and self.rebuild_pace <= 0:
            raise ValueError("rebuild_pace must be > 0")
        if self.interface not in INTERFACES:
            raise ValueError("interface must be one of %s" % (INTERFACES,))
        if self.submission_queues < 1:
            raise ValueError("submission_queues must be >= 1")

    @property
    def integrity_armed(self):
        """Does this world defend reads (checksums and/or a mirror)?"""
        return self.checksums or self.mirror > 1

    @classmethod
    def from_json(cls, data):
        # Artifacts written before the one target grammar spell the
        # gray default ``all`` as ``both``.
        if data.get("gray_target") == "both":
            data = dict(data, gray_target="all")
        return cls(**data)


class TortureWorld:
    """One freshly built simulation world for a single trial."""

    def __init__(self, sim, engine, devices, workload, barriers,
                 expected_clean, data_devices=None, audit=None,
                 scrubber=None, integrity_expected=False, volume=None,
                 rebuilder=None, spare_devices=()):
        self.sim = sim
        self.engine = engine
        self.devices = devices
        #: the data-target members (one for an unstriped world)
        self.data_devices = (tuple(data_devices) if data_devices
                             else (devices[0],))
        self.data_device = self.data_devices[0]
        self.log_device = devices[-1]
        self.workload = workload
        self.barriers = barriers
        self.expected_clean = expected_clean
        #: passive undetected-corruption auditor (corruption worlds only)
        self.audit = audit
        #: background media scrubber, when the scenario arms one
        self.scrubber = scrubber
        #: does this world promise detection (checksums or mirror)?
        self.integrity_expected = integrity_expected
        #: the striped/mirrored data volume, when the world has one
        self.volume = volume
        #: background online rebuilder, when hot spares are pooled
        self.rebuilder = rebuilder
        #: unattached hot-spare devices (they join via the rebuilder)
        self.spare_devices = tuple(spare_devices)


def _install_gray(device, profile, target, salt, index):
    # Under a whole-data target gray member 0 is salted plain ``data``:
    # the committed chaos artifacts replay that schedule.
    if target in ("data", "all") and salt == "data:0":
        salt = "data"
    device.inject_gray_faults(GrayFaultModel(profile, salt=salt))


def _install_corruption(device, config, target, salt, index):
    # Silent corruption lives beneath the FTL: a disk has none.
    if hasattr(device, "inject_corruption"):
        device.inject_corruption(CorruptionModel(config, salt=salt))


def _install_death(device, schedule, target, salt, index):
    device.inject_death(DeviceDeathModel(schedule, salt=salt, index=index))


def build_world(scenario, telemetry=None):
    """Construct the scenario's world from scratch; deterministic."""
    sim = Simulator(telemetry)
    maker = DEVICE_MAKERS[scenario.device]
    data_capacity = max(32 * units.MIB, scenario.db_bytes * 8)
    log_capacity = max(16 * units.MIB, scenario.db_bytes * 2)
    if scenario.stripe > 1:
        member_capacity = -(-data_capacity // scenario.stripe)
        data_devices = tuple(
            maker(sim, capacity_bytes=member_capacity,
                  name="%s.d%d" % (scenario.device, index))
            for index in range(scenario.stripe))
    elif scenario.mirror > 1:
        data_devices = tuple(
            maker(sim, capacity_bytes=data_capacity,
                  name="%s.m%d" % (scenario.device, index))
            for index in range(scenario.mirror))
    else:
        data_devices = (maker(sim, capacity_bytes=data_capacity),)
    log_device = maker(sim, capacity_bytes=log_capacity)
    spare_devices = tuple(
        maker(sim, capacity_bytes=data_capacity,
              name="%s.s%d" % (scenario.device, index))
        for index in range(scenario.spares))
    # Spares sit between the data members and the log so devices[-1]
    # stays the log device everywhere downstream.
    devices = data_devices + spare_devices + (log_device,)
    for device in devices:
        if scenario.fault_config is not None and \
                hasattr(device, "inject_faults"):
            device.inject_faults(TransientFaultModel(scenario.fault_config))
        if scenario.capacitor_health < 1.0 and \
                hasattr(device, "set_capacitor_health"):
            device.set_capacitor_health(scenario.capacitor_health)
    death = scenario.death
    if death is not None and death.quiet:
        death = None
    for fault, target, install in (
            (scenario.gray_profile, scenario.gray_target, _install_gray),
            (scenario.corruption, scenario.corruption_target,
             _install_corruption),
            (death, scenario.death_target, _install_death)):
        if fault is not None:
            for device, salt, index in fault_targets(target, data_devices,
                                                     log_device):
                install(device, fault, target, salt, index)
    all_durable = all(device.claims_durable_cache for device in devices)
    barriers = (not all_durable) if scenario.barriers is None \
        else scenario.barriers
    # The bench worlds' topology for the interface: NVMe routes the log
    # stream to its last submission queue.
    queue_model = QueueTopology.for_interface(scenario.interface,
                                              scenario.submission_queues)
    volume = None
    if scenario.stripe > 1:
        data_target = StripedVolume(sim, data_devices,
                                    timeout_policy=scenario.timeout_policy,
                                    queue_model=queue_model)
    elif scenario.mirror > 1:
        volume = MirroredVolume(sim, data_devices,
                                timeout_policy=scenario.timeout_policy,
                                queue_model=queue_model)
        data_target = volume
    else:
        data_target = data_devices[0]
    if scenario.checksums and scenario.mirror <= 1:
        # Unreplicated defense: fingerprint writes, fail-stop bad reads.
        data_target = VerifyingTarget(as_target(
            sim, data_target, timeout_policy=scenario.timeout_policy,
            queue_model=queue_model))
    defended_target = data_target
    audit = None
    if scenario.corruption is not None:
        # Harness-side oracle OUTSIDE any defense: a corrupt value that
        # makes it past this point was served to the host undetected.
        audit = VerifyingTarget(as_target(
            sim, data_target, timeout_policy=scenario.timeout_policy,
            queue_model=queue_model),
            fail_stop=False)
        data_target = audit
    data_fs = FileSystem(sim, data_target, barriers=barriers,
                         timeout_policy=scenario.timeout_policy,
                         queue_model=queue_model)
    log_fs = FileSystem(sim, log_device, barriers=barriers,
                        timeout_policy=scenario.timeout_policy,
                        queue_model=queue_model)
    # Keep the WAL ring well inside the shrunken log device.
    log_ring = min(192 * units.MIB, log_capacity // 4)
    pool = scenario.buffer_pool_bytes or max(16 * scenario.page_size,
                                             scenario.db_bytes // 4)
    if scenario.engine == "commercial":
        config = CommercialConfig(page_size=scenario.page_size,
                                  buffer_pool_bytes=pool,
                                  log_capacity_bytes=log_ring)
        engine = CommercialEngine(sim, data_fs, log_fs, config)
    else:
        config = InnoDBConfig(page_size=scenario.page_size,
                              buffer_pool_bytes=pool,
                              doublewrite=scenario.doublewrite,
                              log_capacity_bytes=log_ring,
                              admission_control=scenario.admission_control)
        engine = InnoDBEngine(sim, data_fs, log_fs, config)
    for device in devices:
        device.record_acks = True
    if scenario.checksums:
        # Record-checksum verification of the redo log during recovery.
        engine.wal.verify_on_recovery = True
    degradation = getattr(engine, "degradation", None)
    scrubber = None
    if scenario.scrub:
        scrubber = Scrubber(
            sim, defended_target,
            escalate=(degradation.record_escalation
                      if degradation is not None else None))
        if volume is not None:
            # Repairs pause the scrubber; finished rebuilds hand it the
            # copied blocks for re-verification.
            volume.scrubber = scrubber
    rebuilder = None
    if volume is not None and spare_devices:
        rebuilder = Rebuilder(
            sim, volume, spares=list(spare_devices),
            pace=scenario.rebuild_pace or 5e-4,
            escalate=(degradation.record_escalation
                      if degradation is not None else None))
    lb_config = LinkBenchConfig(db_bytes=scenario.db_bytes,
                                seed=scenario.seed)
    workload = LinkBenchWorkload(engine, lb_config)
    # The promise under test: either every cache is durable (DuraSSD's
    # claim), or the host kept barriers on AND multi-block pages are
    # protected against tearing (double-write, or single-LBA pages —
    # only DuraSSD makes whole *commands* atomic).  Anything else
    # promises nothing, and its violations are findings, not failures.
    expected_clean = all_durable or (
        barriers and (scenario.doublewrite
                      or scenario.page_size <= units.LBA_SIZE))
    if scenario.corruption is not None and not scenario.corruption.quiet:
        # Silently rotting media voids the crash-consistency promise:
        # even a mirror loses data when both replicas of a block fault
        # (detected, fail-stop — but lost).  What an integrity-armed
        # world *does* promise is detection: any ``integrity:``
        # violation still fails the trial via ``integrity_expected``.
        expected_clean = False
    return TortureWorld(sim, engine, devices, workload, barriers,
                        expected_clean, data_devices=data_devices,
                        audit=audit, scrubber=scrubber,
                        integrity_expected=scenario.integrity_armed,
                        volume=volume, rebuilder=rebuilder,
                        spare_devices=spare_devices)


def generate_ops(scenario):
    """The scenario's deterministic (name, node) operation stream."""
    config = LinkBenchConfig(db_bytes=scenario.db_bytes, seed=scenario.seed)
    rng = make_rng(("torture-ops", scenario.seed))
    sampler = NodeSampler(config, rng)
    write_sampler = NodeSampler(config, rng, config.write_hot_fraction)
    names = [name for name, _w, _k in OPERATION_MIX]
    cum_weights = list(accumulate(
        weight for _n, weight, _k in OPERATION_MIX))
    kinds = {name: kind for name, _w, kind in OPERATION_MIX}
    ops = []
    for _ in range(scenario.ops):
        name = rng.choices(names, cum_weights=cum_weights)[0]
        node = (write_sampler.next() if kinds[name] == "write"
                else sampler.next())
        ops.append((name, int(node)))
    return ops


class Recording:
    """Result of the record phase: cut candidates + determinism marks."""

    def __init__(self, ops, cut_candidates, ack_times, end_time,
                 processed_events):
        self.ops = ops
        self.cut_candidates = cut_candidates
        self.ack_times = ack_times
        self.end_time = end_time
        self.processed_events = processed_events

    def __repr__(self):
        return ("<Recording ops=%d candidates=%d events=%d>"
                % (len(self.ops), len(self.cut_candidates),
                   self.processed_events))


def record(scenario, ops=None, telemetry=None):
    """Run the full stream once, uncut, and derive the cut candidates.

    Candidates are the midpoints between consecutive *distinct* ack
    instants (cutting exactly at an ack time would be order-ambiguous:
    the injector's event sorts before same-instant acks), plus one
    point before the first ack and one just after the last.
    """
    if ops is None:
        ops = generate_ops(scenario)
    world = build_world(scenario, telemetry)
    run_uncut(world, ops)
    ack_times = sorted({rec.time for device in world.devices
                        for rec in device.ack_log})
    candidates = []
    if ack_times:
        candidates.append(ack_times[0] * 0.5)
        for earlier, later in zip(ack_times, ack_times[1:]):
            candidates.append((earlier + later) / 2.0)
        candidates.append(ack_times[-1] + _AFTER_LAST_ACK)
    return Recording(ops, candidates, ack_times, world.sim.now,
                     world.sim.processed_events)


def verify_determinism(scenario, ops=None):
    """Record twice; identical worlds must yield identical fingerprints."""
    first = record(scenario, ops)
    second = record(scenario, ops)
    return (first.processed_events == second.processed_events
            and first.cut_candidates == second.cut_candidates
            and first.end_time == second.end_time)


class TrialResult(Verdict):
    """One rebuilt world, one (possibly nested) cut, one verdict."""

    artifact_format = TORTURE_FORMAT

    def __init__(self, cut_time, nested=None):
        super().__init__()
        self.cut_time = cut_time
        self.nested = nested
        self.fired = False
        self.nested_performed = False
        self.ops_completed = 0
        self.db_report = None
        self.corrupt_detected = 0
        self.recovery_seconds = 0.0

    def to_json(self):
        return {
            "cut_time": self.cut_time,
            "nested": list(self.nested) if self.nested else None,
            "fired": self.fired,
            "nested_performed": self.nested_performed,
            "ops_completed": self.ops_completed,
            "expected_clean": self.expected_clean,
            "integrity_expected": self.integrity_expected,
            "undetected_corrupt_reads": self.undetected_corrupt_reads,
            "corrupt_detected": self.corrupt_detected,
            "violations": list(self.violations),
            "recovery_seconds": self.recovery_seconds,
        }

    def __repr__(self):
        return ("<TrialResult cut=%.6f fired=%r nested=%r violations=%d>"
                % (self.cut_time, self.fired, self.nested,
                   len(self.violations)))


def _recover_devices(world, injector, nested, result):
    """Reboot every device; optionally interrupt a dump replay mid-way
    with a second power cut, then recover in full."""
    total = 0.0
    if nested and nested[0] == "device-recovery":
        budget = nested[1]
        for device in world.devices:
            manager = getattr(device, "recovery_manager", None)
            if manager is not None and manager.needs_recovery():
                total += device.reboot(interrupt_recovery_after=budget)
                if manager.needs_recovery():
                    # The replay was cut short: power-cycle again.  The
                    # dump image survived (merged), so the second replay
                    # recovers everything.
                    result.nested_performed = True
                    device.power_fail()
                    total += device.reboot()
            else:
                total += device.reboot()
        injector.cancel_pending_cuts()
    else:
        for seconds in injector.reboot_all().values():
            total += seconds
    return total


def run_trial(scenario, ops, cut_time, nested=None, telemetry=None):
    """Rebuild the world, replay ``ops``, cut at ``cut_time``, recover,
    and check every invariant.

    ``nested`` is ``None``, ``("device-recovery", k)`` (cut again after
    ``k`` replayed dump items) or ``("db-recovery", k)`` (cut again
    after ``k`` recovery page installs).
    """
    world = build_world(scenario, telemetry)
    sim = world.sim
    injector = PowerFailureInjector(sim, world.devices)
    tally = new_tally()
    done = sim.process(client(world.workload, ops, tally))
    cut = injector.schedule_cut(cut_time)
    result = TrialResult(cut_time, nested)
    result.expected_clean = world.expected_clean
    result.integrity_expected = world.integrity_expected
    with sim.telemetry.span("torture.trial", "failures",
                            device=scenario.device, engine=scenario.engine,
                            cut_time=cut_time) as span:
        sim.run_until(done)
        result.fired = cut.fired
        result.ops_completed = tally["completed"]
        result.corrupt_detected = tally["corrupt"]
        check_reads(world, result)
        world.engine.stop_cleaner()
        if not cut.fired:
            # The stream finished before the cut: nothing else to check.
            span.annotate(fired=False)
            return result
        sim.telemetry.instant("torture.cut", "failures",
                              at=sim.now, ops_completed=result.ops_completed)
        with sim.telemetry.span("torture.device_recovery", "failures",
                                nested=bool(nested)):
            result.recovery_seconds = _recover_devices(world, injector,
                                                       nested, result)
        first_pass = None
        if nested and nested[0] == "db-recovery":
            def first_pass(durable_log):
                # Database recovery crashes part-way, then re-runs.
                crashed = dbrecovery.recover(
                    world.engine, durable_log, crash_after_installs=nested[1])
                if crashed.interrupted:
                    result.nested_performed = True
                    injector.execute_cut()
                    injector.reboot_all()
        with sim.telemetry.span("torture.check", "failures",
                                nested=bool(nested)):
            result.db_report = check_after_cut(world, result.violations,
                                               first_pass)
        span.annotate(violations=len(result.violations),
                      failed=result.failed)
    return result


class SweepResult:
    """Outcome of a full crash-point sweep."""

    def __init__(self, scenario, recording, mode):
        self.scenario = scenario
        self.recording = recording
        self.mode = mode
        self.trials = []
        self.failures = []
        self.first_failure = None

    @property
    def clean(self):
        return not self.failures

    def summary(self):
        nested = sum(1 for t in self.trials if t.nested_performed)
        return {
            "mode": self.mode,
            "candidates": len(self.recording.cut_candidates),
            "trials": len(self.trials),
            "nested_trials": nested,
            "failures": len(self.failures),
            "violations": sum(len(t.violations) for t in self.trials),
            "expected_clean": (self.trials[0].expected_clean
                               if self.trials else True),
        }

    def __repr__(self):
        return "<SweepResult %r>" % (self.summary(),)


#: Sweeps at or below this many candidates run exhaustively by default.
EXHAUSTIVE_LIMIT = 400


def sweep(scenario, max_trials=None, nested_stride=5, nested_budget=1,
          stop_on_failure=False, telemetry=None):
    """Record once, then torture every (sampled) cut point.

    ``max_trials`` caps the number of primary cut points; when the
    candidate list is longer, a seeded sample is swept instead and any
    failure is refined by bisection back toward the earliest failing
    candidate.  Every ``nested_stride``-th fired trial is additionally
    re-run with a nested cut during device recovery and during database
    recovery (``nested_budget`` items/installs deep).
    """
    recording = record(scenario, telemetry=telemetry)
    candidates = recording.cut_candidates
    limit = EXHAUSTIVE_LIMIT if max_trials is None else max_trials
    if len(candidates) <= limit:
        indices = list(range(len(candidates)))
        mode = "exhaustive"
    else:
        rng = make_rng(("torture-sample", scenario.seed))
        indices = sorted(rng.sample(range(len(candidates)), limit))
        mode = "sampled"
    result = SweepResult(scenario, recording, mode)
    passed_indices = set()
    failed_indices = set()

    def run_one(index, nested=None):
        trial = run_trial(scenario, recording.ops, candidates[index],
                          nested=nested, telemetry=telemetry)
        result.trials.append(trial)
        if trial.failed:
            result.failures.append(trial)
            failed_indices.add(index)
        elif nested is None:
            passed_indices.add(index)
        return trial

    for position, index in enumerate(indices):
        trial = run_one(index)
        if trial.fired and nested_stride and position % nested_stride == 0:
            run_one(index, nested=("device-recovery", nested_budget))
            run_one(index, nested=("db-recovery", nested_budget))
        if stop_on_failure and result.failures:
            break

    if mode == "sampled" and failed_indices and not stop_on_failure:
        # Bisection refinement: close in on the earliest failing
        # candidate between the last sampled pass and the first sampled
        # failure.
        high = min(failed_indices)
        lower_passes = [i for i in passed_indices if i < high]
        low = max(lower_passes) if lower_passes else -1
        while high - low > 1:
            middle = (low + high) // 2
            trial = run_one(middle)
            if trial.failed:
                high = middle
            else:
                low = middle
        result.first_failure = candidates[high]
    elif failed_indices:
        result.first_failure = candidates[min(failed_indices)]
    return result


def minimize(scenario, ops, nested=None, probe_budget=8, predicate=None,
             telemetry=None):
    """Shrink a failing schedule to (shortest op prefix, earliest cut).

    Binary-searches the shortest operation prefix that still fails at
    *some* cut point (probing up to ``probe_budget`` late candidates per
    prefix — data lost at a cut is most often data produced near the
    end), then scans that prefix's candidates for the earliest failing
    one.  Returns a replayable artifact dict, or ``None`` when not even
    the full stream fails.

    ``predicate`` decides what counts as failing; the default is
    :attr:`TrialResult.failed` (a broken promise).  Pass
    ``lambda trial: not trial.clean`` to minimize any violating
    schedule, e.g. an expected anomaly of a volatile-cache preset.
    """
    if predicate is None:
        predicate = lambda trial: trial.failed

    def probe(prefix):
        recording = record(scenario, prefix, telemetry=telemetry)
        probes = recording.cut_candidates[-probe_budget:]
        for cut_time in reversed(probes):
            trial = run_trial(scenario, prefix, cut_time, nested=nested,
                              telemetry=telemetry)
            if predicate(trial):
                return recording, trial
        return None

    found = shrink_prefix(ops, probe)
    if found is None:
        return None
    length, (recording, trial) = found
    prefix = ops[:length]
    # Earliest failing cut for the minimized prefix.
    for candidate in recording.cut_candidates:
        if candidate >= trial.cut_time:
            break
        earlier = run_trial(scenario, prefix, candidate, nested=nested,
                            telemetry=telemetry)
        if predicate(earlier):
            trial = earlier
            break
    return make_artifact(scenario, prefix, trial)
