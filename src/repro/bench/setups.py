"""World construction for every bench: one :class:`WorldSpec` in, one
simulated world out.

A bench passes the paper's own knobs — device kind, cache mode,
barriers, doublewrite, page size — as arguments.  Everything else about
the world lives in a :class:`WorldSpec`, which the CLI's world flags
fill in (its docstring says which flags reach which worlds).

A spec is immutable.  :func:`repro.bench.run_table` and the runner
build each cell's world with :func:`fresh_world`, a :class:`World` that
carries the spec, and hand it to the cell; the helpers below read the
spec off the simulator they are handed.  A plain
:class:`~repro.sim.Simulator` reads as ``WorldSpec()``, the healthy
single-device SATA world.  Nothing here outlives a call: the worlds a
bench armed for metrics or profiling land in a list the caller owns.

Three helpers build every bench world's storage: :func:`make_device`
(one preset device, gray-faulted under the spec),
:func:`make_data_target` (the data extent, striped or mirrored under
the spec) and :func:`file_system` (a file system behind the spec's
queues and command deadlines).

Environment knobs, read on every call:

* ``REPRO_SCALE`` — divide the paper's 100GB databases by this factor
  (default 256; smaller = closer to the paper, slower).
* ``REPRO_QUICK`` — set to 1 to cut operation counts ~4x for smoke
  runs of the full benchmark suite.
"""

import os
from typing import NamedTuple

from ..db.commercial import CommercialConfig, CommercialEngine
from ..db.couchstore import CouchstoreConfig, CouchstoreEngine
from ..db.innodb import InnoDBConfig, InnoDBEngine
from ..devices import DEVICE_MAKERS
from ..devices.presets import DEFAULT_CAPACITY
from ..failures.grayfaults import PROFILES, GrayFaultModel, make_profile
from ..host import (
    FileSystem,
    MirroredVolume,
    PlacementVolume,
    SingleDevice,
    StripedVolume,
)
from ..host.lifecycle import TimeoutPolicy
from ..host.queues import QueueTopology
from ..sim import Simulator, units
from ..sim.record import Record
from ..telemetry import MetricsRegistry, Telemetry

PAPER_DB_BYTES = 100 * units.GIB


class _WorldFields(NamedTuple):
    data_devices: int = 1
    mirror: int = 1
    dedicated_log: bool = False
    topology: QueueTopology = QueueTopology()
    gray_faults: str = None
    metrics_interval: float = None
    profile: bool = False


class WorldSpec(Record, _WorldFields):
    """The world-wide settings of a bench run.

    * ``data_devices`` (``--devices N``) stripes the data target over N
      member devices; ``mirror`` (``--mirror N``) replicates it across N
      checksum-verified devices instead.  Both reach every data target
      built by :func:`make_data_target`: the fio cells of Tables 1 and
      2, the bursts, the flush ablation, the atomicity and SQLite
      worlds on preset devices, and the MySQL, commercial and Couchbase
      worlds.  The MySQL and commercial worlds always have a separate
      log drive.
    * ``dedicated_log`` (``--log-device``) moves the single-drive
      Couchbase world's append log onto its own device.
    * ``topology`` (``--interface sata|nvme``, ``--sq N``,
      ``--queue-depth N``) is the :class:`repro.host.QueueTopology`
      every queue is built from: every bench file system
      (:func:`file_system`) and every striped or mirrored member.
    * ``gray_faults`` (``--gray-faults PROFILE``) injects a gray-fault
      profile into every device :func:`make_device` builds, and arms
      the command-lifecycle deadlines on every bench file system, so a
      bench degrades instead of deadlocking.
    * ``metrics_interval`` (``--metrics-interval S``) and ``profile``
      (``--profile``) give every world a windowed metrics registry or a
      simulator self-profiler.

    The FusionIO world of the atomicity table and the capacitor,
    mapping and victim-policy ablations build bespoke devices, which
    ``--devices``, ``--mirror`` and ``--gray-faults`` do not reach; the
    FusionIO and mapping worlds' file systems still take the queue
    flags.

    ``WorldSpec()`` is the calibrated world: one healthy device behind
    the SATA NCQ, no metrics, no profiler.  Construction validates:
    counts are >= 1, striping and mirroring are mutually exclusive, the
    gray-fault profile exists and the metrics interval is positive.
    """

    __slots__ = ()

    def _check(self):
        if self.data_devices < 1:
            raise ValueError("data_devices must be >= 1")
        if self.mirror < 1:
            raise ValueError("mirror must be >= 1")
        if self.mirror > 1 and self.data_devices > 1:
            raise ValueError("mirror and striping are mutually exclusive")
        if self.gray_faults is not None and self.gray_faults not in PROFILES:
            raise ValueError("unknown gray-fault profile %r (known: %s)"
                             % (self.gray_faults, ", ".join(sorted(PROFILES))))
        if self.metrics_interval is not None and self.metrics_interval <= 0:
            raise ValueError("metrics interval must be positive")

    def timeout_policy(self):
        """The lifecycle policy file systems run with under gray faults;
        ``None`` (no deadlines) on healthy devices."""
        if self.gray_faults is None:
            return None
        return TimeoutPolicy(deadline=0.01, backoff_base=1e-3)


DEFAULT_SPEC = WorldSpec()


class World(Simulator):
    """A simulator built from a :class:`WorldSpec`.

    It numbers the gray-faulted devices built on it, so each device's
    fault schedule depends on its place in this world alone: the same
    spec builds the same world however many worlds came before.
    """

    def __init__(self, spec, telemetry=None):
        super().__init__(telemetry)
        self.spec = spec
        self.gray_devices = 0


def spec_of(sim):
    """The spec ``sim`` was built from; ``WorldSpec()`` for a plain
    simulator."""
    return getattr(sim, "spec", DEFAULT_SPEC)


def fresh_world(telemetry=None, spec=DEFAULT_SPEC, worlds=None):
    """A :class:`World` for one bench run under ``spec``.

    With ``spec.metrics_interval`` and no explicit hub, the world gets a
    trace-disabled hub with an enabled metrics registry — spans stay off
    (their overhead would distort latency-sensitive benches far more
    than windowed counter snapshots do).  With ``spec.profile``, a
    :class:`~repro.sim.profiler.SimProfiler` rides whatever hub the
    world ends up with.  A world armed either way is appended to
    ``worlds``, a list the caller owns, for post-run export.
    """
    armed = False
    if telemetry is None and spec.metrics_interval is not None:
        telemetry = Telemetry(
            enabled=False,
            metrics=MetricsRegistry(interval=spec.metrics_interval))
        armed = True
    if spec.profile:
        if telemetry is None:
            telemetry = Telemetry(enabled=False)
        if telemetry.profiler is None:
            from ..sim.profiler import SimProfiler
            telemetry.profiler = SimProfiler()
            armed = True
    world = World(spec, telemetry)
    if armed and worlds is not None:
        worlds.append(world)
    return world


def make_device(sim, kind="durassd", cache_enabled=True,
                capacity_bytes=DEFAULT_CAPACITY, name=None):
    device = DEVICE_MAKERS[kind](sim, cache_enabled=cache_enabled,
                                 capacity_bytes=capacity_bytes, name=name)
    spec = spec_of(sim)
    if spec.gray_faults is not None:
        # Salted by build order so the devices stall at different instants.
        salt = "%s-%d" % (kind, sim.gray_devices)
        sim.gray_devices += 1
        device.inject_gray_faults(GrayFaultModel(
            make_profile(spec.gray_faults), salt=salt))
    return device


def make_data_target(sim, device_kind, capacity_bytes=DEFAULT_CAPACITY,
                     width=None, mirror=None, queue_model=None,
                     cache_enabled=True):
    """``(target_or_device, member_devices)`` for the data extent.

    ``width``, ``mirror`` and ``queue_model`` default to the world's
    spec.  Width 1 returns the raw device — :class:`FileSystem` wraps it
    in a :class:`SingleDevice`.  Striped members named ``<kind>.d<i>``
    each carry ``capacity / width`` (rounded up) behind their own queue
    + lifecycle; mirror replicas named ``<kind>.m<i>`` each carry the
    full capacity behind a checksum-verified :class:`MirroredVolume`.
    Every member's write cache is on unless ``cache_enabled`` is false.
    """
    spec = spec_of(sim)
    width = spec.data_devices if width is None else width
    mirror = spec.mirror if mirror is None else mirror
    queue_model = queue_model or spec.topology
    if mirror > 1:
        members = tuple(
            make_device(sim, device_kind, cache_enabled, capacity_bytes,
                        name="%s.m%d" % (device_kind, index))
            for index in range(mirror))
        volume = MirroredVolume(sim, members,
                                timeout_policy=spec.timeout_policy(),
                                queue_model=queue_model)
        return volume, members
    if width <= 1:
        device = make_device(sim, device_kind, cache_enabled, capacity_bytes)
        return device, (device,)
    member_bytes = -(-int(capacity_bytes) // width)
    members = tuple(
        make_device(sim, device_kind, cache_enabled, member_bytes,
                    name="%s.d%d" % (device_kind, index))
        for index in range(width))
    volume = StripedVolume(sim, members, timeout_policy=spec.timeout_policy(),
                           queue_model=queue_model)
    return volume, members


#: the paper's databases divided by this unless ``REPRO_SCALE`` says
#: otherwise: the scale of the committed ``benchmarks/output`` tables
DEFAULT_SCALE = 256


def scale_factor():
    return int(os.environ.get("REPRO_SCALE", str(DEFAULT_SCALE)))


def quick_mode():
    return os.environ.get("REPRO_QUICK", "0") not in ("0", "", "false")


def ops_scale(base):
    """Operation count, shrunk in quick mode."""
    return max(10, base // 4) if quick_mode() else base


def scaled_db_bytes():
    return PAPER_DB_BYTES // scale_factor()


def scaled(buffer_gb):
    """A paper buffer-pool size (GB) scaled to the local run."""
    return int(buffer_gb * units.GIB) // scale_factor()


def file_system(sim, target, barriers, queue_model=None, **options):
    """A bench file system over ``target``: behind the world's queue
    topology (or ``queue_model``) and, under gray faults, its command
    deadlines.  ``options`` go to :class:`FileSystem`."""
    spec = spec_of(sim)
    return FileSystem(sim, target, barriers=barriers,
                      timeout_policy=spec.timeout_policy(),
                      queue_model=queue_model or spec.topology, **options)


def _data_and_log(sim, device_kind, barriers, **fs_options):
    """The two-drive layout of the MySQL and commercial worlds: a data
    target sized for the database plus a dedicated log drive, each
    under its own file system."""
    db_bytes = scaled_db_bytes()
    data_target, data_devices = make_data_target(sim, device_kind,
                                                 int(db_bytes * 2.5))
    # The log drive gets a distinct name: probes identify instances by
    # their device attr, so two same-kind drives must not collide.
    log_device = make_device(sim, device_kind,
                             capacity_bytes=max(units.GIB, db_bytes // 4),
                             name="%s.log" % device_kind)
    data_fs = file_system(sim, data_target, barriers, **fs_options)
    log_fs = file_system(sim, log_device, barriers, **fs_options)
    return data_fs, log_fs, data_devices + (log_device,)


def mysql_setup(sim, page_size, barriers, doublewrite, buffer_gb=10,
                device_kind="durassd", **config_overrides):
    """The paper's MySQL world: two drives, XFS, O_DIRECT."""
    data_fs, log_fs, devices = _data_and_log(sim, device_kind, barriers)
    config = InnoDBConfig(page_size=page_size,
                          buffer_pool_bytes=scaled(buffer_gb),
                          doublewrite=doublewrite, **config_overrides)
    return InnoDBEngine(sim, data_fs, log_fs, config), devices


def commercial_setup(sim, page_size, barriers, buffer_gb=2,
                     device_kind="durassd", **config_overrides):
    """The paper's commercial-DBMS world: ext4, O_DSYNC data files."""
    data_fs, log_fs, devices = _data_and_log(sim, device_kind, barriers,
                                             coalesce_barriers=True)
    config = CommercialConfig(page_size=page_size,
                              buffer_pool_bytes=scaled(buffer_gb),
                              **config_overrides)
    return CommercialEngine(sim, data_fs, log_fs, config), devices


def couchbase_setup(sim, batch_size, barriers, device_kind="durassd",
                    **config_overrides):
    """The paper's Couchbase world: one drive, XFS.

    Under the spec the data extent stripes or mirrors, and with
    ``dedicated_log`` the append log moves onto its own device behind a
    placement volume; the default is the paper's single drive.
    """
    spec = spec_of(sim)
    policy = spec.timeout_policy()
    model = spec.topology
    data_target, devices = make_data_target(sim, device_kind, 2 * units.GIB)
    if spec.dedicated_log:
        if not hasattr(data_target, "flush"):  # raw device at width 1
            data_target = SingleDevice(sim, data_target,
                                       timeout_policy=policy,
                                       queue_model=model)
        log_device = make_device(sim, device_kind,
                                 capacity_bytes=units.GIB,
                                 name="%s.log" % device_kind)
        devices = devices + (log_device,)
        data_target = PlacementVolume({
            "data": data_target,
            "log": SingleDevice(sim, log_device, timeout_policy=policy,
                                queue_model=model),
        })
    filesystem = file_system(sim, data_target, barriers)
    config = CouchstoreConfig(batch_size=batch_size, **config_overrides)
    engine = CouchstoreEngine(sim, filesystem, config)
    return engine, devices
