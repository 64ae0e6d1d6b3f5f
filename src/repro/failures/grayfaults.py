"""Gray-failure model: latency faults that stall without failing stop.

Power cuts and NAND errors are *fail-stop*: the device either answers or
is dead.  Real SSDs also fail *gray* — they keep the link up but stop
answering promptly: firmware pauses (internal metadata checkpoints,
wear-leveling reshuffles), garbage-collection storms that multiply every
command's latency, transient queue-full back-pressure, per-command hangs,
and the terminal case of a device that never answers again.  None of
these corrupt data by themselves; they kill systems that assume
completions always arrive.

The model here mirrors :class:`repro.failures.faults.TransientFaultModel`:
a JSON-serializable seeded :class:`GrayFaultProfile` expands into a
deterministic episode schedule, so a chaos artifact replays the exact
same stalls.  A :class:`GrayFaultModel` instance attaches to one device
(:meth:`repro.devices.base.StorageDevice.inject_gray_faults`) and is
consulted at command entry:

* ``hold_remaining(now)`` — seconds the device refuses to start *any*
  command (firmware pause / queue-full episode / permanent hang;
  ``inf`` for the hang).
* ``command_delay(op, now)`` — extra per-command latency (random stalls
  plus the GC-storm multiplier while a storm episode is active).
* ``on_reset(now)`` — a host soft reset cures every *curable* active
  episode (pauses, storms, queue-full); a ``permanent`` hang survives
  reset, which is what forces the host to escalate.
"""

import math
from typing import NamedTuple

from ..sim.record import Record
from ..sim.rng import make_rng

#: episode kinds, in schedule order
STALL = "stall"
PAUSE = "pause"
GC_STORM = "gc_storm"
QUEUE_FULL = "queue_full"
HANG = "hang"

_CURABLE = frozenset((PAUSE, GC_STORM, QUEUE_FULL))


class _GrayFields(NamedTuple):
    seed: int = 0
    stall_rate: float = 0.0
    stall_time: float = 2e-3
    pause_rate: float = 0.0
    pause_time: float = 5e-3
    gc_storm_rate: float = 0.0
    gc_storm_time: float = 10e-3
    gc_storm_factor: float = 8.0
    queue_full_rate: float = 0.0
    queue_full_time: float = 2e-3
    hang_at: float = None
    hang_permanent: bool = False
    horizon: float = 10.0
    #: allowed completion-time inflation vs a fault-free run; ``None``
    #: means the chaos harness applies its default bound
    degradation_bound: float = None


class GrayFaultProfile(Record, _GrayFields):
    """Seeded description of a gray-fault schedule.

    All rates are per-command Bernoulli probabilities; episode windows
    (pauses, storms, queue-full) are laid out over ``horizon`` seconds
    with exponential inter-arrival gaps.  ``hang_at`` schedules a device
    hang at an absolute instant (``None`` = never); ``hang_permanent``
    decides whether a soft reset cures it.
    """

    __slots__ = ()

    def _check(self):
        for name in ("stall_rate", "pause_rate", "gc_storm_rate",
                     "queue_full_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError("%s must be in [0, 1): %r" % (name, rate))
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")
        if self.gc_storm_factor < 1.0:
            raise ValueError("gc_storm_factor must be >= 1")

    @property
    def quiet(self):
        """True when the profile injects nothing at all."""
        return (self.stall_rate == 0 and self.pause_rate == 0
                and self.gc_storm_rate == 0 and self.queue_full_rate == 0
                and self.hang_at is None)


class Episode:
    """One scheduled gray-fault window on a device."""

    __slots__ = ("kind", "start", "end")

    def __init__(self, kind, start, end):
        self.kind = kind
        self.start = start
        self.end = end

    def active(self, now):
        return self.start <= now < self.end

    def __repr__(self):
        return "Episode(%s, %.6f, %s)" % (
            self.kind, self.start,
            "inf" if self.end == math.inf else "%.6f" % self.end)


class GrayFaultModel:
    """Deterministic per-device oracle expanded from a profile.

    ``salt`` decorrelates devices sharing one profile (the chaos harness
    salts with the device role so log and data devices stall at
    different instants).
    """

    def __init__(self, profile=None, salt=""):
        self.profile = profile or GrayFaultProfile()
        self._rng = make_rng(("gray-faults", self.profile.seed, salt))
        self.episodes = self._expand()
        self.counters = {"stalls": 0, "pauses": 0, "gc_storms": 0,
                         "queue_full": 0, "hangs": 0, "cured_by_reset": 0}
        #: first simulated instant an injection actually perturbed a
        #: command — the reference point for detection-latency verdicts
        #: (an episode no command ever hits is undetectable by design)
        self.first_fault_time = None

    def _mark_injection(self, now):
        if self.first_fault_time is None:
            self.first_fault_time = now

    def _expand(self):
        """Lay episode windows over the horizon, deterministically."""
        profile, episodes = self.profile, []
        for kind, rate, duration in ((PAUSE, profile.pause_rate,
                                      profile.pause_time),
                                     (GC_STORM, profile.gc_storm_rate,
                                      profile.gc_storm_time),
                                     (QUEUE_FULL, profile.queue_full_rate,
                                      profile.queue_full_time)):
            if rate <= 0.0:
                continue
            # Interpret the rate as episode density: ``rate * 100``
            # expected episodes over the horizon, however long the
            # horizon is.  Exponential gaps keep the layout memoryless
            # and seed-stable.
            mean_gap = profile.horizon / (rate * 100.0)
            clock = self._rng.expovariate(1.0 / mean_gap)
            while clock < profile.horizon:
                length = duration * (0.5 + self._rng.random())
                episodes.append(Episode(kind, clock, clock + length))
                clock += length + self._rng.expovariate(1.0 / mean_gap)
        if profile.hang_at is not None:
            episodes.append(Episode(HANG, profile.hang_at, math.inf))
        episodes.sort(key=lambda episode: episode.start)
        return episodes

    # --- oracles consulted by the device ---------------------------------
    def hold_remaining(self, now):
        """Seconds before the device will start a new command.

        ``inf`` while a hang episode is active (the command never starts;
        only a host abort gets the submitter back).
        """
        hold = 0.0
        for episode in self.episodes:
            if not episode.active(now):
                continue
            if episode.kind == HANG:
                self.counters["hangs"] += 1
                self._mark_injection(now)
                return math.inf
            if episode.kind == PAUSE:
                self.counters["pauses"] += 1
                hold = max(hold, episode.end - now)
            elif episode.kind == QUEUE_FULL:
                self.counters["queue_full"] += 1
                hold = max(hold, episode.end - now)
        if hold > 0.0:
            self._mark_injection(now)
        return hold

    def command_delay(self, op, now):
        """Extra latency added to one command that did start."""
        delay = 0.0
        profile = self.profile
        if profile.stall_rate > 0.0 \
                and self._rng.random() < profile.stall_rate:
            self.counters["stalls"] += 1
            delay += profile.stall_time * (0.5 + self._rng.random())
        for episode in self.episodes:
            if episode.kind == GC_STORM and episode.active(now):
                self.counters["gc_storms"] += 1
                delay += (profile.gc_storm_factor - 1.0) \
                    * profile.stall_time
                break
        if delay > 0.0:
            self._mark_injection(now)
        return delay

    def on_reset(self, now):
        """A soft reset truncates every curable active episode."""
        for episode in self.episodes:
            if episode.active(now) and (episode.kind in _CURABLE
                                        or (episode.kind == HANG
                                            and not self.profile
                                            .hang_permanent)):
                episode.end = now
                self.counters["cured_by_reset"] += 1


#: named profiles for the chaos CLI and the --gray-faults bench flag
PROFILES = {
    "none": lambda seed: GrayFaultProfile(seed=seed),
    "mild": lambda seed: GrayFaultProfile(
        seed=seed, stall_rate=0.02, stall_time=1e-3,
        gc_storm_rate=0.01, gc_storm_time=5e-3, gc_storm_factor=4.0),
    "stalls": lambda seed: GrayFaultProfile(
        seed=seed, stall_rate=0.10, stall_time=3e-3),
    "gc-storm": lambda seed: GrayFaultProfile(
        seed=seed, gc_storm_rate=0.05, gc_storm_time=20e-3,
        gc_storm_factor=10.0),
    "pause": lambda seed: GrayFaultProfile(
        seed=seed, pause_rate=0.05, pause_time=30e-3),
    "queue-full": lambda seed: GrayFaultProfile(
        seed=seed, queue_full_rate=0.05, queue_full_time=5e-3),
    "hang": lambda seed: GrayFaultProfile(
        seed=seed, hang_at=2.5, hang_permanent=False),
    "hang-permanent": lambda seed: GrayFaultProfile(
        seed=seed, hang_at=2.5, hang_permanent=True,
        degradation_bound=math.inf),
}


def make_profile(name, seed=0):
    """Instantiate a named profile; raises ``KeyError`` on unknown names."""
    if name not in PROFILES:
        raise KeyError("unknown gray-fault profile %r (known: %s)"
                       % (name, ", ".join(sorted(PROFILES))))
    return PROFILES[name](seed)
