"""Whole-device fail-stop failure model: scheduled and wear-out deaths.

Every fault model so far is *transient* (stalls, NAND errors, bit rot):
the device eventually answers.  Real drives also die outright — a
controller failure, a firmware panic, media worn past its endurance
budget — and from the host every subsequent command fails hard and
immediately.  That is the classic *fail-stop* model: no wrong answers,
no silence, just a corpse that reports itself dead.

A :class:`DeviceDeathSchedule` is the seeded, JSON-serializable
description (mirroring :class:`~repro.failures.corruption.CorruptionConfig`):
a scheduled death instant (``die_at``, staggered per member by
``stagger * index`` so a second member can die *during* the first
rebuild) and/or SMART trip thresholds — grown bad blocks or media wear
— checked against the device's own :meth:`smart` self-report after
every command.  A :class:`DeviceDeathModel` attaches to one device via
:meth:`repro.devices.base.StorageDevice.inject_death`; on death the
device aborts everything in flight and completes every later command
with :class:`~repro.devices.base.DeviceDeadError`.

:attr:`DeviceDeathModel.first_fault_time` records the death instant,
which is what chaos verdicts subtract from the first member-down SLO
alert to report detection latency, exactly like gray faults and silent
corruption.
"""

from typing import NamedTuple

from ..sim.record import Record
from ..sim.rng import make_rng


class _DeathFields(NamedTuple):
    seed: int = 0
    die_at: float = None
    stagger: float = 0.0
    grown_bad_limit: int = None
    wear_limit_pct: float = None
    horizon: float = 10.0


class DeviceDeathSchedule(Record, _DeathFields):
    """Seeded description of when (and why) a device fail-stops.

    ``die_at`` is an absolute sim instant (``None`` = no scheduled
    death); member ``i`` of a volume dies at ``die_at + i * stagger``,
    so a positive ``stagger`` produces the second-death-during-rebuild
    scenario.  ``grown_bad_limit`` / ``wear_limit_pct`` arm SMART trip
    wires against the device's own self-report (grown bad blocks,
    media wear percent).  ``horizon`` plays the same role as the gray
    profiles' horizon: named profiles describe deaths over a generic
    window and the chaos harness rescales them onto the stream.
    """

    __slots__ = ()

    def _check(self):
        if self.die_at is not None and self.die_at < 0:
            raise ValueError("die_at must be >= 0: %r" % (self.die_at,))
        if self.stagger < 0:
            raise ValueError("stagger must be >= 0: %r" % (self.stagger,))
        if self.grown_bad_limit is not None and self.grown_bad_limit < 1:
            raise ValueError("grown_bad_limit must be >= 1")
        if self.wear_limit_pct is not None and self.wear_limit_pct <= 0:
            raise ValueError("wear_limit_pct must be > 0")
        if self.horizon <= 0:
            raise ValueError("horizon must be > 0")

    @property
    def quiet(self):
        """True when no death can ever fire."""
        return (self.die_at is None and self.grown_bad_limit is None
                and self.wear_limit_pct is None)


#: named death profiles for the chaos/failover CLIs.  Instants are laid
#: out over the generic 10s horizon and rescaled by the chaos harness
#: onto the stream duration, like the gray profiles' ``hang_at``.
DEATH_PROFILES = {
    "none": dict(),
    "early-death": dict(die_at=2.0),
    "mid-death": dict(die_at=5.0),
    "wearout": dict(wear_limit_pct=0.01),
    "double-death": dict(die_at=3.0, stagger=3.5),
}


def make_death_schedule(name, seed=0):
    """A :class:`DeviceDeathSchedule` for a named profile."""
    if name not in DEATH_PROFILES:
        raise ValueError("unknown death profile %r (choices: %s)"
                         % (name, ", ".join(sorted(DEATH_PROFILES))))
    return DeviceDeathSchedule(seed=seed, **DEATH_PROFILES[name])


class DeviceDeathModel:
    """Deterministic fail-stop oracle for one device.

    ``salt`` keeps same-schedule models on different devices on
    independent streams; ``index`` is the member's position in its
    volume, which staggers scheduled deaths (``die_at + index *
    stagger``) so mirror members never die in lock-step.
    """

    def __init__(self, schedule=None, salt="", index=0):
        self.schedule = schedule or DeviceDeathSchedule()
        self.salt = salt
        self.index = index
        self._rng = make_rng(("device-death", salt, self.schedule.seed))
        self.counters = {"deaths": 0, "commands_failed": 0}
        #: simulated time of the death, or None while the device lives
        self.first_fault_time = None
        self.cause = None

    @property
    def die_at(self):
        """This member's scheduled death instant, or None."""
        if self.schedule.die_at is None:
            return None
        return self.schedule.die_at + self.index * self.schedule.stagger

    def attach(self, device):
        """Arm the model on ``device`` (called by ``inject_death``)."""
        if self.die_at is not None:
            device.sim.process(self._countdown(device))

    def _countdown(self, device):
        yield self.die_at
        device.fail_stop("scheduled-death")

    def on_death(self, now, cause):
        self.counters["deaths"] += 1
        self.cause = cause
        if self.first_fault_time is None:
            self.first_fault_time = now

    def on_dead_command(self):
        """A command was issued to (or caught inside) the corpse."""
        self.counters["commands_failed"] += 1

    def check_smart(self, device):
        """Trip the SMART thresholds against the device's self-report.

        Called by the device after each completed command; the command
        that crossed the threshold still completes (and is acked) — the
        *next* one finds the corpse.
        """
        schedule = self.schedule
        if schedule.grown_bad_limit is None \
                and schedule.wear_limit_pct is None:
            return
        media = device.smart().get("media") or {}
        if schedule.grown_bad_limit is not None and \
                media.get("grown_bad_blocks", 0) >= schedule.grown_bad_limit:
            device.fail_stop("smart-grown-bad-blocks")
        elif schedule.wear_limit_pct is not None and \
                media.get("media_wear_pct", 0.0) >= schedule.wear_limit_pct:
            device.fail_stop("smart-wearout")
