"""Silent-corruption fault model: bit rot, read disturb, misdirected
and lost writes, injected beneath the FTL.

The power-cut torture harness and the gray-failure chaos harness both
assume reads are *faithful*: whatever the media holds comes back
unaltered.  Real flash breaks that assumption silently — retention
decay and read disturb degrade programmed pages at rest, and firmware
bugs land a write at the wrong address (*misdirected*) or ack it
without persisting anything (*lost*).  None of these trips a timeout
or an error status; only an integrity check (checksums, mirrors, a
scrubber) can catch them.

The model is seeded and deterministic, mirroring
:class:`~repro.failures.faults.TransientFaultModel`: the same
:class:`CorruptionConfig` produces the same corruption schedule, which
the torture and chaos harnesses rely on for replayable artifacts.  One
Bernoulli partition per committed host write decides its fate (clean /
lost / misdirected / rotten), and one draw per host read decides
whether the read disturbs its page.  The fault vocabulary is the shared
taxonomy of :mod:`repro.flash.torn` — torture, chaos and this injector
all speak the same kinds.

:attr:`CorruptionModel.first_fault_time` records when the first fault
actually materialised, which is what chaos verdicts subtract from the
first SLO alert to report corruption-detection latency, exactly like
gray-fault detection.
"""

from typing import NamedTuple

from ..flash.torn import (
    BIT_ROT,
    LOST_WRITE,
    MISDIRECTED_WRITE,
    READ_DISTURB,
)
from ..sim.record import Record
from ..sim.rng import make_rng


class _CorruptionFields(NamedTuple):
    seed: int = 0
    bit_rot_rate: float = 0.0
    read_disturb_rate: float = 0.0
    misdirected_rate: float = 0.0
    lost_rate: float = 0.0


class CorruptionConfig(Record, _CorruptionFields):
    """Seeded per-operation rates for the silent-corruption model.

    Rates are probabilities per committed host write (``lost_rate``,
    ``misdirected_rate``, ``bit_rot_rate``) or per host read
    (``read_disturb_rate``).  Their write-side sum must stay below 1 —
    they partition one uniform draw.
    """

    __slots__ = ()

    def _check(self):
        for name in ("bit_rot_rate", "read_disturb_rate",
                     "misdirected_rate", "lost_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError("%s must be in [0, 1): %r" % (name, rate))
        if self.lost_rate + self.misdirected_rate + self.bit_rot_rate >= 1.0:
            raise ValueError("write-side rates must sum below 1")

    @property
    def quiet(self):
        """True when no fault can ever fire (a corruption-free config)."""
        return not (self.bit_rot_rate or self.read_disturb_rate
                    or self.misdirected_rate or self.lost_rate)


#: named corruption profiles for the torture/chaos CLIs; rates are per
#: committed write (or per read for read disturb), high enough that the
#: short seeded sweeps hit every kind while most blocks stay clean.
CORRUPTION_PROFILES = {
    "bit-rot": dict(bit_rot_rate=0.03),
    "read-disturb": dict(read_disturb_rate=0.03),
    "misdirected": dict(misdirected_rate=0.02),
    "lost-write": dict(lost_rate=0.02),
    "corruption-mix": dict(bit_rot_rate=0.01, read_disturb_rate=0.01,
                           misdirected_rate=0.008, lost_rate=0.008),
}


def make_corruption_profile(name, seed=0):
    """A :class:`CorruptionConfig` for a named profile."""
    if name not in CORRUPTION_PROFILES:
        raise ValueError("unknown corruption profile %r (choices: %s)"
                         % (name, ", ".join(sorted(CORRUPTION_PROFILES))))
    return CorruptionConfig(seed=seed, **CORRUPTION_PROFILES[name])


class CorruptionModel:
    """Deterministic corruption oracle for one device's FTL.

    Attach with :meth:`repro.devices.ssd.FlashSSD.inject_corruption`;
    the FTL then consults :meth:`write_outcome` for every committed
    host write and :meth:`read_disturbs` for every host read.  ``salt``
    keeps same-config models on different devices on independent
    streams (so mirror replicas do not rot in lockstep — the whole
    point of keeping a second copy).
    """

    def __init__(self, config=None, salt=""):
        self.config = config or CorruptionConfig()
        self.salt = salt
        self._rng = make_rng(("silent-corruption", salt, self.config.seed))
        self.counters = {BIT_ROT: 0, READ_DISTURB: 0,
                         MISDIRECTED_WRITE: 0, LOST_WRITE: 0}
        #: simulated time of the first materialised fault, or None
        self.first_fault_time = None

    def _mark(self, now, kind):
        self.counters[kind] += 1
        if self.first_fault_time is None:
            self.first_fault_time = now

    def write_outcome(self, now, lslot):
        """The fate of one committed host write: a fault kind or None.

        One uniform draw partitioned lost / misdirected / rotten /
        clean, so arming any single rate never perturbs the schedule of
        the others.
        """
        config = self.config
        if not (config.lost_rate or config.misdirected_rate
                or config.bit_rot_rate):
            return None
        draw = self._rng.random()
        if draw < config.lost_rate:
            self._mark(now, LOST_WRITE)
            return LOST_WRITE
        draw -= config.lost_rate
        if draw < config.misdirected_rate:
            self._mark(now, MISDIRECTED_WRITE)
            return MISDIRECTED_WRITE
        draw -= config.misdirected_rate
        if draw < config.bit_rot_rate:
            self._mark(now, BIT_ROT)
            return BIT_ROT
        return None

    def misdirect_target(self, lslot, exported_slots):
        """The aliased logical slot a misdirected write lands on."""
        if exported_slots <= 1:
            return lslot
        alias = self._rng.randrange(exported_slots - 1)
        return alias + 1 if alias >= lslot else alias

    def read_disturbs(self, now):
        """Whether this host read degrades the page it touched."""
        if self.config.read_disturb_rate <= 0.0:
            return False
        if self._rng.random() < self.config.read_disturb_rate:
            self._mark(now, READ_DISTURB)
            return True
        return False
