"""Corrupt-data sentinels and the shared fault-kind taxonomy.

A slot whose contents were destroyed by a mid-operation power cut (a
*shorn write* in the terminology of Zheng et al. [33]) reads back as
:data:`TORN`.  Database-level checksums detect it exactly the way a real
page checksum detects a half-written sector sequence.

Silent corruption generalises the same idea: media decay and firmware
bugs replace a slot's contents with garbage that, unlike a shorn write,
arrives *without* any power event to blame.  Every such fault is one of
the :data:`FAULT_KINDS` below — a single taxonomy shared by the torture
harness, the chaos harness and the corruption injector
(:mod:`repro.failures.corruption`) so there is exactly one vocabulary
for "what broke":

* ``torn_write``        — shorn mid-program contents (power cut)
* ``bit_rot``           — retention decay flips bits at rest
* ``read_disturb``      — neighbouring reads degrade a programmed page
* ``misdirected_write`` — firmware lands a write at the wrong address
* ``lost_write``        — a write is acked but never reaches the media

A corrupted slot reads back as a :class:`CorruptValue` tagged with its
fault kind; :data:`TORN` is the interned ``torn_write`` instance, kept
identity-stable (``value is TORN`` and pickle round-trips both hold)
for the pre-taxonomy call sites.
"""

#: the one shared fault-kind vocabulary (order is display order)
TORN_WRITE = "torn_write"
BIT_ROT = "bit_rot"
READ_DISTURB = "read_disturb"
MISDIRECTED_WRITE = "misdirected_write"
LOST_WRITE = "lost_write"

FAULT_KINDS = (TORN_WRITE, BIT_ROT, READ_DISTURB, MISDIRECTED_WRITE,
               LOST_WRITE)

#: kinds that replace a stored value with unreadable garbage (a reader
#: sees a CorruptValue); the remaining kinds keep plausible-but-wrong
#: *clean* data in place, detectable only against a reference checksum.
GARBAGE_KINDS = (TORN_WRITE, BIT_ROT, READ_DISTURB)


class CorruptValue:
    """Marker for slot contents destroyed by the fault ``kind``.

    Instances are interned per kind so the identity checks the torn-era
    code relies on (``value is TORN``) extend to every kind, and pickle
    round-trips preserve identity.
    """

    _instances = {}

    def __new__(cls, kind=TORN_WRITE):
        if kind not in FAULT_KINDS:
            raise ValueError("unknown fault kind: %r" % kind)
        instance = cls._instances.get(kind)
        if instance is None:
            instance = super().__new__(cls)
            instance.kind = kind
            cls._instances[kind] = instance
        return instance

    def __repr__(self):
        if self.kind == TORN_WRITE:
            return "<TORN>"  # the historical spelling of the torn sentinel
        return "<CORRUPT:%s>" % self.kind

    def __reduce__(self):
        return (CorruptValue, (self.kind,))


TORN = CorruptValue(TORN_WRITE)


def is_torn(value):
    """True when ``value`` is the torn sentinel."""
    return value is TORN


def is_corrupt(value):
    """True when ``value`` is any corrupt-data sentinel (torn included)."""
    return isinstance(value, CorruptValue)


def corrupt_kind(value):
    """The fault kind of a corrupt sentinel, or None for clean data."""
    return value.kind if isinstance(value, CorruptValue) else None
