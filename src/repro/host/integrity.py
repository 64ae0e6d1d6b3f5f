"""Host-side data integrity: block checksums and the background scrubber.

The device stack models payloads as opaque tokens, so a "checksum" here
is a *reference fingerprint*: the host remembers, per target LBA, the
token it submitted, and a read verifies the token that came back against
it.  That models a collision-free block checksum (a la ZFS parent-block
checksums): any silent substitution — garbage from bit rot or read
disturb, foreign data from a misdirected write, stale data from a lost
write — fails verification, while a faithful read always passes.

Three pieces:

* :class:`BlockChecksums` — the fingerprint database.  Two-phase per
  write (recorded at *submission*, committed at *ack*) so a read racing
  an in-flight write verifies against either value and never reports a
  false mismatch.
* :class:`Scrubber` — a background simulated-time process that walks
  the tracked (allocated-and-written) extent set at a bounded pace,
  verifying every replica of every block and letting the target repair
  what it can, so latent corruption is found in bounded time instead of
  at the next unlucky read.
* The verifying targets themselves live in :mod:`repro.host.volume`:
  :class:`~repro.host.volume.VerifyingTarget` (detect + fail-stop) and
  :class:`~repro.host.volume.MirroredVolume` (detect + read-repair).

Everything here is armed explicitly; an un-armed world never builds
these objects, keeping the default path event-for-event identical.
"""

from ..flash.torn import is_corrupt


class CorruptDataError(Exception):
    """A read failed checksum verification (detected, not masked)."""

    def __init__(self, target, lba, kind=None, detail="checksum mismatch"):
        self.target = target
        self.lba = lba
        #: the fault kind when the payload carries a corrupt sentinel,
        #: else None (clean-but-wrong data: misdirected or lost write)
        self.kind = kind
        super().__init__("%s: lba=%d: %s%s"
                         % (target, lba, detail,
                            " (%s)" % kind if kind else ""))


class IrreparableCorruptionError(CorruptDataError):
    """Every replica of a block failed verification."""

    def __init__(self, target, lba, kind=None):
        super().__init__(target, lba, kind=kind,
                         detail="no verifiable replica")


class DetectedDataLossError(CorruptDataError):
    """No surviving replica holds this block at all.

    Raised by a degraded :class:`~repro.host.volume.MirroredVolume` when
    every member holding a block has fail-stopped (the second-death-
    during-rebuild scenario).  Subclasses :class:`CorruptDataError` so
    the existing detect-and-fail-stop paths (database degradation,
    chaos safety accounting) treat it as what it is: a *detected*,
    loudly reported loss — never served as data, never silent.
    """

    def __init__(self, target, lba):
        super().__init__(target, lba, detail="no surviving replica "
                                             "(detected data loss)")


class BlockChecksums:
    """Per-LBA reference fingerprints with two-phase write tracking.

    ``submit`` records the fingerprint when the write is issued;
    ``ack`` commits it when the write completes.  ``ok`` accepts the
    committed value or any still-pending one, so reads concurrent with
    in-flight writes to the same block never produce false mismatches.
    The database is host metadata, modelled as durably maintained (the
    parent-checksum design); counters feed the integrity metrics.
    """

    def __init__(self):
        self._committed = {}
        self._pending = {}  # lba -> [fingerprint, ...] in submit order
        self.counters = {"verified": 0, "mismatches": 0, "repairs": 0,
                         "irreparable": 0}

    def __len__(self):
        return len(self._committed)

    def submit(self, lba, value):
        self._pending.setdefault(lba, []).append(value)

    def ack(self, lba, value):
        pending = self._pending.get(lba)
        if pending is not None:
            try:
                pending.remove(value)
            except ValueError:
                pass
            if not pending:
                del self._pending[lba]
        self._committed[lba] = value

    def abandon(self, lba, value):
        """Drop a pending fingerprint whose write failed on every
        replica: the value never landed anywhere, so a later read must
        not accept it."""
        pending = self._pending.get(lba)
        if pending is None:
            return
        try:
            pending.remove(value)
        except ValueError:
            pass
        if not pending:
            del self._pending[lba]

    def committed(self, lba, default=None):
        return self._committed.get(lba, default)

    def pending(self, lba):
        """Is a write to ``lba`` currently in flight (submitted, not
        yet acked)?  The rebuilder defers copying such blocks — the
        write fence already covers them."""
        return bool(self._pending.get(lba))

    def pending_lbas(self):
        """Every LBA with an in-flight write, ascending."""
        return sorted(self._pending)

    def tracked(self):
        """Every LBA with a committed fingerprint, ascending — the
        allocated-and-written extent set the scrubber walks."""
        return sorted(self._committed)

    def ok(self, lba, value):
        """Does ``value`` verify as a faithful copy of block ``lba``?"""
        pending = self._pending.get(lba)
        if pending is not None and value in pending:
            return True
        if lba not in self._committed:
            # No reference fingerprint: an untracked block verifies
            # unless it carries a garbage sentinel (a checksum over
            # garbage never validates, reference or not).
            return not is_corrupt(value)
        return value == self._committed[lba]


def register_integrity_metrics(metrics, checksums, name):
    """Expose a checksum database's counters as integrity metrics."""
    for counter in ("verified", "mismatches", "repairs", "irreparable"):
        metrics.counter("integrity.%s" % counter,
                        fn=lambda counter=counter:
                        checksums.counters[counter],
                        volume=name)


class Scrubber:
    """Background media scrub: walk, verify, let the target repair.

    Every pass walks the checksum database's tracked extent set in LBA
    order, issuing one verified single-block read per step through the
    target's ``scrub_read`` — on a mirrored volume that checks *every*
    replica and repairs bad copies from a surviving one.  ``pace``
    bounds the scrub's I/O intrusiveness (one probe per ``pace``
    simulated seconds), ``idle`` separates passes.  Detected-but-
    irreparable blocks are reported once to ``escalate`` (typically the
    database's degradation monitor) instead of being retried forever.
    """

    def __init__(self, sim, target, checksums=None, pace=1e-3, idle=0.05,
                 escalate=None, auto_start=True):
        if pace <= 0 or idle <= 0:
            raise ValueError("scrub pace and idle must be positive")
        self.sim = sim
        self.target = target
        self.checksums = checksums if checksums is not None \
            else target.checksums
        self.pace = pace
        self.idle = idle
        self.escalate = escalate
        self.counters = {"passes": 0, "blocks": 0, "found": 0,
                         "escalations": 0, "pauses": 0, "reverified": 0}
        self._reported = set()  # irreparable LBAs already escalated
        #: while True the scrubber idles without probing: a mirror
        #: member is dead or rebuilding, and a one-copy block must not
        #: be escalated as irreparable during a planned repair window
        self.paused = False
        self._reverify = set()  # rebuilt blocks to re-check on resume
        metrics = sim.telemetry.metrics
        metrics.counter("scrub.blocks",
                        fn=lambda: self.counters["blocks"],
                        volume=target.name)
        metrics.counter("scrub.passes",
                        fn=lambda: self.counters["passes"],
                        volume=target.name)
        metrics.counter("scrub.found",
                        fn=lambda: self.counters["found"],
                        volume=target.name)
        if auto_start:
            sim.process(self.run())

    def pause(self, reason="repair"):
        """Stop probing until :meth:`resume`.  Idempotent.

        Called by the volume when a mirror member dies or a rebuild
        begins: with one copy gone, a scrub probe would see a single
        replica and could escalate a merely-degraded block as
        irreparable mid-repair.
        """
        if self.paused:
            return
        self.paused = True
        self.counters["pauses"] += 1
        self.sim.telemetry.instant("scrub.pause", "host",
                                   volume=self.target.name, reason=reason)

    def resume(self, verify=()):
        """Resume probing; ``verify`` blocks are re-checked first.

        The rebuild hands over the set of blocks it copied so the next
        scrub activity independently re-verifies the fresh replicas
        before regular passes restart.
        """
        self._reverify.update(verify)
        if not self.paused:
            return
        self.paused = False
        self.sim.telemetry.instant("scrub.resume", "host",
                                   volume=self.target.name,
                                   reverify=len(self._reverify))

    def run(self):
        while True:
            if self.paused:
                yield self.idle
                continue
            if self._reverify:
                yield from self._verify_rebuilt()
            else:
                yield from self.scrub_pass()
            yield self.idle

    def scrub_pass(self):
        """One full walk over the tracked extent set (a generator)."""
        before = self.checksums.counters["mismatches"]
        for lba in self.checksums.tracked():
            if self.paused:
                # A member died mid-pass; abandon the walk, the repair
                # machinery owns the volume until resume.
                return
            if lba in self._reported:
                # Quarantined: escalated as irreparable already; probing
                # it every pass would just re-fire the mismatch alarm.
                continue
            try:
                yield self.target.scrub_read(lba)
            except IrreparableCorruptionError as error:
                self._escalate(lba, error)
            except CorruptDataError as error:
                # Detected on an unreplicated target: nothing to repair
                # from, so treat it like an irreparable mismatch.
                self._escalate(lba, error)
            self.counters["blocks"] += 1
            yield self.pace
        self.counters["passes"] += 1
        self.counters["found"] += \
            self.checksums.counters["mismatches"] - before

    def _verify_rebuilt(self):
        """Re-verify blocks a completed rebuild copied (a generator)."""
        backlog = sorted(self._reverify)
        self._reverify.clear()
        for position, lba in enumerate(backlog):
            if self.paused:
                self._reverify.update(backlog[position:])
                return
            if lba in self._reported:
                continue
            try:
                yield self.target.scrub_read(lba)
            except IrreparableCorruptionError as error:
                self._escalate(lba, error)
            except CorruptDataError as error:
                self._escalate(lba, error)
            self.counters["reverified"] += 1
            yield self.pace

    def _escalate(self, lba, error):
        if lba in self._reported:
            return
        self._reported.add(lba)
        self.counters["escalations"] += 1
        if self.escalate is not None:
            self.escalate(error)
