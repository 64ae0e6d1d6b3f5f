"""The spine both fault campaigns share.

The torture sweep (:mod:`repro.failures.torture`) cuts power at every
ack boundary; the chaos harness (:mod:`repro.failures.chaos`) runs the
stream under gray faults, silent corruption and device death, then cuts
power once at the end.  Both replay the same seeded operation stream
and judge the same promises, so the pieces live here once:

* :func:`client` — the op-replay coroutine, which tallies every
  operation's outcome and only lets harness bugs propagate;
* :func:`run_uncut` — the stream replayed to the end with no cut;
* :func:`check_reads` and :func:`check_after_cut` — the oracles: no
  undetected corrupt read, block invariants on every device that
  claims a durable cache, and a consistent database after recovery;
* :class:`Verdict` — the ``clean``/``failed`` rule;
* :func:`make_artifact` / :func:`replay_artifact` — the JSON codec for
  both artifact formats;
* :func:`shrink_prefix` — the bisection behind both minimizers.
"""

import json

from ..db import dbrecovery
from ..db.degrade import DegradedError
from ..db.pages import TornPageError
from ..devices.base import DeviceDeadError
from ..host.integrity import CorruptDataError
from ..host.lifecycle import DeviceTimeoutError
from .checker import check_device, check_undetected_corruption, \
    check_write_order

TORTURE_FORMAT = "repro.torture/1"
CHAOS_FORMAT = "repro.chaos/1"


def new_tally():
    """Per-outcome operation counts, plus how many operations ended."""
    return dict.fromkeys(("ok", "timed_out", "dead", "corrupt", "rejected",
                          "completed"), 0)


def client(workload, ops, tally):
    """Sequential client replaying a pre-drawn operation list.

    Every operation ends in one outcome, counted in ``tally``: ``ok``,
    ``timed_out`` (the host's retry ladder gave up), ``dead`` (a
    fail-stopped device or volume), ``corrupt`` (a host or page checksum
    turned a corrupt read into an error: detection, the defense working)
    or ``rejected`` (the degraded engine refused a write).  The client
    always moves on to the next operation; any other exception is a
    harness bug and propagates.
    """
    for index, (name, node) in enumerate(ops):
        try:
            yield from workload._operation(name, node)
        except DeviceTimeoutError:
            tally["timed_out"] += 1
        except DeviceDeadError:
            tally["dead"] += 1
        except (CorruptDataError, TornPageError):
            tally["corrupt"] += 1
        except DegradedError:
            tally["rejected"] += 1
        else:
            tally["ok"] += 1
        tally["completed"] = index + 1


def run_uncut(world, ops):
    """Replay ``ops`` on a freshly built ``world`` to the end, with no
    cut; returns the outcome tally."""
    tally = new_tally()
    done = world.sim.process(client(world.workload, ops, tally))
    world.sim.run_until(done)
    world.engine.stop_cleaner()
    return tally


class Verdict:
    """What a run found, and whether that breaks a promise."""

    def __init__(self):
        self.violations = []
        #: does the configuration promise crash consistency?
        self.expected_clean = True
        #: does it promise detection (checksums or a mirror)?
        self.integrity_expected = False
        self.undetected_corrupt_reads = 0

    @property
    def clean(self):
        return not self.violations

    @property
    def failed(self):
        """A violation where the configuration promised none.

        An integrity-armed world additionally fails on any
        ``integrity:`` violation even when silent corruption voided the
        crash-consistency promise — checksums promise *detection*
        regardless of whether the data can be recovered.
        """
        if self.expected_clean and self.violations:
            return True
        return self.integrity_expected and any(
            violation.startswith("integrity:")
            for violation in self.violations)


def check_reads(world, verdict):
    """The integrity verdict, which holds at every instant, cut or no
    cut: no acked read returned corrupted data undetected."""
    verdict.undetected_corrupt_reads = check_undetected_corruption(
        world.audit)
    if verdict.undetected_corrupt_reads:
        verdict.violations.append(
            "integrity:undetected-corrupt-read:count=%d"
            % verdict.undetected_corrupt_reads)


def check_after_cut(world, violations, first_pass=None):
    """Check a world that lost power and rebooted; returns the database
    recovery report.

    Block invariants come first, before database recovery can repair
    (and thereby mask) device-level anomalies.  Only devices that claim
    a durable cache promise them; a device with an armed corruption
    model violates them on purpose, and the integrity checks higher in
    the stack take over there.  Then the database recovers and the
    transaction oracle checks it.  ``first_pass(durable_log)``, when
    given, runs just before that recovery (a recovery pass that crashes
    part-way).  Every finding is appended to ``violations``.
    """
    for device in world.devices:
        if not device.claims_durable_cache or device.corruption is not None:
            continue
        for violation in check_device(device).violations:
            violations.append("device:%s:%s:lba=%d" % (
                device.name, violation.kind, violation.lba))
        for missing, present in check_write_order(device):
            violations.append("device:%s:reorder:%d>%d" % (
                device.name, missing, present))
    durable_log = world.log_device.claims_durable_cache
    if first_pass is not None:
        first_pass(durable_log)
    report = dbrecovery.recover(world.engine, durable_log)
    dbrecovery.check_consistency(world.engine, report)
    for txn_id in report.lost_committed_txns:
        violations.append("db:lost-txn:%s" % (txn_id,))
    for key in report.torn_unrepairable:
        violations.append("db:torn-page:%s" % (key,))
    for kind, key, found, want in report.consistency_violations:
        violations.append("db:%s:%s:found=%s:want=%s" % (kind, key, found,
                                                          want))
    return report


def make_artifact(scenario, ops, result):
    """A self-contained, replayable description of one run.

    A torture trial (``repro.torture/1``) records its cut point; a chaos
    run (``repro.chaos/1``) records its whole result.
    """
    artifact = {
        "format": result.artifact_format,
        "scenario": scenario.to_json(),
        "ops": [[name, node] for name, node in ops],
        "violations": list(result.violations),
    }
    if result.artifact_format == TORTURE_FORMAT:
        artifact["cut_time"] = result.cut_time
        artifact["nested"] = list(result.nested) if result.nested else None
    else:
        artifact["result"] = result.to_json()
    return artifact


def replay_artifact(artifact, telemetry=None):
    """Re-run an artifact (a dict or its JSON) from its contents alone;
    returns the :class:`TrialResult` or :class:`ChaosResult`."""
    # Imported here: both harnesses import this module.
    from .chaos import run_chaos
    from .torture import TortureScenario, run_trial
    if isinstance(artifact, (str, bytes)):
        artifact = json.loads(artifact)
    kind = artifact.get("format")
    if kind not in (TORTURE_FORMAT, CHAOS_FORMAT):
        raise ValueError("not a campaign artifact: %r" % (kind,))
    scenario = TortureScenario.from_json(artifact["scenario"])
    ops = [(name, node) for name, node in artifact["ops"]]
    if kind == CHAOS_FORMAT:
        return run_chaos(scenario, ops, telemetry=telemetry)
    nested = tuple(artifact["nested"]) if artifact.get("nested") else None
    return run_trial(scenario, ops, artifact["cut_time"], nested=nested,
                     telemetry=telemetry)


def shrink_prefix(ops, probe):
    """The shortest failing prefix of ``ops``, by bisection.

    ``probe(prefix)`` returns a witness of the failure, or ``None``.
    Returns ``(length, witness)``, or ``None`` when not even the full
    stream fails.  The full stream's witness stands until a shorter
    prefix fails, so no prefix is probed twice.
    """
    witness = probe(ops)
    if witness is None:
        return None
    best = (len(ops), witness)
    low, high = 1, len(ops)
    while low < high:
        middle = (low + high) // 2
        found = probe(ops[:middle])
        if found is not None:
            best = (middle, found)
            high = middle
        else:
            low = middle + 1
    return best
