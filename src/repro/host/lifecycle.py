"""Host-side command lifecycle: deadline → abort → reset → retry → escalate.

The rest of the stack was built assuming completions always arrive; a
gray-failing device (``repro.failures.grayfaults``) breaks exactly that
assumption.  This layer gives every command the lifecycle a real host
block layer implements (SCSI/ATA error handling):

1. **Deadline.**  Each submitted command races a per-command timer
   (:class:`repro.sim.engine.AnyOf`).
2. **Abort.**  On deadline expiry the host aborts the in-flight command
   (:meth:`StorageDevice.abort_command` — ``Process.interrupt`` under
   the hood); an aborted command is never acked and rolls back
   atomically at the device.
3. **Soft reset.**  The device is soft-reset, curing curable firmware
   pauses/GC storms and quiescing orphaned media work so a retry can
   never be overtaken by its aborted predecessor.  Resets are
   single-flight: concurrent victims join the same reset.
4. **Retry with backoff.**  Bounded attempts with exponential backoff
   plus deterministic jitter (seeded, so chaos runs replay exactly).
5. **Escalation.**  An exhausted retry budget raises
   :class:`DeviceTimeoutError`; the database layer decides what survives
   (fail the transaction, demote to read-only — ``repro.db.degrade``).

With ``policy=None`` the lifecycle is pass-through: the device serves
the command in the issuing process, the one a fail-stop interrupts, and
only the ``host.cmd_latency`` histogram sees it.  With a policy every
attempt runs in a process of its own, which the deadline can abort
without unwinding the caller.
"""

from typing import NamedTuple

from ..devices.base import DeviceDeadError
from ..sim.engine import Interrupted
from ..sim.record import Record
from ..sim.rng import make_rng
from ..telemetry.hub import NULL_SPAN


class DeviceTimeoutError(Exception):
    """A command exhausted its retry budget against an unresponsive device."""

    def __init__(self, device, op, attempts, alive=True):
        super().__init__(
            "%s: %s command timed out after %d attempts [device %s]"
            % (device, op, attempts, "alive" if alive else "dead"))
        self.device = device
        self.op = op
        self.attempts = attempts
        self.alive = alive


#: the hard storage-stack failures database layers catch and escalate:
#: an exhausted retry ladder or a fail-stopped device.
STORAGE_ERRORS = (DeviceTimeoutError, DeviceDeadError)


class _PolicyFields(NamedTuple):
    deadline: float = 0.25
    max_attempts: int = 5
    backoff_base: float = 2e-3
    backoff_factor: float = 2.0
    jitter: float = 0.5
    seed: int = 0


class TimeoutPolicy(Record, _PolicyFields):
    """Per-command deadline and bounded-retry parameters.

    ``deadline`` is generous relative to device service times (a flash
    program is ~1.3ms, a flush a few ms): ordinary queueing must never
    trip it, only genuine gray failures.  JSON-serializable so chaos
    artifacts capture the exact policy they ran under.
    """

    __slots__ = ()

    def _check(self):
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt, rng):
        """Exponential backoff for retry number ``attempt`` (1-based)."""
        base = self.backoff_base * (self.backoff_factor ** (attempt - 1))
        return base * (1.0 + self.jitter * rng.random())


class CommandLifecycle:
    """Drives commands against one device under a :class:`TimeoutPolicy`.

    Runs inside the queue model's ``serve`` (``yield from
    lifecycle.serve(request)``), so the queue's depth accounting is
    untouched by aborts and resets: the slot stays held across retries
    and is released exactly once however the command ends.
    """

    COUNTER_KEYS = ("timeouts", "aborts", "resets", "retries",
                    "escalations", "swept", "hard_errors")

    def __init__(self, sim, device, policy=None, queue=None):
        self.sim = sim
        self.device = device
        self.policy = policy
        #: submission-queue index when this lifecycle serves one SQ of a
        #: multi-queue model (None on the single-queue SATA path).  Each
        #: SQ then owns its own deadline clocks, retry ladder, counters
        #: and jitter stream, and its telemetry carries a queue attr.
        self.queue = queue
        seed_key = ("lifecycle", policy.seed if policy else 0, device.name)
        label = {"device": device.name}
        if queue is not None:
            seed_key = seed_key + (queue,)
            label["queue"] = str(queue)
        self._rng = make_rng(seed_key)
        self.counters = dict.fromkeys(self.COUNTER_KEYS, 0)
        metrics = sim.telemetry.metrics
        for key in self.COUNTER_KEYS:
            metrics.counter("host.%s" % key,
                            fn=lambda key=key: self.counters[key],
                            **label)
        metrics.gauge("host.inflight_age", fn=device.oldest_inflight_age,
                      **label)
        #: the ``host.cmd_latency`` histogram of every command served
        self.latency = metrics.histogram("host.cmd_latency", **label)
        if policy is not None:
            telemetry = sim.telemetry
            probe_attrs = dict(device=device.name)
            if queue is not None:
                probe_attrs["queue"] = queue
            for key in self.COUNTER_KEYS:
                telemetry.add_probe("host.%s" % key,
                                    lambda key=key: self.counters[key],
                                    "host", **probe_attrs)
            telemetry.add_probe("host.inflight_age_max",
                                device.oldest_inflight_age, "host",
                                **probe_attrs)

    def serve(self, request):
        """Serve one I/O command; returns it completed (generator).

        Without a policy the device serves it in the calling process,
        behind the entries already due this instant: the same-instant
        order every recorded simulated number was computed in.
        """
        sim = self.sim
        begin = sim.now
        if self.policy is None:
            if sim.due_now:
                yield 0.0
            completed = yield from self.device.submit(request)
        else:
            completed = yield from self._run(
                lambda: self.device.submit(request), request.op, request.lba)
        if sim.telemetry.metrics.enabled:
            self.latency.observe(sim.now - begin)
        return completed

    def flush(self):
        """Issue one flush-cache command in a process of its own;
        returns its completion event."""
        if self.policy is None:
            return self.sim.process(self.device.flush_cache())
        return self.sim.process(self.execute_flush())

    def execute_flush(self):
        """Run one flush-cache command through the escalation ladder
        (generator; needs a policy)."""
        begin = self.sim.now
        result = yield from self._run(self.device.flush_cache, "flush", None)
        if self.sim.telemetry.metrics.enabled:
            self.latency.observe(self.sim.now - begin)
        return result

    # --- the escalation ladder -------------------------------------------
    def _run(self, command, op, lba):
        policy = self.policy
        telemetry = self.sim.telemetry
        attempt = 0
        while True:
            attempt += 1
            # The attempt span is the attribution anchor for one trip
            # down the ladder: the attempt's own process inherits it,
            # so device spans hang under it, and the reset leg below is
            # its sibling child — blame stays exact under retries.
            with (telemetry.span("lifecycle.attempt", "host",
                                 device=self.device.name, op=op,
                                 attempt=attempt)
                  if telemetry.enabled else NULL_SPAN):
                service = self.sim.process(command())
                timer = self.sim.timeout(policy.deadline)
                timed_out = False
                try:
                    index, value = yield self.sim.any_of([service, timer])
                except DeviceDeadError:
                    # Hard failure from a fail-stopped device: retries,
                    # aborts and resets cannot help.  Skip the ladder and
                    # escalate immediately — this is what lets the volume
                    # layer declare a member dead in one round trip
                    # instead of after max_attempts deadlines.
                    self.counters["hard_errors"] += 1
                    telemetry.instant("host.hard_error", "host",
                                      device=self.device.name, op=op,
                                      lba=lba, attempt=attempt)
                    raise
                except Interrupted as exc:
                    if not (service.triggered and service.value is exc):
                        # The calling process itself was interrupted
                        # (host cancel): unwind, do not retry.
                        raise
                    # Aborted underneath us: a reset initiated by another
                    # command's lifecycle swept this one along.  The
                    # reset is already happening — join it and retry
                    # without our own.
                    self.counters["swept"] += 1
                    yield from self._join_reset()
                else:
                    if index == 0:
                        return value
                    timed_out = True
                if timed_out:
                    if service.triggered and service.ok:
                        # Completed at the very deadline instant, after
                        # the timer: not a timeout, take the result.
                        return service.value
                    self.counters["timeouts"] += 1
                    telemetry.instant("host.timeout", "host",
                                      device=self.device.name, op=op,
                                      lba=lba, attempt=attempt)
                    if self.device.abort_command(service, cause="deadline"):
                        self.counters["aborts"] += 1
                    self.counters["resets"] += 1
                    with (telemetry.span("lifecycle.reset", "host",
                                         device=self.device.name, op=op,
                                         attempt=attempt)
                          if telemetry.enabled else NULL_SPAN):
                        yield from self.device.soft_reset()
                    if service.triggered and service.ok:
                        # The completion raced the abort and won.
                        return service.value
            if attempt >= policy.max_attempts:
                self.counters["escalations"] += 1
                telemetry.instant("host.escalate", "host",
                                  device=self.device.name, op=op,
                                  lba=lba, attempts=attempt)
                raise DeviceTimeoutError(self.device.name, op, attempt,
                                         alive=not self.device.dead)
            with (telemetry.span("lifecycle.backoff", "host",
                                 device=self.device.name, op=op,
                                 attempt=attempt)
                  if telemetry.enabled else NULL_SPAN):
                yield policy.backoff(attempt, self._rng)
            self.counters["retries"] += 1

    def _join_reset(self):
        """Wait out a reset another lifecycle is driving, if any."""
        gate = self.device._resetting
        if gate is not None:
            telemetry = self.sim.telemetry
            with (telemetry.span("lifecycle.reset", "host",
                                 device=self.device.name, joined=True)
                  if telemetry.enabled else NULL_SPAN):
                yield gate
