"""Pluggable host queue models: SATA NCQ and NVMe multi-queue.

Everything above the device — :class:`~repro.host.volume.BlockTarget`
implementations, :class:`~repro.host.filesystem.FileSystem` — programs
against the :class:`QueueModel` protocol instead of one hardwired queue
class.  Two implementations ship:

* :class:`SataNcq` — the paper's host interface: one depth-limited
  queue per device (Section 3.1.1).  The DuraSSD firmware implements an
  *ordered* NCQ so persistence order matches arrival order even though
  flush-cache barriers are never issued (Section 3.3); a conventional
  queue is free to reorder within a bounded dispatch window, which is
  what produces unserializable write orderings on volatile devices
  after a power cut.
* :class:`NvmeMultiQueue` — N submission/completion queue pairs with
  per-queue depth, round-robin arbitration, per-queue command
  lifecycles, and queue-affinity routing (a request tagged with
  ``stream="log"`` can pin to its own SQ, so WAL traffic never queues
  behind data writes).  Commands within one SQ dispatch in submission
  order; across SQs the controller's arbitration fetch offset reorders
  freely — per-queue ordering holds, cross-queue ordering does not,
  exactly the NVMe contract.

:class:`QueueTopology` is the declarative factory the bench/chaos
layers carry around: it describes *which* model to build per device
(``--interface sata|nvme``, ``--sq N``, ``--queue-depth D``) and is the
single owner of the queue-depth default.
"""

from typing import NamedTuple

from ..sim.record import Record
from ..sim.resources import Resource
from ..telemetry.hub import NULL_SPAN
from .lifecycle import CommandLifecycle

#: the one authoritative host queue-depth default (per queue).
DEFAULT_QUEUE_DEPTH = 32

#: arbitration fetch offset between adjacent submission queues, as a
#: fraction of the device command overhead: the controller visits SQs
#: in index order each arbitration round, so a command in a
#: higher-numbered queue waits proportionally longer to be fetched.
ARBITRATION_SKEW = 0.5

#: supported host interfaces.
INTERFACES = ("sata", "nvme")


def _annotate_depth(sim, span, slots, queued):
    """Annotate a slot span with the depth its command dispatched at:
    the slots in use once every command that takes one this instant
    ahead of it holds its own.

    A command that waited for its slot resumes after those commands, so
    the occupancy is read at once.  A free slot is taken on the spot,
    ahead of same-instant arrivals still queued to run, so the read is
    left to an entry due now, which runs where the command itself would
    have resumed on a grant event.
    """
    if queued:
        span.annotate(depth=slots.in_use)
    else:
        sim.schedule(0.0, lambda _sim: span.annotate(depth=slots.in_use))


class QueueModel:
    """Protocol for a host-side command queue in front of one device.

    Implementations own slot accounting, dispatch ordering, and the
    command lifecycle (deadline/abort/soft-reset/retry), and expose:

    * ``serve(request)`` — a generator that serves a request in the
      calling process (``yield from``) and returns it completed.
    * ``submit(request)`` — the same in a process of its own; returns
      its completion event (for callers that fan a command out).
    * ``flush()`` — issue flush-cache; returns its completion event.
    * ``outstanding`` — commands currently holding a slot, summed over
      every submission queue.
    * ``depth`` — total slot capacity across submission queues.
    * ``lifecycle_counters()`` — timeout/abort/reset/retry totals
      summed over every per-queue lifecycle.
    * ``device`` / ``interface`` — the device served and the interface
      name (``"sata"`` / ``"nvme"``).
    """

    interface = None

    def serve(self, request):
        """Serve a request in the calling process (generator; returns
        the completed request)."""
        raise NotImplementedError

    def submit(self, request):
        """Serve a request in a process of its own; returns its
        completion event."""
        return self.sim.process(self.serve(request))

    def flush(self):
        """Issue the flush-cache command; returns its completion event."""
        raise NotImplementedError

    @property
    def outstanding(self):
        """Commands currently holding a slot (all queues)."""
        raise NotImplementedError

    def lifecycle_counters(self):
        """Lifecycle counters summed over every submission queue."""
        raise NotImplementedError


class SataNcq(QueueModel):
    """Depth-limited SATA command queue in front of a storage device.

    NCQ lets the host keep up to 32 commands outstanding so the device
    can fill its internal pipelines.  ``ordered=True`` models the
    DuraSSD firmware's ordered NCQ; ``ordered=False`` adds a bounded
    dispatch-reordering window (``reorder_window`` command overheads of
    seeded jitter) under which later arrivals may overtake.
    """

    interface = "sata"

    DEPTH = DEFAULT_QUEUE_DEPTH

    def __init__(self, sim, device, depth=None, ordered=True,
                 reorder_window=8, rng=None, timeout_policy=None):
        depth = DEFAULT_QUEUE_DEPTH if depth is None else depth
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        self.sim = sim
        self.device = device
        self.depth = depth
        self.ordered = ordered
        self.reorder_window = reorder_window
        self._rng = rng
        self._slots = Resource(sim, capacity=depth)
        self._backlog = []
        self.max_observed_depth = 0
        self.lifecycle = CommandLifecycle(sim, device, timeout_policy)
        sim.telemetry.add_probe("ncq.depth",
                                lambda: self._slots.in_use, "host",
                                device=device.name)
        sim.telemetry.metrics.gauge("host.ncq_depth",
                                    fn=lambda: self._slots.in_use,
                                    device=device.name)

    @property
    def outstanding(self):
        return self._slots.in_use

    def lifecycle_counters(self):
        return dict(self.lifecycle.counters)

    def serve(self, request):
        sim = self.sim
        telemetry = sim.telemetry
        with (telemetry.span("ncq.slot", "host", op=request.op,
                             lba=request.lba, device=self.device.name)
              if telemetry.enabled else NULL_SPAN) as span:
            if not self.ordered and self._rng is not None \
                    and self.reorder_window > 1:
                # An unordered queue may sit on a command briefly while
                # later arrivals overtake it.
                jitter = self._rng.random() * self.device.command_overhead \
                    * self.reorder_window
                yield jitter
            slots = self._slots
            queued = slots.acquire_guarded()
            yield from queued
            depth = slots.in_use
            if depth > self.max_observed_depth:
                self.max_observed_depth = depth
            if telemetry.enabled:
                _annotate_depth(sim, span, slots, queued)
            lifecycle = self.lifecycle
            try:
                if lifecycle.policy is None:
                    # Every device command passes StorageDevice.submit,
                    # with or without a lifecycle policy.
                    begin = sim.now
                    completed = yield self.device.submit(request)
                    if telemetry.metrics.enabled:
                        lifecycle.latency.observe(sim.now - begin)
                else:
                    completed = yield from lifecycle.execute(request)
            finally:
                slots.release()
        return completed

    def flush(self):
        """Issue flush-cache through the command lifecycle."""
        return self.lifecycle.flush()


class NvmeMultiQueue(QueueModel):
    """N submission/completion queue pairs in front of one device.

    Each SQ has its own ``depth`` slots and its own
    :class:`~repro.host.lifecycle.CommandLifecycle` (a deadline expiry
    on one queue aborts/resets without involving its siblings' retry
    state).  Routing:

    * a request whose ``stream`` appears in ``affinity`` pins to that
      SQ (``affinity={"log": 3}`` gives the WAL its own queue);
    * everything else round-robins over the non-reserved queues.

    Ordering: within one SQ commands dispatch strictly in submission
    order (FIFO slot acquisition, no jitter).  Across SQs the
    controller's arbitration fetch offset — queue ``i`` waits
    ``i * ARBITRATION_SKEW`` command overheads before entering the
    device — lets a later command on a lower queue overtake, so
    cross-queue ordering is *not* preserved (the NVMe contract; on a
    volatile-cache device this is observable after a power cut).

    Telemetry: per-queue ``queue.depth`` probes and ``host.queue_depth``
    gauges carry ``device=<name> queue=<i>`` attrs, and every dispatch
    span (``queue.slot``) is annotated with its queue index so the tail
    attributor's ``ncq_queue`` blame decomposes per submission queue.
    """

    interface = "nvme"

    def __init__(self, sim, device, queues=2, depth=None, rng=None,
                 timeout_policy=None, affinity=None):
        depth = DEFAULT_QUEUE_DEPTH if depth is None else depth
        if depth < 1:
            raise ValueError("queue depth must be >= 1")
        if queues < 1:
            raise ValueError("an NVMe model needs at least one queue pair")
        self.sim = sim
        self.device = device
        self.queues = queues
        self.queue_depth = depth
        self.depth = depth * queues
        self.affinity = dict(affinity) if affinity else {}
        for stream, index in self.affinity.items():
            if not 0 <= index < queues:
                raise ValueError("affinity %r -> SQ %d outside 0..%d"
                                 % (stream, index, queues - 1))
        self._rng = rng
        self._slots = tuple(Resource(sim, capacity=depth)
                            for _ in range(queues))
        self.lifecycles = tuple(
            CommandLifecycle(sim, device, timeout_policy, queue=index)
            for index in range(queues))
        self.max_observed_depth = 0
        self.per_queue_max = [0] * queues
        # Round-robin over the queues not reserved by affinity (all
        # queues when affinity would leave none for general traffic).
        reserved = set(self.affinity.values())
        self._schedule = [index for index in range(queues)
                          if index not in reserved] or list(range(queues))
        self._cursor = 0
        #: controller fetch offset per queue (see class docstring)
        self._skew = tuple(index * ARBITRATION_SKEW
                           * device.command_overhead
                           for index in range(queues))
        telemetry = sim.telemetry
        for index in range(queues):
            telemetry.add_probe(
                "queue.depth",
                lambda index=index: self._slots[index].in_use, "host",
                device=device.name, queue=index)
            telemetry.metrics.gauge(
                "host.queue_depth",
                fn=lambda index=index: self._slots[index].in_use,
                device=device.name, queue=str(index))

    @property
    def outstanding(self):
        return sum(slots.in_use for slots in self._slots)

    def lifecycle_counters(self):
        totals = {}
        for lifecycle in self.lifecycles:
            for key, value in lifecycle.counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def route(self, request):
        """The SQ index ``request`` would dispatch on (affinity first,
        else the round-robin schedule — which this call advances)."""
        stream = getattr(request, "stream", None)
        if stream is not None and stream in self.affinity:
            return self.affinity[stream]
        index = self._schedule[self._cursor]
        self._cursor = (self._cursor + 1) % len(self._schedule)
        return index

    def serve(self, request):
        # Routed now, not when the generator first runs: a submitted
        # command takes its round-robin turn at submission.
        return self._dispatch(self.route(request), request)

    def _dispatch(self, index, request):
        sim = self.sim
        telemetry = sim.telemetry
        with (telemetry.span("queue.slot", "host", op=request.op,
                             lba=request.lba, device=self.device.name,
                             queue=index)
              if telemetry.enabled else NULL_SPAN) as span:
            if self._skew[index]:
                # Arbitration fetch offset: higher-numbered queues are
                # visited later in the controller's round.
                yield self._skew[index]
            slots = self._slots[index]
            queued = slots.acquire_guarded()
            yield from queued
            depth = slots.in_use
            if depth > self.per_queue_max[index]:
                self.per_queue_max[index] = depth
            if depth > self.max_observed_depth:
                self.max_observed_depth = depth
            if telemetry.enabled:
                _annotate_depth(sim, span, slots, queued)
            lifecycle = self.lifecycles[index]
            try:
                if lifecycle.policy is None:
                    # Every device command passes StorageDevice.submit,
                    # with or without a lifecycle policy.
                    begin = sim.now
                    completed = yield self.device.submit(request)
                    if telemetry.metrics.enabled:
                        lifecycle.latency.observe(sim.now - begin)
                else:
                    completed = yield from lifecycle.execute(request)
            finally:
                slots.release()
        return completed

    def flush(self):
        """Flush-cache, issued on SQ 0 (the convention real drivers use
        for admin-ish commands); covers writes from every queue because
        the device's cache is shared."""
        return self.lifecycles[0].flush()


class _TopologyFields(NamedTuple):
    interface: str = "sata"
    queue_depth: int = None
    submission_queues: int = 2
    ordered: bool = True
    reorder_window: int = 8
    affinity: dict = None


class _Affinity(dict):
    """A topology's own copy of its stream -> queue pins."""


class QueueTopology(Record, _TopologyFields):
    """Declarative queue-model factory: which model, how deep, how many.

    The bench and failure layers pass one of these around instead of
    constructing queues directly; every device of a topology gets
    ``build(sim, device, ...)`` called on it.  ``queue_depth=None``
    means :data:`DEFAULT_QUEUE_DEPTH` — the single authoritative
    default.  An empty ``affinity`` means none, and the topology keeps
    its own copy of the caller's ``affinity`` dict.
    """

    __slots__ = ()

    def _check(self):
        if self.affinity is not None \
                and type(self.affinity) is not _Affinity:
            return self._replace(affinity=_Affinity(self.affinity) or None)
        if self.interface not in INTERFACES:
            raise ValueError("unknown interface %r (want one of %s)"
                             % (self.interface, ", ".join(INTERFACES)))
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError("queue depth must be >= 1")
        if self.submission_queues < 1:
            raise ValueError("submission_queues must be >= 1")

    def build(self, sim, device, rng=None, timeout_policy=None):
        """A fresh :class:`QueueModel` for ``device``."""
        if self.interface == "sata":
            return SataNcq(sim, device, depth=self.queue_depth,
                           ordered=self.ordered,
                           reorder_window=self.reorder_window, rng=rng,
                           timeout_policy=timeout_policy)
        return NvmeMultiQueue(sim, device, queues=self.submission_queues,
                              depth=self.queue_depth, rng=rng,
                              timeout_policy=timeout_policy,
                              affinity=self.affinity)

    @classmethod
    def for_interface(cls, interface="sata", submission_queues=2,
                      queue_depth=None):
        """The topology the bench and torture worlds run a host
        interface with: under NVMe with more than one submission queue
        the ``log`` stream (WAL/journal writes) pins to the last queue,
        so redo flushes never sit behind data-page traffic."""
        affinity = None
        if interface == "nvme" and submission_queues > 1:
            affinity = {"log": submission_queues - 1}
        return cls(interface=interface, queue_depth=queue_depth,
                   submission_queues=submission_queues, affinity=affinity)
