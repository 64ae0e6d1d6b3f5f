"""blktrace-style I/O tracing for any storage device.

Attaching a tracer wraps a device's ``submit``/``flush_cache`` and
records every command: issue time, kind, LBA, size, completion latency.
The summaries answer the questions the paper's analysis keeps asking —
how often does the device flush, how bursty are the writes, what does
the read-latency distribution look like while writes are in flight —
without touching the device model itself.

.. deprecated::
    :class:`IOTracer` is kept as a compatibility shim for device-level
    command logs.  New code should use :mod:`repro.telemetry` — causal
    spans cover the device commands IOTracer sees *plus* every layer
    above them, and export to Chrome trace / JSONL.  See
    ``docs/OBSERVABILITY.md``.
"""

from ..sim import LatencyRecorder, units


class TraceRecord:
    __slots__ = ("kind", "issue_time", "complete_time", "lba", "nblocks")

    def __init__(self, kind, issue_time, complete_time, lba, nblocks):
        self.kind = kind
        self.issue_time = issue_time
        self.complete_time = complete_time
        self.lba = lba
        self.nblocks = nblocks

    @property
    def latency(self):
        return self.complete_time - self.issue_time


class IOTracer:
    """Records every command passing into a device.

    Usage::

        tracer = IOTracer.attach(sim, device)
        ... run the workload ...
        print(tracer.summary())
    """

    def __init__(self, sim, device):
        self.sim = sim
        self.device = device
        self.records = []
        self._original_submit = device.submit
        self._original_flush = device.flush_cache
        self.enabled = True

    @classmethod
    def attach(cls, sim, device):
        tracer = cls(sim, device)
        device.submit = tracer._traced_submit
        device.flush_cache = tracer._traced_flush
        return tracer

    def detach(self):
        """Unwrap the device.

        Tracers may nest (each wraps the previous), but must detach in
        LIFO order — detaching out of order, or twice, would splice a
        dead wrapper back into the device, so both raise instead.
        """
        if not self.enabled:
            raise RuntimeError("tracer is already detached")
        if self.device.submit != self._traced_submit:
            raise RuntimeError(
                "another tracer is still attached on top of this one; "
                "detach tracers in LIFO order")
        self.device.submit = self._original_submit
        self.device.flush_cache = self._original_flush
        self.enabled = False

    # --- wrappers ---------------------------------------------------------
    def _traced_submit(self, request):
        issued = self.sim.now
        completion = self._original_submit(request)
        completion.callbacks.append(
            lambda event: self._record(request.op, issued,
                                       request.lba, request.nblocks))
        return completion

    def _traced_flush(self):
        issued = self.sim.now
        completion = self._original_flush()
        completion.callbacks.append(
            lambda event: self._record("flush", issued, -1, 0))
        return completion

    def _record(self, kind, issued, lba, nblocks):
        if self.enabled:
            self.records.append(TraceRecord(kind, issued, self.sim.now,
                                            lba, nblocks))

    # --- analysis -------------------------------------------------------------
    def of_kind(self, kind):
        return [r for r in self.records if r.kind == kind]

    def latency_recorder(self, kind):
        recorder = LatencyRecorder(kind)
        recorder.extend(r.latency for r in self.of_kind(kind))
        return recorder

    def flush_interval_stats(self):
        """(count, mean interval seconds) between flush-cache commands."""
        flushes = sorted(r.issue_time for r in self.of_kind("flush"))
        if len(flushes) < 2:
            return len(flushes), 0.0
        gaps = [b - a for a, b in zip(flushes, flushes[1:])]
        return len(flushes), sum(gaps) / len(gaps)

    def bytes_written(self):
        return sum(r.nblocks for r in self.of_kind("write")) * units.LBA_SIZE

    def write_burstiness(self, window=0.01):
        """Peak-to-mean ratio of writes per ``window`` seconds."""
        writes = sorted(r.issue_time for r in self.of_kind("write"))
        if not writes:
            return 0.0
        span = max(writes[-1] - writes[0], window)
        buckets = {}
        for t in writes:
            buckets[int(t / window)] = buckets.get(int(t / window), 0) + 1
        mean = len(writes) / (span / window)
        return max(buckets.values()) / mean if mean else 0.0

    def summary(self):
        reads = self.latency_recorder("read")
        writes = self.latency_recorder("write")
        flush_count, flush_gap = self.flush_interval_stats()
        return {
            "reads": reads.count,
            "writes": writes.count,
            "flushes": flush_count,
            "read_mean": reads.mean,
            "read_p99": reads.percentile(0.99) if reads.count else 0.0,
            "write_mean": writes.mean,
            "write_p99": writes.percentile(0.99) if writes.count else 0.0,
            "mean_flush_interval": flush_gap,
            "bytes_written": self.bytes_written(),
        }

