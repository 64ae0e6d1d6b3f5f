"""A fio-like micro-benchmark tool.

Tables 1 and 2 of the paper are produced with fio: random 4KB writes at
queue depth 1 with a configurable fsync period, and 128-thread random
read/write sweeps across page sizes.  This module reproduces those job
shapes against the simulated file system.
"""

from ..sim import LatencyRecorder, units
from ..sim.rng import make_rng
from ..telemetry.hub import NULL_SPAN


class FioJob:
    """A fio job description (the subset the paper's tables exercise)."""

    def __init__(self, rw="randwrite", block_size=4 * units.KIB, numjobs=1,
                 ios_per_job=400, fsync_every=0, file_size=256 * units.MIB,
                 warmup_ios=0, seed=42):
        if rw not in ("randwrite", "randread"):
            raise ValueError("rw must be randwrite or randread: %r" % rw)
        if block_size % units.LBA_SIZE:
            raise ValueError("block size must be a multiple of 4KiB")
        self.rw = rw
        self.block_size = block_size
        self.numjobs = numjobs
        self.ios_per_job = ios_per_job
        self.fsync_every = fsync_every
        self.file_size = file_size
        self.warmup_ios = warmup_ios
        self.seed = seed

    @property
    def blocks_per_io(self):
        return self.block_size // units.LBA_SIZE


class FioResult:
    """Aggregate outcome of one fio run."""

    def __init__(self, job, completed, elapsed, latency):
        self.job = job
        self.completed = completed
        self.elapsed = elapsed
        self.latency = latency

    @property
    def iops(self):
        if self.elapsed <= 0:
            return 0.0
        return self.completed / self.elapsed

    def __repr__(self):
        return "<FioResult %s bs=%dK iops=%.0f>" % (
            self.job.rw, self.job.block_size // units.KIB, self.iops)


def run_fio(sim, filesystem, job):
    """Run a fio job to completion; returns a :class:`FioResult`.

    The caller owns the simulator; the run advances it until every job
    thread finishes.
    """
    handle = filesystem.create("fio-data", job.file_size)
    state = {"completed": 0, "started_at": None}
    latency = LatencyRecorder("fio")
    if job.rw == "randread":
        _prefill_blank(handle)

    aligned_slots = handle.nblocks // job.blocks_per_io
    if aligned_slots < 1:
        raise ValueError("file smaller than one block")

    telemetry = sim.telemetry

    def worker(index):
        rng = make_rng((job.seed, index))
        total = job.warmup_ios + job.ios_per_job
        for i in range(total):
            if i == job.warmup_ios and state["started_at"] is None:
                state["started_at"] = sim.now
            offset = rng.randrange(aligned_slots) * job.block_size
            begin = sim.now
            if job.rw == "randwrite":
                with (telemetry.span("fio.write", "workload", job=index)
                      if telemetry.enabled else NULL_SPAN):
                    values = [("fio", index, i, b)
                              for b in range(job.blocks_per_io)]
                    yield from filesystem.pwrite(handle, offset, values)
                    if job.fsync_every and (i + 1) % job.fsync_every == 0:
                        yield from filesystem.fsync(handle)
            else:
                with (telemetry.span("fio.read", "workload", job=index)
                      if telemetry.enabled else NULL_SPAN):
                    yield from filesystem.pread(handle, offset,
                                                job.blocks_per_io)
            if i >= job.warmup_ios:
                latency.record(sim.now - begin)
                state["completed"] += 1

    workers = [sim.process(worker(index)) for index in range(job.numjobs)]
    done = sim.all_of(workers)
    start_marker = sim.now
    sim.run()
    if not done.processed:
        raise RuntimeError("fio workers did not finish")
    started = state["started_at"] if state["started_at"] is not None else start_marker
    elapsed = sim.now - started
    return FioResult(job, state["completed"], elapsed, latency)


def _prefill_blank(handle):
    """Mark the file's extent as present so reads hit the FTL path.

    Reads of never-written flash return None instantly; to measure read
    IOPS the benchmark needs data on the media.  Prefilling through the
    timed write path would dominate the run, so we install the contents
    directly — the read-side timing is what the job measures.
    """
    target = handle.filesystem.target
    for lba in range(handle.base_lba, handle.base_lba + handle.nblocks):
        device, dev_lba = target.locate(lba)
        ftl = getattr(device, "ftl", None)
        if ftl is None:
            medium = getattr(device, "_medium", None)
            if medium is not None:
                medium[dev_lba] = ("prefill", dev_lba)
            continue
        lbas_per_slot = max(1, ftl.mapping_unit // units.LBA_SIZE)
        slot = dev_lba // lbas_per_slot
        if ftl.lookup(slot) is None:
            pslot_value = (("prefill", dev_lba) if lbas_per_slot == 1
                           else {l: ("prefill", l)
                                 for l in range(slot * lbas_per_slot,
                                                (slot + 1) * lbas_per_slot)})
            _install_slot(ftl, slot, pslot_value)


def _install_slot(ftl, lslot, value):
    """Place ``value`` at a fresh physical slot without simulated time."""
    ppn = ftl._allocate_page()
    pslot = ppn * ftl.slots_per_page
    ftl._commit_slot(lslot, pslot, value)
    ftl.mark_mapping_persisted()
