"""NAND timing model: an array of independent *lanes*.

A lane is an effective unit of parallelism (a plane pipeline plus its
share of the channel bus).  Real arrays have a theoretical parallelism
of hundreds of planes but far fewer *effective* lanes once channel
contention is accounted for; device presets carry the calibrated lane
count (Section 2.3 of the paper, Table 1 calibration).

Timing is expressed per-operation:

* ``program``  — tPROG for one NAND page, including channel transfer.
* ``read``     — tR (sense) plus transfer, which scales with bytes.
* ``erase``    — tBERS for one block.

The array also tracks *in-flight programs* so a power-failure injector
can tear exactly the pages that were mid-program at the cut instant —
the "shorn write" behaviour observed by Zheng et al. [33].
"""

from ..sim import units
from ..sim.resources import Resource


class FlashTiming:
    """Operation latencies for one lane, in seconds."""

    def __init__(
        self,
        program=0.8 * units.MSEC,
        read_sense=0.1 * units.MSEC,
        read_transfer_per_kib=0.025 * units.MSEC,
        erase=2.0 * units.MSEC,
    ):
        self.program = program
        self.read_sense = read_sense
        self.read_transfer_per_kib = read_transfer_per_kib
        self.erase = erase

    def read_time(self, nbytes):
        return self.read_sense + (nbytes / units.KIB) * self.read_transfer_per_kib


class InFlightProgram:
    """Bookkeeping for a NAND program that has started but not finished."""

    __slots__ = ("ppn", "started_at", "finishes_at")

    def __init__(self, ppn, started_at, finishes_at):
        self.ppn = ppn
        self.started_at = started_at
        self.finishes_at = finishes_at


class FlashArray:
    """``lanes`` independent pipelines in front of the NAND geometry.

    All operations are processes: acquire a lane, spend the operation
    time, release.  Lane choice is by physical page so striped
    allocation spreads programs across lanes.
    """

    def __init__(self, sim, geometry, timing=None, lanes=16):
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        self.sim = sim
        self.geometry = geometry
        self.timing = timing or FlashTiming()
        self.lanes = lanes
        self._lane_resources = [Resource(sim, capacity=1) for _ in range(lanes)]
        self.in_flight = {}
        # Optional transient-fault oracle (repro.failures.faults); when
        # absent every operation succeeds and nothing extra is computed.
        self.fault_model = None
        self.counters = {"programs": 0, "reads": 0, "erases": 0}

    def attach_fault_model(self, fault_model):
        """Install a :class:`~repro.failures.faults.TransientFaultModel`."""
        self.fault_model = fault_model

    def lane_of_page(self, ppn):
        return self.geometry.block_of_page(ppn) % self.lanes

    def lane_of_block(self, block):
        return block % self.lanes

    # --- operations (generators to run under sim.process or yield from) --
    # Each operation returns True on success, False when the attached
    # fault model injected a transient failure (status-register error on
    # real NAND).  The FTL owns the retry policy.  Program and read run
    # once per NAND page, so they take their lane with
    # Resource.acquire_guarded inlined: no generator frame per page.
    def program(self, ppn):
        """Program one NAND page; yields until the program completes."""
        lane = self._lane_resources[self.lane_of_page(ppn)]
        grant = lane.acquire()
        try:
            yield grant
        except BaseException:
            lane.cancel(grant)
            raise
        try:
            record = InFlightProgram(ppn, self.sim.now,
                                     self.sim.now + self.timing.program)
            self.in_flight[ppn] = record
            try:
                yield self.sim.timeout(self.timing.program)
            except BaseException:
                # Aborted mid-program: drop the in-flight record so a
                # later power cut cannot misattribute the tear.  (A real
                # power cut freezes the process instead of unwinding it,
                # so torn-program detection still sees the record.)
                self.in_flight.pop(ppn, None)
                raise
            self.in_flight.pop(ppn, None)
            self.counters["programs"] += 1
            if self.fault_model is not None \
                    and self.fault_model.program_fails(ppn):
                return False
        finally:
            lane.release()
        return True

    def read(self, ppn, nbytes=None):
        """Read one NAND page (or ``nbytes`` of it)."""
        if nbytes is None:
            nbytes = self.geometry.page_size
        lane = self._lane_resources[self.lane_of_page(ppn)]
        grant = lane.acquire()
        try:
            yield grant
        except BaseException:
            lane.cancel(grant)
            raise
        try:
            yield self.sim.timeout(self.timing.read_time(nbytes))
            self.counters["reads"] += 1
            if self.fault_model is not None \
                    and self.fault_model.read_fails(ppn):
                return False
        finally:
            lane.release()
        return True

    def erase(self, block):
        lane = self._lane_resources[self.lane_of_block(block)]
        yield from lane.acquire_guarded()
        try:
            yield self.sim.timeout(self.timing.erase)
            self.counters["erases"] += 1
            if self.fault_model is not None \
                    and self.fault_model.erase_fails(block):
                return False
        finally:
            lane.release()
        return True

    # --- power failure ----------------------------------------------------
    def torn_programs(self):
        """Physical pages that were mid-program right now (power cut)."""
        return [record.ppn for record in self.in_flight.values()
                if record.finishes_at > self.sim.now]
