"""A FusionIO-style SSD with an Atomic Write Extension (Section 5.3).

The only commercial device-level alternative the paper identifies:
FusionIO altered its flash translation layer so all sectors of an
*atomic write* land contiguously with per-sector completion flags —
giving command atomicity **without** a durable cache.  Key contrasts
with DuraSSD:

* atomicity yes, but the write cache is still volatile: durability
  still requires flush-cache on fsync (no ``nobarrier`` trick);
* the feature lives behind a vendor-specific Virtual Storage Layer
  (VSL) interface, so adopting it means porting the engine — the
  paper's portability critique.

With this device InnoDB can turn the double-write buffer off (the ~40%
gain Ouyang et al. report, which the paper compares against its 25%)
but keeps paying for barriers.
"""

from ..sim import units
from .presets import _named
from .ssd import FlashSSD, SSDSpec


def fusionio_spec(capacity_bytes=4 * units.GIB):
    """A fast PCIe-class device with 8KB mapping and a volatile cache."""
    return SSDSpec(
        name="fusionio-atomic",
        capacity_bytes=capacity_bytes,
        cache_bytes=512 * units.MIB,
        mapping_unit=8 * units.KIB,
        lanes=20,
        program_time=0.8 * units.MSEC,
        flush_fixed=1.6 * units.MSEC,
        map_persist_flush=0.3 * units.MSEC,
        map_persist_writethrough=0.6 * units.MSEC,
        flush_cache_off_cost=1.0 * units.MSEC,
        command_overhead=45 * units.USEC,
    )


class AtomicWriteSSD(FlashSSD):
    """Volatile-cache SSD whose multi-block writes are all-or-nothing.

    Must be enabled through the VSL ioctl before use — modelling the
    paper's portability point that the feature is opt-in and
    vendor-specific.
    """

    def __init__(self, sim, spec=None, cache_enabled=True):
        super().__init__(sim, spec or fusionio_spec(),
                         cache_enabled=cache_enabled)
        self._atomic_enabled = False
        #: (lba, nblocks, payload) of commands accepted atomically but
        #: not yet fully flushed — on power failure these roll back as
        #: units instead of tearing.
        self._atomic_inflight = {}
        self._atomic_counter = 0
        self.counters["atomic_writes"] = 0

    def enable_atomic_writes(self):
        """The VSL ioctl: opt into the vendor interface at 'boot'."""
        self._atomic_enabled = True

    @property
    def atomic_writes_enabled(self):
        return self._atomic_enabled

    def _write(self, request):
        if not self._atomic_enabled or request.nblocks == 1:
            yield from super()._write(request)
            return
        # Atomic multi-block write: tag the blocks as one atomic group
        # so a power cut removes them together.
        self._atomic_counter += 1
        group = self._atomic_counter
        self._atomic_inflight[group] = request
        self.counters["atomic_writes"] += 1
        try:
            yield from super()._write(request)
        finally:
            # once drained to NAND *and* mapped persistently the group
            # is naturally atomic; until then power_fail handles it
            pass

    def power_fail(self):
        super().power_fail()
        if not self._atomic_enabled:
            return
        # Enforce group atomicity over whatever survived: if any block
        # of an atomic command is missing, roll the whole command back
        # (the per-sector completion flags make partial groups invisible).
        for group, request in list(self._atomic_inflight.items()):
            values = [self.read_persistent(lba) for lba in request.blocks]
            complete = all(value == request.payload[index]
                           for index, value in enumerate(values))
            if complete:
                del self._atomic_inflight[group]
                continue
            # roll the group back: hide any partial new blocks (the
            # per-sector completion flags make them unreadable), keeping
            # unrelated neighbours in shared 8KB slots intact.
            for index, lba in enumerate(request.blocks):
                if values[index] == request.payload[index]:
                    self.install_persistent(lba, None)
            del self._atomic_inflight[group]


def make_fusionio(sim, cache_enabled=True, capacity_bytes=4 * units.GIB,
                  name=None):
    device = AtomicWriteSSD(sim, _named(fusionio_spec(capacity_bytes), name),
                            cache_enabled=cache_enabled)
    device.enable_atomic_writes()
    return device
