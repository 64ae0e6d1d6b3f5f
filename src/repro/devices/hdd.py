"""A 15K-RPM enterprise disk drive (the paper's Seagate Cheetah 15K.6).

One actuator services the medium; concurrent requests queue at it.  The
effective positioning time shrinks as the queue deepens (elevator / NCQ
reordering), modelled as ``seek * (1 + queue_depth) ** -alpha`` — which
reproduces both the ~160 IOPS random 4KB rate at queue depth 1 and the
~520-540 IOPS the paper's Table 2(b) shows at 128 threads.

The 16MB track buffer is a volatile write cache: Table 1's HDD rows come
from exactly the same cache/flush machinery as the SSDs, only with a
mechanical medium behind it.
"""

from typing import NamedTuple

from ..flash.torn import TORN
from ..sim import units
from ..sim.record import Record
from ..sim.resources import Resource
from .base import PowerFailedError, StorageDevice


class _HDDSpecFields(NamedTuple):
    name: str = "hdd"
    capacity_bytes: int = 4 * units.GIB
    cache_bytes: int = 16 * units.MIB
    seek_time: float = 4.1 * units.MSEC
    rotational_latency: float = 2.0 * units.MSEC
    queue_alpha: float = 0.25
    media_bandwidth: float = 120 * units.MIB
    writeback_efficiency: float = 0.41
    link_bandwidth: float = 300 * units.MIB
    command_overhead: float = 0.1 * units.MSEC
    flush_fixed: float = 4.2 * units.MSEC
    flush_cache_off_cost: float = 4.5 * units.MSEC
    cache_hit_time: float = 20 * units.USEC


class HDDSpec(Record, _HDDSpecFields):
    """Mechanical and cache parameters of a disk drive."""

    __slots__ = ()


class DiskDrive(StorageDevice):
    """Volatile-track-buffer disk drive."""

    def __init__(self, sim, spec=None, cache_enabled=True):
        spec = spec or HDDSpec()
        super().__init__(sim, spec, spec.cache_bytes, cache_enabled)
        self.exported_lbas = spec.capacity_bytes // units.LBA_SIZE
        self._medium = {}
        self._actuator = Resource(sim, capacity=1)
        self._pending_media_ops = 0
        self._in_flight_media = None
        if cache_enabled:
            sim.process(self._flusher())

    # --- medium access -----------------------------------------------------
    def _positioning_time(self):
        # Depth excludes the op being served: a lone request pays the
        # full average seek; a deep queue lets the elevator shorten it.
        depth = max(0, self._pending_media_ops - 1)
        seek = self.spec.seek_time * (1 + depth) ** (-self.spec.queue_alpha)
        return seek + self.spec.rotational_latency

    def _media_access(self, nbytes, writeback=False, write_items=None):
        """One mechanical access: queue at the actuator, position, transfer.

        ``write_items`` is ``[(lba, value), ...]`` for writes; it lets a
        power cut mid-transfer persist a prefix and shear the boundary
        block, the classic torn-page failure.
        """
        self._pending_media_ops += 1
        try:
            yield from self._actuator.acquire_guarded()
        except BaseException:
            self._pending_media_ops -= 1
            raise
        try:
            position = self._positioning_time()
            if writeback:
                position *= self.spec.writeback_efficiency
            duration = position + nbytes / self.spec.media_bandwidth
            if write_items:
                # Data reaches the platter only after positioning; a cut
                # during the seek/rotation leaves the old data intact.
                self._in_flight_media = {
                    "items": write_items,
                    "start": self.sim.now + position,
                    "end": self.sim.now + duration,
                }
            try:
                yield self.sim.timeout(duration)
            except BaseException:
                # Host abort mid-access: the heads stop before the media
                # commit, and the in-flight record must not be sheared by
                # a later power cut against a command that no longer
                # exists.  (A real power cut freezes the process instead
                # of unwinding it, so torn-write shearing still works.)
                self._in_flight_media = None
                raise
            self._in_flight_media = None
        finally:
            self._actuator.release()
            self._pending_media_ops -= 1

    # --- write path ----------------------------------------------------------
    def _write_through(self, request):
        # Contiguous blocks share one positioning.
        items = list(zip(request.blocks, request.payload))
        yield from self._media_access(request.nbytes, write_items=items)
        if not self.powered:
            raise PowerFailedError(self.name)
        for lba, value in items:
            self._medium[lba] = value

    # --- read path ---------------------------------------------------------------
    def _read(self, request):
        values = []
        need_media = False
        for lba in request.blocks:
            if self.cache_enabled and lba in self.cache:
                values.append(self.cache.get(lba))
            else:
                values.append(self._medium.get(lba))
                need_media = True
        if need_media:
            yield from self._media_access(request.nbytes)
        else:
            yield self.sim.timeout(self.spec.cache_hit_time)
        return values

    # --- flusher --------------------------------------------------------------------
    def _flush_batch_slots(self):
        return 1

    def _flush_batch(self, batch):
        # One positioning per block.
        for lba, _sequence, value in batch:
            yield from self._media_access(units.LBA_SIZE, writeback=True,
                                          write_items=[(lba, value)])
            if self.powered:
                self._medium[lba] = value

    # --- power failure -----------------------------------------------------------------
    def power_fail(self):
        super().power_fail()
        in_flight = self._in_flight_media
        if in_flight is not None and self.sim.now > in_flight["start"]:
            # The head was writing this sector train: the already-passed
            # prefix persisted, the block under the head is shorn.
            span = in_flight["end"] - in_flight["start"]
            fraction = 0.0
            if span > 0:
                fraction = (self.sim.now - in_flight["start"]) / span
            items = in_flight["items"]
            done = min(len(items), int(fraction * len(items)))
            for lba, value in items[:done]:
                self._medium[lba] = value
            if done < len(items):
                self._medium[items[done][0]] = TORN
            self._in_flight_media = None
        self.cache.clear()

    def install_persistent(self, lba, value):
        self._medium[lba] = value

    def read_persistent(self, lba):
        return self._medium.get(lba)
