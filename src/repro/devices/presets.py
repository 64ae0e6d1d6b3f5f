"""Calibrated device presets for the paper's four test devices.

Table 1 of the paper measures 4KB random-write IOPS for a Seagate
Cheetah 15K.6 disk, two commercial SSDs (SSD-A with 512MB cache, SSD-B
with 128MB) and the DuraSSD prototype (512MB durable cache), across
fsync periods and cache modes.  Each preset below is an analytic fit of
that table:

* ``command_overhead`` + link transfer bounds the cache-ack rate
  (DuraSSD "no barrier" row saturates near 15K IOPS -> ~65us/cmd).
* ``lanes`` / ``program_time`` set the cache drain rate, visible in the
  "no fsync, cache on" column (SSD-A 11.7K -> 16 lanes x 1.3ms; SSD-B
  8.5K -> 6 x 0.65ms; DuraSSD 15.3K -> 20 x 0.8ms *with 4KB pairing*,
  Section 3.1.2).
* ``flush_fixed`` + ``map_persist_flush`` dominate the fsync-every-write
  column (SSD-A 256 IOPS -> ~3.8ms per flush; DuraSSD 225 -> ~3.1ms).
* ``map_persist_writethrough`` dominates the cache-off rows, where every
  write persists its mapping delta (SSD-A 494 IOPS no-fsync -> ~2.0ms
  per write incl. program).

The shapes — who wins, crossover points, the ~13-68x fsync penalty on
SSDs vs ~7x on disk — are produced by the mechanics, not hard-coded.
Absolute IOPS land within ~25% of the published values (EXPERIMENTS.md
tabulates paper-vs-measured).
"""

from ..sim import units
from .hdd import DiskDrive, HDDSpec
from .ssd import FlashSSD, SSDSpec

#: Simulated device capacity.  The prototype was 480GB; structural
#: behaviour (striping, GC pressure at 7% over-provisioning) is scale
#: free, so we default to a laptop-friendly size.
DEFAULT_CAPACITY = 4 * units.GIB


def cheetah_15k6_spec(capacity_bytes=DEFAULT_CAPACITY):
    """Seagate Cheetah 15K.6 146.8GB, 16MB volatile track buffer."""
    return HDDSpec(
        name="hdd-cheetah-15k6",
        capacity_bytes=capacity_bytes,
        cache_bytes=16 * units.MIB,
        seek_time=4.1 * units.MSEC,          # avg write seek, 15K RPM class
        rotational_latency=2.0 * units.MSEC,  # half of a 4ms revolution
        queue_alpha=0.25,                     # NCQ/elevator gain vs depth
        writeback_efficiency=0.41,            # elevator-ordered drain
        flush_fixed=14.0 * units.MSEC,
        flush_cache_off_cost=11.0 * units.MSEC,
    )


def ssd_a_spec(capacity_bytes=DEFAULT_CAPACITY):
    """"SSD-A": a 512MB-cache consumer-class SATA SSD, 8KB mapping."""
    return SSDSpec(
        name="ssd-a",
        capacity_bytes=capacity_bytes,
        cache_bytes=512 * units.MIB,
        mapping_unit=8 * units.KIB,           # no small-page pairing
        lanes=16,
        program_time=1.3 * units.MSEC,
        flush_fixed=1.9 * units.MSEC,
        map_persist_flush=0.5 * units.MSEC,
        map_persist_writethrough=0.66 * units.MSEC,
        flush_cache_off_cost=3.9 * units.MSEC,
        command_overhead=55 * units.USEC,
    )


def ssd_b_spec(capacity_bytes=DEFAULT_CAPACITY):
    """"SSD-B": a 128MB-cache SSD with fast flush but few lanes."""
    return SSDSpec(
        name="ssd-b",
        capacity_bytes=capacity_bytes,
        cache_bytes=128 * units.MIB,
        mapping_unit=8 * units.KIB,
        lanes=6,
        program_time=0.65 * units.MSEC,
        flush_fixed=0.4 * units.MSEC,
        map_persist_flush=0.3 * units.MSEC,
        map_persist_writethrough=0.15 * units.MSEC,
        flush_cache_off_cost=0.79 * units.MSEC,
        command_overhead=55 * units.USEC,
    )


def durassd_spec(capacity_bytes=DEFAULT_CAPACITY):
    """The DuraSSD prototype: 512MB cache + 15 tantalum capacitors.

    4KB mapping over 8KB NAND pages doubles the small-write drain rate
    by pairing (Section 3.1.2); the flush costs match Table 1's
    barrier-on rows (a DuraSSD *can* be run like a conventional drive).
    """
    return SSDSpec(
        name="durassd",
        capacity_bytes=capacity_bytes,
        cache_bytes=512 * units.MIB,
        mapping_unit=4 * units.KIB,           # pairing enabled
        lanes=20,
        program_time=0.8 * units.MSEC,
        flush_fixed=3.45 * units.MSEC,
        map_persist_flush=0.15 * units.MSEC,
        map_persist_writethrough=1.15 * units.MSEC,
        flush_cache_off_cost=2.0 * units.MSEC,
        command_overhead=58 * units.USEC,
    )


def _named(spec, name):
    """Override a spec's name (distinct stripe members need distinct
    names — telemetry attrs and lifecycle RNG streams key on them)."""
    return spec if name is None else spec._replace(name=name)


def make_hdd(sim, cache_enabled=True, capacity_bytes=DEFAULT_CAPACITY,
             name=None):
    return DiskDrive(sim, _named(cheetah_15k6_spec(capacity_bytes), name),
                     cache_enabled)


def make_ssd_a(sim, cache_enabled=True, capacity_bytes=DEFAULT_CAPACITY,
               name=None):
    return FlashSSD(sim, _named(ssd_a_spec(capacity_bytes), name),
                    cache_enabled)


def make_ssd_b(sim, cache_enabled=True, capacity_bytes=DEFAULT_CAPACITY,
               name=None):
    return FlashSSD(sim, _named(ssd_b_spec(capacity_bytes), name),
                    cache_enabled)


def make_durassd(sim, cache_enabled=True, capacity_bytes=DEFAULT_CAPACITY,
                 name=None):
    """Build a DuraSSD.  Imported lazily to avoid a core<->devices cycle."""
    from ..core.durassd import DuraSSD
    return DuraSSD(sim, _named(durassd_spec(capacity_bytes), name),
                   cache_enabled)


#: every device kind a world is built from, by its CLI name: the bench
#: worlds (``setups.make_device``), the campaign worlds and the
#: ``torture``/``chaos`` device choices all read this one map
DEVICE_MAKERS = {
    "hdd": make_hdd,
    "ssd-a": make_ssd_a,
    "ssd-b": make_ssd_b,
    "durassd": make_durassd,
}
