"""Table 1 — effect of fsync and flush-cache on 4KB random-write IOPS.

Four devices (HDD, SSD-A, SSD-B, DuraSSD) x cache off/on (+ the
DuraSSD "nobarrier" row) x fsync period in {1..256, none}, measured
with the fio tool at queue depth 1, exactly as the paper does.
"""

from ..host import FioJob, run_fio
from ..sim import units
from . import setups
from .tableio import render_grid

FSYNC_PERIODS = (1, 4, 8, 16, 32, 64, 128, 256, 0)

#: the paper's published IOPS, keyed by (device, mode) then period
PAPER = {
    ("hdd", "off"): (58, 111, 130, 143, 151, 155, 156, 157, 158),
    ("hdd", "on"): (59, 135, 184, 234, 251, 335, 375, 381, 387),
    ("ssd-a", "off"): (168, 332, 397, 441, 463, 479, 480, 490, 494),
    ("ssd-a", "on"): (256, 759, 1297, 2219, 3595, 5094, 6794, 8782, 11681),
    ("ssd-b", "off"): (603, 732, 889, 995, 1042, 1082, 1114, 1124, 1157),
    ("ssd-b", "on"): (655, 1762, 2319, 3152, 4046, 5177, 6318, 8575, 8456),
    ("durassd", "off"): (249, 330, 438, 467, 482, 490, 495, 497, 498),
    ("durassd", "on"): (225, 836, 1556, 2556, 5020, 6969, 10582, 12647,
                        15319),
    ("durassd", "nobarrier"): (14484, 14800, 14813, 14824, 14840, 14863,
                               15063, 15181, 15458),
}

ROWS = [
    ("hdd", "off"), ("hdd", "on"),
    ("ssd-a", "off"), ("ssd-a", "on"),
    ("ssd-b", "off"), ("ssd-b", "on"),
    ("durassd", "off"), ("durassd", "on"), ("durassd", "nobarrier"),
]


def measure_cell(sim, device_kind, mode, fsync_period, ios=None):
    """One fio run on ``sim``; returns IOPS."""
    target, _members = setups.make_data_target(
        sim, device_kind, cache_enabled=mode != "off")
    filesystem = setups.file_system(sim, target, mode != "nobarrier")
    if ios is None:
        ios = _ios_for(device_kind, mode, fsync_period)
    job = FioJob(rw="randwrite", block_size=4 * units.KIB,
                 ios_per_job=ios, fsync_every=fsync_period,
                 file_size=64 * units.MIB)
    return run_fio(sim, filesystem, job).iops


def _ios_for(device_kind, mode, fsync_period):
    """Enough I/Os for a stable estimate without hour-long HDD runs."""
    base = 200 if device_kind == "hdd" else 600
    if mode == "nobarrier" or fsync_period == 0:
        base *= 3
    if fsync_period >= 64:
        base = max(base, fsync_period * 5)
    return setups.ops_scale(base)


def run(world):
    """Measure the full table, each cell on ``world((device, mode,
    period))``; returns {(device, mode): [iops...]}."""
    return {(device_kind, mode): [
        measure_cell(world((device_kind, mode, period)), device_kind, mode,
                     period)
        for period in FSYNC_PERIODS] for device_kind, mode in ROWS}


def format_table(results):
    headers = (["device/cache"]
               + [str(p) if p else "none" for p in FSYNC_PERIODS])
    return render_grid(
        "Table 1: 4KB random-write IOPS vs writes-per-fsync", headers,
        [("%s %s" % key, results[key], PAPER[key]) for key in ROWS])
