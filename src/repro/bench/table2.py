"""Table 2 — effect of page size on IOPS (DuraSSD and HDD).

DuraSSD: read-only at 128 threads; write-only with fsync every write,
every 256 writes, and 128 threads with nobarrier.  HDD: read-only and
write-only at 128 threads.  Page sizes 16/8/4KB.
"""

from ..host import FileSystem, FioJob, run_fio
from ..sim import units
from . import setups
from .tableio import render_grid

PAGE_SIZES = (16 * units.KIB, 8 * units.KIB, 4 * units.KIB)

PAPER_DURASSD = {
    "read-only (128 thr)": (29870, 57847, 89083),
    "write-only (1-fsync)": (196, 206, 225),
    "write-only (256-fsync)": (4563, 7978, 12647),
    "write-only (128 nobarrier)": (13446, 25546, 49009),
}
PAPER_HDD = {
    "read-only (128 thr)": (516, 528, 538),
    "write-only (128 thr)": (428, 439, 444),
}


def _measure(device_kind, rw, numjobs, fsync_every, barriers, page_size,
             spec=setups.DEFAULT_SPEC, worlds=None):
    sim = setups.fresh_world(spec=spec, worlds=worlds)
    device = setups.make_device(sim, device_kind)
    filesystem = FileSystem(sim, device, barriers=barriers)
    per_job = setups.ops_scale(60 if numjobs > 1 else 400)
    if device_kind == "hdd":
        per_job = max(8, per_job // 8)
    job = FioJob(rw=rw, block_size=page_size, numjobs=numjobs,
                 ios_per_job=per_job, fsync_every=fsync_every,
                 file_size=128 * units.MIB)
    return run_fio(sim, filesystem, job).iops


def run(spec=setups.DEFAULT_SPEC, worlds=None):
    """Returns {section: {row_label: [iops per page size]}}."""
    def row(device_kind, rw, numjobs, fsync_every, barriers):
        return [_measure(device_kind, rw, numjobs, fsync_every, barriers,
                         page_size, spec=spec, worlds=worlds)
                for page_size in PAGE_SIZES]

    durassd = {
        "read-only (128 thr)": row("durassd", "randread", 128, 0, True),
        "write-only (1-fsync)": row("durassd", "randwrite", 1, 1, True),
        "write-only (256-fsync)": row("durassd", "randwrite", 1, 256, True),
        "write-only (128 nobarrier)": row("durassd", "randwrite", 128, 0,
                                          False),
    }
    hdd = {
        "read-only (128 thr)": row("hdd", "randread", 128, 0, True),
        "write-only (128 thr)": row("hdd", "randwrite", 128, 0, True),
    }
    return {"durassd": durassd, "hdd": hdd}


def format_table(results):
    headers = ["workload", "16KB", "8KB", "4KB"]
    return "\n\n".join(
        render_grid("Table 2(%s): page size vs IOPS — %s"
                    % (part, section), headers,
                    [(label, values, paper[label])
                     for label, values in results[section].items()])
        for part, section, paper in (("a", "durassd", PAPER_DURASSD),
                                     ("b", "hdd", PAPER_HDD)))
