"""Table 5 — Couchbase throughput for YCSB, varying the fsync batch.

Workload A against a 100GB (scaled) bucket, single client thread,
batch-size in {1, 2, 5, 10, 100}, write barriers on/off, and both the
100%-update variant and the default 50/50 mix.  The paper's headline:
with barriers on, batch-1 is >20x slower than batch-100; with barriers
off (safe on DuraSSD) the gap collapses to ~2.1-2.6x.
"""

from ..workloads.ycsb import YCSBConfig, YCSBWorkload
from . import setups
from .tableio import render_grid

BATCH_SIZES = (1, 2, 5, 10, 100)

PAPER = {
    (True, 1.0): (206, 398, 988, 1954, 4692),
    (True, 0.5): (195, 390, 1400, 2041, 4921),
    (False, 1.0): (2404, 3464, 3826, 4959, 5101),
    (False, 0.5): (2406, 3464, 4209, 5461, 6208),
}


def run_config(barrier, update_fraction, batch_size, ops=None,
               spec=setups.DEFAULT_SPEC, worlds=None):
    sim = setups.fresh_world(spec=spec, worlds=worlds)
    engine, _devices = setups.couchbase_setup(sim, batch_size, barrier)
    workload = YCSBWorkload(engine, YCSBConfig(
        "A", update_fraction=update_fraction,
        record_count=setups.scaled_db_bytes() // 1024))
    if ops is None:
        ops = setups.ops_scale(1200)
    return workload.run(clients=1, ops_per_client=ops, warmup_ops=30)


def run(spec=setups.DEFAULT_SPEC, worlds=None):
    """{(barrier, update_fraction): [ops/s per batch size]}"""
    results = {}
    for barrier in (True, False):
        for update_fraction in (1.0, 0.5):
            results[(barrier, update_fraction)] = [
                run_config(barrier, update_fraction, batch, spec=spec,
                           worlds=worlds).ops_per_second
                for batch in BATCH_SIZES]
    return results


def format_table(results):
    headers = ["barrier/updates"] + ["batch %d" % b for b in BATCH_SIZES]
    table = render_grid(
        "Table 5: Couchbase YCSB operations per second", headers,
        [("%s / %d%%" % ("ON" if barrier else "OFF", int(fraction * 100)),
          results[(barrier, fraction)], PAPER[(barrier, fraction)])
         for barrier in (True, False) for fraction in (1.0, 0.5)])
    on_gap = results[(True, 1.0)][-1] / max(1e-9, results[(True, 1.0)][0])
    off_gap = results[(False, 1.0)][-1] / max(1e-9, results[(False, 1.0)][0])
    return table + ("\nbatch-100 vs batch-1: barriers on %.1fx "
                    "(paper >20x), off %.1fx (paper 2.1-2.6x)"
                    % (on_gap, off_gap))
