"""Table 4 — TPC-C throughput (tpmC) on the commercial DBMS.

1,000 warehouses, 2GB buffer pool, data files opened O_DSYNC on ext4.
Barrier on/off by page size 16/8/4KB.  The paper's result: turning the
barrier off multiplies tpmC by 15.3-22.8x — three times the LinkBench
gain, because this engine barriers *every* page write and runs a 5x
smaller buffer pool.
"""

from ..sim import units
from ..workloads.tpcc import TPCCConfig, TPCCWorkload
from . import setups
from .tableio import render_grid

PAGE_SIZES = (16 * units.KIB, 8 * units.KIB, 4 * units.KIB)

PAPER = {
    True: (4291, 4845, 7729),
    False: (65809, 110400, 150815),
}


def run_config(sim, barrier, page_size, clients=64, txns_per_client=None):
    engine, _devices = setups.commercial_setup(sim, page_size, barrier,
                                               buffer_gb=2)
    workload = TPCCWorkload(engine, TPCCConfig(scale=setups.scale_factor()))
    if txns_per_client is None:
        txns_per_client = setups.ops_scale(80)
    return workload.run(clients=clients, txns_per_client=txns_per_client,
                        warmup_txns=15)


def run(world):
    """{barrier: [TPCCResult per page size]}"""
    return {barrier: [run_config(world((barrier, page_size)), barrier,
                                 page_size)
                      for page_size in PAGE_SIZES]
            for barrier in (True, False)}


def format_table(results):
    headers = ["barrier", "16KB", "8KB", "4KB"]
    table = render_grid(
        "Table 4: TPC-C throughput in tpmC", headers,
        [("ON" if barrier else "OFF", [r.tpmc for r in results[barrier]],
          PAPER[barrier]) for barrier in (True, False)])
    gains = [results[False][i].tpmc / max(1e-9, results[True][i].tpmc)
             for i in range(len(PAGE_SIZES))]
    return table + ("\nbarrier-off gain: %s (paper: 15.3x / 22.8x / 19.5x)"
                    % " / ".join("%.1fx" % g for g in gains))
