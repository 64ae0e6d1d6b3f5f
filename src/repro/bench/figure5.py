"""Figure 5 — LinkBench transaction throughput on MySQL/InnoDB.

Four configurations (write-barrier on/off x double-write-buffer on/off)
by three page sizes (16/8/4KB), 128 clients, 10GB buffer pool on a
100GB database (scaled).  The paper's headline: turning barriers off
buys ~6x, dropping the double-write buffer buys ~2x (barriers on) or
~25% (barriers off), and the best/worst gap exceeds 20x.
"""

from ..sim import units
from ..workloads.linkbench import LinkBenchConfig, LinkBenchWorkload
from . import setups
from .tableio import render_grid

PAGE_SIZES = (16 * units.KIB, 8 * units.KIB, 4 * units.KIB)
CONFIGS = [  # (barrier, doublewrite)
    (True, True), (True, False), (False, True), (False, False),
]

#: approximate TPS read off Figure 5's bars (the paper prints no table)
PAPER_APPROX = {
    (True, True): (1300, 2500, 2300),
    (True, False): (2600, 4500, 4300),
    (False, True): (12000, 18000, 25000),
    (False, False): (15000, 24000, 32000),
}


def run_config(barrier, doublewrite, page_size, clients=128,
               ops_per_client=None, buffer_gb=10, telemetry=None,
               spec=setups.DEFAULT_SPEC, worlds=None):
    sim = setups.fresh_world(telemetry, spec, worlds)
    engine, _devices = setups.mysql_setup(sim, page_size, barrier,
                                          doublewrite, buffer_gb=buffer_gb)
    workload = LinkBenchWorkload(
        engine, LinkBenchConfig(db_bytes=setups.scaled_db_bytes()))
    if ops_per_client is None:
        # Quick mode still needs enough operations to reach the dirty
        # steady state, or the doublewrite/barrier knobs look free.
        ops_per_client = max(100, setups.ops_scale(150))
    return workload.run(clients=clients, ops_per_client=ops_per_client,
                        warmup_ops=40)


#: configuration traced under ``--telemetry``: MySQL defaults, 16KB
TRACED_CONFIG = (True, True, 16 * units.KIB)


def run(telemetry=None, spec=setups.DEFAULT_SPEC, worlds=None):
    """{(barrier, dwb): [LinkBenchResult per page size]}

    ``telemetry`` is threaded into the :data:`TRACED_CONFIG` run only
    (one hub binds one simulator); tracing does not perturb the TPS.
    """
    results = {}
    for barrier, doublewrite in CONFIGS:
        results[(barrier, doublewrite)] = [
            run_config(barrier, doublewrite, page_size,
                       telemetry=telemetry
                       if (barrier, doublewrite, page_size) == TRACED_CONFIG
                       else None, spec=spec, worlds=worlds)
            for page_size in PAGE_SIZES]
    return results


def _label(config):
    return "/".join("ON" if knob else "OFF" for knob in config)


def format_table(results):
    headers = ["barrier/dwb", "16KB", "8KB", "4KB"]
    table = render_grid(
        "Figure 5: LinkBench transactions per second", headers,
        [(_label(key), [r.tps for r in results[key]], PAPER_APPROX[key])
         for key in CONFIGS], paper="(paper~)")
    best = max(r.tps for row in results.values() for r in row)
    worst = min(r.tps for row in results.values() for r in row)
    from .charts import render_grouped_bars
    chart = render_grouped_bars(
        "\nFigure 5 as bars (TPS):", ["16KB", "8KB", "4KB"],
        {_label(key): [r.tps for r in results[key]] for key in CONFIGS})
    return table + ("\nbest/worst gap: %.1fx (paper: >20x)\n"
                    % (best / worst)) + chart
