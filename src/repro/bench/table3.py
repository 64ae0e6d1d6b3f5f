"""Table 3 — distribution of LinkBench transaction latency.

Compares MySQL's default configuration (ON/ON, 16KB pages) with the
DuraSSD-best configuration (OFF/OFF, 4KB pages): per-operation mean,
P25/P50/P75/P99 and max latency, in milliseconds.  The paper's
takeaways: means drop 5-45x, P99 drops ~two orders of magnitude.
"""

from ..sim import units
from ..workloads.linkbench import OPERATION_MIX
from . import setups
from .figure5 import run_config
from .tableio import render_table

#: the paper's Table 3 (milliseconds): op -> (default mean, best mean,
#: default p99, best p99)
PAPER_MEANS = {
    "GET_NODE": (67.0, 1.5, 900, 7),
    "COUNT_LINK": (45.5, 1.2, 800, 5),
    "GET_LINK_LIST": (65.3, 1.4, 1000, 7),
    "MULTIGET_LINK": (67.6, 1.3, 1000, 7),
    "ADD_NODE": (51.6, 8.9, 1000, 16),
    "DELETE_NODE": (82.2, 9.6, 1000, 17),
    "UPDATE_NODE": (86.8, 9.8, 2000, 18),
    "ADD_LINK": (214.9, 11.2, 2000, 23),
    "DELETE_LINK": (115.4, 5.4, 2000, 20),
    "UPDATE_LINK": (217.6, 11.1, 2000, 23),
}


def run(ops_per_client=None, telemetry=None, spec=setups.DEFAULT_SPEC,
        worlds=None):
    """(default_result, best_result) LinkBench runs.

    ``telemetry`` is threaded into the default (ON/ON 16KB) run — the
    configuration whose latency tail the paper dissects.
    """
    default = run_config(True, True, 16 * units.KIB,
                         ops_per_client=ops_per_client, telemetry=telemetry,
                         spec=spec, worlds=worlds)
    best = run_config(False, False, 4 * units.KIB,
                      ops_per_client=ops_per_client, spec=spec,
                      worlds=worlds)
    return default, best


def format_table(results):
    default, best = results
    headers = ["operation", "config", "mean", "p25", "p50", "p75",
               "p99", "max"]
    rows = []
    for name, _weight, kind in OPERATION_MIX:
        for label, result in (("ON/ON 16K", default), ("OFF/OFF 4K", best)):
            summary = result.op_latency[name].summary()
            rows.append([
                name if label.startswith("ON") else "",
                label,
                summary["mean"] * 1e3, summary["p25"] * 1e3,
                summary["p50"] * 1e3, summary["p75"] * 1e3,
                summary["p99"] * 1e3, summary["max"] * 1e3,
            ])
        paper = PAPER_MEANS[name]
        rows.append(["", "(paper means/p99)",
                     paper[0], "-", "-", "-", paper[2], "-"])
        rows.append(["", "", paper[1], "-", "-", "-", paper[3], "-"])
    table = render_table(
        "Table 3: LinkBench latency distribution (milliseconds)",
        headers, rows)
    gain = (default.reads.mean + default.writes.mean) / max(
        1e-9, best.reads.mean + best.writes.mean)
    from .charts import render_latency_histogram
    histograms = (
        "\nread latency, default (ON/ON 16KB):\n"
        + render_latency_histogram(default.reads)
        + "\nread latency, best (OFF/OFF 4KB):\n"
        + render_latency_histogram(best.reads))
    return (table + "\noverall mean improvement: %.1fx (paper: 5-45x)"
            % gain + histograms)
