"""Figure 6 — LinkBench buffer miss ratio and TPS vs buffer-pool size.

OFF/OFF configuration (the DuraSSD-friendly one), buffer pool swept
from 2GB to 10GB (scaled), page sizes 16/8/4KB.  Figure 6(a): the miss
ratio falls faster with 4KB pages; Figure 6(b): the TPS gap between
page sizes widens with the pool, with no saturation.
"""

from ..sim import units
from . import setups
from .figure5 import run_config
from .tableio import render_grid

PAGE_SIZES = (16 * units.KIB, 8 * units.KIB, 4 * units.KIB)
BUFFER_GB = (2, 4, 6, 8, 10)

#: approximate values read off the figure
PAPER_MISS_APPROX = {
    16 * units.KIB: (8.5, 7.0, 6.0, 5.2, 4.5),
    8 * units.KIB: (6.5, 5.4, 4.7, 4.2, 3.9),
    4 * units.KIB: (5.6, 4.6, 4.0, 3.6, 3.4),
}
PAPER_TPS_APPROX = {
    16 * units.KIB: (9000, 11000, 12500, 14000, 15000),
    8 * units.KIB: (14000, 17500, 20000, 22000, 24000),
    4 * units.KIB: (18000, 23000, 27000, 30000, 32000),
}


def run(spec=setups.DEFAULT_SPEC, worlds=None):
    """{page_size: [(miss_ratio, tps) per buffer size]}"""
    results = {}
    for page_size in PAGE_SIZES:
        series = []
        for buffer_gb in BUFFER_GB:
            outcome = run_config(False, False, page_size,
                                 buffer_gb=buffer_gb, spec=spec,
                                 worlds=worlds)
            series.append((outcome.buffer_miss_ratio, outcome.tps))
        results[page_size] = series
    return results


def format_table(results):
    headers = ["page size"] + ["%dGB" % gb for gb in BUFFER_GB]
    labels = {ps: "%dKB" % (ps // units.KIB) for ps in PAGE_SIZES}
    miss = {ps: [100 * m for m, _t in results[ps]] for ps in PAGE_SIZES}
    part_a = render_grid(
        "Figure 6(a): buffer miss ratio (OFF/OFF)", headers,
        [(labels[ps], miss[ps], PAPER_MISS_APPROX[ps]) for ps in PAGE_SIZES],
        paper="(paper~)", cell=lambda value: "%.1f%%" % value)
    part_b = render_grid(
        "Figure 6(b): TPS vs buffer pool size (OFF/OFF)", headers,
        [(labels[ps], [t for _m, t in results[ps]], PAPER_TPS_APPROX[ps])
         for ps in PAGE_SIZES], paper="(paper~)")
    from .charts import render_line_chart
    chart = render_line_chart(
        "\nFigure 6(a) as lines (miss %):", list(BUFFER_GB),
        {labels[ps]: miss[ps] for ps in PAGE_SIZES})
    return part_a + "\n\n" + part_b + "\n" + chart
