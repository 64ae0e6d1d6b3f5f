"""Regenerates Table 3: LinkBench latency distributions, default vs best."""

from conftest import regenerate


def test_table3(benchmark):
    default, best = regenerate(benchmark, "table3")
    # means improve substantially for both reads and writes
    assert default.reads.mean > 3 * best.reads.mean
    assert default.writes.mean > 2 * best.writes.mean
    # the tail improves at least as much as the mean (paper: ~100x P99)
    assert (default.reads.percentile(0.99)
            > 3 * best.reads.percentile(0.99))
    # reads get blocked by writes in the default config (Figure 1)
    assert default.pool_stats["reads_blocked_by_write"] > 0
