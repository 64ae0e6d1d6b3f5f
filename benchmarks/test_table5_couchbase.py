"""Regenerates Table 5: Couchbase YCSB throughput vs fsync batch size."""

from conftest import regenerate


def test_table5(benchmark):
    results = regenerate(benchmark, "table5")
    on_100 = results[(True, 1.0)]
    off_100 = results[(False, 1.0)]
    # batch-1 vs batch-100 gap: huge with barriers (paper >20x) ...
    assert on_100[-1] / on_100[0] > 10
    # ... modest without (paper 2.1-2.6x)
    assert off_100[-1] / off_100[0] < 4
    # barrier-off batch-1 is an order of magnitude above barrier-on
    assert off_100[0] / on_100[0] > 8
