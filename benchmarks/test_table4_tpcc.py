"""Regenerates Table 4: TPC-C tpmC on the commercial engine."""

from conftest import regenerate


def test_table4(benchmark):
    results = regenerate(benchmark, "table4")
    on = [r.tpmc for r in results[True]]
    off = [r.tpmc for r in results[False]]
    # turning barriers off multiplies throughput (paper: 15.3-22.8x)
    for index in range(3):
        assert off[index] / on[index] > 6
    # smaller pages help when barriers are off (paper: 1.8-2.3x)
    assert off[2] / off[0] > 1.5
