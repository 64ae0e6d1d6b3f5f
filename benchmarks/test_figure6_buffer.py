"""Regenerates Figure 6: buffer miss ratio and TPS vs pool size."""

from repro.sim import units

from conftest import regenerate


def test_figure6(benchmark):
    results = regenerate(benchmark, "figure6")
    for page_size, series in results.items():
        misses = [m for m, _t in series]
        # miss ratio falls monotonically-ish with buffer size
        assert misses[0] > misses[-1]
    # 4KB pages cache better than 16KB at every pool size
    for index in range(len(results[4 * units.KIB])):
        assert (results[4 * units.KIB][index][0]
                <= results[16 * units.KIB][index][0] + 0.02)
    # TPS ordering: 4KB >= 8KB >= 16KB at the largest pool
    tps_at_10 = {ps: series[-1][1] for ps, series in results.items()}
    assert tps_at_10[4 * units.KIB] > tps_at_10[16 * units.KIB]
