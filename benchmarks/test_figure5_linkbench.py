"""Regenerates Figure 5: LinkBench TPS across barrier/doublewrite/page size."""

from conftest import regenerate


def test_figure5(benchmark):
    results = regenerate(benchmark, "figure5")
    tps = {key: [r.tps for r in row] for key, row in results.items()}
    # barriers are the dominant knob (paper: ~6x; our barrier-on runs
    # are ~2x faster than the paper's at 4KB, see EXPERIMENTS.md)
    assert tps[(False, False)][0] > 5 * tps[(True, False)][0]
    assert tps[(False, False)][2] > 2.5 * tps[(True, False)][2]
    # doublewrite costs ~2x with barriers on ...
    assert tps[(True, False)][2] > 1.2 * tps[(True, True)][2]
    # ... and much less with barriers off (paper: ~25%)
    assert tps[(False, False)][2] < 1.8 * tps[(False, True)][2]
    # best/worst gap approaches the paper's >20x
    best = max(max(row) for row in tps.values())
    worst = min(min(row) for row in tps.values())
    assert best / worst > 8
    # smaller pages win under the best configuration
    assert tps[(False, False)][2] > tps[(False, False)][0]
