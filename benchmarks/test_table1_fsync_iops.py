"""Regenerates Table 1: fsync/flush-cache effect on 4KB random-write IOPS."""

from conftest import regenerate


def test_table1(benchmark):
    results = regenerate(benchmark, "table1")
    # shape assertions: the relationships the paper calls out
    durassd_on = results[("durassd", "on")]
    durassd_nb = results[("durassd", "nobarrier")]
    hdd_on = results[("hdd", "on")]
    # fsync-every-write vs no-fsync: >13x on cache-on SSDs, <=8x on disk
    assert durassd_on[-1] / durassd_on[0] > 13
    assert hdd_on[-1] / hdd_on[0] < 8
    # nobarrier flattens the fsync penalty almost completely
    assert durassd_nb[-1] / durassd_nb[0] < 1.3
    # nobarrier fsync=1 is within 10% of the drive's ceiling
    assert durassd_nb[0] > 0.85 * durassd_on[-1]
