"""Regenerates Table 2: page-size effect on IOPS (DuraSSD vs HDD)."""

from conftest import regenerate


def test_table2(benchmark):
    results = regenerate(benchmark, "table2")
    durassd = results["durassd"]
    hdd = results["hdd"]
    # 4KB beats 16KB by ~3x when fsyncs are rare / absent
    reads = durassd["read-only (128 thr)"]
    assert reads[2] / reads[0] > 2.0
    nobarrier = durassd["write-only (128 nobarrier)"]
    assert nobarrier[2] / nobarrier[0] > 2.5
    # ...but by only ~15% when every write fsyncs (flush dominates)
    fsync1 = durassd["write-only (1-fsync)"]
    assert fsync1[2] / fsync1[0] < 1.5
    # the disk barely cares about page size (~4%)
    hdd_reads = hdd["read-only (128 thr)"]
    assert hdd_reads[2] / hdd_reads[0] < 1.2
