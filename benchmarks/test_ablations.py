"""Ablation benches: lifetime, capacitors, mapping granularity, flush."""

from conftest import regenerate


def test_write_amplification(benchmark):
    results = regenerate(benchmark, "ablation_write_amplification")
    default = results[0]["bytes_per_flush"]
    best = results[-1]["bytes_per_flush"]
    # paper: data written to flash reduced by more than 50%
    assert best < 0.5 * default


def test_capacitor_budget(benchmark):
    results = regenerate(benchmark, "ablation_capacitors")
    # the full bank loses nothing; flow control keeps any bank safe,
    # but a bank of zero capacitors cannot dump at all
    assert results[-1]["lost"] == 0
    assert results[0]["lost"] > 0


def test_mapping_granularity(benchmark):
    results = regenerate(benchmark, "ablation_mapping")
    # pairing roughly doubles the sustained 4KB write rate
    assert results[0]["iops"] > 1.5 * results[1]["iops"]
    # at the cost of ~2x the mapping entries
    assert results[0]["mapping_entries"] > 1.8 * results[1]["mapping_entries"]


def test_flush_semantics(benchmark):
    results = regenerate(benchmark, "ablation_flush")
    flush, ordered, unordered = [r["iops"] for r in results]
    # removing the flush recovers two orders of magnitude
    assert ordered > 20 * flush
    # ordered NCQ costs almost nothing vs unordered
    assert ordered > 0.8 * unordered
    # the durable cache keeps every acked write, in any dispatch order
    assert not any(r["order_violations"] for r in results)


def test_atomicity_mechanisms(benchmark):
    results = regenerate(benchmark, "ablation_atomicity")
    by_label = {label: r for label, r in results}
    dwb = by_label["InnoDB doublewrite (SSD, barriers)"]
    fusion = by_label["FusionIO atomic writes, no DWB (barriers)"]
    durassd = by_label["DuraSSD, no DWB, no barriers"]
    # FusionIO's atomic writes beat the doublewrite baseline (paper
    # cites ~40%); DuraSSD beats both by removing the barriers as well
    assert fusion["tps"] > 1.1 * dwb["tps"]
    assert durassd["tps"] > 2 * fusion["tps"]


def test_sqlite_journal(benchmark):
    results = regenerate(benchmark, "ablation_sqlite")
    classic, nobarrier, journal_off = [r["tps"] for r in results]
    assert journal_off > nobarrier > classic


def test_victim_policy(benchmark):
    results = regenerate(benchmark, "ablation_victim_policy")
    greedy, cost_benefit = results
    # both reclaim space under churn
    assert greedy["gc_runs"] > 0 and cost_benefit["gc_runs"] > 0
    # under hot/cold skew, cost-benefit should not move more data for
    # the same churn (it avoids collecting young hot blocks)
    assert cost_benefit["moved_slots"] <= greedy["moved_slots"] * 1.5
