"""Inside the FTL: garbage collection, wear, and mapping granularity.

Fills a small SSD past its over-provisioned space with a hot/cold
write mix and shows what the firmware does about it: GC runs, wear
accumulates (and how evenly, per victim policy), and the 4KB-mapping
pairing halves NAND programs for small writes.

Run:  python examples/flash_wear_and_gc.py
"""

from repro.core import DuraSSD
from repro.devices import IORequest
from repro.devices.presets import durassd_spec
from repro.sim import Simulator, units
from repro.sim.rng import make_rng


def churn(device, writes, span_blocks, seed=5):
    sim = device.sim
    rng = make_rng(seed)

    def body():
        for index in range(writes):
            # 80% of writes to a hot tenth of the space
            if rng.random() < 0.8:
                lba = rng.randrange(max(1, span_blocks // 10))
            else:
                lba = rng.randrange(span_blocks)
            yield from device.submit(IORequest("write", lba, 1,
                                               payload=[("w", index)]))

    process = sim.process(body())
    sim.run_until(process)
    sim.run()  # drain the cache


def report(label, device):
    ftl = device.ftl
    min_wear, max_wear, total = ftl.wear()
    print("%s" % label)
    print("  host 4KB writes : %7d" % ftl.counters["host_slot_writes"])
    print("  NAND programs   : %7d  (incl. GC; %.2f per host write)"
          % (ftl.counters["nand_page_writes"],
             ftl.counters["nand_page_writes"]
             / max(1, ftl.counters["host_slot_writes"])))
    print("  GC runs         : %7d  (relocated %d slots)"
          % (ftl.counters["gc_runs"], ftl.counters["gc_moved_slots"]))
    print("  block erases    : %7d  (wear min %d / max %d)"
          % (total, min_wear, max_wear))
    print("  free NAND blocks: %7d" % ftl.free_blocks)
    print()


def main():
    span = 12_000  # ~47MB of a 64MB device: plenty of churn
    for policy in ("greedy", "cost-benefit"):
        sim = Simulator()
        spec = durassd_spec(capacity_bytes=64 * units.MIB)
        device = DuraSSD(sim, spec)
        device.ftl.victim_policy = policy
        churn(device, writes=30_000, span_blocks=span)
        report("DuraSSD, victim policy = %s" % policy, device)

    # mapping granularity: the same churn without 4KB pairing
    sim = Simulator()
    device = DuraSSD(sim, durassd_spec(capacity_bytes=64 * units.MIB)
                     ._replace(mapping_unit=8 * units.KIB))
    churn(device, writes=30_000, span_blocks=span)
    report("DuraSSD with 8KB mapping (no pairing)", device)


if __name__ == "__main__":
    main()
