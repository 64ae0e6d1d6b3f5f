"""Quickstart: what a durable write cache buys you.

Builds the paper's four devices, runs the same fsync-heavy fio job on
each, then pulls the power on a DuraSSD mid-workload and shows that
every acknowledged write survives recovery.

Run:  python examples/quickstart.py
"""

from repro.devices import IORequest, make_durassd, make_hdd, make_ssd_a, make_ssd_b
from repro.failures import PowerFailureInjector, check_device
from repro.host import FileSystem, FioJob, run_fio
from repro.sim import Simulator, units


def measure_fsync_iops(make_device, barriers=True, fsync_every=1):
    """4KB random writes with an fsync after every write."""
    sim = Simulator()
    device = make_device(sim)
    filesystem = FileSystem(sim, device, barriers=barriers)
    job = FioJob(rw="randwrite", block_size=4 * units.KIB,
                 ios_per_job=200, fsync_every=fsync_every)
    return run_fio(sim, filesystem, job).iops


def main():
    print("=== fsync-per-write 4KB random-write IOPS ===")
    rows = [
        ("HDD (15K RPM), barriers on", make_hdd, True),
        ("SSD-A (volatile cache), barriers on", make_ssd_a, True),
        ("SSD-B (volatile cache), barriers on", make_ssd_b, True),
        ("DuraSSD, barriers on (conventional use)", make_durassd, True),
        ("DuraSSD, barriers OFF (safe: durable cache)", make_durassd, False),
    ]
    for label, maker, barriers in rows:
        print("  %-45s %8.0f IOPS" % (label, measure_fsync_iops(maker,
                                                                barriers)))

    print()
    print("=== power failure mid-workload ===")
    sim = Simulator()
    device = make_durassd(sim)
    device.record_acks = True

    def writer():
        for i in range(300):
            request = IORequest("write", i, 1, payload=[("payload", i)])
            yield from device.submit(request)

    process = sim.process(writer())
    sim.run_until(process)
    acked = len(device.ack_log)
    buffered = len(device.cache)
    print("  acked writes: %d (still buffered in cache: %d)"
          % (acked, buffered))

    injector = PowerFailureInjector(sim, [device])
    injector.execute_cut()
    recovery = injector.reboot_all()
    report = check_device(device)
    print("  power cut!  recovery took %.3fs of simulated time"
          % recovery[device.name])
    print("  post-recovery check: %r" % report)
    print("  every acked write survived: %s" % report.clean)
    print("  dump fit the tantalum-capacitor budget: %s"
          % device.recovery_manager.last_dump_fit)


if __name__ == "__main__":
    main()
