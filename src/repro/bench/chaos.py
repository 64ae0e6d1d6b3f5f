"""Gray-failure chaos sweeps over the device x engine x profile matrix.

Usage::

    python -m repro chaos                          # durassd/innodb, all profiles
    python -m repro chaos innodb ssd-a --profile gc-storm --seeds 20
    python -m repro chaos --smoke                  # CI: every preset, quick
    python -m repro chaos --corruption bit-rot --mirror 2
    python -m repro chaos --death mid-death --mirror 2 --spares 1
    python -m repro chaos --interface nvme --sq 4    # NVMe multi-queue host
    python -m repro chaos --list-profiles
    python -m repro chaos --seeds 20 --out repro.json
    python -m repro chaos --replay repro.json

Each run replays a seeded LinkBench stream against devices injected with
a named gray-fault profile (:data:`repro.failures.grayfaults.PROFILES`)
while the full tolerance stack is armed: host command deadlines with
abort/soft-reset/retry, plus database admission control and read-only
demotion.  A run passes when the stream completes (liveness), the
post-run power-cut recovery checks clean (safety), completion time stays
inside the profile's degradation bound, and a permanent hang demotes the
engine to read-only instead of deadlocking.  Failing runs are minimized
to replayable JSON artifacts with ``--out``.
"""

import json
import time

from ..devices import DEVICE_MAKERS
from ..failures import chaos as harness
from ..failures.campaign import CHAOS_FORMAT, replay_artifact
from . import setups
from .scenarios import (
    CORRUPTION_PROFILES,
    DEATH_PROFILES,
    GRAY_PROFILES,
    run_gate,
)

#: curable profiles every smoke device is swept with
SMOKE_PROFILES = ("mild", "gc-storm", "pause", "hang")

SMOKE_BASE_OPS = 40


def run_profile(engine, device, profile, seed, ops, **kwargs):
    """One chaos run; ``kwargs`` are :func:`chaos_scenario` options."""
    scenario = harness.chaos_scenario(engine=engine, device=device,
                                      profile=profile, seed=seed, ops=ops,
                                      **kwargs)
    result = harness.run_chaos(scenario)
    return scenario, result


def _print_result(label, result, elapsed):
    verdict = "PASS" if result.clean else "FAIL"
    if not result.expected_clean and result.violations:
        verdict = "FINDS"
    ratio = ("%.2fx" % result.degradation_ratio
             if result.degradation_ratio is not None else "-")
    detect = ("%.0fms" % (result.detection_latency_s * 1e3)
              if result.detection_latency_s is not None else "-")
    print("%-32s %-6s ok=%-4d to=%-3d rej=%-3d hard=%-3d ro=%-5s "
          "slow=%-6s det=%-6s %5.1fs"
          % (label, verdict, result.ops_ok, result.ops_timed_out,
             result.ops_rejected, result.ops_failed_hard,
             result.read_only, ratio, detect, elapsed))
    if result.failover:
        info = result.failover
        mttr = ("%.0fms" % (info["rebuild_mttr_s"] * 1e3)
                if info["rebuild_mttr_s"] is not None else "-")
        print("    failover: dead=%s degraded=%.0fms copied=%d "
              "mttr=%s lost=%d"
              % (",".join(info["devices_dead"]) or "-",
                 info["degraded_seconds"] * 1e3, info["blocks_copied"],
                 mttr, info["data_loss_blocks"]))
    for violation in result.violations:
        print("    violation: %s" % violation)


#: the stream completed and no promise broke
_COMPLETES = (lambda result: result.completed and not result.failed, None)


def smoke(ops=None, seed=11):
    """Quick chaos pass over every device preset; the CI chaos gate."""
    ops = ops if ops is not None else setups.ops_scale(SMOKE_BASE_OPS)
    # Floor the op count where an injection needs a long enough stream
    # to land (a hang, a kill) and still leave writes behind it.
    floor = max(ops, SMOKE_BASE_OPS)
    cells = []
    for device in DEVICE_MAKERS:
        cells += [("innodb/%s/%s" % (device, profile),
                   {"device": device, "profile": profile}, (_COMPLETES,))
                  for profile in SMOKE_PROFILES]
        # The terminal case: a permanently hung data device must demote
        # the engine to read-only — completing the stream with rejected
        # writes — never deadlock the workload.
        cells.append((
            "innodb/%s/hang-permanent" % device,
            {"device": device, "profile": "hang-permanent", "ops": floor,
             "gray_target": "data"},
            (_COMPLETES, (lambda result: result.read_only,
                          "permanent hang did not demote to read-only"))))
    cells += [
        # One sick stripe member: gray faults on data member 1 only.
        # The stream must still complete (the host retries around the
        # sick member's timeouts) and the post-run power-cut recovery
        # must check clean — the healthy members' write-order
        # invariants hold even while their sibling is misbehaving.
        ("innodb/durassd/gc-storm (stripe=2, member 1)",
         {"profile": "gc-storm", "ops": floor, "gray_target": "data:1",
          "stripe": 2}, (_COMPLETES,)),
        # The same gray-fault ladder behind the NVMe multi-queue host
        # interface: deadlines, aborts and soft resets must work per
        # submission queue, and the post-run power-cut recovery must
        # still check clean — the queue model changes dispatch, not
        # durability.
        ("innodb/durassd/gc-storm (nvme, sq=2)",
         {"profile": "gc-storm", "ops": floor, "gray_target": "data",
          "interface": "nvme", "submission_queues": 2}, (_COMPLETES,)),
        # False-positive control: integrity defenses armed, no
        # corruption injected.  The integrity rules must stay silent.
        # (Corruption against the armed mirror is the integrity gate's
        # ``corruption-mix / mirror2+scrub`` cell.)
        ("innodb/durassd/none (mirror=2, armed)",
         {"profile": "none", "ops": floor, "mirror": 2, "checksums": True,
          "scrub": True}, (_COMPLETES,)),
        # Whole-device fail-stop with a hot spare: mirror member 0 dies
        # mid-stream, the survivor serves degraded, the rebuilder copies
        # the tracked blocks onto the spare.  The verdict must carry a
        # member-down detection latency and a rebuild MTTR, with zero
        # acked-write loss — a completed rebuild is the PASS condition.
        ("innodb/durassd/mid-death (mirror=2, spare)",
         {"profile": "none", "ops": floor, "death": "mid-death",
          "death_target": "data:0", "mirror": 2, "spares": 1,
          "checksums": True},
         ((lambda result: (result.completed and not result.failed
                           and result.clean), None),
          (lambda result: not (result.failover or {}).get(
              "data_loss_blocks"),
           "acked writes lost with a survivor present"),
          (lambda result: (result.failover or {}).get("rebuilds_completed"),
           "hot-spare rebuild did not complete"),
          (lambda result: result.detection_latency_s is not None,
           "member death fired no SLO alert"))),
        # Second failure during rebuild: both mirror members die (the
        # second mid-rebuild, the pace is slowed so the window is open).
        # The cell must complete — and must *loudly* report detected
        # data loss; a silent PASS here is the one unforgivable outcome.
        ("innodb/durassd/double-death (mirror=2, spare)",
         {"profile": "none", "ops": floor, "death": "double-death",
          "death_target": "data", "mirror": 2, "spares": 1,
          "rebuild_pace": 5e-3},
         ((lambda result: result.completed, None),
          (lambda result: any(
              violation.startswith("death:data-loss-detected")
              for violation in result.violations),
           "second death did not report detected data loss"))),
    ]

    def run(device="durassd", ops=ops, **kwargs):
        return run_profile("innodb", device, seed=seed, ops=ops,
                           **kwargs)[1]

    return run_gate(
        "chaos smoke", "%d ops per run, seed %d" % (ops, seed), cells, run,
        lambda label, result, elapsed, _ok: _print_result(label, result,
                                                          elapsed))


def sweep_seeds(engine, device, profile, seeds, ops, base_seed=0,
                out_path=None, corruption=None, death=None, **world):
    """``seeds`` independent runs of one profile; minimize the first
    failure to a replayable artifact when ``--out`` is given."""
    exit_code = 0
    for seed in range(base_seed, base_seed + seeds):
        begin = time.time()
        scenario, result = run_profile(engine, device, profile, seed, ops,
                                       corruption=corruption, death=death,
                                       **world)
        label = "%s/%s/%s" % (engine, device, profile)
        if corruption:
            label += "+%s" % corruption
        if death:
            label += "+%s" % death
        _print_result("%s seed=%d" % (label, seed),
                      result, time.time() - begin)
        if result.failed or not result.completed:
            exit_code = 1
            if out_path:
                ops_list = harness.generate_ops(scenario)
                artifact = harness.minimize_chaos(
                    scenario, ops_list,
                    predicate=lambda r: r.failed or not r.completed)
                if artifact is None:
                    print("    minimization found no stable repro")
                else:
                    with open(out_path, "w") as handle:
                        json.dump(artifact, handle, indent=2, sort_keys=True)
                    print("    minimized repro (%d ops): %s"
                          % (len(artifact["ops"]), out_path))
                out_path = None  # keep only the first failure's artifact
    return exit_code


def sweep(engine="innodb", device="durassd", profile=None, seeds=1,
          ops=None, base_seed=0, out_path=None, corruption=None,
          death=None, **world):
    """``seeds`` runs of one gray-fault profile, or of every one.

    Corruption or death alone is a valid chaos run: the gray-fault
    dimension then defaults to the healthy control instead of sweeping.
    ``world`` holds the topology flags (``mirror``, ``death_target``,
    ``spares``, ``interface``, ``submission_queues``).
    """
    ops = ops if ops is not None else setups.ops_scale(120)
    if profile:
        profiles = [profile]
    elif corruption or death:
        profiles = ["none"]
    else:
        profiles = [name for name in GRAY_PROFILES.names()
                    if name != "none"]
    exit_code = 0
    for name in profiles:
        code = sweep_seeds(engine, device, name, seeds, ops,
                           base_seed=base_seed, out_path=out_path,
                           corruption=corruption, death=death, **world)
        exit_code = exit_code or code
    return exit_code


def replay(path):
    """Re-run a minimized chaos artifact and report its verdict."""
    with open(path) as handle:
        artifact = json.load(handle)
    if artifact.get("format") != CHAOS_FORMAT:
        print("%s: not a chaos artifact (format %r)"
              % (path, artifact.get("format")))
        return 2
    begin = time.time()
    result = replay_artifact(artifact)
    _print_result("replay %s" % path, result, time.time() - begin)
    print("  recorded violations: %r" % (artifact.get("violations"),))
    return 1 if (result.failed or not result.completed) else 0


def profile_listing():
    """Every named fault profile the chaos harness can inject."""
    lines = ["gray-fault profiles (--profile NAME):"]
    lines += GRAY_PROFILES.listing()
    lines.append("corruption profiles (--corruption NAME):")
    lines += CORRUPTION_PROFILES.listing()
    lines.append("death profiles (--death NAME):")
    lines += DEATH_PROFILES.listing()
    return "\n".join(lines)
