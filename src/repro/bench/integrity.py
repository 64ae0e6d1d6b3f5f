"""End-to-end data-integrity sweep: silent corruption vs armed defenses.

Usage::

    python -m repro integrity                  # full profile x defense sweep
    python -m repro integrity --smoke          # CI integrity gate
    python -m repro integrity --profile bit-rot --mirror 2
    python -m repro integrity --ops 400 --seed 7

Each cell runs a seeded LinkBench stream over devices injected with a
named silent-corruption profile (:data:`CORRUPTION_PROFILES`: bit rot,
read disturb, misdirected writes, lost writes, or the mix) while one
defense configuration is armed:

* ``mirror2+scrub`` — a checksum-verified RAID-1 mirror with
  read-repair plus the background scrubber;
* ``checksums`` — block checksums on a single device: detection and
  fail-stop, no redundancy to repair from.

A passive audit layer *outside* the defense under test re-verifies
every block the stream reads; it is the harness's oracle, invisible to
the SLO monitor.  A cell passes when the stream completes, **zero**
corrupt reads were served undetected, and the integrity SLO rules fire
so the verdict carries a corruption-detection latency.  A
corruption-free control with the same defenses armed must stay silent
— no alerts, no mismatches — pinning the false-positive rate at zero.
"""

from ..failures import chaos as harness
from . import setups
from .scenarios import CORRUPTION_PROFILES, run_gate

#: (label, chaos_scenario kwargs) — the defense arms swept per profile
DEFENSES = (
    ("mirror2+scrub", {"mirror": 2, "checksums": True, "scrub": True}),
    ("checksums", {"mirror": 1, "checksums": True}),
)

#: corruption surfaces only once reads miss the caches; shorter streams
#: can finish before a single poisoned block is ever read back
BASE_OPS = 200

#: the full sweep needs longer streams: read-disturb poisons blocks
#: only *behind* reads, so its first detectable re-read comes late
SWEEP_OPS = 400


def run_cell(seed, ops, corruption=None, engine="innodb", device="durassd",
             **defense):
    """One integrity cell; returns the chaos-harness result."""
    scenario = harness.chaos_scenario(
        engine=engine, device=device, profile="none", seed=seed, ops=ops,
        corruption=corruption, **defense)
    return harness.run_chaos(scenario)


def _checks(expect_alerts):
    """A cell passes when the stream completes, zero corrupt reads were
    served undetected, and the integrity SLO rules fire exactly when
    corruption was injected."""
    return ((lambda result: result.completed and not result.failed, None),
            (lambda result: result.undetected_corrupt_reads == 0, None),
            (lambda result: bool(result.alerts) == expect_alerts, None))


def _cell(profile, defense):
    """``profile`` injected against one ``(label, kwargs)`` defense."""
    label, kwargs = defense
    return ("%s / %s" % (profile, label), dict(kwargs, corruption=profile),
            _checks(True))


#: false-positive control: defenses armed, nothing injected
_CONTROL = ("control / mirror2+scrub", DEFENSES[0][1], _checks(False))


def _print_cell(label, result, elapsed, ok):
    detect = ("%.0fms" % (result.detection_latency_s * 1e3)
              if result.detection_latency_s is not None else "-")
    print("%-36s %-5s det=%-6s caught=%-4d undetected=%-3d alerts=%-2d "
          "%4.1fs"
          % (label, "PASS" if ok else "FAIL", detect,
             result.ops_corrupt_detected, result.undetected_corrupt_reads,
             len(result.alerts), elapsed))
    for violation in result.violations:
        print("    violation: %s" % violation)


def _run(title, cells, seed, ops):
    return run_gate(title, "%d ops per cell, seed %d" % (ops, seed),
                    cells, lambda **kwargs: run_cell(seed, ops, **kwargs),
                    _print_cell)


def sweep(profiles=None, seed=11, ops=None, mirror=None):
    """The full (or filtered) profile x defense sweep plus the control."""
    ops = ops if ops is not None else max(setups.ops_scale(SWEEP_OPS),
                                          SWEEP_OPS)
    profiles = list(profiles) if profiles else CORRUPTION_PROFILES.names()
    defenses = DEFENSES
    if mirror is not None:
        defenses = ((("mirror%d+scrub" % mirror) if mirror > 1
                     else "checksums",
                     {"mirror": mirror, "checksums": True,
                      "scrub": mirror > 1}),)
    cells = [_cell(profile, defense)
             for profile in profiles for defense in defenses]
    return _run("integrity sweep", cells + [_CONTROL], seed, ops)


def smoke(seed=11, ops=None):
    """The CI integrity gate: one cell per defense plus the control."""
    ops = ops if ops is not None else max(setups.ops_scale(BASE_OPS),
                                          BASE_OPS)
    cells = [_cell("corruption-mix", DEFENSES[0]),
             _cell("bit-rot", DEFENSES[1]), _CONTROL]
    return _run("integrity smoke", cells, seed, ops)
