"""Crash-consistency torture sweeps over the device x engine matrix.

Usage::

    python -m repro torture                       # durassd / innodb, full sweep
    python -m repro torture innodb ssd-a --barriers off
    python -m repro torture --smoke               # CI: every preset, quick
    python -m repro torture --ops 300 --out repro.json

The smoke mode sweeps every device preset under InnoDB/LinkBench with
auto barrier policy (off only for devices claiming a durable cache) and
exits non-zero if any *promising* configuration violates an invariant at
any cut point — plus a negative control proving the detector still
catches the volatile-cache-no-barrier anomalies.  A failing or violating
sweep can be minimized to a replayable JSON artifact with ``--out``.
"""

import json
import time

from ..devices import DEVICE_MAKERS
from ..failures import torture as harness
from . import setups
from .scenarios import run_gate

SMOKE_BASE_OPS = 40


def run_sweep(engine, device, ops, seed=11, barriers=None, doublewrite=True,
              max_trials=None, nested_stride=5, stripe=1):
    scenario = harness.TortureScenario(engine=engine, device=device,
                                       ops=ops, seed=seed, barriers=barriers,
                                       doublewrite=doublewrite, stripe=stripe)
    result = harness.sweep(scenario, max_trials=max_trials,
                           nested_stride=nested_stride)
    return scenario, result


def _print_summary(label, result, elapsed):
    summary = result.summary()
    verdict = "PASS" if result.clean else "FAIL"
    if not summary["expected_clean"] and summary["violations"]:
        verdict = "FINDS"  # anomalies found where none were promised
    print("%-28s %-10s trials=%-4d nested=%-3d violations=%-6d %5.1fs"
          % (label, verdict, summary["trials"], summary["nested_trials"],
             summary["violations"], elapsed))
    if result.first_failure is not None:
        print("    first failing cut: t=%.6f" % result.first_failure)


#: a sweep passes when no promising configuration broke its promise
_CLEAN = ((lambda result: result.clean, None),)


def smoke(ops=None, seed=11):
    """Quick sweep of every device preset; the CI torture gate."""
    ops = ops if ops is not None else setups.ops_scale(SMOKE_BASE_OPS)
    cells = [("innodb/%s" % device, {"device": device}, _CLEAN)
             for device in DEVICE_MAKERS]
    cells += [
        # Striped data target: a power cut must leave every stripe
        # member mutually consistent — the checker sees one flat LBA
        # space, so any member that lags an acked barrier shows up as a
        # torn page or a lost committed write.
        ("innodb/durassd (stripe=2)", {"device": "durassd", "stripe": 2},
         _CLEAN),
        # Negative control: with barriers off on a volatile cache the
        # sweep MUST surface anomalies, or the detector itself is broken.
        ("innodb/ssd-a (no barriers)", {"device": "ssd-a",
                                        "barriers": False},
         ((lambda result: result.summary()["violations"],
           "negative control found no violations: detector broken"),)),
    ]
    return run_gate(
        "torture smoke", "%d ops per sweep, seed %d" % (ops, seed), cells,
        lambda **kwargs: run_sweep("innodb", ops=ops, seed=seed,
                                   **kwargs)[1],
        lambda label, result, elapsed, _ok: _print_summary(label, result,
                                                           elapsed))


def full(engine="innodb", device="durassd", ops=None, seed=11,
         barriers=None, doublewrite=True, max_trials=None, out_path=None):
    """Sweep one configuration; ``out_path`` receives the minimized
    repro of a failing or violating sweep."""
    ops = ops if ops is not None else setups.ops_scale(200)
    begin = time.time()
    scenario, result = run_sweep(engine, device, ops, seed=seed,
                                 barriers=barriers, doublewrite=doublewrite,
                                 max_trials=max_trials)
    _print_summary("%s/%s" % (engine, device), result, time.time() - begin)
    summary = result.summary()
    print("  mode=%s candidates=%d expected_clean=%r"
          % (summary["mode"], summary["candidates"],
             summary["expected_clean"]))
    kinds = {}
    for trial in result.trials:
        for violation in trial.violations:
            kind = ":".join(violation.split(":")[:2])
            kinds[kind] = kinds.get(kind, 0) + 1
    for kind in sorted(kinds):
        print("  %-28s %d" % (kind, kinds[kind]))
    if out_path and (result.failures or summary["violations"]):
        predicate = ((lambda trial: trial.failed) if result.failures
                     else (lambda trial: not trial.clean))
        artifact = harness.minimize(scenario, result.recording.ops,
                                    predicate=predicate)
        if artifact is None:
            print("  minimization found no stable repro")
        else:
            with open(out_path, "w") as handle:
                json.dump(artifact, handle, indent=2, sort_keys=True)
            print("  minimized repro (%d ops, cut t=%.6f): %s"
                  % (len(artifact["ops"]), artifact["cut_time"], out_path))
    return 1 if result.failures else 0
