"""Failover bench: rebuild-under-load MTTR vs the rebuild throttle.

Usage::

    python -m repro failover                   # full pace sweep
    python -m repro failover --smoke           # CI failover gate
    python -m repro failover --death early-death --ops 400
    python -m repro failover --pace 2e-4,5e-4,2e-3

Each cell kills mirror member 0 with a named death schedule
(:data:`DEATH_PROFILES`) while a seeded LinkBench stream is running,
then lets the hot-spare rebuild drain at one ``--pace`` setting (one
block per ``pace`` simulated seconds).  The verdict per cell:

* **MTTR** — the degraded window, death to fully-healthy mirror;
* **p99** — foreground command latency while the rebuild competes with
  the stream (the cost of a more aggressive throttle);
* **safety** — zero acked blocks lost while a survivor was present,
  and the spare's copy complete.

A fault-free control pins the baseline p99.  The second-failure cell
kills the survivor mid-rebuild: it must *report detected data loss* —
loudly, never a hang, never a silent PASS.
"""

from collections import namedtuple

from ..failures import chaos as harness
from ..telemetry.histogram import DEFAULT_LOG_EDGES, percentile_from_counts
from ..telemetry.hub import Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry import series
from . import setups
from .scenarios import DEATH_PROFILES, run_gate

#: rebuild throttle settings swept by the full bench (seconds per block)
PACES = (2e-4, 5e-4, 2e-3)

#: long enough that the kill lands mid-stream with writes on both sides
BASE_OPS = 200

#: the death profiles one cell can kill member 0 with (``--death``)
SINGLE_DEATHS = tuple(name for name in DEATH_PROFILES.names()
                      if name not in ("none", "double-death"))

#: one cell's outcome: the chaos result and the foreground p99 (seconds)
Cell = namedtuple("Cell", "result p99")


def run_cell(seed, ops, death=None, pace=None, spares=1, engine="innodb",
             device="durassd", death_target="data:0"):
    """One failover cell; returns its :data:`Cell`."""
    scenario = harness.chaos_scenario(
        engine=engine, device=device, profile="none", seed=seed, ops=ops,
        mirror=2, checksums=True, death=death, death_target=death_target,
        spares=spares, rebuild_pace=pace)
    telemetry = Telemetry(enabled=False, metrics=MetricsRegistry(
        interval=harness.CHAOS_METRICS_INTERVAL))
    result = harness.run_chaos(scenario, telemetry=telemetry)
    return Cell(result, _cmd_p99(telemetry.metrics))


def _cmd_p99(registry):
    """Whole-run p99 of ``host.cmd_latency`` across every device."""
    kind, cumulatives = series.aggregate_window_values(
        registry, "host.cmd_latency", None)
    if kind != "histogram":
        return None
    last = None
    for value in cumulatives:
        if value is not None:
            last = value
    if not last or not last["count"]:
        return None
    return percentile_from_counts(last["counts"], DEFAULT_LOG_EDGES,
                                  0.99, upper=last["max"])


#: the stream completed and no promise broke
_COMPLETES = (lambda cell: cell.result.completed and not cell.result.failed,
              None)
#: zero acked blocks lost while a survivor was present
_SAFE = (lambda cell: (cell.result.clean and not (
    cell.result.failover or {}).get("data_loss_blocks")), None)
#: the spare's copy completed
_REBUILT = (lambda cell: (cell.result.failover or {}).get(
    "rebuilds_completed"), None)
#: the second-failure cell passes only by *reporting* the loss
_LOSS_REPORTED = (lambda cell: any(
    violation.startswith("death:data-loss-detected")
    for violation in cell.result.violations), None)


def _print_cell(label, cell, elapsed, ok):
    result, p99 = cell
    info = result.failover or {}
    mttr = ("%.0fms" % (info["rebuild_mttr_s"] * 1e3)
            if info.get("rebuild_mttr_s") is not None else "-")
    detect = ("%.1fms" % (result.detection_latency_s * 1e3)
              if result.detection_latency_s is not None else "-")
    p99_text = "%.2fms" % (p99 * 1e3) if p99 is not None else "-"
    print("%-34s %-5s mttr=%-7s det=%-7s p99=%-8s copied=%-4d "
          "lost=%-3d %4.1fs"
          % (label, "PASS" if ok else "FAIL", mttr, detect, p99_text,
             info.get("blocks_copied", 0), info.get("data_loss_blocks", 0),
             elapsed))
    for violation in result.violations:
        print("    violation: %s" % violation)


def _run_suite(title, header, paces, seed, ops, death):
    """Control, the pace sweep, then the second-failure cell."""
    cells = [("control / no-death", {"spares": 0}, (_COMPLETES, _SAFE))]
    cells += [("%s / pace=%g" % (death, pace),
               {"death": death, "pace": pace},
               (_COMPLETES, _SAFE, _REBUILT)) for pace in paces]
    # Second failure mid-rebuild: slow the copy so the one-copy window
    # is still open when the survivor dies.
    cells.append(("double-death / pace=0.005",
                  {"death": "double-death", "death_target": "data",
                   "pace": 5e-3}, (_COMPLETES, _LOSS_REPORTED)))
    return run_gate(title, header, cells,
                    lambda **kwargs: run_cell(seed, ops, **kwargs),
                    _print_cell)


def sweep(seed=11, ops=None, death="mid-death", paces=PACES):
    ops = ops if ops is not None else max(setups.ops_scale(BASE_OPS),
                                          BASE_OPS)
    return _run_suite("failover sweep",
                      "%d ops per cell, seed %d, death=%s"
                      % (ops, seed, death), tuple(paces), seed, ops, death)


def smoke(seed=11, ops=None):
    """The CI failover gate: control, one rebuild, one double death."""
    ops = ops if ops is not None else max(setups.ops_scale(BASE_OPS),
                                          BASE_OPS // 2)
    return _run_suite("failover smoke",
                      "%d ops per cell, seed %d" % (ops, seed), (5e-4,),
                      seed, ops, "mid-death")
