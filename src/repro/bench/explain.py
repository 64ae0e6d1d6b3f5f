"""Latency attribution reports: ``python -m repro explain <scenario>``.

Runs a traced scenario in two contrasting configurations, decomposes
every request's latency into blame categories
(:mod:`repro.telemetry.attribution`), and renders the ``repro.run/1``
record as markdown (and JSON with ``--json``): blame tables, anomaly
episodes and annotated tail-request timelines.  The ``linkbench``
scenario is the paper's argument in one table: flush-cache mode spends
its tail in ``flush_cache`` and ``doublewrite``; durable-cache mode
makes both collapse.

Usage::

    python -m repro explain linkbench
    python -m repro explain linkbench --quick --json report.json
    python -m repro explain gray --top 3 --out report.md

The command exits non-zero if the decomposition fails its own
exactness checks (blame must sum to wall time; unattributed time must
stay under 1%), so CI can gate on it.
"""

from ..sim import units
from ..telemetry import report as report_mod
from . import runner, scenarios, setups
from .figure5 import run_config

CLIENTS = 16
BASE_OPS = 24
PAGE_SIZE = 16 * units.KIB


def _mode(barrier, doublewrite, ops):
    """One LinkBench run in the given mode, as a runner scenario."""
    def scenario(telemetry, spec, worlds):
        result = run_config(barrier, doublewrite, PAGE_SIZE, clients=CLIENTS,
                            ops_per_client=ops, telemetry=telemetry,
                            spec=spec, worlds=worlds)
        return {
            "barrier": barrier,
            "doublewrite": doublewrite,
            "tps": round(result.tps, 1),
            "write_p99_ms": round(result.writes.percentile(0.99) * 1e3, 3),
        }
    return scenario


def _scenario_linkbench(ops, spec):
    """The paper's delta: barriers+doublewrite on vs both off."""
    return {"flush-cache": (_mode(True, True, ops), spec),
            "durable-cache": (_mode(False, False, ops), spec)}


def _scenario_gray(ops, spec):
    """Healthy vs gray-failing data path, durable-cache mode."""
    return {"healthy": (_mode(False, False, ops),
                        spec._replace(gray_faults=None)),
            "gray-stalls": (_mode(False, False, ops),
                            spec._replace(gray_faults="stalls"))}


SCENARIOS = scenarios.ScenarioSet("explain")
SCENARIOS.register("linkbench",
                   "flush-cache vs durable-cache LinkBench blame",
                   _scenario_linkbench)
SCENARIOS.register("gray", "healthy vs gray-failing device blame",
                   _scenario_gray)


def run_scenario(name, quick=False, top_k=5, spec=setups.DEFAULT_SPEC,
                 worlds=None):
    """The explain record of one scenario: a run record per mode, each
    with ``trace`` and ``blame`` sections, and the blame delta between
    the two modes."""
    ops = 10 if quick else max(10, setups.ops_scale(BASE_OPS))
    modes = {label: runner.run("%s/%s" % (name, label), fn, mode_spec,
                               worlds, blame=top_k)[0]
             for label, (fn, mode_spec)
             in SCENARIOS.get(name)(ops, spec).items()}
    base, other = modes
    meta = {"clients": CLIENTS, "ops_per_client": ops,
            "page_size": PAGE_SIZE,
            "scale_factor": setups.scale_factor()}
    return runner.envelope(name, spec, meta=meta, modes=modes,
                           delta=report_mod.blame_delta(
                               modes[base]["blame"], modes[other]["blame"],
                               base, other))


def main(scenario, quick=False, json_path=None, out_path=None, top_k=5,
         spec=setups.DEFAULT_SPEC, worlds=None):
    """``python -m repro explain``: build, write and self-check one
    scenario's record."""
    record = run_scenario(scenario, quick=quick, top_k=top_k, spec=spec,
                          worlds=worlds)
    if runner.write_views(record, report_mod.render_markdown(record),
                          out_path, json_path):
        return 1
    print("attribution exact: blame sums to wall time in every mode "
          "(worst residue %.2g s)"
          % max(mode["blame"]["max_residue_s"]
                for mode in record["modes"].values()))
    return 0
