"""Latency attribution reports: ``python -m repro explain <scenario>``.

Runs a traced scenario in two contrasting configurations, decomposes
every request's latency into blame categories
(:mod:`repro.telemetry.attribution`), and renders a markdown/JSON
report with blame tables, anomaly episodes and annotated tail-request
timelines.  The ``linkbench`` scenario is the paper's argument in one
table: flush-cache mode spends its tail in ``flush_cache`` and
``doublewrite``; durable-cache mode makes both collapse.

Usage::

    python -m repro explain linkbench
    python -m repro explain linkbench --quick --json report.json
    python -m repro explain gray --top 3 --out report.md

The command exits non-zero if the decomposition fails its own
exactness checks (blame must sum to wall time; unattributed time must
stay under 1%), so CI can gate on it.
"""

import json

from ..sim import units
from ..telemetry import Telemetry
from ..telemetry import report as report_mod
from . import scenarios, setups
from .figure5 import run_config

CLIENTS = 16
BASE_OPS = 24
PAGE_SIZE = 16 * units.KIB


def _traced(barrier, doublewrite, ops, spec, worlds):
    telemetry = Telemetry(enabled=True)
    result = run_config(barrier, doublewrite, PAGE_SIZE, clients=CLIENTS,
                        ops_per_client=ops, telemetry=telemetry, spec=spec,
                        worlds=worlds)
    outcome = {
        "barrier": barrier,
        "doublewrite": doublewrite,
        "tps": round(result.tps, 1),
        "write_p99_ms": round(result.writes.percentile(0.99) * 1e3, 3),
    }
    return telemetry.events, outcome


def _scenario_linkbench(ops, spec, worlds):
    """The paper's delta: barriers+doublewrite on vs both off."""
    return {"flush-cache": _traced(True, True, ops, spec, worlds),
            "durable-cache": _traced(False, False, ops, spec, worlds)}


def _scenario_gray(ops, spec, worlds):
    """Healthy vs gray-failing data path, durable-cache mode."""
    return {"healthy": _traced(False, False, ops,
                               spec._replace(gray_faults=None), worlds),
            "gray-stalls": _traced(False, False, ops,
                                   spec._replace(gray_faults="stalls"),
                                   worlds)}


SCENARIOS = scenarios.ScenarioSet("explain")
SCENARIOS.register("linkbench",
                   "flush-cache vs durable-cache LinkBench blame",
                   _scenario_linkbench)
SCENARIOS.register("gray", "healthy vs gray-failing device blame",
                   _scenario_gray)


def run_scenario(name, quick=False, top_k=5, spec=setups.DEFAULT_SPEC,
                 worlds=None):
    """Build the full explain report dict for one scenario."""
    fn = SCENARIOS.get(name)
    ops = 10 if quick else max(10, setups.ops_scale(BASE_OPS))
    modes = fn(ops, spec, worlds)
    meta = {"clients": CLIENTS, "ops_per_client": ops,
            "page_size": PAGE_SIZE,
            "scale_factor": setups.scale_factor()}
    return report_mod.build(name, modes, meta=meta, top_k=top_k)


def main(scenario, quick=False, json_path=None, out_path=None, top_k=5,
         spec=setups.DEFAULT_SPEC, worlds=None):
    """``python -m repro explain``: build, write and self-check one
    scenario's report."""
    report = run_scenario(scenario, quick=quick, top_k=top_k, spec=spec,
                          worlds=worlds)
    markdown = report_mod.render_markdown(report)
    if out_path is not None:
        with open(out_path, "w") as handle:
            handle.write(markdown)
        print("wrote %s" % out_path)
    else:
        print(markdown)
    if json_path is not None:
        with open(json_path, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
        print("wrote %s" % json_path)
    problems = report_mod.check(report)
    if problems:
        for problem in problems:
            print("FAIL: %s" % problem)
        return 1
    print("attribution exact: blame sums to wall time in every mode "
          "(worst residue %.2g s)"
          % max(analysis["max_residue_s"]
                for analysis in report["modes"].values()))
    return 0
