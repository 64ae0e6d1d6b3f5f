"""Shared scenario resolution for the trace/explain/chaos/monitor CLIs.

Each CLI used to keep its own ``dict`` of scenario names with its own
lookup, error message and help listing.  A :class:`ScenarioSet` is that
registry once: uniform ``KeyError`` text (with the available names),
uniform help listing, and dict-compatible access (``in``, ``[...]``,
iteration) so existing call sites keep working.

Two sets live here because several CLIs share them:

* :data:`TRACED` — the small traced benchmark worlds (``repro trace``
  and ``repro monitor`` run these);
* :data:`GRAY_PROFILES` — the named gray-fault profiles (``repro
  chaos``, ``--gray-faults`` on benches, ``repro monitor``);
* :data:`CORRUPTION_PROFILES` — the named silent-corruption profiles
  (``repro chaos --corruption``, ``repro integrity``);
* :data:`DEATH_PROFILES` — the named whole-device fail-stop schedules
  (``repro chaos --death``, ``repro failover``).

The explain CLI registers its own set (:mod:`repro.bench.explain`).

:func:`run_gate` is the one loop behind the fault-campaign gates
(``repro torture|chaos|integrity|failover --smoke``): each gate is a
table of cells, one row per cell.
"""

import time

from ..devices import make_durassd
from ..failures.corruption import (
    CORRUPTION_PROFILES as _CORRUPTION_MAKERS,
    make_corruption_profile,
)
from ..failures.death import (
    DEATH_PROFILES as _DEATH_MAKERS,
    make_death_schedule,
)
from ..failures.grayfaults import PROFILES
from ..sim import units
from . import setups


class ScenarioSet:
    """A named registry of scenarios: ``name -> (description, fn)``."""

    def __init__(self, kind):
        self.kind = kind
        self._scenarios = {}

    def register(self, name, description, fn):
        if name in self._scenarios:
            raise ValueError("duplicate %s scenario: %r" % (self.kind, name))
        self._scenarios[name] = (description, fn)
        return fn

    def names(self):
        return sorted(self._scenarios)

    def describe(self, name):
        return self._scenarios[name][0]

    def get(self, name):
        """The scenario function, or a KeyError naming the options."""
        try:
            return self._scenarios[name][1]
        except KeyError:
            raise KeyError("no %s scenario for %r (have: %s)"
                           % (self.kind, name, ", ".join(self.names())))

    def listing(self, indent="  "):
        """Help-text lines, one scenario per line."""
        width = max((len(name) for name in self._scenarios), default=0)
        return ["%s%-*s %s" % (indent, width + 1, name, description)
                for name, (description, _fn)
                in sorted(self._scenarios.items())]

    # dict-compatible access, so ``SCENARIOS = TRACED`` keeps old call
    # sites (``name in SCENARIOS``, ``SCENARIOS[name][0]``) working.
    def __contains__(self, name):
        return name in self._scenarios

    def __iter__(self):
        return iter(self._scenarios)

    def __len__(self):
        return len(self._scenarios)

    def __getitem__(self, name):
        return self._scenarios[name]


# --- traced benchmark worlds --------------------------------------------
#: each scenario is ``fn(telemetry, spec=WorldSpec(), worlds=None)``: it
#: builds its one world on ``telemetry`` under ``spec`` and returns an
#: outcome line
TRACED = ScenarioSet("traced")


def _trace_table1(telemetry, spec=setups.DEFAULT_SPEC, worlds=None):
    """One Table 1 fio cell: DuraSSD, cache on, fsync every 8 writes."""
    from .table1 import measure_cell
    iops = measure_cell("durassd", "on", 8, ios=setups.ops_scale(200),
                        telemetry=telemetry, spec=spec, worlds=worlds)
    return "fio 4KB randwrite, durassd/on, fsync=8: %.0f IOPS" % iops


def _trace_figure5(telemetry, spec=setups.DEFAULT_SPEC, worlds=None):
    """One LinkBench run: MySQL defaults (ON/ON), 16KB pages."""
    from .figure5 import run_config
    result = run_config(True, True, 16 * units.KIB, clients=16,
                        ops_per_client=max(8, setups.ops_scale(12)),
                        telemetry=telemetry, spec=spec, worlds=worlds)
    return "LinkBench ON/ON 16KB, 16 clients: %.0f TPS" % result.tps


def _trace_table3(telemetry, spec=setups.DEFAULT_SPEC, worlds=None):
    """The latency-tail configuration of Table 3 (ON/ON, 16KB)."""
    from .figure5 import run_config
    result = run_config(True, True, 16 * units.KIB, clients=16,
                        ops_per_client=max(8, setups.ops_scale(12)),
                        telemetry=telemetry, spec=spec, worlds=worlds)
    return ("LinkBench ON/ON 16KB: write mean %.1f ms, p99 %.1f ms"
            % (result.writes.mean * 1e3,
               result.writes.percentile(0.99) * 1e3))


def _trace_bursts(telemetry, spec=setups.DEFAULT_SPEC, worlds=None):
    """Write burst absorbed by DuraSSD with barriers off."""
    from .bursts import run_one
    outcome = run_one(make_durassd, False, 8,
                      burst_writes=setups.ops_scale(200),
                      telemetry=telemetry, spec=spec, worlds=worlds)
    return ("burst drained in %.3f s; read p99 %.2f ms"
            % (outcome["burst_seconds"], outcome["read_p99_ms"]))


TRACED.register("table1", "one fio cell (durassd, cache on, fsync=8)",
                _trace_table1)
TRACED.register("figure5", "one LinkBench run (ON/ON, 16KB pages)",
                _trace_figure5)
TRACED.register("table3", "the ON/ON latency-tail LinkBench run",
                _trace_table3)
TRACED.register("bursts", "a write burst on DuraSSD, barriers off",
                _trace_bursts)


# --- gray-fault profiles -------------------------------------------------
_PROFILE_DESCRIPTIONS = {
    "none": "no injected faults (healthy control)",
    "mild": "sparse short stalls and small GC storms",
    "stalls": "frequent millisecond command stalls",
    "gc-storm": "dense 10x-latency garbage-collection storms",
    "pause": "firmware pauses: device accepts no new commands",
    "queue-full": "device queue-full backpressure episodes",
    "hang": "one curable hang (a soft reset recovers it)",
    "hang-permanent": "a permanent hang; the engine must demote",
}

GRAY_PROFILES = ScenarioSet("gray-fault profile")
for _name, _maker in sorted(PROFILES.items()):
    GRAY_PROFILES.register(
        _name, _PROFILE_DESCRIPTIONS.get(_name, "gray-fault profile"),
        _maker)


# --- silent-corruption profiles -----------------------------------------
_CORRUPTION_DESCRIPTIONS = {
    "bit-rot": "retention decay: stored blocks silently turn to garbage",
    "read-disturb": "reads degrade neighbouring data after serving it",
    "misdirected": "writes silently land on an aliased LBA",
    "lost-write": "writes acked but never persisted (stale data remains)",
    "corruption-mix": "all four silent-corruption fault kinds together",
}

CORRUPTION_PROFILES = ScenarioSet("corruption profile")
for _name in sorted(_CORRUPTION_MAKERS):
    CORRUPTION_PROFILES.register(
        _name,
        _CORRUPTION_DESCRIPTIONS.get(_name, "silent-corruption profile"),
        (lambda name: lambda seed=0: make_corruption_profile(name, seed))(
            _name))


# --- whole-device fail-stop schedules ------------------------------------
_DEATH_DESCRIPTIONS = {
    "none": "no device death (healthy control)",
    "early-death": "one member fail-stops early in the stream",
    "mid-death": "one member fail-stops mid-stream",
    "wearout": "SMART wear threshold trips a fail-stop",
    "double-death": "a second member dies while the first rebuilds",
}

DEATH_PROFILES = ScenarioSet("death profile")
for _name in sorted(_DEATH_MAKERS):
    DEATH_PROFILES.register(
        _name,
        _DEATH_DESCRIPTIONS.get(_name, "fail-stop death schedule"),
        (lambda name: lambda seed=0: make_death_schedule(name, seed))(
            _name))


# --- fault-campaign gates ------------------------------------------------
def run_gate(title, header, cells, run, show):
    """Run one campaign gate; returns its exit code (0 when every check
    of every cell passed).

    ``cells`` holds ``(label, kwargs, checks)`` rows.  A row runs
    ``run(**kwargs)``; each check is ``(passes, message)``: the cell
    fails when ``passes(outcome)`` is false, and ``message`` (when not
    ``None``) is printed under the row.  ``show(label, outcome,
    elapsed, ok)`` prints the row itself.
    """
    print("%s: %s" % (title, header))
    exit_code = 0
    for label, kwargs, checks in cells:
        begin = time.time()
        outcome = run(**kwargs)
        failures = [message for passes, message in checks
                    if not passes(outcome)]
        show(label, outcome, time.time() - begin, not failures)
        for message in failures:
            if message is not None:
                print("    %s" % message)
        if failures:
            exit_code = 1
    print("%s: %s" % (title, "ok" if exit_code == 0 else "FAILED"))
    return exit_code
