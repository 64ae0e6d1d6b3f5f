"""A disabled telemetry hub is never asked for a span.

Every instrumentation site tests ``telemetry.enabled`` before it builds
a span's arguments, so a world that records nothing pays one attribute
check per site and no call.  These worlds count every ``Telemetry.span``
call made on a disabled hub, and on the fio and LinkBench worlds every
``Telemetry.instant`` call too: rare-path instants (a device death, a
reset, an escalation) may still call, but none fires on a healthy run.
The worlds are the schedule-pinned ones, so the command paths counted
here are the ones whose schedule is pinned.
"""

import pytest

from repro.failures import torture
from repro.telemetry import Telemetry

from test_schedule_pin import fio_world, gray_world, linkbench_world


@pytest.fixture
def disabled_calls(monkeypatch):
    """Counts of ``span`` and ``instant`` calls on disabled hubs."""
    calls = {"span": 0, "instant": 0}
    for name in calls:
        original = getattr(Telemetry, name)

        def counting(self, *args, _name=name, _original=original, **kwargs):
            if not self.enabled:
                calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Telemetry, name, counting)
    return calls


WORLDS = {
    "fio-preconditioned": fio_world,
    "linkbench-durable": lambda: linkbench_world(barriers=False),
    "linkbench-flush": lambda: linkbench_world(barriers=True),
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_healthy_worlds_call_neither_span_nor_instant(disabled_calls, name):
    sim = WORLDS[name]()
    assert not sim.telemetry.enabled
    assert disabled_calls == {"span": 0, "instant": 0}


def test_gray_world_with_deadlines_calls_no_span(disabled_calls):
    """Timeouts, aborts, resets and backoffs on two NVMe queues."""
    sim = gray_world("nvme")
    assert not sim.telemetry.enabled
    assert disabled_calls["span"] == 0
    assert disabled_calls["instant"] > 0  # the ladder's rare path ran


def test_torture_sweep_calls_no_span(disabled_calls):
    result = torture.sweep(torture.TortureScenario(
        engine="innodb", device="durassd", ops=30, seed=1))
    assert result.trials and result.clean
    assert disabled_calls["span"] == 0
