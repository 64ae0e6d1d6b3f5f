"""The kernel fires every wake-up in ``(time, schedule order)``.

Random programs run through both the production kernel and the heap-only
reference in ``reference_engine.py``; the two must log the same
``(now, label, value)`` sequence, peek the same next instants and count
the same processed events.  Programs mix zero-delay and delayed
timeouts with bare delays (``yield delay``, which the reference runs as
a timeout), including delays that vanish in the float addition
``now + delay``, ``succeed``/``fail`` with and without delay, spawns,
yields on already-fired events, :class:`Resource` contention and
``AllOf``/``AnyOf``.  Interrupts are left out: the reference keeps the
old interrupt semantics.
"""

from itertools import count

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine
from repro.sim import Resource, Simulator

N_EVENTS = 3
N_RESOURCES = 2

#: 1e-17 vanishes in ``now + delay`` once the clock passes ~0.1
DELAYS = st.sampled_from([0.0, 1e-17, 0.25, 0.5, 1.0, 3.0])

OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("nap"), DELAYS),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1), DELAYS,
              st.booleans()),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("spawn"), st.integers(1, 3), st.booleans()),
    st.tuples(st.just("again")),
    st.tuples(st.just("hold"), st.integers(0, N_RESOURCES - 1), DELAYS,
              st.booleans()),
    st.tuples(st.just("all"), st.lists(DELAYS, max_size=3)),
    st.tuples(st.just("any"), st.lists(DELAYS, min_size=1, max_size=3)),
)

PROGRAMS = st.tuples(
    st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=5),
    st.integers(1, 3),
    st.lists(st.sampled_from([0.0, 0.25, 1.0, 1.5, 4.0]), max_size=3),
)


class Boom(Exception):
    pass


def execute(sim, make_resource, program):
    """Run ``program`` on ``sim``; returns everything ordering decides."""
    scripts, roots, untils = program
    log = []
    events = [sim.event() for _ in range(N_EVENTS)]
    resources = [make_resource(sim, capacity=1) for _ in range(N_RESOURCES)]
    pids = count()

    def wait(event):
        try:
            return (yield event)
        except Boom as exc:
            return ("boom", str(exc))

    def script(index):
        pid = next(pids)
        last = None
        for n, op in enumerate(scripts[index]):
            kind = op[0]
            label = "%d.%d.%s" % (pid, n, kind)
            value = None
            if kind == "sleep":
                last = sim.timeout(op[1], label)
                value = yield from wait(last)
            elif kind == "nap":
                value = yield op[1]
            elif kind == "trigger":
                event = events[op[1]]
                if not event.triggered:
                    if op[3]:
                        event.succeed(label, delay=op[2])
                    else:
                        event.fail(Boom(label), delay=op[2])
            elif kind == "wait":
                last = events[op[1]]
                value = yield from wait(last)
            elif kind == "spawn":
                child = index + op[1]
                if child >= len(scripts):
                    continue
                spawned = sim.process(script(child))
                if op[2]:
                    last = spawned
                    value = yield from wait(spawned)
            elif kind == "again":
                if last is None or not last.processed:
                    continue
                value = yield from wait(last)
            elif kind == "hold":
                resource = resources[op[1]]
                yield resource.acquire()
                log.append((sim.now, label, "granted"))
                if op[3]:
                    yield op[2]
                else:
                    yield sim.timeout(op[2])
                resource.release()
            else:
                children = [sim.timeout(delay, "%s/%d" % (label, i))
                            for i, delay in enumerate(op[1])]
                if last is not None and last.processed:
                    children.append(last)
                combine = sim.all_of if kind == "all" else sim.any_of
                last = combine(children)
                value = yield from wait(last)
            log.append((sim.now, label, value))
        return pid

    for index in range(min(roots, len(scripts))):
        sim.process(script(index))
    for until in sorted(untils):
        sim.run(until=until)
        log.append((sim.now, "run-until", sim.peek()))
    sim.run()
    return log, sim.now, sim.processed_events


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_same_order_as_the_heap_only_reference(program):
    expected = execute(reference_engine.Simulator(),
                       reference_engine.Resource, program)
    assert execute(Simulator(), Resource, program) == expected


def test_vanishing_delay_fires_after_everything_due_now():
    """``now + 1e-17 == now`` at t=1: that push is due now and goes
    after every wake-up already queued for this instant, as the
    reference's heap orders it by schedule; a bare delay that vanishes
    the same way is ordered the same."""
    for sleep in ("sleep", "nap"):
        program = ([[("sleep", 1.0), (sleep, 1e-17), (sleep, 0.0)],
                    [(sleep, 1.0), ("sleep", 0.0), (sleep, 0.0)]], 2, [])
        for sim, resource in ((Simulator(), Resource),
                              (reference_engine.Simulator(),
                               reference_engine.Resource)):
            log, now, _events = execute(sim, resource, program)
            assert [label for _t, label, _v in log] == [
                "0.0.sleep", "1.0.%s" % sleep, "0.1.%s" % sleep,
                "1.1.sleep", "0.2.%s" % sleep, "1.2.%s" % sleep]
            assert now == 1.0
