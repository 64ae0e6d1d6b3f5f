"""Pins on the fault campaigns' observable behaviour.

* The four campaign gates (``python -m repro torture|chaos|integrity|
  failover --smoke`` at ``REPRO_QUICK=1``) must print exactly the
  committed ``tests/golden/<gate>-smoke.txt``, once the trailing
  elapsed-seconds column is stripped.  After a deliberate change,
  regenerate a golden with::

      REPRO_QUICK=1 PYTHONPATH=src python -m repro torture --smoke \\
          | sed -E 's/ +[0-9]+\\.[0-9]s$//' > tests/golden/torture-smoke.txt

* ``tests/golden/fault-targets.json`` lists, for stripe-2 and mirror-2
  worlds and every fault target, which device got which gray, corruption
  or death model, with its salt and index.  The salts seed each model's
  schedule, so the chaos artifact corpus replays only while they hold.
"""

import io
import json
import pathlib
import re
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main
from repro.failures.grayfaults import GrayFaultModel, make_profile
from repro.failures.torture import TortureScenario, build_world

GOLDEN = pathlib.Path(__file__).with_name("golden")

_ELAPSED = re.compile(r" +[0-9]+\.[0-9]s$")


def _gate_stdout(gate):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([gate, "--smoke"])
    lines = out.getvalue().splitlines()
    return code, "".join(_ELAPSED.sub("", line) + "\n" for line in lines)


@pytest.mark.parametrize("gate", ["torture", "chaos", "integrity",
                                  "failover"])
def test_smoke_gate_prints_its_golden(gate, monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "1")
    code, text = _gate_stdout(gate)
    assert code == 0
    assert text == (GOLDEN / ("%s-smoke.txt" % gate)).read_text()


# --- which device each fault target hits ---------------------------------
_GRAY = make_profile("gc-storm", seed=3)
_SALTS = ("data", "log", "data:0", "data:1")

#: (fault kind, scenario fields arming it, targets the kind accepts);
#: ``both`` is the gray spelling artifacts carry (read as ``all``)
FAULT_KINDS = (
    ("gray", {"gray_profile": _GRAY.to_json()},
     ("both", "data", "log", "data:0", "data:1")),
    ("corruption", {"corruption": {"seed": 1, "bit_rot_rate": 0.01}},
     ("data", "log", "all")),
    ("death", {"death": {"die_at": 1.0, "stagger": 0.5}},
     ("data", "log", "all", "data:0", "data:1")),
)

WORLDS = (("stripe=2", {"stripe": 2}), ("mirror=2", {"mirror": 2}))


def _gray_salt(model):
    """The salt a gray model was built with, read off its schedule."""
    episodes = repr(model.episodes)
    found = [salt for salt in _SALTS
             if repr(GrayFaultModel(model.profile, salt).episodes)
             == episodes]
    assert len(found) == 1
    return found[0]


def fault_rows(scenario):
    """``[name, model class, salt, index]`` per installed fault model."""
    world = build_world(scenario)
    rows = []
    for device in world.devices:
        for model in (device.gray_faults, device.corruption, device.death):
            if model is None:
                continue
            salt = (_gray_salt(model) if isinstance(model, GrayFaultModel)
                    else model.salt)
            rows.append([device.name, type(model).__name__, salt,
                         getattr(model, "index", None)])
    return rows


def fault_table():
    table = {}
    for world, world_fields in WORLDS:
        for kind, fields, targets in FAULT_KINDS:
            for target in targets:
                if (kind, world, target) == ("gray", "mirror=2", "data:1"):
                    continue  # gray data:<i> once meant stripes only
                data = dict(TortureScenario().to_json(), ops=5,
                            **world_fields, **fields)
                data["%s_target" % kind] = target
                scenario = TortureScenario.from_json(data)
                table["%s %s %s" % (world, kind, target)] = \
                    fault_rows(scenario)
    return table


def test_fault_targets_install_their_golden_models():
    want = json.loads((GOLDEN / "fault-targets.json").read_text())
    assert fault_table() == want
