"""Committed campaign artifacts must keep replaying to their verdicts.

``tests/artifacts/`` holds minimized repros written by the torture and
chaos harnesses.  Each one is replayed from its JSON alone: a torture
artifact must reproduce its recorded violation list, a chaos artifact
its whole recorded result.  A harness change that shifts any verdict,
counter or violation string fails here.

* ``torture-ssd-a-no-barriers.json`` — InnoDB on a volatile-cache SSD
  with barriers off, minimized (5 ops) to a lost committed transaction;
* ``chaos-hang-permanent.json`` — a permanently hung data device,
  minimized (24 ops) to the read-only demotion;
* ``chaos-double-death.json`` — both mirror members die during the
  rebuild: the run must report detected data loss.
"""

import json
import pathlib

import pytest

from repro.failures.chaos import run_chaos
from repro.failures.torture import TortureScenario, run_trial

CORPUS = pathlib.Path(__file__).with_name("artifacts")


def _load(name):
    return json.loads((CORPUS / name).read_text())


def _replay(artifact):
    """Re-run an artifact through its harness entry point."""
    scenario = TortureScenario.from_json(artifact["scenario"])
    ops = [(name, node) for name, node in artifact["ops"]]
    if artifact["format"] == "repro.chaos/1":
        return run_chaos(scenario, ops)
    assert artifact["format"] == "repro.torture/1"
    nested = tuple(artifact["nested"]) if artifact["nested"] else None
    return run_trial(scenario, ops, artifact["cut_time"], nested=nested)


def test_torture_artifact_replays_its_violations():
    artifact = _load("torture-ssd-a-no-barriers.json")
    assert len(artifact["ops"]) == 5
    assert artifact["violations"][0] == "db:lost-txn:1"
    trial = _replay(artifact)
    assert trial.fired
    assert trial.violations == artifact["violations"]


@pytest.mark.parametrize("name", ["chaos-hang-permanent.json",
                                  "chaos-double-death.json"])
def test_chaos_artifact_replays_its_result(name):
    artifact = _load(name)
    result = _replay(artifact)
    assert result.to_json() == artifact["result"]
    assert result.violations == artifact["violations"]


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.json")),
                         ids=lambda path: path.name)
def test_scenario_json_round_trips(path):
    """Reading an artifact's scenario and writing it back changes
    nothing but the old ``both`` spelling of the gray target."""
    data = json.loads(path.read_text())["scenario"]
    back = TortureScenario.from_json(data).to_json()
    assert back["gray_target"] == "all"
    assert dict(back, gray_target=data["gray_target"]) == data


def test_corpus_verdicts():
    hang = _load("chaos-hang-permanent.json")
    assert len(hang["ops"]) == 24
    assert hang["result"]["read_only"] and hang["result"]["completed"]
    double = _load("chaos-double-death.json")
    assert double["violations"] == ["death:data-loss-detected:blocks=4"]
