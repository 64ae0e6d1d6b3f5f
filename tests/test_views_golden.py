"""Pins on what ``repro trace``, ``explain``, ``monitor`` and a traced
bench print and write.

Each command runs in-process at ``REPRO_QUICK=1`` in an empty directory,
and its views must come out byte for byte as committed:

* ``trace table1``: stdout, the Chrome trace and the JSONL stream;
* ``explain linkbench --quick`` and ``explain gray --quick``: stdout and
  the markdown report;
* ``monitor figure5``: stdout, the markdown dashboard, the Prometheus
  text and the series CSV;
* ``table1 --telemetry`` and ``bursts --telemetry``: the whole table on
  stdout and the Chrome trace of the one cell each traces.

Text views are committed under ``tests/golden/``; the large
machine-readable files are pinned by sha256 in
``tests/golden/views.sha256.json``.  After a deliberate change, rerun the
command from an empty directory and copy its files over the goldens.
"""

import hashlib
import io
import json
import pathlib
from contextlib import redirect_stdout

import pytest

from repro.__main__ import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

#: (golden stem, argv, {written file: golden suffix})
VIEWS = (
    ("trace-table1",
     ["trace", "table1", "--out", "t.json", "--jsonl", "t.jsonl"],
     {"t.json": ".json", "t.jsonl": ".jsonl"}),
    ("explain-linkbench",
     ["explain", "linkbench", "--quick", "--out", "r.md"],
     {"r.md": ".md"}),
    ("explain-gray",
     ["explain", "gray", "--quick", "--out", "r.md"],
     {"r.md": ".md"}),
    ("monitor-figure5",
     ["monitor", "figure5", "--out", "d.md", "--prom", "m.prom",
      "--csv", "m.csv"],
     {"d.md": ".md", "m.prom": ".prom", "m.csv": ".csv"}),
    ("table1-telemetry", ["table1", "--telemetry", "--out", "t.json"],
     {"t.json": ".json"}),
    ("bursts-telemetry", ["bursts", "--telemetry", "--out", "b.json"],
     {"b.json": ".json"}),
)


@pytest.mark.parametrize("stem, argv, files", VIEWS,
                         ids=[view[0] for view in VIEWS])
def test_view_matches_its_golden(stem, argv, files, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_QUICK", "1")
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == (GOLDEN / (stem + ".stdout")).read_text()
    hashes = json.loads((GOLDEN / "views.sha256.json").read_text())
    for written, suffix in files.items():
        name = stem + suffix
        data = (tmp_path / written).read_bytes()
        if name in hashes:
            assert hashlib.sha256(data).hexdigest() == hashes[name], name
        else:
            assert data == (GOLDEN / name).read_bytes(), name
