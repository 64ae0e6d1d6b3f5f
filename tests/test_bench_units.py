"""Unit tests for the bench plumbing (table rendering, setups, cells)."""

import os

import pytest

from repro.__main__ import main
from repro.bench import EXPERIMENTS, TABLES, setups, table1, tableio
from repro.sim import units


class TestTableIO:
    def test_render_basic(self):
        text = tableio.render_table("T", ["a", "b"], [[1, 2.5], ["x", 10]])
        assert "T" in text
        assert "a" in text and "b" in text
        assert "2.500" in text

    def test_render_large_numbers_comma_grouped(self):
        text = tableio.render_table("T", ["n"], [[1234567]])
        assert "1,234,567" in text

    def test_grid_puts_each_paper_row_under_its_measured_row(self):
        text = tableio.render_grid(
            "T", ["row", "a", "b"], [("x", [1.4, 2500.0], [1, 2400])],
            paper="(paper~)")
        assert text.splitlines() == [
            "T",
            "------------+---+-------",
            "row        | a | b    ",
            "------------+---+-------",
            "         x | 1 | 2,500",
            "  (paper~) | 1 | 2,400",
            "------------+---+-------",
        ]


class TestRegistry:
    def test_registry_and_committed_tables_match_one_to_one(self):
        output = os.path.join(os.path.dirname(__file__), os.pardir,
                              "benchmarks", "output")
        committed = sorted(name[:-len(".txt")] for name in os.listdir(output)
                           if name.endswith(".txt"))
        stems = [table.stem for experiment in EXPERIMENTS.values()
                 for table in experiment.tables]
        assert sorted(stems) == committed
        assert sorted(TABLES) == committed

    def test_cli_prints_the_registered_table(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_QUICK", "1")
        table, = EXPERIMENTS["table5"].tables
        expected = table.render(table.run())
        assert main(["table5"]) == 0
        assert capsys.readouterr().out == expected + "\n"


class TestSetups:
    def test_scale_factor_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "128")
        assert setups.scale_factor() == 128
        assert setups.scaled_db_bytes() == 100 * units.GIB // 128

    def test_quick_mode_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUICK", "1")
        assert setups.quick_mode()
        assert setups.ops_scale(100) == 25
        monkeypatch.setenv("REPRO_QUICK", "0")
        assert not setups.quick_mode()
        assert setups.ops_scale(100) == 100

    def test_scaled_buffer(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "256")
        assert setups.scaled(10) == 10 * units.GIB // 256

    def test_device_makers(self):
        sim = setups.fresh_world()
        for kind in ("hdd", "ssd-a", "ssd-b", "durassd"):
            device = setups.make_device(sim, kind)
            assert device.exported_lbas > 0

    def test_mysql_setup_builds_engine(self):
        sim = setups.fresh_world()
        engine, devices = setups.mysql_setup(sim, 8 * units.KIB,
                                             barriers=False,
                                             doublewrite=False)
        assert engine.doublewrite is None
        assert not engine.data_fs.barriers
        assert len(devices) == 2

    def test_commercial_setup_coalesces(self):
        sim = setups.fresh_world()
        engine, _devices = setups.commercial_setup(sim, 8 * units.KIB,
                                                   barriers=True)
        assert engine.data_fs.coalesce_barriers

    def test_couchbase_setup(self):
        sim = setups.fresh_world()
        engine, devices = setups.couchbase_setup(sim, batch_size=10,
                                                 barriers=False)
        assert engine.config.batch_size == 10
        assert len(devices) == 1


class TestTable1Cells:
    """Spot checks that single cells reproduce the paper's values."""

    def test_durassd_fsync1_matches_paper(self):
        iops = table1.measure_cell("durassd", "on", 1, ios=150)
        assert iops == pytest.approx(225, rel=0.25)

    def test_hdd_off_no_fsync_matches_paper(self):
        iops = table1.measure_cell("hdd", "off", 0, ios=80)
        assert iops == pytest.approx(158, rel=0.25)

    def test_nobarrier_cell_is_fast(self):
        iops = table1.measure_cell("durassd", "nobarrier", 1, ios=400)
        assert iops > 10000

    def test_paper_reference_table_complete(self):
        for key in table1.ROWS:
            assert len(table1.PAPER[key]) == len(table1.FSYNC_PERIODS)
