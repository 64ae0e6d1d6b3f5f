"""Tests for the engine variants: PostgreSQL FPW, SQLite journal, and
the FusionIO-style atomic-write device."""

import pytest

from repro.db import (
    InnoDBConfig,
    InnoDBEngine,
    PostgresConfig,
    PostgresEngine,
    SQLiteConfig,
    SQLiteEngine,
)
from repro.devices import IORequest, make_durassd, make_fusionio
from repro.devices.atomic_ssd import AtomicWriteSSD, fusionio_spec
from repro.host import FileSystem
from repro.sim import Simulator, units
from repro.sim.rng import make_rng

from conftest import run_process


def pg_engine(sim, full_page_writes=True, barriers=False):
    data_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                         barriers=barriers)
    log_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                        barriers=barriers)
    return PostgresEngine(sim, data_fs, log_fs,
                          PostgresConfig(buffer_pool_bytes=4 * units.MIB,
                                         full_page_writes=full_page_writes))


class TestPostgresFPW:
    def test_first_touch_logs_full_page(self, sim):
        engine = pg_engine(sim)
        table = engine.create_table("t", 10_000, 200)

        def body():
            txn = engine.begin()
            yield from engine.modify_rank(txn, table, 5)
            yield from engine.commit(txn)

        run_process(sim, body())
        assert engine.counters["full_page_images"] == 1
        # the image costs a page worth of log, not a record
        assert engine.wal.counters["blocks_written"] >= \
            engine.config.page_size // units.LBA_SIZE

    def test_second_touch_logs_record_only(self, sim):
        engine = pg_engine(sim)
        table = engine.create_table("t", 10_000, 200)

        def body():
            for _ in range(3):
                txn = engine.begin()
                yield from engine.modify_rank(txn, table, 5)
                yield from engine.commit(txn)

        run_process(sim, body())
        assert engine.counters["full_page_images"] == 1

    def test_checkpoint_resets_fpw(self, sim):
        engine = pg_engine(sim)
        table = engine.create_table("t", 10_000, 200)

        def body():
            txn = engine.begin()
            yield from engine.modify_rank(txn, table, 5)
            yield from engine.commit(txn)
            engine.force_checkpoint()
            txn = engine.begin()
            yield from engine.modify_rank(txn, table, 5)
            yield from engine.commit(txn)

        run_process(sim, body())
        assert engine.counters["full_page_images"] == 2

    def test_fpw_off_never_logs_images(self, sim):
        engine = pg_engine(sim, full_page_writes=False)
        table = engine.create_table("t", 10_000, 200)

        def body():
            txn = engine.begin()
            yield from engine.modify_rank(txn, table, 5)
            yield from engine.commit(txn)

        run_process(sim, body())
        assert engine.counters["full_page_images"] == 0

    def test_fpw_inflates_log_volume(self):
        def log_blocks(fpw):
            sim = Simulator()
            engine = pg_engine(sim, full_page_writes=fpw)
            table = engine.create_table("t", 50_000, 200)
            rng = make_rng(2)

            def body():
                for _ in range(60):
                    txn = engine.begin()
                    yield from engine.modify_rank(
                        txn, table, rng.randrange(table.n_rows))
                    yield from engine.commit(txn)

            process = sim.process(body())
            sim.run_until(process)
            return engine.wal.counters["blocks_written"]

        # each flush writes at least one block, which compresses the
        # ratio at per-txn flushing; the image inflation still dominates
        assert log_blocks(True) > 2.5 * log_blocks(False)

    def test_config_forbids_doublewrite(self):
        with pytest.raises(ValueError):
            PostgresConfig(doublewrite=True)


class TestSQLiteJournal:
    def _engine(self, sim, journal_mode="rollback", barriers=False):
        fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                        barriers=barriers)
        return SQLiteEngine(sim, fs, SQLiteConfig(journal_mode=journal_mode))

    def test_transaction_commits(self, sim):
        engine = self._engine(sim)
        run_process(sim, engine.write_transaction([1, 2, 3]))
        assert engine.acked_txns == 1
        assert engine.committed_versions == {1: 1, 2: 1, 3: 1}

    def test_journal_mode_costs_three_barriers(self, sim):
        engine = self._engine(sim)
        run_process(sim, engine.write_transaction([1]))
        assert engine.counters["barriers"] == 3
        assert engine.counters["journal_pages"] == 1

    def test_journal_off_costs_one_barrier(self, sim):
        engine = self._engine(sim, journal_mode="off")
        run_process(sim, engine.write_transaction([1]))
        assert engine.counters["barriers"] == 1
        assert engine.counters["journal_pages"] == 0

    def test_committed_pages_consistent(self, sim):
        engine = self._engine(sim)
        run_process(sim, engine.write_transaction([1, 2]))
        run_process(sim, engine.write_transaction([2, 3]))
        assert engine.check_committed_pages() == []

    def test_recovery_rolls_back_valid_journal(self, sim):
        """Crash between journal write and invalidation: roll back."""
        engine = self._engine(sim)
        run_process(sim, engine.write_transaction([7]))

        # hand-craft a crash inside the window: journal valid on media,
        # home page already at version 2
        engine.pagestore.install_page("main", 7, 1)
        engine.filesystem.install_blocks(engine.journal, 0,
                                         [("journal-header", 2, 1)])
        engine.pagestore.write_page_image  # (image already there from txn 1)
        engine._journal_entries = {0: (7, 1)}
        engine.filesystem.install_blocks(
            engine.journal, engine.config.page_size,
            __import__("repro.db.pages", fromlist=["page_tokens"])
            .page_tokens("main", 7, 1, engine.config.page_size))
        rolled = engine.recover()
        assert rolled == 1
        version, error = engine.pagestore.persistent_page("main", 7)
        assert (version, error) == (1, None)

    def test_recovery_noop_on_invalid_journal(self, sim):
        engine = self._engine(sim)
        run_process(sim, engine.write_transaction([7]))
        assert engine.recover() == 0  # journal was invalidated at commit

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SQLiteConfig(journal_mode="wal")


class TestAtomicWriteSSD:
    def test_requires_vsl_opt_in(self, sim):
        device = AtomicWriteSSD(sim, fusionio_spec())
        assert not device.atomic_writes_enabled
        device.enable_atomic_writes()
        assert device.atomic_writes_enabled

    def test_multiblock_write_counted_atomic(self, sim):
        device = make_fusionio(sim)

        def body():
            yield from device.submit(IORequest("write", 0, 4,
                                               payload=["a", "b", "c", "d"]))

        run_process(sim, body())
        assert device.counters["atomic_writes"] == 1

    def test_atomicity_across_power_cut(self, sim):
        """After a cut, a 16KB command is never *partially* new."""
        device = make_fusionio(sim)
        rng = make_rng(4)

        def body():
            for i in range(200):
                lba = rng.randrange(100) * 4
                payload = [("grp", i, b) for b in range(4)]
                yield from device.submit(IORequest("write", lba, 4,
                                                   payload=payload))

        sim.process(body())
        sim.run(until=0.004)
        device.power_fail()
        device.reboot()
        for base in range(0, 400, 4):
            values = [device.read_persistent(base + offset)
                      for offset in range(4)]
            groups = {value[1] for value in values
                      if isinstance(value, tuple) and value[0] == "grp"}
            nones = sum(1 for value in values if value is None)
            # each 4-block range is from one command (or rolled away)
            assert len(groups) <= 1 or nones == 0, (base, values)

    def test_still_volatile_for_durability(self, sim):
        """Atomic writes do NOT make acked data durable (no capacitors)."""
        device = make_fusionio(sim)

        def body():
            yield from device.submit(IORequest("write", 0, 1, payload=["x"]))

        run_process(sim, body())
        device.power_fail()
        device.reboot()
        assert device.read_persistent(0) is None
