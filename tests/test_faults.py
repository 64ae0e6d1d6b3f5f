"""Tests for the transient flash-fault model, firmware masking, and
capacitor degradation / demotion."""

import pytest

from repro.core.capacitor import CapacitorBank
from repro.devices import IORequest, make_durassd, make_ssd_a
from repro.failures import (
    FaultConfig,
    TransientFaultModel,
    check_device,
)
from repro.flash.torn import is_torn
from repro.sim import Simulator


def write_blocks(sim, device, count, tag="v"):
    def body():
        for i in range(count):
            yield from device.submit(IORequest("write", i, 1, payload=[(tag, i)]))

    return sim.process(body())


class TestFaultConfig:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(read_error_rate=1.0)  # must be < 1
        with pytest.raises(ValueError):
            FaultConfig(program_error_rate=-0.1)
        with pytest.raises(ValueError):
            FaultConfig(max_retries=0)
        with pytest.raises(ValueError):
            FaultConfig(retry_backoff=-1e-6)

    def test_json_roundtrip(self):
        config = FaultConfig(seed=7, read_error_rate=0.01,
                             program_error_rate=0.02, erase_error_rate=0.005,
                             initial_bad_blocks=3, max_retries=5,
                             retry_backoff=1e-4, program_failures_to_retire=4)
        back = FaultConfig.from_json(config.to_json())
        assert back.to_json() == config.to_json()


class TestTransientFaultModel:
    def test_deterministic_bad_blocks(self):
        config = FaultConfig(seed=42, initial_bad_blocks=5)
        one = TransientFaultModel(config).pick_initial_bad_blocks(1024)
        two = TransientFaultModel(config).pick_initial_bad_blocks(1024)
        assert one == two
        assert len(one) == 5

    def test_deterministic_draw_sequence(self):
        config = FaultConfig(seed=9, program_error_rate=0.3)
        one = TransientFaultModel(config)
        two = TransientFaultModel(config)
        draws_one = [one.program_fails(ppn) for ppn in range(200)]
        draws_two = [two.program_fails(ppn) for ppn in range(200)]
        assert draws_one == draws_two
        assert any(draws_one)  # at 0.3 over 200 draws something fired
        assert one.counters == two.counters

    def test_zero_rates_never_fire(self):
        model = TransientFaultModel(FaultConfig())
        assert not any(model.program_fails(p) for p in range(50))
        assert not any(model.read_fails(p) for p in range(50))
        assert not any(model.erase_fails(b) for b in range(50))
        assert model.counters == {"read_errors": 0, "program_errors": 0,
                                  "erase_errors": 0}


class TestFirmwareMasking:
    def test_factory_bad_blocks_are_retired(self):
        sim = Simulator()
        device = make_ssd_a(sim)
        config = FaultConfig(seed=3, initial_bad_blocks=4)
        device.inject_faults(TransientFaultModel(config))
        assert device.ftl.counters["retired_blocks"] == 4
        assert len(device.ftl.bad_blocks) == 4

    def test_program_failures_retried_and_masked(self):
        """A 20% program-error rate must be invisible to the host: every
        write still lands, at the price of retries (and likely a grown
        bad block or two)."""
        sim = Simulator()
        device = make_ssd_a(sim)
        device.record_acks = True
        config = FaultConfig(seed=1, program_error_rate=0.2)
        device.inject_faults(TransientFaultModel(config))
        process = write_blocks(sim, device, 300)
        sim.run_until(process)
        flush = sim.process(device.flush_cache())
        sim.run_until(flush)
        assert device.ftl.counters["program_retries"] > 0
        # masked: after the flush, every write is durably readable
        device.power_fail()
        device.reboot()
        report = check_device(device)
        assert report.clean, report

    def test_uncorrectable_read_returns_torn(self):
        sim = Simulator()
        device = make_ssd_a(sim)
        config = FaultConfig(seed=5, read_error_rate=0.95, max_retries=2)
        device.inject_faults(TransientFaultModel(config))
        process = write_blocks(sim, device, 1)
        sim.run_until(process)
        flush = sim.process(device.flush_cache())
        sim.run_until(flush)
        # clear the DRAM cache so the read must hit NAND
        device.power_fail()
        device.reboot()
        request = IORequest("read", 0, 1)
        done = sim.process(device.submit(request))
        sim.run_until(done)
        assert is_torn(request.result[0])
        assert device.ftl.counters["uncorrectable_reads"] >= 1
        assert device.ftl.counters["read_retries"] >= 1


class TestCapacitorDegradation:
    def test_degrade_to_validates(self):
        bank = CapacitorBank()
        with pytest.raises(ValueError):
            bank.degrade_to(1.5)
        with pytest.raises(ValueError):
            bank.degrade_to(-0.1)

    def test_budget_scales_with_health(self):
        bank = CapacitorBank()
        nominal = bank.nominal_dump_budget_bytes
        bank.degrade_to(0.5)
        assert bank.dump_budget_bytes == nominal // 2
        assert bank.nominal_dump_budget_bytes == nominal  # unchanged

    def test_moderate_degradation_stays_durable(self):
        sim = Simulator()
        device = make_durassd(sim)
        before = device.cache.capacity_slots
        assert device.set_capacitor_health(0.5) is True
        assert device.claims_durable_cache
        assert device.cache.capacity_slots <= before
        # and the durable promise still holds through a power cut
        device.record_acks = True
        process = write_blocks(sim, device, 50)
        sim.run_until(process)
        device.power_fail()
        device.reboot()
        assert check_device(device).clean

    def test_demotion_below_dump_threshold(self):
        sim = Simulator()
        device = make_durassd(sim)
        assert device.set_capacitor_health(0.01) is False
        assert not device.claims_durable_cache
        report = device.durability_report()
        assert report["durable_mode"] is False
        assert report["capacitor_health"] == 0.01

    def test_demotion_is_one_way(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.set_capacitor_health(0.01)
        # a later (better) measurement must not re-promote: the bank is
        # untrustworthy once it has measured below the dump threshold
        assert device.set_capacitor_health(1.0) is False
        assert not device.claims_durable_cache

    def test_demoted_device_acts_volatile(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.set_capacitor_health(0.01)
        device.record_acks = True
        process = write_blocks(sim, device, 40)
        sim.run_until(process)
        device.power_fail()
        device.reboot()
        report = check_device(device)
        assert not report.clean  # unflushed acked data is gone
        assert device.recovery_manager.dumps == 0  # no dump was funded

    def test_demoted_device_honors_flush(self):
        sim = Simulator()
        device = make_durassd(sim)
        device.set_capacitor_health(0.01)
        process = write_blocks(sim, device, 10, tag="safe")
        sim.run_until(process)
        flush = sim.process(device.flush_cache())
        sim.run_until(flush)
        device.power_fail()
        device.reboot()
        for i in range(10):
            assert device.read_persistent(i) == ("safe", i)
