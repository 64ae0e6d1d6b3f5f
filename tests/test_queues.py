"""Queue-model tests: the pluggable host interface (SATA NCQ vs NVMe).

Three claims are load-bearing:

1. **SATA byte-identity** — routing construction through
   :class:`~repro.host.queues.QueueTopology` (or not at all) changes
   nothing: the legacy world and the explicit-topology world produce
   identical telemetry streams and results.  This is what lets the
   committed benchmark baselines survive the refactor at +0.00%.
2. **NVMe ordering contract** — commands within one submission queue
   dispatch in submission order; across queues the arbitration fetch
   skew lets later submissions overtake, and on a volatile-cache device
   that reordering is observable in what persists after a power cut.
3. **Determinism** — both models replay bit-for-bit, so chaos/torture
   artifacts stay replayable on either interface.
"""

import pytest

from repro.db import InnoDBConfig, InnoDBEngine
from repro.devices import IORequest, make_durassd, make_ssd_a
from repro.host import (
    FileSystem,
    NvmeMultiQueue,
    QueueModel,
    QueueTopology,
    SataNcq,
)
from repro.host.queues import DEFAULT_QUEUE_DEPTH
from repro.sim import Simulator, units
from repro.telemetry import Telemetry
from repro.workloads.linkbench import LinkBenchConfig, LinkBenchWorkload

from conftest import run_process


class TestProtocol:
    def test_command_queue_is_the_sata_model(self, sim):
        """The default topology's command queue is the SATA NCQ model."""
        assert isinstance(QueueTopology().build(sim, make_durassd(sim)),
                          SataNcq)
        assert SataNcq.interface == "sata"
        assert NvmeMultiQueue.interface == "nvme"

    def test_protocol_base_is_abstract(self, sim):
        model = QueueModel()
        with pytest.raises(NotImplementedError):
            model.submit(None)
        with pytest.raises(NotImplementedError):
            model.flush()
        with pytest.raises(NotImplementedError):
            model.lifecycle_counters()

    def test_one_authoritative_depth_default(self, sim):
        """Every model draws its default depth from the single constant."""
        assert DEFAULT_QUEUE_DEPTH == 32
        sata = SataNcq(sim, make_durassd(sim))
        assert sata.depth == DEFAULT_QUEUE_DEPTH
        nvme = NvmeMultiQueue(sim, make_durassd(sim, name="durassd.b"),
                              queues=2)
        assert nvme.queue_depth == DEFAULT_QUEUE_DEPTH
        assert nvme.depth == 2 * DEFAULT_QUEUE_DEPTH


class TestQueueTopology:
    def test_builds_sata(self, sim):
        model = QueueTopology(interface="sata", queue_depth=8).build(
            sim, make_durassd(sim))
        assert isinstance(model, SataNcq)
        assert model.depth == 8

    def test_builds_nvme(self, sim):
        topo = QueueTopology(interface="nvme", submission_queues=4,
                             queue_depth=16, affinity={"log": 3})
        model = topo.build(sim, make_durassd(sim))
        assert isinstance(model, NvmeMultiQueue)
        assert model.queues == 4
        assert model.queue_depth == 16
        assert model.affinity == {"log": 3}

    def test_json_round_trip(self):
        topo = QueueTopology(interface="nvme", submission_queues=3,
                             affinity={"log": 2})
        clone = QueueTopology.from_json(topo.to_json())
        assert clone.to_json() == topo.to_json()
        assert clone == topo

    def test_empty_and_aliased_settings_normalize(self):
        """An empty ``affinity`` means none (``null`` in JSON), and the
        spec keeps no reference to the caller's dict."""
        assert QueueTopology(affinity={}) == QueueTopology()
        assert QueueTopology(affinity={}).to_json()["affinity"] is None
        pins = {"log": 1}
        topo = QueueTopology(interface="nvme", affinity=pins)
        pins["log"] = 0
        assert topo.to_json()["affinity"] == {"log": 1}
        assert topo._replace(ordered=False).affinity == {"log": 1}

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            QueueTopology(interface="scsi")
        with pytest.raises(ValueError):
            QueueTopology(queue_depth=0)
        with pytest.raises(ValueError):
            QueueTopology(interface="nvme", submission_queues=0)
        with pytest.raises(ValueError):
            NvmeMultiQueue(sim, make_durassd(sim), queues=2,
                           affinity={"log": 2})

    def test_resolve_defaults_to_legacy_sata(self, sim):
        """A file system given no queue model runs on ``QueueTopology()``:
        one SATA NCQ at the default depth."""
        assert QueueTopology().interface == "sata"
        fs = FileSystem(sim, make_durassd(sim), barriers=False)
        model = fs.target.queue
        assert isinstance(model, SataNcq)
        assert model.depth == DEFAULT_QUEUE_DEPTH

    def test_resolve_prefers_explicit_model(self, sim):
        explicit = QueueTopology(interface="nvme")
        fs = FileSystem(sim, make_durassd(sim), barriers=False,
                        queue_model=explicit)
        assert isinstance(fs.target.queue, NvmeMultiQueue)


def _seeded_world(queue_model=None, clients=8, ops=12):
    """An InnoDB + LinkBench world, optionally behind an explicit
    queue topology on both file systems (None = the default one)."""
    telemetry = Telemetry(enabled=True)
    sim = Simulator(telemetry)
    data_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB),
                         barriers=False, queue_model=queue_model)
    log_fs = FileSystem(sim, make_durassd(sim, capacity_bytes=units.GIB,
                                          name="durassd.log"),
                        barriers=False, queue_model=queue_model)
    engine = InnoDBEngine(sim, data_fs, log_fs,
                          InnoDBConfig(page_size=8 * units.KIB,
                                       buffer_pool_bytes=8 * units.MIB))
    workload = LinkBenchWorkload(
        engine, LinkBenchConfig(db_bytes=64 * units.MIB, seed=17))
    result = workload.run(clients=clients, ops_per_client=ops, warmup_ops=5)
    return result, telemetry


class TestSataByteIdentity:
    def test_explicit_sata_topology_is_byte_identical(self):
        """An explicit QueueTopology("sata") must not perturb anything:
        same throughput, same telemetry stream to the byte."""
        legacy_result, legacy = _seeded_world(queue_model=None)
        routed_result, routed = _seeded_world(
            queue_model=QueueTopology(interface="sata"))
        assert legacy_result.tps == routed_result.tps
        assert legacy.jsonl() == routed.jsonl()

    def test_nvme_world_actually_differs(self):
        """The identity guard is not vacuous: swapping the interface
        changes the stream."""
        _result, legacy = _seeded_world(queue_model=None)
        _result, nvme = _seeded_world(
            queue_model=QueueTopology(interface="nvme",
                                      submission_queues=2))
        assert legacy.jsonl() != nvme.jsonl()

    def test_nvme_world_replays_identically(self):
        """Multi-queue arbitration and skew are deterministic: two runs
        of the NVMe world produce byte-identical telemetry."""
        topo = QueueTopology(interface="nvme", submission_queues=2,
                             affinity={"log": 1})
        first_result, first = _seeded_world(queue_model=topo)
        second_result, second = _seeded_world(queue_model=topo)
        assert first_result.tps == second_result.tps
        assert first.jsonl() == second.jsonl()


def _completion_order(queue_factory, n=16):
    """Submit ``n`` tagged writes through a fresh queue; returns the
    order their completions came back in."""
    sim = Simulator()
    device = make_ssd_a(sim)
    queue = queue_factory(sim, device)
    finished = []

    def submit(tag):
        yield queue.submit(IORequest("write", tag, 1, payload=[tag]))
        finished.append(tag)

    done = sim.all_of([sim.process(submit(i)) for i in range(n)])
    sim.run_until(done)
    return finished


class TestNvmeOrdering:
    def test_per_queue_order_holds_across_queues_it_does_not(self):
        """Round-robin over 2 SQs: the arbitration fetch skew lets SQ0
        commands overtake earlier SQ1 submissions, but each queue's own
        subsequence stays in submission order."""
        order = _completion_order(
            lambda sim, dev: NvmeMultiQueue(sim, dev, queues=2))
        assert order != list(range(16))  # cross-queue reorder happened
        evens = [tag for tag in order if tag % 2 == 0]
        odds = [tag for tag in order if tag % 2 == 1]
        assert evens == sorted(evens)  # SQ0 kept submission order
        assert odds == sorted(odds)    # SQ1 kept submission order

    def test_single_queue_nvme_is_fifo(self):
        order = _completion_order(
            lambda sim, dev: NvmeMultiQueue(sim, dev, queues=1))
        assert order == list(range(16))

    def test_sata_ordered_queue_is_fifo(self):
        order = _completion_order(lambda sim, dev: SataNcq(sim, dev))
        assert order == list(range(16))

    @staticmethod
    def _power_cut_survivors(make_queue, flush_at=70e-6):
        """Submit A (first) on the slow path and B (second) on the fast
        path, flush mid-flight, cut power, report who survived."""
        sim = Simulator()
        device = make_ssd_a(sim)  # volatile write cache
        queue = make_queue(sim, device)

        def submit(lba, stream):
            yield queue.submit(IORequest("write", lba, 1,
                                         payload=["v%d" % lba],
                                         stream=stream))

        sim.process(submit(0, "slow"))
        sim.process(submit(1, "fast"))

        def flusher():
            yield sim.timeout(flush_at)
            yield queue.flush()

        sim.process(flusher())
        sim.run(until=flush_at + 0.05)
        device.power_fail()
        device.reboot()
        return {lba for lba in (0, 1)
                if device.read_persistent(lba) == "v%d" % lba}

    def test_cross_queue_reorder_survives_a_power_cut(self):
        """On the NVMe model the later-submitted write (SQ0) persists
        while the earlier one (high-skew SQ) is lost: cross-queue
        submission order does not imply persistence order."""
        survivors = self._power_cut_survivors(
            lambda sim, dev: NvmeMultiQueue(
                sim, dev, queues=4, affinity={"slow": 3, "fast": 0}))
        assert survivors == {1}

    def test_sata_persistence_respects_submission_order(self):
        """Control: the ordered SATA queue serializes the same two
        writes, so the survivor set is a submission-order prefix."""
        survivors = self._power_cut_survivors(
            lambda sim, dev: SataNcq(sim, dev))
        assert survivors in ({0}, {0, 1}, set())


class TestNvmeRouting:
    def test_affinity_pins_stream_to_its_queue(self, sim):
        queue = NvmeMultiQueue(sim, make_durassd(sim), queues=4,
                               affinity={"log": 3})
        request = IORequest("write", 0, 1, payload=["x"], stream="log")
        assert all(queue.route(IORequest("write", 0, 1, payload=["x"],
                                         stream="log")) == 3
                   for _ in range(5))
        # general traffic round-robins the non-reserved queues
        general = [queue.route(IORequest("write", i, 1, payload=["x"]))
                   for i in range(6)]
        assert general == [0, 1, 2, 0, 1, 2]
        assert request.stream == "log"

    def test_depth_accounting_per_queue(self, sim):
        device = make_durassd(sim)
        queue = NvmeMultiQueue(sim, device, queues=2, depth=2)

        def worker(i):
            yield queue.submit(IORequest("write", i, 1, payload=[i]))

        done = sim.all_of([sim.process(worker(i)) for i in range(12)])
        sim.run_until(done)
        assert done.processed
        assert max(queue.per_queue_max) <= 2
        assert queue.max_observed_depth <= 2
        assert queue.outstanding == 0

    def test_flush_passes_through_to_the_device(self, sim):
        device = make_durassd(sim)
        queue = NvmeMultiQueue(sim, device, queues=2)

        def flusher():
            yield queue.flush()

        run_process(sim, flusher())
        assert device.counters["flushes"] == 1

    def test_lifecycle_counters_sum_over_queues(self, sim):
        queue = NvmeMultiQueue(sim, make_durassd(sim), queues=3)
        counters = queue.lifecycle_counters()
        assert counters["timeouts"] == 0
        assert set(counters) == set(queue.lifecycles[0].counters)


class TestQueueTelemetryContract:
    def test_nvme_probes_carry_device_and_queue_attrs(self):
        from repro.telemetry.validate import validate_probe_attrs
        telemetry = Telemetry(enabled=True)
        sim = Simulator(telemetry)
        device = make_durassd(sim)
        queue = NvmeMultiQueue(sim, device, queues=2)

        def worker(i):
            yield queue.submit(IORequest("write", i, 1, payload=[i]))

        done = sim.all_of([sim.process(worker(i)) for i in range(4)])
        sim.run_until(done)
        telemetry.sample_now()
        samples = [event for event in telemetry.events
                   if event.get("type") == "sample"
                   and event["name"].startswith("queue.depth")]
        assert len({event["name"] for event in samples}) == 2
        for event in samples:
            assert event["attrs"]["device"] == device.name
            assert event["attrs"]["queue"] in (0, 1)
        assert validate_probe_attrs(telemetry.events) == []

    def test_legacy_sata_probe_names_are_unchanged(self):
        """The validator-checked contract: the SATA path still registers
        ncq.depth / host.ncq_depth under exactly the legacy attrs."""
        telemetry = Telemetry(enabled=True)
        sim = Simulator(telemetry)
        device = make_durassd(sim)
        SataNcq(sim, device)
        telemetry.sample_now()
        names = {event["name"] for event in telemetry.events
                 if event.get("type") == "sample"}
        assert "ncq.depth" in names
        assert not any(name.startswith("queue.depth") for name in names)

    def test_queue_slot_span_maps_to_ncq_queue_blame(self):
        from repro.telemetry.attribution import category_of
        assert category_of("queue.slot") == "ncq_queue"
        assert category_of("ncq.slot") == "ncq_queue"
