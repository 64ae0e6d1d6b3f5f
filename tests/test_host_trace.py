"""Tests for the I/O tracer and the latency histogram it feeds."""

import pytest

from repro.bench.charts import render_latency_histogram
from repro.devices import IORequest, make_durassd
from repro.host import FileSystem, FioJob, run_fio
from repro.host.trace import IOTracer
from repro.sim import LatencyRecorder, Simulator, units

from conftest import run_process


class TestTracer:
    def test_records_reads_and_writes(self, sim):
        device = make_durassd(sim)
        tracer = IOTracer.attach(sim, device)

        def body():
            yield device.submit(IORequest("write", 0, 1, payload=["x"]))
            yield device.submit(IORequest("read", 0, 1))

        run_process(sim, body())
        assert len(tracer.of_kind("write")) == 1
        assert len(tracer.of_kind("read")) == 1
        record = tracer.of_kind("write")[0]
        assert record.latency > 0
        assert record.lba == 0

    def test_records_flushes_and_intervals(self, sim):
        device = make_durassd(sim)
        tracer = IOTracer.attach(sim, device)

        def body():
            for i in range(3):
                yield device.submit(IORequest("write", i, 1, payload=[i]))
                yield device.flush_cache()

        run_process(sim, body())
        count, gap = tracer.flush_interval_stats()
        assert count == 3
        assert gap > 0

    def test_bytes_written(self, sim):
        device = make_durassd(sim)
        tracer = IOTracer.attach(sim, device)

        def body():
            yield device.submit(IORequest("write", 0, 4,
                                          payload=list("abcd")))

        run_process(sim, body())
        assert tracer.bytes_written() == 4 * units.LBA_SIZE

    def test_detach_stops_recording(self, sim):
        device = make_durassd(sim)
        tracer = IOTracer.attach(sim, device)
        tracer.detach()

        def body():
            yield device.submit(IORequest("write", 0, 1, payload=["x"]))

        run_process(sim, body())
        assert tracer.records == []

    def test_summary_through_full_stack(self):
        sim = Simulator()
        device = make_durassd(sim)
        tracer = IOTracer.attach(sim, device)
        fs = FileSystem(sim, device, barriers=True)
        job = FioJob(rw="randwrite", ios_per_job=40, fsync_every=4)
        run_fio(sim, fs, job)
        summary = tracer.summary()
        # 40 data writes plus the journal commits of growing-file fsyncs
        assert 40 <= summary["writes"] <= 50
        assert summary["flushes"] == 10
        assert summary["write_mean"] > 0
        assert summary["mean_flush_interval"] > 0

    def test_burstiness_of_uniform_stream_is_low(self, sim):
        device = make_durassd(sim)
        tracer = IOTracer.attach(sim, device)

        def body():
            for i in range(50):
                yield device.submit(IORequest("write", i, 1, payload=[i]))
                yield sim.timeout(0.01)

        run_process(sim, body())
        assert tracer.write_burstiness(window=0.05) < 2.0


class TestHistogram:
    def test_renders_buckets(self):
        recorder = LatencyRecorder()
        recorder.extend([0.001, 0.001, 0.002, 0.01, 0.1])
        text = render_latency_histogram(recorder, buckets=5)
        assert "#" in text
        assert "ms" in text
        assert len(text.splitlines()) == 5

    def test_empty_recorder(self):
        assert render_latency_histogram(LatencyRecorder()) == "(no samples)"

    def test_single_value(self):
        recorder = LatencyRecorder()
        recorder.record(0.005)
        text = render_latency_histogram(recorder, buckets=3)
        assert text.count("#") > 0


class TestDetachSafety:
    def test_detach_twice_raises(self, sim):
        device = make_durassd(sim)
        tracer = IOTracer.attach(sim, device)
        tracer.detach()
        with pytest.raises(RuntimeError, match="already detached"):
            tracer.detach()

    def test_out_of_order_detach_raises(self, sim):
        device = make_durassd(sim)
        inner = IOTracer.attach(sim, device)
        outer = IOTracer.attach(sim, device)  # wraps inner
        with pytest.raises(RuntimeError, match="LIFO"):
            inner.detach()
        # the stack is untouched: LIFO detach still works afterwards
        outer.detach()
        inner.detach()

    def test_lifo_detach_restores_device(self, sim):
        device = make_durassd(sim)
        original_submit = device.submit
        original_flush = device.flush_cache
        inner = IOTracer.attach(sim, device)
        outer = IOTracer.attach(sim, device)
        outer.detach()
        inner.detach()
        assert device.submit == original_submit
        assert device.flush_cache == original_flush

    def test_nested_tracers_both_record(self, sim):
        device = make_durassd(sim)
        inner = IOTracer.attach(sim, device)
        outer = IOTracer.attach(sim, device)

        def body():
            yield device.submit(IORequest("write", 0, 1, payload=["x"]))

        run_process(sim, body())
        assert len(inner.of_kind("write")) == 1
        assert len(outer.of_kind("write")) == 1


class TestHistogramBuckets:
    def test_counts_cover_every_sample(self):
        recorder = LatencyRecorder()
        recorder.extend([0.0001 * (i + 1) for i in range(37)])
        text = render_latency_histogram(recorder, buckets=6)
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
        assert sum(counts) == 37

    def test_extremes_land_in_end_buckets(self):
        recorder = LatencyRecorder()
        recorder.extend([0.001] * 4 + [0.5] * 3)
        text = render_latency_histogram(recorder, buckets=4)
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
        assert counts[0] == 4
        assert counts[-1] == 3
        assert sum(counts) == 7
