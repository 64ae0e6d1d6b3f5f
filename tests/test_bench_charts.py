"""Tests for the ASCII chart renderers."""

import pytest

from repro.bench.charts import (
    render_bar_chart,
    render_grouped_bars,
    render_latency_histogram,
    render_line_chart,
)
from repro.sim import LatencyRecorder


class TestBarChart:
    def test_bars_scale_to_peak(self):
        text = render_bar_chart("t", ["a", "b"], [10, 20], width=10)
        lines = text.splitlines()
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10

    def test_mismatched_inputs_rejected(self):
        with pytest.raises(ValueError):
            render_bar_chart("t", ["a"], [1, 2])

    def test_zero_values_render(self):
        text = render_bar_chart("t", ["a"], [0])
        assert "#" not in text

    def test_thousands_grouping(self):
        text = render_bar_chart("t", ["a"], [12345])
        assert "12,345" in text


class TestGroupedBars:
    def test_one_row_per_group_series(self):
        text = render_grouped_bars("t", ["g1", "g2"],
                                   {"s1": [1, 2], "s2": [3, 4]})
        assert text.count("s1") == 2
        assert text.count("s2") == 2
        assert "g1:" in text and "g2:" in text

    def test_global_scale_across_groups(self):
        text = render_grouped_bars("t", ["g1", "g2"],
                                   {"s": [10, 40]}, width=8)
        lines = [line for line in text.splitlines() if "#" in line]
        assert lines[0].count("#") == 2
        assert lines[1].count("#") == 8


class TestLineChart:
    def test_series_marks_present(self):
        text = render_line_chart("t", [1, 2, 3],
                                 {"up": [1, 2, 3], "down": [3, 2, 1]},
                                 height=6)
        assert "o" in text and "x" in text
        assert "legend" in text

    def test_axis_labels(self):
        text = render_line_chart("t", [2, 4], {"s": [5.0, 10.0]}, height=4)
        assert "10" in text
        assert "5" in text

    def test_flat_series_does_not_crash(self):
        text = render_line_chart("t", [1, 2], {"s": [7, 7]}, height=4)
        assert "legend" in text

    def test_empty_series(self):
        assert "(no data)" in render_line_chart("t", [], {})


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
