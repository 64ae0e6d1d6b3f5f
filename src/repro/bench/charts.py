"""ASCII charts for figure-shaped results.

The paper's Figures 5 and 6 are bar/line charts; the benches print the
numbers as tables, and these helpers render the same data as terminal
graphics so the *shape* comparison (who wins, where lines cross) is
visible at a glance without a plotting stack.
"""

from bisect import bisect_right


def render_bar_chart(title, labels, values, width=50, unit=""):
    """Horizontal bars scaled to the maximum value."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    peak = max(values) if values else 0
    label_width = max((len(label) for label in labels), default=0)
    lines = [title]
    for label, value in zip(labels, values):
        bar = "#" * (int(width * value / peak) if peak else 0)
        lines.append("%-*s |%-*s {:,.0f}%s".format(value)
                     % (label_width, label, width, bar, unit))
    return "\n".join(lines)


def render_grouped_bars(title, group_labels, series, width=40, unit=""):
    """Several series per group, one bar row per (group, series).

    ``series`` is ``{series_name: [value per group]}``.
    """
    peak = max((value for values in series.values() for value in values),
               default=0)
    name_width = max((len(name) for name in series), default=0)
    lines = [title]
    for index, group in enumerate(group_labels):
        lines.append("%s:" % group)
        for name, values in series.items():
            value = values[index]
            bar = "#" * (int(width * value / peak) if peak else 0)
            lines.append("  %-*s |%-*s {:,.0f}%s".format(value)
                         % (name_width, name, width, bar, unit))
    return "\n".join(lines)


def render_line_chart(title, x_labels, series, height=12, width=None):
    """A multi-series line chart on a character grid.

    ``series`` is ``{name: [y per x]}``; each series gets a distinct
    plotting character.  Good enough to show the crossovers and slopes
    of Figure 6.
    """
    marks = "ox+*#@%"
    all_values = [v for values in series.values() for v in values]
    if not all_values:
        return title + "\n(no data)"
    low, high = min(all_values), max(all_values)
    if high == low:
        high = low + 1
    columns = width or max(30, 6 * len(x_labels))
    grid = [[" "] * columns for _ in range(height)]
    n_points = len(x_labels)

    def cell(x_index, value):
        col = (x_index * (columns - 1)) // max(1, n_points - 1)
        row = height - 1 - int((value - low) / (high - low) * (height - 1))
        return row, col

    for series_index, (name, values) in enumerate(series.items()):
        mark = marks[series_index % len(marks)]
        for x_index, value in enumerate(values):
            row, col = cell(x_index, value)
            grid[row][col] = mark

    lines = [title]
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = "%10.3g |" % high
        elif row_index == height - 1:
            label = "%10.3g |" % low
        else:
            label = "%10s |" % ""
        lines.append(label + "".join(row))
    lines.append("%10s +%s" % ("", "-" * columns))
    lines.append("%10s  %s" % ("", "  ".join(str(x) for x in x_labels)))
    legend = "   ".join("%s=%s" % (marks[i % len(marks)], name)
                        for i, name in enumerate(series))
    lines.append("%10s  legend: %s" % ("", legend))
    return "\n".join(lines)


def render_latency_histogram(recorder, buckets=12, width=40):
    """ASCII latency histogram (log-spaced) for a LatencyRecorder."""
    samples = recorder.sorted_samples()
    if not samples:
        return "(no samples)"
    low = max(samples[0], 1e-7)
    high = samples[-1]
    if high <= low:
        high = low * 10
    edges = [low * (high / low) ** (i / buckets)
             for i in range(buckets + 1)]
    # Samples are sorted: bucket i gets everything in (edges[i],
    # edges[i+1]] — one bisect per edge.  Values past the last edge land
    # in the final bucket.
    bounds = [0] + [bisect_right(samples, edge) for edge in edges[1:-1]] \
        + [len(samples)]
    counts = [bounds[i + 1] - bounds[i] for i in range(buckets)]
    peak = max(counts)
    lines = []
    for index, count in enumerate(counts):
        bar = "#" * (width * count // peak if peak else 0)
        lines.append("%9.3fms-%9.3fms |%-*s %d"
                     % (edges[index] * 1e3, edges[index + 1] * 1e3,
                        width, bar, count))
    return "\n".join(lines)
