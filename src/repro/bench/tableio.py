"""Plain-text table rendering for experiment output.

Every bench prints the same artifact the paper shows — rows and series,
with the paper's published number next to the measured one so the
paper-vs-measured comparison is part of the output itself.
"""


def render_table(title, headers, rows):
    """A fixed-width text table.

    ``rows`` are sequences of cells; cells are stringified with
    reasonable numeric formatting.
    """
    def fmt(cell):
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000:
                return "{:,.0f}".format(cell)
            if abs(cell) >= 10:
                return "%.1f" % cell
            return "%.3f" % cell
        if isinstance(cell, int):
            return "{:,d}".format(cell)
        return str(cell)

    text_rows = [[fmt(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    line = "+".join("-" * (width + 2) for width in widths)
    out = [title, line]
    out.append(" | ".join(header.ljust(width)
                          for header, width in zip(headers, widths)))
    out.append(line)
    for row in text_rows:
        out.append(" | ".join(cell.rjust(width)
                              for cell, width in zip(row, widths)))
    out.append(line)
    return "\n".join(out)


def render_grid(title, headers, rows, paper="(paper)", cell=round):
    """A paper-vs-measured table.

    Each ``(label, measured, published)`` row prints as two lines: the
    measured values under ``label``, then the paper's under ``paper``.
    ``cell`` formats every value of both.
    """
    lines = []
    for label, measured, published in rows:
        lines.append([label] + [cell(value) for value in measured])
        lines.append(["  " + paper] + [cell(value) for value in published])
    return render_table(title, headers, lines)
