"""Plain-text report formatting for benchmark output."""

from __future__ import annotations


def _format_cell(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        magnitude = abs(value)
        if magnitude >= 1e4 or magnitude < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: list[str], rows: list[tuple]) -> str:
    """Fixed-width aligned table, ready to print.

    Numeric cells are right-aligned, text cells left-aligned; floats are
    trimmed to 4 significant digits (scientific for extremes).
    """
    cells = [[_format_cell(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row, raw in zip(cells, rows):
        parts = []
        for i, cell in enumerate(row):
            if isinstance(raw[i], (int, float)):
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        lines.append("  ".join(parts))
    return "\n".join(lines)
