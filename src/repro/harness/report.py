"""Plain-text table and series rendering for experiment reports."""

from __future__ import annotations

from typing import Iterable, Sequence


def failed_claims(claims: Iterable[tuple[bool, str]]) -> list[str]:
    """The message of each ``(holds, message)`` claim that does not hold."""
    return [message for holds, message in claims if not holds]


def format_values(values: Iterable[float]) -> str:
    """``values`` to three decimals, comma-separated, for a claim's message."""
    return ", ".join(f"{value:.3f}" for value in values)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: str = "",
) -> str:
    """Render an aligned, paper-style text table."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row] for row in rows
    ]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = [title, "=" * len(title)]
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append(
            "  ".join(
                cell.rjust(w) if idx else cell.ljust(w)
                for idx, (cell, w) in enumerate(zip(row, widths))
            )
        )
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[object],
    series: dict[str, Sequence[float]],
    note: str = "",
) -> str:
    """Render line-series data (a figure's curves) as an aligned table."""
    headers = [x_label, *series.keys()]
    rows = []
    for index, x in enumerate(xs):
        rows.append([x, *(values[index] for values in series.values())])
    return render_table(title, headers, rows, note)
