"""Plain-text report formatting for benches and examples.

Everything prints as aligned monospace tables / series so bench output reads
like the paper's reported rows.  No external dependencies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

Cell = Union[str, int, float, None]


def _format_cell(value: Cell, precision: int) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    title: str = "",
    precision: int = 1,
) -> str:
    """Render an aligned text table."""
    text_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    for row in text_rows:
        parts.append(line(row))
    return "\n".join(parts)


def format_duration(seconds: Optional[float]) -> str:
    """Human scale: '45s', '5.2min', '1.8h'."""
    if seconds is None:
        return "-"
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 2 * 3600:
        return f"{seconds / 60:.1f}min"
    return f"{seconds / 3600:.1f}h"


def format_series(
    series: Sequence[Tuple[float, float]],
    title: str = "",
    width: int = 60,
) -> str:
    """Render a (time, value) series as a text sparkline with min/max rows."""
    if not series:
        return f"{title}: (empty series)" if title else "(empty series)"
    times = [t for t, _v in series]
    values = [v for _t, v in series]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    blocks = " ▁▂▃▄▅▆▇█"
    # Resample to `width` buckets on the time axis (last value carried).
    t0, t1 = times[0], times[-1]
    time_span = (t1 - t0) or 1.0
    resampled: List[float] = []
    cursor = 0
    for bucket in range(width):
        target = t0 + time_span * (bucket / max(1, width - 1))
        while cursor + 1 < len(times) and times[cursor + 1] <= target:
            cursor += 1
        resampled.append(values[cursor])
    chars = "".join(
        blocks[int(round((v - low) / span * (len(blocks) - 1)))] for v in resampled
    )
    header = f"{title}\n" if title else ""
    return (
        f"{header}t=[{t0:.1f}s … {t1:.1f}s]  "
        f"value=[{low:.2f} … {high:.2f}]\n"
        f"|{chars}|"
    )


#: The columns of :func:`summary_rows` after the name: ``detected`` is
#: ``k/n``, the runs with a value of all the runs summarized.
SUMMARY_HEADERS = ("n", "mean (s)", "median (s)", "p95 (s)", "max (s)", "detected")


def summary_rows(summaries: Dict[str, "Summary"]) -> List[List[Cell]]:
    """Rows (name, n, mean, median, p95, max, k/n) for :func:`format_table`."""
    rows: List[List[Cell]] = []
    for name, summary in summaries.items():
        detected = f"{summary.count}/{summary.runs}"
        if summary.count == 0:
            rows.append([name, 0, None, None, None, None, detected])
            continue
        rows.append(
            [
                name,
                summary.count,
                summary.mean,
                summary.median,
                summary.p95,
                summary.maximum,
                detected,
            ]
        )
    return rows
