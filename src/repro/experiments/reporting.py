"""Plain-text rendering of experiment outputs.

The benchmarks print the same rows/series the paper reports; these helpers
keep that output consistent and readable in a terminal.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "render_table",
    "format_mean_std",
    "format_worker_health",
    "mean_std",
]


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation, NaN-safe and empty-safe.

    The numeric backend of every ``*_mean``/``*_std`` column pair in the
    sweep tables, including the per-cell wall-clock telemetry columns: an
    empty sample (e.g. a fully cache-served group, which measured no fresh
    executions) yields ``(nan, nan)`` so the renderer prints ``-`` rather
    than a fabricated zero. The values are a sample (a handful of seeds,
    not the population of all seeds), so the spread is the Bessel-corrected
    ``ddof=1`` estimator; a single value measures no spread and yields a
    NaN std, which :func:`format_mean_std` renders band-free.
    """
    finite = [float(v) for v in values if np.isfinite(v)]
    if not finite:
        return float("nan"), float("nan")
    array = np.asarray(finite)
    if array.size < 2:
        return float(array.mean()), float("nan")
    return float(array.mean()), float(array.std(ddof=1))


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render an aligned ASCII table.

    Floats are formatted with ``float_format``; everything else via ``str``.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            if np.isnan(cell):
                return "-"
            if np.isinf(cell):
                return "inf"
            return float_format.format(cell)
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    str_headers = [str(h) for h in headers]
    widths = [
        max(len(str_headers[j]), *(len(r[j]) for r in str_rows)) if str_rows else len(str_headers[j])
        for j in range(len(str_headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(str_headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_mean_std(mean: float, std: float, float_format: str = "{:.3g}") -> str:
    """Render a per-seed variance band, e.g. ``0.0123+-0.0008``.

    The textual form of the sweep tables' ``*_mean``/``*_std`` column
    pairs; a NaN mean renders ``-``, and a NaN or zero std is omitted
    (``mean`` alone) -- a single-seed sweep measures no spread, so it must
    not render a misleading ``+-0`` confidence band.
    """
    if np.isnan(mean):
        return "-"
    rendered = float_format.format(mean)
    if not np.isnan(std) and std != 0.0:
        rendered += "+-" + float_format.format(std)
    return rendered


def format_worker_health(records: Sequence[dict]) -> str:
    """One-line fleet health view from queue-registry worker records.

    ``"2 worker(s): host-1234 executing adpsgd/s0/... (3 done), host-5678
    idle (2 done)"`` -- the live view ``repro sweep`` progress output and
    ``repro sweep-status`` share. Empty string when no worker has
    registered yet (callers print nothing rather than an empty fleet).
    """
    if not records:
        return ""
    parts = []
    for record in records:
        status = record.get("status", "?")
        piece = f"{record.get('worker', '?')} {status}"
        cell = record.get("current_cell")
        if status == "executing" and cell:
            piece += f" {cell}"
        piece += f" ({record.get('cells_completed', 0)} done"
        failed = record.get("cells_failed", 0)
        if failed:
            piece += f", {failed} failed"
        piece += ")"
        parts.append(piece)
    return f"{len(records)} worker(s): " + ", ".join(parts)

