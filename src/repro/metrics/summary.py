"""Human-readable summaries for the experiment artifacts."""

from __future__ import annotations


def format_series(
    name: str, xs: list[float], ys: list[float], x_label: str, y_label: str
) -> str:
    """Render a figure data series as aligned columns."""
    lines = [name, f"{x_label:>12} {y_label:>14}"]
    for x, y in zip(xs, ys):
        lines.append(f"{x:>12.4f} {y:>14.6f}")
    return "\n".join(lines)
