"""Self-contained SVG sensitivity charts from sweep tables.

No plotting dependency: charts are assembled as plain SVG text so the
outputs are diffable and render anywhere.
"""

from __future__ import annotations

import enum
import math

from .checks import write_text
from .sweep import SweepTable

WIDTH, HEIGHT = 840, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 200, 48, 56

PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf",
    "#8c564b", "#e377c2",
]


class ReportKind(enum.Enum):
    """Which side of each sweep row to plot."""

    BANK_MULTIPLE = "bank_multiple"        # equity multiple, break-even at 1.0
    UNDERWRITER_RETURN = "underwriter_return"  # gross return, break-even at 0.0


#: Per chart: title, y-axis label, break-even reference line and its label.
_CHARTS = {
    ReportKind.BANK_MULTIPLE: ("Venture bank sensitivity to funding rate",
                               "ten-year equity multiple", 1.0, "break-even = 1.0"),
    ReportKind.UNDERWRITER_RETURN: ("Underwriter gross return sensitivity to funding rate",
                                    "gross return on insured face", 0.0, "break-even = 0"),
}


def _series_for(table: SweepTable, kind: ReportKind) -> dict[str, tuple[float, ...]]:
    """Legend name -> y value at each rate of ``table.rates_pct``."""
    if kind is ReportKind.BANK_MULTIPLE:
        return {f"{c.label} @ {c.moc:g}X": c.multiples for c in table.curves}
    # The underwriter side does not depend on leverage; one curve per portfolio.
    series: dict[str, tuple[float, ...]] = {}
    for c in table.curves:
        series.setdefault(c.label, c.returns)
    return series


def _escape(text: str) -> str:
    # Not xml.sax.saxutils.escape: importing it pulls in urllib.request,
    # which would weigh on every CLI start.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def _svg_chart(xs: tuple[float, ...], series: dict[str, tuple[float, ...]], title: str,
               x_label: str, y_label: str, ref_y: float, ref_label: str) -> str:
    """Every series has one y per x of the ascending ``xs``; an axis whose (padded) span overflows raises."""
    import numpy as np

    columns = [np.asarray(ys, dtype=float) for ys in series.values()]  # one conversion per series
    x_lo, x_hi = xs[0], xs[-1]
    y_min = min([c.min().item() for c in columns] + [ref_y])
    y_max = max([c.max().item() for c in columns] + [ref_y])
    pad = 0.05 * (y_max - y_min or 1.0)
    y_lo, y_hi = y_min - pad, y_max + pad
    for axis, lo, hi, span in (("x", x_lo, x_hi, x_hi - x_lo), ("y", y_min, y_max, y_hi - y_lo)):
        if not math.isfinite(span):  # the pixels would be nan
            raise ValueError(f"cannot chart the {axis} axis: values from {lo!r} to {hi!r} overflow its span")

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo or 1.0) * plot_w

    def py(y: float) -> float:  # y_hi > y_lo: y_max > y_min, or both are ref_y (0 or 1) and pad is 0.05
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="13">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="24" font-size="17" font-weight="bold">{_escape(title)}</text>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444"/>',
    ]

    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.1f}" y1="{MARGIN_T + plot_h}" x2="{x:.1f}" '
                     f'y2="{MARGIN_T + plot_h + 5}" stroke="#444"/>')
        parts.append(f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 20}" '
                     f'text-anchor="middle">{t:.2f}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" '
                     f'y2="{y:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L - 9}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{t:.2f}</text>')

    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
                 f'text-anchor="middle">{_escape(x_label)}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{_escape(y_label)}</text>')

    ry = py(ref_y)
    parts.append(f'<line class="refline" x1="{MARGIN_L}" y1="{ry:.1f}" '
                 f'x2="{MARGIN_L + plot_w}" y2="{ry:.1f}" stroke="#333" '
                 f'stroke-dasharray="7 5" stroke-width="1.5"/>')
    parts.append(f'<text x="{MARGIN_L + plot_w - 4}" y="{ry - 6:.1f}" '
                 f'text-anchor="end" fill="#333">{_escape(ref_label)}</text>')

    # px and py run once per series as array expressions, in the float64 operations of one value;
    # each curve fills a template of the formatted x pixels in one % call, with only its own y pixels.
    points = " ".join([f"{x:.2f},%.2f" for x in px(np.asarray(xs, dtype=float)).tolist()])
    legend_y = MARGIN_T + 10
    for i, (name, ys) in enumerate(zip(series, columns)):
        color = PALETTE[i % len(PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                     f'points="{points % tuple(py(ys).tolist())}"/>')
        lx = MARGIN_L + plot_w + 14
        parts.append(f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
                     f'stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 28}" y="{legend_y + 4}">{_escape(name)}</text>')
        legend_y += 20

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(table: SweepTable, kind: ReportKind, out) -> None:
    """Write the chart for one side of the sweep to ``out``.

    The bank chart carries a break-even reference line at 1.0; the
    underwriter chart at 0. Both plot columns the sweep CSV already
    holds. Raises on an empty table before creating any file.
    """
    if not table.rates_pct or not table.curves:
        raise ValueError("cannot render an empty sweep table")
    title, y_label, ref_y, ref_label = _CHARTS[kind]
    svg = _svg_chart(table.rates_pct, _series_for(table, kind), title, "bank funding rate (%)",
                     y_label, ref_y, ref_label)
    write_text(out, [svg])
