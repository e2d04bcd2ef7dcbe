"""Dependency-free SVG renderings of the explanation artifacts.

The numeric CSVs are the authoritative outputs; these static plots exist so
importance bars, PDP curves and the SHAP summary can be eyeballed without a
plotting stack.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _header(width, height, title):
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="16" text-anchor="middle" font-size="13">{_esc(title)}</text>',
    ]


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def bar_chart(labels, values, title: str, path: str | Path | None = None,
              max_bars: int = 25) -> str:
    """Horizontal bar chart, largest value first (input order preserved)."""
    labels = list(labels)[:max_bars]
    values = [float(v) for v in values][:max_bars]
    row_h, left, width = 18, 230, 640
    height = 40 + row_h * max(len(labels), 1)
    top = max((abs(v) for v in values), default=1.0) or 1.0
    parts = _header(width, height, title)
    for i, (label, value) in enumerate(zip(labels, values)):
        y = 30 + i * row_h
        bar = (width - left - 60) * abs(value) / top
        parts.append(f'<text x="{left - 6}" y="{y + 12}" text-anchor="end">{_esc(label[:34])}</text>')
        parts.append(f'<rect x="{left}" y="{y + 3}" width="{bar:.1f}" height="{row_h - 6}" fill="#4878a8"/>')
        parts.append(f'<text x="{left + bar + 4:.1f}" y="{y + 12}">{value:.4f}</text>')
    parts.append("</svg>")
    svg = "\n".join(parts)
    if path is not None:
        Path(path).write_text(svg, encoding="utf-8")
    return svg


def line_chart(x, y, title: str, path: str | Path | None = None,
               x_label: str = "", y_label: str = "") -> str:
    """Single polyline with framed axes and min/max tick labels."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    width, height, pad = 640, 360, 55
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    sx = lambda v: pad + (width - 2 * pad) * (v - x0) / (x1 - x0)
    sy = lambda v: height - pad - (height - 2 * pad) * (v - y0) / (y1 - y0)
    parts = _header(width, height, title)
    parts.append(f'<rect x="{pad}" y="{pad}" width="{width - 2 * pad}" '
                 f'height="{height - 2 * pad}" fill="none" stroke="#888"/>')
    points = " ".join(f"{sx(a):.1f},{sy(b):.1f}" for a, b in zip(xs, ys))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#c23b22" stroke-width="2"/>')
    for a, b in zip(xs, ys):
        parts.append(f'<circle cx="{sx(a):.1f}" cy="{sy(b):.1f}" r="2.5" fill="#c23b22"/>')
    parts.append(f'<text x="{pad}" y="{height - pad + 16}">{x0:.4g}</text>')
    parts.append(f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end">{x1:.4g}</text>')
    parts.append(f'<text x="{pad - 6}" y="{height - pad}" text-anchor="end">{y0:.4g}</text>')
    parts.append(f'<text x="{pad - 6}" y="{pad + 10}" text-anchor="end">{y1:.4g}</text>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle">{_esc(x_label)}</text>')
    parts.append(f'<text x="14" y="{height / 2:.0f}" transform="rotate(-90 14 {height / 2:.0f})" '
                 f'text-anchor="middle">{_esc(y_label)}</text>')
    parts.append("</svg>")
    svg = "\n".join(parts)
    if path is not None:
        Path(path).write_text(svg, encoding="utf-8")
    return svg


def _gradient_color(t: float) -> str:
    """Blue (low) to red (high) two-color gradient, t in [0, 1]."""
    t = min(max(t, 0.0), 1.0)
    r = int(30 + t * (200 - 30))
    g = int(90 - t * 40)
    b = int(200 - t * (200 - 60))
    return f"rgb({r},{g},{b})"


def beeswarm(ranking, phi, feature_values, columns, title: str,
             path: str | Path | None = None, max_features: int = 15) -> str:
    """SHAP summary: one row per feature (rank order), phi on x, point color
    mapped from the feature value's within-column rank."""
    shown = [name for name, _ in ranking[:max_features]]
    phi = np.asarray(phi, dtype=np.float64)
    feature_values = np.asarray(feature_values, dtype=np.float64)
    row_h, left, width = 26, 230, 720
    height = 50 + row_h * max(len(shown), 1)
    span = float(np.abs(phi).max()) or 1.0
    sx = lambda v: left + (width - left - 30) * (0.5 + 0.5 * v / span)
    parts = _header(width, height, title)
    zero_x = sx(0.0)
    parts.append(f'<line x1="{zero_x:.1f}" y1="28" x2="{zero_x:.1f}" '
                 f'y2="{height - 20}" stroke="#999" stroke-dasharray="3,3"/>')
    col_of = {name: i for i, name in enumerate(columns)}
    jitters = [((i * 2654435761) % 97 / 97.0 - 0.5) * (row_h - 8)
               for i in range(len(phi))]
    for r, name in enumerate(shown):
        j = col_of[name]
        y = 40 + r * row_h
        parts.append(f'<text x="{left - 6}" y="{y + 4}" text-anchor="end">{_esc(name[:34])}</text>')
        col = feature_values[:, j].tolist()
        lo, hi = min(col), max(col)
        rng = (hi - lo) or 1.0
        for value, contribution, jitter in zip(col, phi[:, j].tolist(), jitters):
            t = (value - lo) / rng
            parts.append(f'<circle cx="{sx(contribution):.1f}" cy="{y + jitter:.1f}" '
                         f'r="2" fill="{_gradient_color(t)}" fill-opacity="0.65"/>')
    parts.append(f'<text x="{(left + width) / 2:.0f}" y="{height - 6}" '
                 f'text-anchor="middle">contribution to prediction</text>')
    parts.append("</svg>")
    svg = "\n".join(parts)
    if path is not None:
        Path(path).write_text(svg, encoding="utf-8")
    return svg
