"""Minimal standalone SVG line chart of a trajectory; no renderer needed."""

from __future__ import annotations

from itertools import chain

WIDTH = 800
HEIGHT = 600
_ML, _MR, _MT, _MB = 60, 24, 44, 52
_SERIES = (("x", "#1f77b4"), ("n", "#2ca02c"), ("y", "#d62728"))


def trajectory_svg(trajectory, title: str) -> str:
    """Render x(t), n(t), y(t) as three polylines in a fixed 800x600 viewport,
    with title centred above the plot."""
    times = trajectory.times
    t0, t1 = times[0], times[-1]
    span = (t1 - t0) or 1.0
    plot_w = WIDTH - _ML - _MR
    plot_h = HEIGHT - _MT - _MB

    def px(t):
        return _ML + (t - t0) / span * plot_w

    def py(v):
        return _MT + (1.0 - v) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_escape(title)}</text>',
        # frame and gridlines
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for k in range(5):
        v = k / 4
        yy = py(v)
        parts.append(
            f'<line x1="{_ML}" y1="{yy:.2f}" x2="{_ML + plot_w}" y2="{yy:.2f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:g}</text>'
        )
    for k in range(6):
        t = t0 + span * k / 5
        xx = px(t)
        parts.append(
            f'<line x1="{xx:.2f}" y1="{_MT + plot_h}" x2="{xx:.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xx:.2f}" y="{_MT + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.0f}" y="{HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">t</text>'
    )

    # One %-format call per series fills "%.2f,%.2f" for every point.
    xs = list(map(px, times))
    template = " ".join(["%.2f,%.2f"] * len(times))
    for name, color in _SERIES:
        points = template % tuple(chain.from_iterable(zip(xs, map(py, getattr(trajectory, name)))))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )

    # legend, top right of the plot area
    lx = _ML + plot_w - 150
    ly = _MT + 12
    parts.append(
        f'<rect x="{lx - 8}" y="{ly - 10}" width="150" height="{18 * len(_SERIES) + 8}" '
        f'fill="white" fill-opacity="0.85" stroke="#999" stroke-width="0.5"/>'
    )
    for idx, (name, color) in enumerate(_SERIES):
        yy = ly + 18 * idx
        parts.append(
            f'<line x1="{lx}" y1="{yy:.2f}" x2="{lx + 24}" y2="{yy:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{yy + 4:.2f}" font-family="sans-serif" '
            f'font-size="12">{name}(t)</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
