"""Minimal deterministic SVG renderer for Pareto fronts.

Consumer-surplus gain on x, retailer-surplus gain on y, one polyline per
family. Infeasible sweep points (targets beyond the family's frontier) are
drawn as hollow circles at the requested target height next to the last
feasible point, marking the feasibility frontier.
"""

from __future__ import annotations

import math

from .pareto import FAMILIES, ParetoFront

WIDTH, HEIGHT = 840, 560
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 180, 30, 60


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * max(1.0, abs(hi)):
        out.append(round(t, 12))
        t += step
    return out


def _marker_points(front: ParetoFront) -> list[tuple[float, float, bool]]:
    """(x, y, feasible) for every sweep point, infeasible ones at target height."""
    feas = front.feasible_points
    out = []
    for p in front.points:
        if p.feasible:
            out.append((p.delta_cs, p.delta_rs, True))
        else:
            # nearest feasible point by F anchors the x position
            if feas:
                anchor = min(feas, key=lambda q: abs(q.F - p.F))
                x = anchor.delta_cs
            else:
                x = 0.0
            out.append((x, p.F - front.baseline_rs, False))
    return out


def render_fronts(fronts: list[ParetoFront], title: str = "Pareto fronts") -> str:
    pts = [xy for f in fronts for xy in _marker_points(f)]
    if not pts:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    else:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs + [0.0]), max(xs + [0.0])
    y_lo, y_hi = min(ys + [0.0]), max(ys + [0.0])
    x_pad = 0.05 * max(x_hi - x_lo, 1e-9)
    y_pad = 0.05 * max(y_hi - y_lo, 1e-9)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{MARGIN_L}" y="20" font-family="sans-serif" font-size="14">'
        f"{title}</text>",
    ]

    axis_style = 'stroke="#333" stroke-width="1"'
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" {axis_style}/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
        f'y2="{MARGIN_T + plot_h}" {axis_style}/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{sx(t):.2f}" y1="{MARGIN_T + plot_h}" x2="{sx(t):.2f}" '
            f'y2="{MARGIN_T + plot_h + 5}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{sx(t):.2f}" y="{MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{sy(t):.2f}" x2="{MARGIN_L}" '
            f'y2="{sy(t):.2f}" {axis_style}/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{sy(t):.2f}" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2:.0f}" y="{HEIGHT - 18}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">consumer surplus gain ($/cycle)</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.0f})">'
        f"retailer surplus gain ($/cycle)</text>"
    )

    legend_y = MARGIN_T + 10
    for front in fronts:
        family = FAMILIES.get(front.family)
        color = family.color if family else "#555555"
        markers = _marker_points(front)
        feas_xy = [(x, y) for x, y, ok in markers if ok]
        if len(feas_xy) >= 2:
            path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in feas_xy)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"/>'
            )
        for x, y, ok in markers:
            if ok:
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
                )
            else:
                parts.append(
                    f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3.5" fill="none" '
                    f'stroke="{color}" stroke-width="1.2"/>'
                )
        lx = MARGIN_L + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 22}" y2="{legend_y}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{legend_y + 4}" font-family="sans-serif" '
            f'font-size="11">{front.family}</text>'
        )
        legend_y += 18

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
