"""Minimal hand-written SVG line plots.

No plotting dependency: experiment figures are static polyline displays, so a
few hundred lines of deterministic string building suffice.  Rendering is a
pure function of the numeric series, which keeps emitted files byte-stable.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 40, 56

PALETTE = [
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / count
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    ticks = [10.0**e for e in range(lo_e, hi_e + 1)]
    return [t for t in ticks if lo / 1.0001 <= t <= hi * 1.0001]


def _tick_label(v: float, log: bool) -> str:
    if log:
        e = round(math.log10(v))
        if abs(v - 10.0**e) < 1e-9 * v:
            return f"1e{e}" if e not in (0, 1) else ("1" if e == 0 else "10")
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(
    series: list[dict],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render labeled (x, y) polylines to an SVG document string.

    Each series is a dict with keys ``label``, ``x``, ``y`` and optionally
    ``marker`` (draw circles at the points).  Non-finite points, and
    nonpositive points on log axes, are dropped.
    """
    cleaned = []
    for s in series:
        xs, ys = [], []
        for x, y in zip(s["x"], s["y"]):
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            if (logx and x <= 0) or (logy and y <= 0):
                continue
            xs.append(float(x))
            ys.append(float(y))
        cleaned.append({"label": s.get("label", ""), "x": xs, "y": ys, "marker": s.get("marker", False)})

    all_x = [x for s in cleaned for x in s["x"]]
    all_y = [y for s in cleaned for y in s["y"]]
    if not all_x:
        all_x, all_y = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + (abs(x_lo) or 1.0) * 0.5
        x_lo = x_lo - (abs(x_lo) or 1.0) * 0.5 if not logx else x_lo / 2
    if y_hi == y_lo:
        y_hi = y_lo + (abs(y_lo) or 1.0) * 0.5
        y_lo = y_lo - (abs(y_lo) or 1.0) * 0.5 if not logy else y_lo / 2
    if not logy:
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    # Axis ends in plot coordinates, computed once per plot.
    xa, xb = (math.log10(x_lo), math.log10(x_hi)) if logx else (x_lo, x_hi)
    ya, yb = (math.log10(y_lo), math.log10(y_hi)) if logy else (y_lo, y_hi)

    def tx(v: float) -> float:
        u = (math.log10(v) if logx else v)
        return MARGIN_L + (u - xa) / (xb - xa) * (WIDTH - MARGIN_L - MARGIN_R)

    def ty(v: float) -> float:
        u = (math.log10(v) if logy else v)
        return HEIGHT - MARGIN_B - (u - ya) / (yb - ya) * (HEIGHT - MARGIN_T - MARGIN_B)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="monospace" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # Frame
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    x1, y1 = WIDTH - MARGIN_R, MARGIN_T
    out.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" fill="none" stroke="#333"/>'
    )
    # Ticks and grid
    xticks = _log_ticks(x_lo, x_hi) if logx else _nice_ticks(x_lo, x_hi)
    yticks = _log_ticks(y_lo, y_hi) if logy else _nice_ticks(y_lo, y_hi)
    for t in xticks:
        px = tx(t)
        out.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y0 + 5}" stroke="#333"/>')
        out.append(f'<line x1="{_fmt(px)}" y1="{y0}" x2="{_fmt(px)}" y2="{y1}" stroke="#eee"/>')
        out.append(
            f'<text x="{_fmt(px)}" y="{y0 + 18}" text-anchor="middle">{_tick_label(t, logx)}</text>'
        )
    for t in yticks:
        py = ty(t)
        out.append(f'<line x1="{x0 - 5}" y1="{_fmt(py)}" x2="{x0}" y2="{_fmt(py)}" stroke="#333"/>')
        out.append(f'<line x1="{x0}" y1="{_fmt(py)}" x2="{x1}" y2="{_fmt(py)}" stroke="#eee"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{_fmt(py + 4)}" text-anchor="end">{_tick_label(t, logy)}</text>'
        )
    # Axis labels and title
    if xlabel:
        out.append(
            f'<text x="{(x0 + x1) // 2}" y="{HEIGHT - 14}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        out.append(
            f'<text x="18" y="{(y0 + y1) // 2}" text-anchor="middle" '
            f'transform="rotate(-90 18 {(y0 + y1) // 2})">{ylabel}</text>'
        )
    if title:
        out.append(
            f'<text x="{(x0 + x1) // 2}" y="24" text-anchor="middle" font-size="14">{title}</text>'
        )
    # Series
    for idx, s in enumerate(cleaned):
        color = PALETTE[idx % len(PALETTE)]
        pts = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in zip(s["x"], s["y"]))
        if len(s["x"]) > 1:
            out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if s["marker"] or len(s["x"]) == 1:
            for x, y in zip(s["x"], s["y"]):
                out.append(
                    f'<circle cx="{_fmt(tx(x))}" cy="{_fmt(ty(y))}" r="3" fill="{color}"/>'
                )
    # Legend
    labeled = [s for s in cleaned if s["label"]]
    if labeled:
        lx, ly = x1 - 190, y1 + 12
        out.append(
            f'<rect x="{lx - 8}" y="{ly - 12}" width="190" height="{16 * len(labeled) + 8}" '
            f'fill="white" stroke="#999"/>'
        )
        for idx, s in enumerate(cleaned):
            if not s["label"]:
                continue
            pos = sum(1 for q in cleaned[:idx] if q["label"])
            color = PALETTE[idx % len(PALETTE)]
            out.append(
                f'<line x1="{lx}" y1="{ly + 16 * pos}" x2="{lx + 22}" y2="{ly + 16 * pos}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(f'<text x="{lx + 28}" y="{ly + 16 * pos + 4}">{s["label"]}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
