"""SVG output: one rectangle per region square, red polylines for leaders.

Output is deterministic text (fixed number formatting, sorted element
order) so identical inputs produce byte-identical documents. Map y grows
upward while SVG y grows downward, so geometry is flipped at emit time.
"""

from __future__ import annotations

import zlib

from .layout import SquareLayout, validity_violations
from .leaders import Leader

# qualitative 12-color palette, assigned per region id
PALETTE = (
    "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3", "#a6d854", "#ffd92f",
    "#e5c494", "#b3b3b3", "#1b9e77", "#d95f02", "#7570b3", "#e7298a",
)


def region_color(rid: str) -> str:
    return PALETTE[zlib.crc32(rid.encode()) % len(PALETTE)]


def _fmt(x: float) -> str:
    # fixed 6-decimal formatting keeps documents byte-stable
    s = f"{x:.6f}".rstrip("0").rstrip(".")
    return "0" if s in ("-0", "") else s


def render_svg(
    layout: SquareLayout,
    leaders: list[Leader] | None = None,
    *,
    labels: bool = False,
) -> str:
    """One SVG document for a layout plus its leaders, with region labels if asked."""
    leaders = leaders or []
    x0, y0, x1, y1 = layout.bbox()
    for leader in leaders:
        for px, py in leader.polyline:
            x0, y0 = min(x0, px), min(y0, py)
            x1, y1 = max(x1, px), max(y1, py)
    diag = layout.reference_diagonal()
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9)  # margin around the drawing
    width = (x1 - x0) + 2 * pad
    height = (y1 - y0) + 2 * pad

    def sx(x: float) -> float:
        return x - x0 + pad

    def sy(y: float) -> float:
        return (y1 - y) + pad  # flip: map y up, svg y down

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        '<g stroke="#333333" stroke-width="%s" fill-opacity="0.85">' % _fmt(diag * 0.001),
    ]
    for rid in layout.region_ids():
        cx, cy = layout.centers[rid]
        s = layout.sides[rid]
        out.append(
            f'<rect x="{_fmt(sx(cx - s / 2))}" y="{_fmt(sy(cy + s / 2))}" '
            f'width="{_fmt(s)}" height="{_fmt(s)}" fill="{region_color(rid)}">'
            f"<title>{rid}</title></rect>"
        )
    out.append("</g>")
    if leaders:
        # red leaders, 0.4% of the layout diagonal wide
        out.append(f'<g stroke="#d62728" fill="none" stroke-width="{_fmt(0.004 * diag)}">')
        for leader in leaders:
            pts = " ".join(
                f"{_fmt(sx(px))},{_fmt(sy(py))}" for px, py in leader.polyline
            )
            out.append(f'<polyline points="{pts}"/>')
        out.append("</g>")
    if labels:
        font = diag * 0.02
        out.append(f'<g font-family="sans-serif" font-size="{_fmt(font)}" text-anchor="middle">')
        for rid in layout.region_ids():
            cx, cy = layout.centers[rid]
            out.append(
                f'<text x="{_fmt(sx(cx))}" y="{_fmt(sy(cy))}">{rid}</text>'
            )
        out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_frames(
    a: SquareLayout,
    b: SquareLayout,
    n: int,
    *,
    labels: bool = False,
) -> list[str]:
    """SVG frames interpolating between two layouts; each frame is validated."""
    from .layout import interpolate

    if n < 2:
        raise ValueError("need at least two frames")
    frames = []
    for i in range(n):
        t = i / (n - 1)
        lay = interpolate(a, b, t)
        bad = validity_violations(lay)
        if bad:
            raise ValueError(f"frame {i} invalid: {bad[0]}")
        frames.append(render_svg(lay, labels=labels))
    return frames
