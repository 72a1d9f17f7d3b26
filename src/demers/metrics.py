"""Cartogram quality metrics and inter-layout stability metrics, all in [0,1].

Quality: lost adjacencies (madj), relative-position change against the map
(mrel), and origin displacement (mdis). Stability: rectangle distance (sdis)
and relative-position change (srel) between two layouts. Relative position
uses eight-zone vectors: the fractions of one rectangle's area falling into
the zones induced by extending the other rectangle's sides.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .layout import SquareLayout
from .leaders import lost_adjacencies
from .mapdata import AdjacencyGraph

Rect = tuple[float, float, float, float]

ZONES = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")


def _clamp01(value: float, what: str) -> float:
    if value < -1e-9 or value > 1.0 + 1e-9:
        warnings.warn(f"{what} = {value:.6g} outside [0,1]; clamped", stacklevel=3)
    return min(1.0, max(0.0, value))


def _avg(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def zone_vector(reference: Rect, other: Rect) -> tuple[float, ...]:
    """Fractions of ``other`` in the eight zones around ``reference``.

    The center cell (overlap with the reference's own slab intersection) is
    excluded and the rest rescaled to sum to one; a rectangle entirely inside
    the center cell gets the uniform vector.
    """
    rx0, ry0, rx1, ry1 = reference
    ox0, oy0, ox1, oy1 = other
    area = (ox1 - ox0) * (oy1 - oy0)
    if area <= 0 or (rx1 - rx0) <= 0 or (ry1 - ry0) <= 0:
        raise ValueError("zone vectors need rectangles of positive area")

    def seg(lo: float, hi: float, a: float, b: float) -> float:
        return max(0.0, min(hi, b) - max(lo, a))

    x_left = seg(ox0, ox1, -float("inf"), rx0)
    x_mid = seg(ox0, ox1, rx0, rx1)
    x_right = seg(ox0, ox1, rx1, float("inf"))
    y_bot = seg(oy0, oy1, -float("inf"), ry0)
    y_mid = seg(oy0, oy1, ry0, ry1)
    y_top = seg(oy0, oy1, ry1, float("inf"))

    raw = {
        "N": x_mid * y_top,
        "NE": x_right * y_top,
        "E": x_right * y_mid,
        "SE": x_right * y_bot,
        "S": x_mid * y_bot,
        "SW": x_left * y_bot,
        "W": x_left * y_mid,
        "NW": x_left * y_top,
    }
    center = x_mid * y_mid
    outside = area - center
    if outside <= 1e-12 * area:
        return tuple(1.0 / 8.0 for _ in ZONES)
    return tuple(raw[z] / outside for z in ZONES)


def _zone_tensor(rects: np.ndarray) -> np.ndarray:
    """(n, n, 8) zone vectors: entry [i, j] is ``zone_vector(rects[i], rects[j])``.

    The same arithmetic as ``zone_vector``, broadcast over all pairs.
    """
    if np.any(rects[:, 2] - rects[:, 0] <= 0) or np.any(rects[:, 3] - rects[:, 1] <= 0):
        raise ValueError("zone vectors need rectangles of positive area")
    rx0, ry0, rx1, ry1 = (rects[:, None, k] for k in range(4))  # reference: rows
    ox0, oy0, ox1, oy1 = (rects[None, :, k] for k in range(4))  # other: columns
    area = (ox1 - ox0) * (oy1 - oy0)
    x_left = np.maximum(0.0, np.minimum(ox1, rx0) - ox0)
    x_mid = np.maximum(0.0, np.minimum(ox1, rx1) - np.maximum(ox0, rx0))
    x_right = np.maximum(0.0, ox1 - np.maximum(ox0, rx1))
    y_bot = np.maximum(0.0, np.minimum(oy1, ry0) - oy0)
    y_mid = np.maximum(0.0, np.minimum(oy1, ry1) - np.maximum(oy0, ry0))
    y_top = np.maximum(0.0, oy1 - np.maximum(oy0, ry1))
    raw = np.stack([
        x_mid * y_top, x_right * y_top, x_right * y_mid, x_right * y_bot,
        x_mid * y_bot, x_left * y_bot, x_left * y_mid, x_left * y_top,
    ], axis=-1)  # in ZONES order
    outside = area - x_mid * y_mid
    inside = outside <= 1e-12 * area
    with np.errstate(divide="ignore", invalid="ignore"):
        zones = raw / outside[..., None]
    zones[inside] = 1.0 / 8.0
    return zones


def _pairwise_zone_change(
    rects_a: dict[str, Rect], rects_b: dict[str, Rect]
) -> float:
    """Mean zone-vector change over all ordered region pairs."""
    ids = sorted(rects_a)
    n = len(ids)
    if n < 2:
        return 0.0
    diff = np.abs(
        _zone_tensor(np.array([rects_a[r] for r in ids], dtype=float))
        - _zone_tensor(np.array([rects_b[r] for r in ids], dtype=float))
    )
    # zones summed left to right and pairs in (r, s) order, as a scalar loop
    # over the pairs would
    change = diff[..., 0]
    for z in range(1, len(ZONES)):
        change = change + diff[..., z]
    change = 0.5 * change[~np.eye(n, dtype=bool)]
    return float(np.cumsum(change)[-1]) / change.size


def _map_rects(map: AdjacencyGraph) -> dict[str, Rect]:
    return {r.id: r.bbox() for r in map.regions}


def _layout_rects(layout: SquareLayout) -> dict[str, Rect]:
    return {r: layout.rect(r) for r in layout.centers}


# ---------------------------------------------------------------------------
# quality metrics


def madj(layouts: list[SquareLayout], map: AdjacencyGraph) -> float:
    """Lost adjacencies across all layouts, normalized by k * |T|."""
    edges = map.edge_list()
    if not edges or not layouts:
        return 0.0
    lost = sum(len(lost_adjacencies(lay, map)) for lay in layouts)
    return _clamp01(lost / (len(layouts) * len(edges)), "madj")


def mrel(layouts: list[SquareLayout], map: AdjacencyGraph) -> float:
    return _avg(mrel_per_layout(layouts, map))


def mrel_per_layout(
    layouts: list[SquareLayout], map: AdjacencyGraph
) -> list[float]:
    base = _map_rects(map)
    return [
        _clamp01(_pairwise_zone_change(base, _layout_rects(lay)), "mrel")
        for lay in layouts
    ]


def mdis(layouts: list[SquareLayout], map: AdjacencyGraph) -> float:
    return _avg(mdis_per_layout(layouts, map))


def mdis_per_layout(
    layouts: list[SquareLayout], map: AdjacencyGraph
) -> list[float]:
    x0, y0, x1, y1 = map.bbox()
    norm = (x1 - x0) + (y1 - y0)
    origins = {r.id: r.centroid for r in map.regions}
    out = []
    for lay in layouts:
        total = 0.0
        for rid, (cx, cy) in lay.centers.items():
            ox, oy = origins[rid]
            total += abs(cx - ox) + abs(cy - oy)
        out.append(_clamp01(total / (len(lay.centers) * norm), "mdis"))
    return out


# ---------------------------------------------------------------------------
# stability metrics


def srel(a: SquareLayout, b: SquareLayout) -> float:
    """Relative-position change between two layouts (not symmetric)."""
    if set(a.centers) != set(b.centers):
        raise ValueError("layouts cover different region sets")
    return _clamp01(
        _pairwise_zone_change(_layout_rects(a), _layout_rects(b)), "srel"
    )


def sdis(a: SquareLayout, b: SquareLayout) -> float:
    """Mean rectangle distance between two layouts.

    Per region the distance is Euclidean over the (cx, cy, width, height)
    tuple, normalized by the larger layout's bounding-box half-perimeter.
    """
    if set(a.centers) != set(b.centers):
        raise ValueError("layouts cover different region sets")

    def halfperim(lay: SquareLayout) -> float:
        x0, y0, x1, y1 = lay.bbox()
        return (x1 - x0) + (y1 - y0)

    norm = max(halfperim(a), halfperim(b))
    if norm <= 0:
        return 0.0
    total = 0.0
    for rid in a.centers:
        dcx = a.centers[rid][0] - b.centers[rid][0]
        dcy = a.centers[rid][1] - b.centers[rid][1]
        ds = a.sides[rid] - b.sides[rid]
        total += (dcx * dcx + dcy * dcy + 2.0 * ds * ds) ** 0.5
    return _clamp01(total / (len(a.centers) * norm), "sdis")


# ---------------------------------------------------------------------------
# report


@dataclass
class MetricsReport:
    madj_per_layout: list[float]
    mrel_per_layout: list[float]
    mdis_per_layout: list[float]
    lost_counts: list[int]
    sdis_per_pair: list[float] = field(default_factory=list)
    srel_per_pair: list[float] = field(default_factory=list)

    @property
    def madj(self) -> float:
        return _avg(self.madj_per_layout)

    @property
    def mrel(self) -> float:
        return _avg(self.mrel_per_layout)

    @property
    def mdis(self) -> float:
        return _avg(self.mdis_per_layout)

    @property
    def sdis(self) -> float:
        return _avg(self.sdis_per_pair)

    @property
    def srel(self) -> float:
        return _avg(self.srel_per_pair)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "madj": self.madj,
            "mrel": self.mrel,
            "mdis": self.mdis,
            "sdis": self.sdis,
            "srel": self.srel,
            "madj_per_layout": self.madj_per_layout,
            "mrel_per_layout": self.mrel_per_layout,
            "mdis_per_layout": self.mdis_per_layout,
            "sdis_per_pair": self.sdis_per_pair,
            "srel_per_pair": self.srel_per_pair,
            "lost_counts": self.lost_counts,
        }


def evaluate(layouts: list[SquareLayout], map: AdjacencyGraph) -> MetricsReport:
    """All five metrics over a layout sequence.

    Stability pairs are the successive layouts in sequence order, matching
    how time-series cartograms are viewed.
    """
    edges = map.edge_list()
    k = len(layouts)
    lost = [len(lost_adjacencies(lay, map)) for lay in layouts]
    madj_vals = [
        _clamp01(n / len(edges), "madj") if edges else 0.0 for n in lost
    ]
    report = MetricsReport(
        madj_per_layout=madj_vals,
        mrel_per_layout=mrel_per_layout(layouts, map),
        mdis_per_layout=mdis_per_layout(layouts, map),
        lost_counts=lost,
    )
    for i in range(k - 1):
        report.sdis_per_pair.append(sdis(layouts[i], layouts[i + 1]))
        report.srel_per_pair.append(srel(layouts[i], layouts[i + 1]))
    return report
