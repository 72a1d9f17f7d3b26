"""Shared builders and independent geometric oracles for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from demers.mapdata import AdjacencyGraph, Region

DATA = Path(__file__).parent.parent / "src" / "demers" / "data"


def square_region(rid: str, cx: float, cy: float, side: float) -> Region:
    h = side / 2.0
    ring = [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)]
    return Region(id=rid, polygon=[ring], centroid=(cx, cy))


def square_map(
    squares: dict[str, tuple[float, float, float]],
    edges: set[tuple[str, str]],
) -> AdjacencyGraph:
    """Map whose region polygons are squares: (cx, cy, side) per id."""
    regions = [square_region(rid, *spec) for rid, spec in sorted(squares.items())]
    return AdjacencyGraph(
        regions=regions, edges=frozenset(frozenset(e) for e in edges)
    )


def pair_gap(cs, axis: str, pair: tuple[str, str]) -> float:
    """The gap rule restated: epsilon for a pair of the set that is neither
    secondary nor a map adjacency, else 0."""
    if (axis, *pair) in cs.secondary or cs.is_adjacent(*pair):
        return 0.0
    return cs.epsilon


# ---------------------------------------------------------------------------
# geometric oracles, deliberately written apart from the production code


def rects_overlap(a, b, tol: float = 0.0) -> bool:
    """Open-interior overlap of two (xmin, ymin, xmax, ymax) rectangles."""
    return (
        a[0] < b[2] - tol and b[0] < a[2] - tol
        and a[1] < b[3] - tol and b[1] < a[3] - tol
    )


def overlapping_pairs(layout, tol: float | None = None) -> list[tuple[str, str]]:
    """Pairs overlapping beyond solver round-off (1e-6 of the diagonal)."""
    if tol is None:
        tol = 1e-6 * (layout.diagonal or 1.0)
    ids = sorted(layout.centers)
    out = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            if rects_overlap(layout.rect(a), layout.rect(b), tol):
                out.append((a, b))
    return out


def segment_hits_interior(p, q, rect) -> bool:
    """Axis-parallel segment against the open interior of a rectangle."""
    x0, y0, x1, y1 = rect
    if p[1] == q[1]:
        y = p[1]
        lo, hi = min(p[0], q[0]), max(p[0], q[0])
        return y0 < y < y1 and lo < x1 and hi > x0
    if p[0] == q[0]:
        x = p[0]
        lo, hi = min(p[1], q[1]), max(p[1], q[1])
        return x0 < x < x1 and lo < y1 and hi > y0
    raise AssertionError("oracle only handles axis-parallel segments")


def leader_crossings(leader, layout) -> list[str]:
    bad = []
    for rid in layout.centers:
        rect = layout.rect(rid)
        for p, q in zip(leader.polyline, leader.polyline[1:]):
            if segment_hits_interior(p, q, rect):
                bad.append(rid)
                break
    return bad


def polyline_monotone(points) -> bool:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]

    def mono(vs):
        return all(a <= b for a, b in zip(vs, vs[1:])) or all(
            a >= b for a, b in zip(vs, vs[1:])
        )

    return mono(xs) and mono(ys)


@pytest.fixture(scope="session")
def sample3_paths():
    return DATA / "sample3.geojson", DATA / "sample3_weights.csv"


@pytest.fixture(scope="session")
def luxembourg_paths():
    return DATA / "luxembourg.geojson", DATA / "luxembourg_weights.csv"
