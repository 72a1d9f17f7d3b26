"""The adjacency rule of ``demers.mapdata.load_map`` as a per-pair loop, kept
as a test oracle.

A frozen copy of ``load_map``'s adjacency test from before it became one
array pass: a box test per region pair, then ``shared_boundary_length``,
segment by segment, on each pair whose boxes are near. The property tests
require the production edge set to equal ``adjacency_edges``.
"""

from __future__ import annotations

import math

from demers.mapdata import ADJACENCY_SNAP, Point, Region, Ring


def _segments(rings: list[Ring]) -> list[tuple[Point, Point]]:
    segs = []
    for ring in rings:
        n = len(ring)
        for i in range(n):
            segs.append((ring[i], ring[(i + 1) % n]))
    return segs


def shared_boundary_length(a: list[Ring], b: list[Ring], tol: float) -> float:
    """Total length of collinear overlap between the two polygons' edges.

    Point contact contributes no length; overlaps shorter than ``tol`` are
    treated as snapping noise.
    """
    total = 0.0
    for p0, p1 in _segments(a):
        ux, uy = p1[0] - p0[0], p1[1] - p0[1]
        ulen = math.hypot(ux, uy)
        if ulen <= tol:
            continue
        ux, uy = ux / ulen, uy / ulen
        for q0, q1 in _segments(b):
            # both endpoints of the other edge must lie on the carrier line
            d0 = abs((q0[0] - p0[0]) * uy - (q0[1] - p0[1]) * ux)
            d1 = abs((q1[0] - p0[0]) * uy - (q1[1] - p0[1]) * ux)
            if d0 > tol or d1 > tol:
                continue
            t0 = (q0[0] - p0[0]) * ux + (q0[1] - p0[1]) * uy
            t1 = (q1[0] - p0[0]) * ux + (q1[1] - p0[1]) * uy
            lo, hi = min(t0, t1), max(t0, t1)
            overlap = min(hi, ulen) - max(lo, 0.0)
            if overlap > tol:
                total += overlap
    return total


def _boxes_near(a, b, tol: float) -> bool:
    return not (
        a[2] < b[0] - tol or b[2] < a[0] - tol or a[3] < b[1] - tol or b[3] < a[1] - tol
    )


def adjacency_edges(regions: list[Region]) -> frozenset[frozenset[str]]:
    """The unordered id pairs of regions, in list order, that share a
    boundary segment longer than the snapping tolerance."""
    boxes = {r.id: r.bbox() for r in regions}
    x0, y0, x1, y1 = zip(*boxes.values())
    diag = math.hypot(max(x1) - min(x0), max(y1) - min(y0))
    tol = ADJACENCY_SNAP * diag if diag > 0 else ADJACENCY_SNAP
    edges = set()
    for i, ra in enumerate(regions):
        for rb in regions[i + 1 :]:
            if not _boxes_near(boxes[ra.id], boxes[rb.id], tol):
                continue
            if shared_boundary_length(ra.polygon, rb.polygon, tol) > 0:
                edges.add(frozenset((ra.id, rb.id)))
    return frozenset(edges)
