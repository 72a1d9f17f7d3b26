"""Map ingestion: regions, adjacencies, weight tables and square side lengths.

Reads a GeoJSON FeatureCollection into an adjacency graph (regions touch when
their polygons share a boundary segment of positive length), reads weight CSV
tables, and scales weights into square side lengths so that the largest value
maps to a quarter of the map's bounding-box diagonal.

``AdjacencyGraph`` caches read-only views in sorted-id row order (``sorted_ids``,
``position``, ``centroid_array``, ``adjacency_mask`` and the all-pairs
``pair_table``); separation constraints, LP model and force layout read them.
It also sorts ``edge_list`` and scans the polygons for ``bbox`` (and
``diagonal``) once per map.

``load_map`` finds the adjacencies in one array pass (``_adjacent_pairs``):
a box test over all region pairs, then the collinear-overlap test over the
edge pairs of the pairs whose boxes are near. On jittered grids the whole
``load_map`` took 2.8 and 17 ms at 100 and 400 regions, against 6.4 and
35 ms with the per-pair loop it replaced (best of 7, one core of a shared
2-vCPU host); the rest is JSON parsing and the per-ring centroids. On maps
of 3 to 9 regions it is no faster: run right after a solve, as in a
pipeline run, its hundred-odd numpy calls cost about 0.2 ms more than the
loop did.
"""

from __future__ import annotations

import csv
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from pathlib import Path

import numpy as np

Point = tuple[float, float]
Ring = list[Point]

# Snapping tolerance for shared-boundary detection, relative to the map diagonal.
ADJACENCY_SNAP = 1e-9
# Edge pairs the adjacency test takes at a time, which bounds its memory on
# maps of many-vertex polygons.
EDGE_PAIR_CHUNK = 1 << 18


class MapDataError(ValueError):
    """Raised for malformed map or weight inputs."""


class WeightKind(Enum):
    TIME_SERIES = "time_series"
    WEIGHT_VECTORS = "weight_vectors"


@dataclass(frozen=True)
class Region:
    """A map region: polygon rings and centroid.

    The centroid is the point displacement objectives and metrics measure
    against.
    """

    id: str
    polygon: list[Ring]
    centroid: Point

    def bbox(self) -> tuple[float, float, float, float]:
        xs = [p[0] for ring in self.polygon for p in ring]
        ys = [p[1] for ring in self.polygon for p in ring]
        return min(xs), min(ys), max(xs), max(ys)


# Row pairs ia < ib in ``np.triu_indices`` order, the centroid offsets of ib
# from ia, and ``horiz``: H is primary when |dx| >= |dy|, ties and coincident
# centroids included. Building the table never raises.
PairTable = namedtuple("PairTable", "ia ib dx dy horiz")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AdjacencyGraph:
    """Regions plus the set of unordered adjacent region-id pairs."""

    regions: list[Region]
    edges: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        ids = [r.id for r in self.regions]
        if len(set(ids)) != len(ids):
            raise MapDataError("duplicate region id")
        known = set(ids)
        for e in self.edges:
            if len(e) != 2:
                raise MapDataError(f"bad edge {set(e)}: self-loop or arity")
            if not e <= known:
                raise MapDataError(f"edge references unknown id: {set(e)}")

    @property
    def region_ids(self) -> list[str]:
        return [r.id for r in self.regions]

    @cached_property
    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.region_ids))

    @cached_property
    def position(self) -> dict[str, int]:
        return {rid: i for i, rid in enumerate(self.sorted_ids)}

    @cached_property
    def centroid_array(self) -> np.ndarray:
        cen = {r.id: r.centroid for r in self.regions}
        return _read_only(np.array([cen[r] for r in self.sorted_ids]).reshape(-1, 2))

    @cached_property
    def adjacency_mask(self) -> np.ndarray:
        adj = np.zeros((len(self.regions),) * 2, dtype=bool)
        rows = [[self.position[r] for r in e] for e in self.edges]
        i, j = np.array(rows, dtype=np.int64).reshape(-1, 2).T
        adj[i, j] = adj[j, i] = True
        return _read_only(adj)

    @cached_property
    def pair_table(self) -> PairTable:
        ia, ib = np.triu_indices(len(self.regions), 1)
        cen = self.centroid_array
        dx = cen[ib, 0] - cen[ia, 0]
        dy = cen[ib, 1] - cen[ia, 1]
        horiz = np.abs(dx) >= np.abs(dy)
        return PairTable(*(_read_only(a) for a in (ia, ib, dx, dy, horiz)))

    @cached_property
    def _edge_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(tuple(sorted(e)) for e in self.edges))

    @cached_property
    def _bbox(self) -> tuple[float, float, float, float]:
        return _bbox_of([r.bbox() for r in self.regions])

    def edge_list(self) -> list[tuple[str, str]]:
        """Edges as sorted ordered pairs, in deterministic order."""
        return list(self._edge_pairs)

    def bbox(self) -> tuple[float, float, float, float]:
        return self._bbox

    def diagonal(self) -> float:
        x0, y0, x1, y1 = self._bbox
        return math.hypot(x1 - x0, y1 - y0)


@dataclass(frozen=True)
class WeightSet:
    """Ordered weight functions, each assigning a positive value per region."""

    functions: list[tuple[str, dict[str, float]]]
    kind: WeightKind

    @property
    def k(self) -> int:
        return len(self.functions)


@dataclass(frozen=True)
class SideLengthTable:
    """Square side length per (function index, region id), in map units."""

    sides: dict[tuple[int, str], float]
    diagonal: float

    @property
    def k(self) -> int:
        return 1 + max(i for i, _ in self.sides)

    def side(self, i: int, rid: str) -> float:
        return self.sides[(i, rid)]

    def function_sides(self, i: int) -> dict[str, float]:
        return {rid: s for (j, rid), s in self.sides.items() if j == i}

    def min_side(self) -> float:
        return min(self.sides.values())


# ---------------------------------------------------------------------------
# polygon geometry


def ring_area(ring: Ring) -> float:
    """Signed shoelace area (positive for counterclockwise rings)."""
    n = len(ring)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        acc += x0 * y1 - x1 * y0
    return acc / 2.0


def ring_centroid(ring: Ring) -> tuple[Point, float]:
    """Area centroid of a ring and its absolute area."""
    a = ring_area(ring)
    if a == 0.0:
        raise MapDataError("degenerate polygon (zero area)")
    cx = cy = 0.0
    n = len(ring)
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        cross = x0 * y1 - x1 * y0
        cx += (x0 + x1) * cross
        cy += (y0 + y1) * cross
    return (cx / (6.0 * a), cy / (6.0 * a)), abs(a)


def polygon_centroid(rings: list[Ring]) -> tuple[Point, float]:
    """Centroid of a polygon with holes: first ring exterior, rest holes."""
    (cx, cy), outer = ring_centroid(rings[0])
    if len(rings) == 1:
        return (cx, cy), outer
    num_x, num_y, denom = cx * outer, cy * outer, outer
    for hole in rings[1:]:
        (hx, hy), ha = ring_centroid(hole)
        num_x -= hx * ha
        num_y -= hy * ha
        denom -= ha
    if denom <= 0:
        raise MapDataError("degenerate polygon (holes cover exterior)")
    return (num_x / denom, num_y / denom), denom


def _close_ring(ring: Ring) -> Ring:
    if len(ring) > 1 and ring[0] == ring[-1]:
        return ring[:-1]
    return ring


def _edge_table(regions: list[Region]) -> tuple[np.ndarray, np.ndarray]:
    """Every ring edge of the regions, region by region, each ring's edges
    in ring order with the last one closing it, as rows x0, y0, x1, y1 and
    the length ``math.hypot`` gives; and each region's first row, n + 1
    entries."""
    rows = [(p[0], p[1], q[0], q[1], math.hypot(q[0] - p[0], q[1] - p[1]))
            for r in regions for ring in r.polygon
            for p, q in zip(ring, ring[1:] + ring[:1])]
    first = list(accumulate((sum(map(len, r.polygon)) for r in regions), initial=0))
    return np.array(rows, dtype=float), np.array(first)


def _adjacent_pairs(edges: np.ndarray, first: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                    tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The list indices i < j of the regions whose edges overlap, as two arrays.

    ``edges`` and ``first`` are ``_edge_table``'s, and ``lo`` and ``hi`` the
    regions' bounding boxes, (x0, y0) and (x1, y1) per row. Regions i < j
    touch when their boxes lie within ``tol`` of each other and some edge q
    of j lies on the carrier line of some edge p of i, both of q's ends
    within ``tol`` of that line, overlapping p by more than ``tol`` along it.
    Point contact gives no overlap, and shorter overlaps are snapping noise;
    an edge p no longer than ``tol`` has no such overlap. One array pass over
    the box pairs, then over the edge pairs of the boxes that are near.
    Every quantity is the same sequence of float operations per edge pair
    as in a loop over them, with each edge's length from ``math.hypot``, so
    each tolerance test decides alike.
    """
    # [i, j]: box i ends left of or below box j, beyond tol
    apart = (hi[:, None] < lo - tol).any(axis=2)
    ia, ib = (~(apart | apart.T)).nonzero()
    up = ia < ib
    ia, ib = ia[up], ib[up]
    x0, y0, x1, y1, length = edges.T
    # a zero-length p gets a zero direction instead of 0/0; it overlaps nothing
    nonzero = length + (length == 0)
    ex, ey = (x1 - x0) / nonzero, (y1 - y0) / nonzero
    # the edge pairs of region pair r are its p's (from p0[r]) by its q's
    # (from q0[r]), numbered from end[r] - count[r]; they are taken
    # EDGE_PAIR_CHUNK at a time
    p0, q0 = first[ia], first[ib]
    n_q = first[ib + 1] - q0
    count = (first[ia + 1] - p0) * n_q
    end = count.cumsum()
    total = int(end[-1]) if end.size else 0
    hits = np.zeros(ia.size, dtype=np.int64)
    for start in range(0, total, EDGE_PAIR_CHUNK):
        k = np.arange(start, min(start + EDGE_PAIR_CHUNK, total))
        r = end.searchsorted(k, side="right")
        k -= end[r] - count[r]
        p, q = np.divmod(k, n_q[r])
        p += p0[r]
        q += q0[r]
        px, py, ux, uy = x0[p], y0[p], ex[p], ey[p]
        # both ends of q within tol of p's carrier line
        ax, ay, bx, by = x0[q] - px, y0[q] - py, x1[q] - px, y1[q] - py
        off = (abs(ax * uy - ay * ux) > tol) | (abs(bx * uy - by * ux) > tol)
        t0, t1 = ax * ux + ay * uy, bx * ux + by * uy
        overlap = (np.minimum(np.maximum(t0, t1), length[p])
                   - np.maximum(np.minimum(t0, t1), 0.0))
        hits += np.bincount(r[~off & (overlap > tol)], minlength=ia.size)
    touch = hits > 0
    return ia[touch], ib[touch]


# ---------------------------------------------------------------------------
# operations


def load_map(geojson_path: str | Path) -> AdjacencyGraph:
    """Read a GeoJSON FeatureCollection into regions plus derived adjacencies.

    Each Polygon/MultiPolygon feature needs a unique string id (feature ``id``
    or an ``id`` property). Adjacent means the polygons share a boundary
    segment of positive length; touching at a point does not count.
    """
    path = Path(geojson_path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise MapDataError(f"cannot parse GeoJSON {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise MapDataError("expected a GeoJSON FeatureCollection")

    regions: list[Region] = []
    seen: set[str] = set()
    for feat in doc.get("features", []):
        if not isinstance(feat, dict):
            raise MapDataError("feature is not a JSON object")
        rid = feat.get("id")
        if rid is None and isinstance(feat.get("properties"), dict):
            rid = feat["properties"].get("id")
        if rid is None:
            raise MapDataError("feature without id")
        rid = str(rid)
        if rid in seen:
            raise MapDataError(f"duplicate region id {rid!r}")
        seen.add(rid)
        part_rings = _polygon_parts(rid, feat.get("geometry"))
        # centroid of the (first) largest part stands in for multi-part regions
        centroid, _ = max(map(polygon_centroid, part_rings), key=lambda ca: ca[1])
        all_rings = [ring for part in part_rings for ring in part]
        regions.append(Region(id=rid, polygon=all_rings, centroid=centroid))

    if not regions:
        raise MapDataError("empty FeatureCollection")

    edges, first = _edge_table(regions)
    # every ring point starts one edge: the regions' bounding boxes
    lo = np.minimum.reduceat(edges[:, :2], first[:-1])
    hi = np.maximum.reduceat(edges[:, :2], first[:-1])
    (x0, y0), (x1, y1) = lo.min(axis=0).tolist(), hi.max(axis=0).tolist()
    diag = math.hypot(x1 - x0, y1 - y0)
    tol = ADJACENCY_SNAP * diag if diag > 0 else ADJACENCY_SNAP
    ia, ib = _adjacent_pairs(edges, first, lo, hi, tol)
    ids = [r.id for r in regions]
    return AdjacencyGraph(regions=regions, edges=frozenset(
        frozenset((ids[i], ids[j])) for i, j in zip(ia.tolist(), ib.tolist())))


def _polygon_parts(rid: str, geom) -> list[list[Ring]]:
    """The rings of each part of a Polygon or MultiPolygon geometry."""
    gtype = geom.get("type") if isinstance(geom, dict) else None
    if gtype == "Polygon":
        parts = [geom.get("coordinates")]
    elif gtype == "MultiPolygon":
        parts = geom.get("coordinates")
    else:
        raise MapDataError(f"feature {rid!r}: unsupported geometry {gtype!r}")
    try:
        part_rings = [
            [[_to_point(pt) for pt in _close_ring(ring)] for ring in part]
            for part in parts
        ]
    except (TypeError, ValueError, IndexError, KeyError) as exc:
        raise MapDataError(f"feature {rid!r}: malformed coordinates ({exc})") from exc
    if not part_rings or not all(part_rings):
        raise MapDataError(f"feature {rid!r}: polygon without rings")
    return part_rings


def _to_point(pt) -> Point:
    return (float(pt[0]), float(pt[1]))


def _bbox_of(boxes) -> tuple[float, float, float, float]:
    x0, y0, x1, y1 = zip(*boxes)
    return min(x0), min(y0), max(x1), max(y1)


def load_weights(
    csv_path: str | Path, map: AdjacencyGraph, kind: WeightKind
) -> WeightSet:
    """Read a ``region_id, function_name, value`` CSV into a WeightSet.

    Functions are ordered by first appearance; every region must be covered
    by every function and all values must be strictly positive.
    """
    path = Path(csv_path)
    known = set(map.region_ids)
    order: list[str] = []
    values: dict[str, dict[str, float]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"region_id", "function_name", "value"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise MapDataError(f"weights CSV needs columns {sorted(required)}")
        for row in reader:
            if any(row[key] is None for key in required):
                raise MapDataError(f"weights CSV line {reader.line_num} is short")
            rid = row["region_id"].strip()
            fname = row["function_name"].strip()
            if rid not in known:
                raise MapDataError(f"unknown region id {rid!r}")
            try:
                val = float(row["value"])
            except ValueError as exc:
                raise MapDataError(f"bad value {row['value']!r} for {rid!r}") from exc
            if not val > 0 or not math.isfinite(val):
                raise MapDataError(f"nonpositive value for ({rid!r}, {fname!r})")
            if fname not in values:
                order.append(fname)
                values[fname] = {}
            values[fname][rid] = val
    if not order:
        raise MapDataError("weights CSV has no rows")
    for fname in order:
        missing = known - set(values[fname])
        if missing:
            raise MapDataError(
                f"function {fname!r} missing values for {sorted(missing)}"
            )
    return WeightSet(functions=[(f, values[f]) for f in order], kind=kind)


def scale_weights(
    weights: WeightSet, map: AdjacencyGraph, area_proportional: bool = False
) -> SideLengthTable:
    """Scale weight values into side lengths with the largest mapped to D/4.

    Time series share one global factor across all functions; weight vectors
    are scaled per function. With ``area_proportional`` the value drives the
    square's area instead of its side (side = sqrt of value, then scaled).
    """
    diag = map.diagonal()
    if diag <= 0:
        raise MapDataError("map bounding box has zero diagonal")
    target = diag / 4.0

    def raw(v: float) -> float:
        return math.sqrt(v) if area_proportional else v

    sides: dict[tuple[int, str], float] = {}
    if weights.kind is WeightKind.TIME_SERIES:
        peak = max(raw(v) for _, vals in weights.functions for v in vals.values())
        factor = target / peak
        for i, (_, vals) in enumerate(weights.functions):
            for rid, v in vals.items():
                sides[(i, rid)] = raw(v) * factor
    else:
        for i, (_, vals) in enumerate(weights.functions):
            peak = max(raw(v) for v in vals.values())
            factor = target / peak
            for rid, v in vals.items():
                sides[(i, rid)] = raw(v) * factor
    return SideLengthTable(sides=sides, diagonal=diag)


def compute_epsilon(table: SideLengthTable, map: AdjacencyGraph) -> float:
    """Minimum visual gap: smallest square side, capped at 5% of the diagonal."""
    return min(table.min_side(), 0.05 * map.diagonal())
