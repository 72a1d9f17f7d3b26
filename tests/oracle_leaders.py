"""The leader router without any per-layout index, kept as a test oracle.

A frozen copy of ``demers.leaders.all_leaders`` and the minimal
construction it calls, in which every leader rebuilds the rectangle table
of its frame and scans a whole axis set for minimality. The property tests
compare the production router with it leader for leader and reason for
reason. Its contact checks (``_straight``, ``_staircase``,
``_corridor_blockers``, ``_straight_fallback``) follow the production rule:
edges within ``LOST_TOL`` of the reference diagonal count as touching.
"""

from __future__ import annotations

from dataclasses import dataclass

from demers.layout import SquareLayout, l1_gap
from demers.leaders import (
    LOST_TOL,
    Leader,
    LeaderError,
    NotMinimalError,
    RoutingReport,
    lost_adjacencies,
)
from demers.mapdata import AdjacencyGraph
from demers.sepconstraints import SeparationConstraintSet

Point = tuple[float, float]
Rect = tuple[float, float, float, float]


@dataclass(frozen=True)
class _Frame:
    transpose: bool
    flip_y: bool

    def fwd(self, p: Point) -> Point:
        x, y = p
        if self.transpose:
            x, y = y, x
        if self.flip_y:
            y = -y
        return (x, y)

    def inv(self, p: Point) -> Point:
        x, y = p
        if self.flip_y:
            y = -y
        if self.transpose:
            x, y = y, x
        return (x, y)

    def rect(self, r: Rect) -> Rect:
        corners = [self.fwd((r[0], r[1])), self.fwd((r[2], r[3]))]
        xs = sorted(c[0] for c in corners)
        ys = sorted(c[1] for c in corners)
        return (xs[0], ys[0], xs[1], ys[1])


def _minimal_in(cs: SeparationConstraintSet, axis: str, a: str, b: str) -> bool:
    pairs = cs.H if axis == "H" else cs.V
    if (a, b) not in pairs:
        return False
    firsts = {v for u, v in pairs if u == a}
    return not any((mid, b) in pairs for mid in firsts if mid not in (a, b))


def _pick_axis(
    cs: SeparationConstraintSet, r1: str, r2: str, require_minimal: bool
) -> tuple[str, str, str]:
    """Axis and ordered pair to route along, primary membership preferred.

    Minimality (no third region constrained between the pair in the same
    set) is the hypothesis for guaranteed minimal leaders; the two-bend
    construction instead presumes the adjacency is realizable and skips it.
    """
    candidates = []
    for axis in ("H", "V"):
        pairs = cs.H if axis == "H" else cs.V
        for a, b in ((r1, r2), (r2, r1)):
            if (a, b) in pairs:
                candidates.append((axis, a, b))
    if not candidates:
        raise LeaderError(f"pair ({r1!r}, {r2!r}) has no separation constraint")
    candidates.sort(key=lambda t: t in cs.secondary)
    if not require_minimal:
        return candidates[0]
    for axis, a, b in candidates:
        if _minimal_in(cs, axis, a, b):
            return axis, a, b
    raise NotMinimalError(f"pair ({r1!r}, {r2!r}) is not minimal in H or V")


def _canonical(
    layout: SquareLayout,
    cs: SeparationConstraintSet,
    r1: str,
    r2: str,
    require_minimal: bool = True,
) -> tuple[_Frame, str, str]:
    axis, a, b = _pick_axis(cs, r1, r2, require_minimal)
    frame = _Frame(transpose=(axis == "V"), flip_y=False)
    ra, rb = frame.rect(layout.rect(a)), frame.rect(layout.rect(b))
    if ra[1] > rb[3]:  # b strictly below a in canonical y: mirror it above
        frame = _Frame(transpose=frame.transpose, flip_y=True)
    return frame, a, b


# ---------------------------------------------------------------------------
# construction in the canonical frame


def _level(ra: Rect, rb: Rect, y: float) -> list[Point]:
    """Straight leader at height ``y``. Where ``y`` misses an end square, by
    at most the contact tolerance, a vertical jog reaches its edge."""
    return [(ra[2], min(max(y, ra[1]), ra[3])), (ra[2], y),
            (rb[0], y), (rb[0], min(max(y, rb[1]), rb[3]))]


def _straight(ra: Rect, rb: Rect, tol: float) -> list[Point] | None:
    """Leader through the middle of the squares' shared horizontal strip;
    strips that miss by at most ``tol`` count as touching."""
    lo = max(ra[1], rb[1])
    hi = min(ra[3], rb[3])
    if hi < lo - tol:
        return None
    return _level(ra, rb, (lo + hi) / 2.0)


def _staircase(
    a: Point, b: Point, blockers: list[tuple[float, float]], tol: float
) -> list[Point]:
    """Monotone path from a to b hugging blocker corners from below.

    Each blocker is the (right, bottom) corner of a square the path must pass
    under before passing to the right of it. The walk ascends to the lowest
    active blocker bottom, slides right past the furthest blocker at that
    level, and repeats; total length stays |dx| + |dy|. A blocker that hangs
    below ``a`` or reaches past ``b``, by at most ``tol``, moves that end
    along its square's edge, and the length by as much.
    """
    pts = [a]
    x, y = a
    work = [(p, q) for p, q in blockers if x < p <= b[0] + tol and q < b[1]]
    work.sort()
    while True:
        active = [(p, q) for p, q in work if p > x]
        level = min(min((q for _, q in active), default=b[1]), b[1])
        if y - tol <= level < y:  # only at the start: slide under it
            pts[0] = (x, level)
            y = level
        level = max(level, y)
        if level > y:
            pts.append((x, level))
            y = level
        if y >= b[1]:
            break
        x = max(p for p, q in active if q <= y)
        pts.append((x, y))
    if x < b[0]:
        pts.append((b[0], b[1]))
    return pts


def _dedupe(points: list[Point]) -> tuple[Point, ...]:
    out: list[Point] = []
    for p in points:
        if out and p == out[-1]:
            continue
        if len(out) >= 2:
            q, r = out[-2], out[-1]
            if (q[0] == r[0] == p[0]) or (q[1] == r[1] == p[1]):
                out[-1] = p
                continue
        out.append(p)
    return tuple(out)


def _bends(points: tuple[Point, ...]) -> int:
    return max(0, len(points) - 2)


def _polyline_length(points: tuple[Point, ...]) -> float:
    return sum(
        abs(p[0] - q[0]) + abs(p[1] - q[1]) for p, q in zip(points, points[1:])
    )


def _crosses_interior(points: tuple[Point, ...], rects: dict[str, Rect]) -> str | None:
    """Id of the first square whose open interior a segment passes through."""
    for p, q in zip(points, points[1:]):
        if p[1] == q[1]:  # horizontal
            y = p[1]
            x0, x1 = min(p[0], q[0]), max(p[0], q[0])
            for rid, (rx0, ry0, rx1, ry1) in rects.items():
                if ry0 < y < ry1 and x0 < rx1 and x1 > rx0:
                    return rid
        else:  # vertical
            x = p[0]
            y0, y1 = min(p[1], q[1]), max(p[1], q[1])
            for rid, (rx0, ry0, rx1, ry1) in rects.items():
                if rx0 < x < rx1 and y0 < ry1 and y1 > ry0:
                    return rid
    return None


def _swap(p: Point) -> Point:
    return (p[1], p[0])


def _corridor_blockers(
    rects: dict[str, Rect], a: str, b: str, start: Point, end: Point, tol: float
) -> tuple[list[tuple[float, float]], list[tuple[float, float]], str | None]:
    """Blocker corners for squares poking into the open corridor.

    Squares hanging in from above yield (right, bottom) corners for the
    under-hugging walk; squares standing in from below yield transposed
    (top, left) corners for the over-hugging walk; a square spanning the
    corridor's full height, past both ends by more than ``tol``, walls off
    every monotone path inside it.
    """
    x0, y0 = start
    x1, y1 = end
    upper: list[tuple[float, float]] = []
    lower: list[tuple[float, float]] = []
    wall: str | None = None
    for rid, r in rects.items():
        if rid in (a, b):
            continue
        if not (r[0] < x1 and r[2] > x0 and r[1] < y1 and r[3] > y0):
            continue
        hanging = r[1] >= y0 - tol
        standing = r[3] <= y1 + tol
        if hanging:
            upper.append((r[2], r[1]))
        if standing:
            lower.append((r[3], r[0]))
        if not hanging and not standing:
            wall = rid
    return upper, lower, wall


def _straight_fallback(
    rects: dict[str, Rect], a: str, b: str, tol: float
) -> list[Point] | None:
    """Straight leader at the widest unblocked height of the shared strip.

    Heights within ``tol`` of the strip are looked at too: when nothing
    inside it is free, the leader runs at the free height nearest its
    middle, often another square's edge, and jogs to the end squares.
    """
    ra, rb = rects[a], rects[b]
    lo, hi = max(ra[1], rb[1]), min(ra[3], rb[3])
    xa, xb = ra[2], rb[0]
    near_lo, near_hi = min(lo, hi) - tol, max(lo, hi) + tol
    blocked: list[tuple[float, float]] = []
    for rid, r in rects.items():
        if rid in (a, b):
            continue
        if r[0] < xb and r[2] > xa and r[1] < near_hi and r[3] > near_lo:
            blocked.append((r[1], r[3]))
    free: list[tuple[float, float]] = []
    cursor = near_lo
    for blo, bhi in sorted(blocked):
        if blo > cursor:
            free.append((cursor, blo))
        cursor = max(cursor, bhi)
    if cursor < near_hi:
        free.append((cursor, near_hi))
    inside = [(max(f0, lo), min(f1, hi)) for f0, f1 in free if min(f1, hi) > max(f0, lo)]
    if inside:
        best = max(inside, key=lambda iv: iv[1] - iv[0])
        return _level(ra, rb, (best[0] + best[1]) / 2.0)
    if not free:
        return None
    mid = (lo + hi) / 2.0
    return _level(ra, rb, min((min(max(mid, f0), f1) for f0, f1 in free),
                              key=lambda y: abs(y - mid)))


def _route_minimal(
    layout: SquareLayout,
    cs: SeparationConstraintSet,
    r1: str,
    r2: str,
    require_minimal: bool = True,
) -> Leader:
    frame, a, b = _canonical(layout, cs, r1, r2, require_minimal)
    rects = {rid: frame.rect(layout.rect(rid)) for rid in layout.centers}
    ra, rb = rects[a], rects[b]
    tol = LOST_TOL * layout.reference_diagonal()
    straight = _straight(ra, rb, tol)
    if straight is not None:
        candidates = [_dedupe(straight)]
        fallback = _straight_fallback(rects, a, b, tol)
        if fallback is not None:
            candidates.append(_dedupe(fallback))
    else:
        start = (ra[2], ra[3])
        end = (rb[0], rb[1])
        upper, lower, wall = _corridor_blockers(rects, a, b, start, end, tol)
        if wall is not None:
            raise LeaderError(
                f"corridor for ({r1!r}, {r2!r}) is walled off by {wall!r}"
            )
        candidates = [
            _dedupe(_staircase(start, end, upper, tol)),
            _dedupe([_swap(p) for p in _staircase(_swap(start), _swap(end), lower, tol)]),
        ]
    blocked = []
    for pts in candidates:
        crossing = _crosses_interior(pts, rects)
        if crossing is None:
            world = tuple(frame.inv(p) for p in pts)
            return Leader(
                endpoints=(r1, r2),
                polyline=world,
                length=_polyline_length(world),
                bends=_bends(world),
            )
        if crossing not in blocked:
            blocked.append(crossing)
    raise NotMinimalError(
        f"no crossing-free minimal leader for ({r1!r}, {r2!r}); blocked by {blocked}"
    )


def _check_endpoints(
    layout: SquareLayout, cs: SeparationConstraintSet, r1: str, r2: str
) -> None:
    if not cs.is_adjacent(r1, r2):
        raise LeaderError(f"({r1!r}, {r2!r}) is not a map adjacency")
    tol = LOST_TOL * layout.reference_diagonal()
    if l1_gap(layout, r1, r2) <= tol:
        raise LeaderError(f"adjacency ({r1!r}, {r2!r}) is intact; no leader needed")


def all_leaders(
    layout: SquareLayout,
    cs: SeparationConstraintSet,
    map: AdjacencyGraph,
) -> tuple[list[Leader], RoutingReport]:
    """Route a minimal leader for every lost adjacency; failures are reported, not raised.

    A pair outside the minimality hypothesis, or one the minimal construction
    found blocked (``NotMinimalError``), is routed again without that
    hypothesis. It still gets a leader when one of the constructions passes
    the crossing check (common when a small third region sits between the
    pair but leaves the shared strip open); nothing unverified is ever
    emitted.
    """
    leaders: list[Leader] = []
    failures: list[tuple[str, str, str]] = []
    for a, b in lost_adjacencies(layout, map):
        try:
            _check_endpoints(layout, cs, a, b)
            try:
                leaders.append(_route_minimal(layout, cs, a, b))
            except NotMinimalError:
                leaders.append(_route_minimal(layout, cs, a, b, require_minimal=False))
        except LeaderError as exc:
            failures.append((a, b, str(exc)))
    return leaders, RoutingReport(routed=len(leaders), unroutable=tuple(failures))
