"""Orthogonal leaders connecting the squares of lost adjacencies.

A minimal leader is a monotone axis-parallel polyline of length exactly the
squares' L1 distance that crosses no other square's interior (it may run
along boundaries). Construction: reduce the pair to a canonical frame (first
region lower-left, separated in x), then either connect straight through a
shared horizontal strip or walk the staircase that hugs the bottom-right
corners of the blocking squares. A two-bend variant ascends to the first
blocker bottom, crosses, and closes; its bend bound needs constraints from
the strong setting.

An adjacency is lost when its L1 gap exceeds ``LOST_TOL`` of
``SquareLayout.reference_diagonal()``: the one rule that
``lost_adjacencies``, ``all_leaders``, ``min_leader``, ``two_bend_leader``
and, through ``lost_adjacencies``, ``metrics.madj`` read. The same
tolerance decides contacts in the construction. Solved layouts put edges
that the constraints make touch within round-off of each other, and a
comparison of exact floats would let a 1e-16 move turn a routed pair into
a walled-off one. So squares whose strips miss by at most the tolerance
share a strip, and a square that pokes that little past a corridor's end
hangs or stands in it rather than walling it off. The leader then runs
along that square's edge and meets its end square by a jog as short as
the miss, so its length exceeds the L1 gap by at most that much. The final
crossing check stays exact: no leader ever enters a square's interior.

``all_leaders`` routes the minimal construction once per lost adjacency.
Its ``RoutingReport`` counts the leaders routed and lists each unroutable
pair with the reason; ``two_bend_leader`` is called directly.

Everything a leader reads that depends only on the layout or the constraint
set is indexed once. ``all_leaders`` keeps one ``_FrameRects`` per layout:
the squares' rectangles in each canonical frame it uses (at most four:
transpose × flip_y), built on first use and shared by all of the layout's
leaders. The axis and minimality lookups binary-search the constraint set's
sorted index arrays (``SeparationConstraintSet.find``) instead of scanning a
whole axis set. What remains per leader is its own crossing checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .layout import SquareLayout, l1_gap
from .mapdata import AdjacencyGraph
from .sepconstraints import SeparationConstraintSet

Point = tuple[float, float]
Rect = tuple[float, float, float, float]  # xmin, ymin, xmax, ymax

# of ``SquareLayout.reference_diagonal``, the scale leaders and metrics read:
# an adjacency with a larger gap is lost
LOST_TOL = 1e-6


class LeaderError(ValueError):
    pass


class NotMinimalError(LeaderError):
    """The minimal construction does not apply to the pair, or found no
    crossing-free leader."""


@dataclass(frozen=True)
class Leader:
    endpoints: tuple[str, str]
    polyline: tuple[Point, ...]
    length: float
    bends: int

    def to_json_dict(self) -> dict:
        return {
            "from": self.endpoints[0],
            "to": self.endpoints[1],
            "points": [[x, y] for x, y in self.polyline],
        }


@dataclass(frozen=True)
class RoutingReport:
    routed: int
    unroutable: tuple[tuple[str, str, str], ...]  # (r1, r2, reason)


# ---------------------------------------------------------------------------
# canonical frame: the routed pair is separated in x, r1 left, r2 not below


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

    def in_axis(self, cs: SeparationConstraintSet, axis: str, a: str, b: str) -> bool:
        """Membership test for the canonical-frame axis sets."""
        orig_axis = ({"H": "V", "V": "H"}[axis]) if self.transpose else axis
        pair = (b, a) if (axis == "V" and self.flip_y) else (a, b)
        return cs.find(orig_axis, *pair) is not None


class _FrameRects(dict):
    """One layout's squares in each canonical frame, ``{frame: {rid: rect}}``
    in ``layout.centers`` order; a frame's table is built on first use."""

    def __init__(self, layout: SquareLayout) -> None:
        super().__init__()
        self.layout = layout

    def __missing__(self, frame: _Frame) -> dict[str, Rect]:
        table = {rid: frame.rect(self.layout.rect(rid)) for rid in self.layout.centers}
        self[frame] = table
        return table


def _minimal_in(cs: SeparationConstraintSet, axis: str, a: str, b: str) -> bool:
    if cs.find(axis, a, b) is None:
        return False
    return not any(cs.find(axis, a, mid) is not None and cs.find(axis, mid, b) is not None
                   for mid in cs.ids if mid not in (a, b))


def _pick_axis(
    cs: SeparationConstraintSet, r1: str, r2: str, require_minimal: bool
) -> tuple[str, str, str]:
    """Axis and ordered pair to route along, primary membership preferred.

    Minimality (no third region constrained between the pair in the same
    set) is the hypothesis for guaranteed minimal leaders; the two-bend
    construction instead presumes the adjacency is realizable and skips it.
    """
    candidates = []  # (secondary, axis, a, b), primary first after the sort
    for axis in ("H", "V"):
        for a, b in ((r1, r2), (r2, r1)):
            if (k := cs.find(axis, a, b)) is not None:
                candidates.append((bool(cs.axes[axis].secondary[k]), axis, a, b))
    if not candidates:
        raise LeaderError(f"pair ({r1!r}, {r2!r}) has no separation constraint")
    candidates.sort(key=lambda t: t[0])
    if not require_minimal:
        return candidates[0][1:]
    for _, axis, a, b in candidates:
        if _minimal_in(cs, axis, a, b):
            return axis, a, b
    raise NotMinimalError(f"pair ({r1!r}, {r2!r}) is not minimal in H or V")


def _canonical(
    frames: _FrameRects,
    cs: SeparationConstraintSet,
    r1: str,
    r2: str,
    require_minimal: bool,
) -> tuple[_Frame, str, str]:
    axis, a, b = _pick_axis(cs, r1, r2, require_minimal)
    frame = _Frame(transpose=(axis == "V"), flip_y=False)
    rects = frames[frame]
    if rects[a][1] > rects[b][3]:  # b strictly below a in canonical y: mirror it above
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


def _upper_blockers(
    frame: _Frame,
    cs: SeparationConstraintSet,
    rects: dict[str, Rect],
    a: str,
    b: str,
) -> list[tuple[float, float]]:
    """(right, bottom) corners of squares above a and left of b."""
    out = []
    for rid, rect in rects.items():
        if rid in (a, b):
            continue
        if frame.in_axis(cs, "V", a, rid) and frame.in_axis(cs, "H", rid, b):
            out.append((rect[2], rect[1]))
    return out


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


def _straight_candidates(
    rects: dict[str, Rect], a: str, b: str, straight: list[Point], tol: float
) -> Iterator[list[Point]]:
    """The straight leader, then the fallback, built only when asked for:
    when the straight leader crosses a square."""
    yield _dedupe(straight)
    fallback = _straight_fallback(rects, a, b, tol)
    if fallback is not None:
        yield _dedupe(fallback)


def _route_minimal(
    layout: SquareLayout,
    cs: SeparationConstraintSet,
    r1: str,
    r2: str,
    require_minimal: bool = True,
    frames: _FrameRects | None = None,
) -> Leader:
    """The minimal construction for one pair; ``frames`` lets the leaders of
    one layout share its rectangle tables."""
    if frames is None:
        frames = _FrameRects(layout)
    frame, a, b = _canonical(frames, cs, r1, r2, require_minimal)
    rects = frames[frame]
    ra, rb = rects[a], rects[b]
    tol = _lost_tol(layout)
    straight = _straight(ra, rb, tol)
    if straight is not None:
        candidates = _straight_candidates(rects, a, b, straight, tol)
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


def min_leader(
    layout: SquareLayout, cs: SeparationConstraintSet, r1: str, r2: str
) -> Leader:
    """Minimal-length monotone leader between a lost adjacency's squares."""
    _check_endpoints(layout, cs, r1, r2)
    return _route_minimal(layout, cs, r1, r2)


def two_bend_leader(
    layout: SquareLayout, cs: SeparationConstraintSet, r1: str, r2: str
) -> Leader:
    """Minimal leader with at most two bends.

    Ascends from the near corner to the first blocker bottom (or the far
    corner's level), crosses, and closes. The bend bound is guaranteed when
    the constraints were derived in the strong setting from a layout that
    realizes this adjacency; the construction is still checked against all
    squares and refused if something blocks it.
    """
    from .sepconstraints import Setting

    if cs.setting is not Setting.STRONG:
        raise LeaderError("two-bend leaders need strong-setting constraints")
    _check_endpoints(layout, cs, r1, r2)
    frames = _FrameRects(layout)
    frame, a, b = _canonical(frames, cs, r1, r2, require_minimal=False)
    rects = frames[frame]
    ra, rb = rects[a], rects[b]
    straight = _straight(ra, rb, _lost_tol(layout))
    if straight is not None:
        pts = _dedupe(straight)
    else:
        start = (ra[2], ra[3])
        end = (rb[0], rb[1])
        blockers = _upper_blockers(frame, cs, rects, a, b)
        h = min((q for p, q in blockers if p > start[0] and q < end[1]), default=end[1])
        h = max(min(h, end[1]), start[1])
        pts = _dedupe([start, (start[0], h), (end[0], h), end])
    crossing = _crosses_interior(pts, rects)
    if crossing is not None:
        raise LeaderError(
            f"two-bend construction for ({r1!r}, {r2!r}) blocked by {crossing!r}"
        )
    world = tuple(frame.inv(p) for p in pts)
    return Leader(
        endpoints=(r1, r2),
        polyline=world,
        length=_polyline_length(world),
        bends=_bends(world),
    )


def _lost_tol(layout: SquareLayout) -> float:
    """Gap above which an adjacency is lost: ``LOST_TOL`` of
    ``layout.reference_diagonal()``."""
    return LOST_TOL * layout.reference_diagonal()


def _check_endpoints(
    layout: SquareLayout, cs: SeparationConstraintSet, r1: str, r2: str
) -> None:
    if not cs.is_adjacent(r1, r2):
        raise LeaderError(f"({r1!r}, {r2!r}) is not a map adjacency")
    if l1_gap(layout, r1, r2) <= _lost_tol(layout):
        raise LeaderError(f"adjacency ({r1!r}, {r2!r}) is intact; no leader needed")


def lost_adjacencies(layout: SquareLayout, map: AdjacencyGraph) -> list[tuple[str, str]]:
    tol = _lost_tol(layout)
    return [e for e in map.edge_list() if l1_gap(layout, *e) > tol]


def all_leaders(
    layout: SquareLayout,
    cs: SeparationConstraintSet,
    map: AdjacencyGraph,
) -> tuple[list[Leader], RoutingReport]:
    """Route a minimal leader for every lost adjacency; failures are reported, not raised.

    Each pair is routed once along its primary constraint, without the
    minimality hypothesis of ``min_leader``: a derived set gives an adjacent
    pair no secondary constraint, so that hypothesis could pick no other
    axis. The pairs are the map's lost adjacencies, so the endpoint checks
    of ``min_leader`` hold already. A leader is emitted only when it passes
    the crossing check.
    """
    leaders: list[Leader] = []
    failures: list[tuple[str, str, str]] = []
    frames = _FrameRects(layout)
    for a, b in lost_adjacencies(layout, map):
        try:
            leaders.append(
                _route_minimal(layout, cs, a, b, require_minimal=False, frames=frames)
            )
        except LeaderError as exc:
            failures.append((a, b, str(exc)))
    return leaders, RoutingReport(routed=len(leaders), unroutable=tuple(failures))
