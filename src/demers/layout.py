"""Square layouts decoded from solver output, plus layout-level geometry.

A layout is one center point and one side length per region. Validity means
every separation constraint of the referenced set holds, which in turn makes
all squares pairwise interior-disjoint; both are checked explicitly so a
violation pinpoints the offending pair. The check reads the set's index
arrays (``sepconstraints.AxisPairs``) and names only the violating pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lpmodel import CartogramModel
from .sepconstraints import SeparationConstraintSet
from .simplexsolver import Solution

Point = tuple[float, float]

SCHEMA_VERSION = 1

# solver round-off allowance, relative to ``SquareLayout.reference_diagonal``
VALIDITY_TOL = 1e-6


class LayoutError(ValueError):
    pass


@dataclass
class SquareLayout:
    """One Demers cartogram: a center and side length per region."""

    centers: dict[str, Point]
    sides: dict[str, float]
    function_index: int = 0
    constraint_ref: SeparationConstraintSet | None = None
    diagonal: float = 0.0
    method: str = "lp"

    def region_ids(self) -> list[str]:
        return sorted(self.centers)

    def rect(self, rid: str) -> tuple[float, float, float, float]:
        """Axis-aligned square as (xmin, ymin, xmax, ymax)."""
        cx, cy = self.centers[rid]
        h = self.sides[rid] / 2.0
        return (cx - h, cy - h, cx + h, cy + h)

    def bbox(self) -> tuple[float, float, float, float]:
        rects = [self.rect(r) for r in self.centers]
        return (
            min(r[0] for r in rects),
            min(r[1] for r in rects),
            max(r[2] for r in rects),
            max(r[3] for r in rects),
        )

    def reference_diagonal(self) -> float:
        """The length tolerances and drawing sizes are relative to: the map's
        diagonal, else (``layout_from_json`` sets none) the diagonal of the
        squares' bounding box, else 1. ``validity_violations``, the leaders'
        and metrics' lost-adjacency test (``leaders.LOST_TOL``) and
        ``render_svg`` all read this one scale."""
        if self.diagonal or not self.centers:
            return self.diagonal or 1.0
        x0, y0, x1, y1 = self.bbox()
        return ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5 or 1.0

    def translated(self, dx: float, dy: float) -> "SquareLayout":
        return SquareLayout(
            centers={r: (x + dx, y + dy) for r, (x, y) in self.centers.items()},
            sides=dict(self.sides),
            function_index=self.function_index,
            constraint_ref=self.constraint_ref,
            diagonal=self.diagonal,
            method=self.method,
        )

    def to_json_dict(self, leaders: list | None = None) -> dict:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "function": self.function_index,
            "method": self.method,
            "constraint_ref": constraint_set_id(self.constraint_ref),
            "regions": [
                {
                    "id": rid,
                    "cx": self.centers[rid][0],
                    "cy": self.centers[rid][1],
                    "side": self.sides[rid],
                }
                for rid in self.region_ids()
            ],
        }
        if leaders is not None:
            doc["leaders"] = [ld.to_json_dict() for ld in leaders]
        return doc

    def to_json(self, leaders: list | None = None) -> str:
        return json.dumps(self.to_json_dict(leaders), indent=2, sort_keys=True)


def layout_from_json(doc: dict) -> SquareLayout:
    return SquareLayout(
        centers={r["id"]: (r["cx"], r["cy"]) for r in doc["regions"]},
        sides={r["id"]: r["side"] for r in doc["regions"]},
        function_index=doc.get("function", 0),
        method=doc.get("method", "lp"),
    )


def constraint_set_id(cs: SeparationConstraintSet | None) -> str | None:
    """Short content hash identifying a constraint set in serialized output."""
    return None if cs is None else cs.content_id


# ---------------------------------------------------------------------------
# validity


@dataclass(frozen=True)
class Violation:
    kind: str
    pair: tuple[str, str]
    amount: float

    def __str__(self) -> str:
        return f"{self.kind} violated by {self.amount:.3g} for pair {self.pair}"


def validity_violations(layout: SquareLayout) -> list[Violation]:
    """All constraint/disjointness violations beyond the solver tolerance.

    Separation violations come first (H pairs, then V pairs, each sorted),
    then interior overlaps by sorted region pair.
    """
    cs = layout.constraint_ref
    if cs is None:
        raise LayoutError("layout has no constraint set to validate against")
    tol = VALIDITY_TOL * layout.reference_diagonal()
    ids = layout.region_ids()
    pos = {rid: i for i, rid in enumerate(ids)}
    centers = np.array([layout.centers[r] for r in ids], dtype=float).reshape(-1, 2)
    sides = np.array([layout.sides[r] for r in ids], dtype=float)
    out: list[Violation] = []

    to_layout = np.array([pos[r] for r in cs.ids], dtype=np.int64)  # set row -> layout row
    for axis, coord in (("H", 0), ("V", 1)):
        pairs = cs.axes[axis]
        ia, ib = to_layout[pairs.ia], to_layout[pairs.ib]
        need = (sides[ia] + sides[ib]) / 2.0 + cs.gaps(axis)
        got = centers[ib, coord] - centers[ia, coord]
        for k in np.flatnonzero(got < need - tol).tolist():
            amount = float(need[k] - got[k])
            out.append(Violation(f"separation[{axis}]", (ids[ia[k]], ids[ib[k]]), amount))
    ia, ib = np.triu_indices(len(ids), 1)
    w = (sides[ia] + sides[ib]) / 2.0
    dist = np.maximum(
        np.abs(centers[ia, 0] - centers[ib, 0]), np.abs(centers[ia, 1] - centers[ib, 1])
    )
    for k in np.flatnonzero(dist < w - tol).tolist():
        out.append(Violation(
            "interior-disjoint", (ids[ia[k]], ids[ib[k]]), float(w[k] - dist[k])
        ))
    return out


# ---------------------------------------------------------------------------
# operations


def decode(
    sol: Solution,
    model: CartogramModel,
    constraint_ref: SeparationConstraintSet | None = None,
) -> list[SquareLayout]:
    """Turn a solver solution into one layout per weight-function block.

    Each layout refers to, and is validated against, ``constraint_ref``, by
    default the set the model was built from. A model built from the
    transitive reduction of a set passes the full set here, since the
    reduction implies it. Raises when the solution is not usable or any
    decoded layout breaks that set (which would mean a solver/model bug).
    """
    cs = model.cs if constraint_ref is None else constraint_ref
    if sol.x is None:
        raise LayoutError(f"cannot decode a solution with status {sol.status.value}")
    layouts = []
    for block in model.blocks:
        centers = dict(zip(
            model.region_ids, zip(sol.x[block.x].tolist(), sol.x[block.y].tolist())
        ))
        layout = SquareLayout(
            centers=centers,
            sides=dict(block.sides),
            function_index=block.function_index,
            constraint_ref=cs,
            diagonal=model.diagonal,
        )
        bad = validity_violations(layout)
        if bad:
            detail = "; ".join(str(v) for v in bad[:5])
            raise LayoutError(
                f"decoded layout for function {block.function_index} is invalid: {detail}"
            )
        layouts.append(layout)
    return layouts


def interpolate(a: SquareLayout, b: SquareLayout, t: float) -> SquareLayout:
    """Linear blend of two layouts sharing a constraint set.

    Both centers and sides interpolate, so every separation constraint keeps
    holding along the way and no intermediate frame can overlap.
    """
    if a.constraint_ref != b.constraint_ref:
        raise LayoutError("layouts do not share a separation constraint set")
    if set(a.centers) != set(b.centers):
        raise LayoutError("layouts cover different region sets")
    s = 1.0 - t
    return SquareLayout(
        centers={
            r: (s * a.centers[r][0] + t * b.centers[r][0],
                s * a.centers[r][1] + t * b.centers[r][1])
            for r in a.centers
        },
        sides={r: s * a.sides[r] + t * b.sides[r] for r in a.sides},
        function_index=a.function_index if t < 0.5 else b.function_index,
        constraint_ref=a.constraint_ref,
        diagonal=max(a.diagonal, b.diagonal),
        method=a.method,
    )


def l1_gap(layout: SquareLayout, r1: str, r2: str) -> float:
    """Minimal L1 distance between the two squares as point sets."""
    w = (layout.sides[r1] + layout.sides[r2]) / 2.0
    dx = abs(layout.centers[r1][0] - layout.centers[r2][0])
    dy = abs(layout.centers[r1][1] - layout.centers[r2][1])
    return max(0.0, dx - w) + max(0.0, dy - w)


def anchor_to_origins(
    layouts: list[SquareLayout], origins: dict[str, Point]
) -> list[SquareLayout]:
    """Translate all layouts jointly to minimize total L1 origin displacement.

    Constraints only involve coordinate differences, so a joint translation
    keeps every layout valid and every inter-layout relation intact; the
    L1-optimal shift per axis is the median of the per-region displacements.
    """
    dxs = sorted(
        origins[r][0] - lay.centers[r][0] for lay in layouts for r in lay.centers
    )
    dys = sorted(
        origins[r][1] - lay.centers[r][1] for lay in layouts for r in lay.centers
    )
    if not dxs:
        return layouts
    mid = len(dxs) // 2
    return [lay.translated(dxs[mid], dys[mid]) for lay in layouts]


def overlap_area(layout: SquareLayout) -> float:
    """Total pairwise overlap area between squares (0 for valid layouts)."""
    ids = layout.region_ids()
    total = 0.0
    for i, a in enumerate(ids):
        ra = layout.rect(a)
        for b in ids[i + 1 :]:
            rb = layout.rect(b)
            ox = min(ra[2], rb[2]) - max(ra[0], rb[0])
            oy = min(ra[3], rb[3]) - max(ra[1], rb[1])
            if ox > 0 and oy > 0:
                total += ox * oy
    return total


def total_square_area(layout: SquareLayout) -> float:
    return sum(s * s for s in layout.sides.values())
