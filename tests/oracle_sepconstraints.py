"""The separation constraints as frozensets of string pairs, kept as a test oracle.

A frozen copy of ``demers.sepconstraints`` from before its sets became
region-index arrays, with ``constraint_set_id`` and ``validity_violations``
as ``demers.layout`` had them then. The property tests compare the
production module with it pair for pair: derived and secondary pairs, gaps,
reductions, reported cycles, violations, DOT output and set ids.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

import numpy as np

from demers.layout import VALIDITY_TOL, LayoutError, SquareLayout, Violation
from demers.mapdata import AdjacencyGraph
from demers.sepconstraints import ConstraintError, Setting

Pair = tuple[str, str]


@dataclass(frozen=True)
class SeparationConstraintSet:
    """Ordered pair sets H and V with the secondary subset and gap epsilon.

    ``secondary`` holds ("H"|"V", r, r') triples marking which entries of the
    axis sets were added as gap-free secondary constraints. ``adjacencies``
    mirrors the map's T-edges so gap values and reduction rules can be
    resolved without the original map.
    """

    H: frozenset[Pair]
    V: frozenset[Pair]
    secondary: frozenset[tuple[str, str, str]]
    epsilon: float
    setting: Setting
    adjacencies: frozenset[frozenset[str]]

    def is_secondary(self, axis: str, pair: Pair) -> bool:
        return (axis, pair[0], pair[1]) in self.secondary

    def is_adjacent(self, a: str, b: str) -> bool:
        return frozenset((a, b)) in self.adjacencies

    def gap(self, axis: str, pair: Pair) -> float:
        """Required extra separation: epsilon for nonadjacent primary pairs."""
        if self.is_secondary(axis, pair) or self.is_adjacent(*pair):
            return 0.0
        return self.epsilon

    def primary_axis_of(self, a: str, b: str) -> tuple[str, Pair] | None:
        """Axis and orientation of the primary constraint covering {a, b}."""
        for axis, pairs in (("H", self.H), ("V", self.V)):
            for p in ((a, b), (b, a)):
                if p in pairs and not self.is_secondary(axis, p):
                    return axis, p
        return None

    def sorted_h(self) -> list[Pair]:
        return sorted(self.H)

    def sorted_v(self) -> list[Pair]:
        return sorted(self.V)

    def gapped_pairs(self, axis: str) -> tuple[tuple[Pair, ...], tuple[float, ...]]:
        """One axis's sorted pairs and their ``gap`` values, computed once."""
        return self._gapped[axis]

    @cached_property
    def _gapped(self) -> dict[str, tuple[tuple[Pair, ...], tuple[float, ...]]]:
        out = {}
        for axis, pairs in (("H", self.sorted_h()), ("V", self.sorted_v())):
            out[axis] = (tuple(pairs), tuple(self.gap(axis, p) for p in pairs))
        return out

    def successors(self, axis: str) -> dict[str, frozenset[str]]:
        """Per region of one axis set, the regions it must precede there."""
        return self._axis_index[axis][0]

    def axis_order(self, axis: str) -> tuple[str, ...] | None:
        """The regions of one axis set, each after all of its successors;
        None when the set holds a directed cycle."""
        return self._axis_index[axis][1]

    @cached_property
    def _axis_index(
        self,
    ) -> dict[str, tuple[dict[str, frozenset[str]], tuple[str, ...] | None]]:
        return {"H": _axis_graph(self.H), "V": _axis_graph(self.V)}

    def to_dot(self) -> str:
        """DOT digraph of all constraints, secondary ones dashed."""
        lines = ["digraph separation {", "  rankdir=LR;"]
        for axis, pairs, color in (("H", self.sorted_h(), "blue"), ("V", self.sorted_v(), "red")):
            for a, b in pairs:
                style = "dashed" if self.is_secondary(axis, (a, b)) else "solid"
                lines.append(
                    f'  "{a}" -> "{b}" [label="{axis}", color={color}, style={style}];'
                )
        lines.append("}")
        return "\n".join(lines) + "\n"


def derive_constraints(
    map: AdjacencyGraph, epsilon: float, setting: Setting
) -> SeparationConstraintSet:
    """Build the constraint sets from centroid geometry.

    A pair whose centroids are farther apart horizontally than vertically is
    separated in H (left region first), otherwise in V (lower region first);
    exact ties go to H. Strong setting: nonadjacent pairs whose bounding boxes
    are strictly separated in both axes also get a secondary constraint in the
    other axis, oriented by centroid order in that axis; a pair level in that
    axis gets none. One array pass over the map's ``pair_table``.
    """
    ids = np.array(map.sorted_ids, dtype=object)
    box = np.array([r.bbox() for r in sorted(map.regions, key=lambda r: r.id)],
                   dtype=float).reshape(-1, 4)
    ia, ib, dx, dy, horiz = map.pair_table
    same = np.flatnonzero((dx == 0) & (dy == 0))
    if same.size:
        k = same[0]
        raise ConstraintError(
            f"coincident centroids for {ids[ia[k]]!r} and {ids[ib[k]]!r}"
        )
    main = np.where(horiz, dx, dy)  # signed distance in the primary axis
    other = np.where(horiz, dy, dx)  # and in the other axis

    def ordered(mask: np.ndarray, d: np.ndarray) -> set[Pair]:
        """The masked pairs, first region at the smaller coordinate."""
        a, b, fwd = ia[mask], ib[mask], d[mask] > 0
        first, second = np.where(fwd, a, b), np.where(fwd, b, a)
        return set(zip(ids[first].tolist(), ids[second].tolist()))

    H = ordered(horiz, main)
    V = ordered(~horiz, main)
    secondary: set[tuple[str, str, str]] = set()
    if setting is Setting.STRONG:
        x_sep = (box[ia, 2] < box[ib, 0]) | (box[ib, 2] < box[ia, 0])
        y_sep = (box[ia, 3] < box[ib, 1]) | (box[ib, 3] < box[ia, 1])
        extra = (other != 0) & ~map.adjacency_mask[ia, ib] & x_sep & y_sep
        for axis, target, mask in (("V", V, extra & horiz), ("H", H, extra & ~horiz)):
            pairs = ordered(mask, other)
            target |= pairs
            secondary.update((axis, a, b) for a, b in pairs)
    return SeparationConstraintSet(
        H=frozenset(H),
        V=frozenset(V),
        secondary=frozenset(secondary),
        epsilon=epsilon,
        setting=setting,
        adjacencies=frozenset(map.edges),
    )


def validate_dag(cs: SeparationConstraintSet) -> list[str] | None:
    """Return a directed cycle that would make the constraints infeasible.

    Checked are the cycles that actually rule out a placement: within H alone,
    within V alone, and within the union of primary constraints. A pair may
    legitimately carry a primary constraint one way and a secondary constraint
    the opposite way in the other axis (one axis orders them left-right, the
    other bottom-top), so the raw union of all four orientations need not be
    acyclic in the strong setting. Returns the cycle's distinct regions in
    edge order, or None when consistent.

    H and V are checked through the set's cached axis index, whose orders
    ``reduce_transitive`` then reuses; only the primary union gets a graph of
    its own here. A cycle is looked for only once an order has failed, on
    the sorted edges, so every process reports the same one.
    """
    primary: set[Pair] = set()
    for axis in ("H", "V"):
        pairs = cs.H if axis == "H" else cs.V
        if cs.axis_order(axis) is None:
            return _find_cycle(pairs)
        primary |= pairs - {(a, b) for ax, a, b in cs.secondary if ax == axis}
    if _axis_graph(primary)[1] is None:
        return _find_cycle(primary)
    return None


def _axis_graph(edges) -> tuple[dict[str, frozenset[str]], tuple[str, ...] | None]:
    """Successor sets of the regions in ``edges``, and those regions ordered
    so that each comes after all of its successors; the order is None when
    the edges hold a directed cycle (Kahn's algorithm)."""
    succ: dict[str, set[str]] = {}
    indeg: dict[str, int] = {}
    for a, b in edges:
        succ.setdefault(a, set()).add(b)
        indeg[b] = indeg.get(b, 0) + 1
    for b in indeg:
        succ.setdefault(b, set())
    ready = [r for r in succ if r not in indeg]
    order = []
    while ready:
        r = ready.pop()
        order.append(r)
        for s in succ[r]:
            indeg[s] -= 1
            if not indeg[s]:
                ready.append(s)
    frozen = {r: frozenset(s) for r, s in succ.items()}
    return frozen, (tuple(reversed(order)) if len(order) == len(succ) else None)


def _find_cycle(edges) -> list[str]:
    """A directed cycle of a cyclic edge set, as its distinct regions in edge
    order; the same edges give the same cycle in every process."""
    succ: dict[str, list[str]] = {}
    for a, b in sorted(edges):
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    try:
        # TopologicalSorter reads the successors as predecessors, so it
        # reports the cycle against the edges' direction
        TopologicalSorter(succ).prepare()
    except CycleError as exc:
        return exc.args[1][:0:-1]
    raise ValueError("the edges hold no directed cycle")


def reduce_transitive(cs: SeparationConstraintSet) -> SeparationConstraintSet:
    """Drop same-axis constraints implied by a chain of other constraints.

    Only constraints between nonadjacent regions are candidates; adjacency
    pairs always stay. Sound because epsilon never exceeds any square side
    (``compute_epsilon`` takes the smallest side, capped at 5% of the map
    diagonal): a chain a < m < b forces
    x_b - x_a >= (s_a + s_b) / 2 + s_m >= (s_a + s_b) / 2 + epsilon,
    the most the direct constraint asks for, whatever the gaps along the
    chain. The feasible region, and so every LP optimum, stays the same.
    ``cli.run`` builds its LP/ILP rows from the reduced set and keeps the
    full set as every layout's ``constraint_ref``: ``leaders._minimal_in``
    only looks for two-step chains, so on the reduced set it could call a
    pair minimal that the full set does not.

    Reachability is one bitset per region, filled in the successors-first
    order of the set's cached axis index, the same index ``validate_dag``
    checked; so H and V must each be acyclic.
    """

    def reduced(axis: str) -> frozenset[Pair]:
        order = cs.axis_order(axis)
        if order is None:
            cycle = _find_cycle(cs.H if axis == "H" else cs.V)
            raise ConstraintError(f"directed cycle {cycle}")
        succ = cs.successors(axis)
        bit = {r: 1 << i for i, r in enumerate(order)}
        reach: dict[str, int] = {}  # regions reachable by one or more edges
        for r in order:
            acc = 0
            for s in succ[r]:
                acc |= bit[s] | reach[s]
            reach[r] = acc
        out = adjacent & (cs.H if axis == "H" else cs.V)  # always kept
        for a, targets in succ.items():
            # reachable from a by two or more edges; in a DAG no successor
            # reaches itself, so the direct edge (a, b) is never counted
            longer = 0
            for s in targets:
                longer |= reach[s]
            out.update((a, b) for b in targets if not longer & bit[b])
        return frozenset(out)

    adjacent = {(a, b) for e in cs.adjacencies for a in e for b in e if a != b}

    new_h = reduced("H")
    new_v = reduced("V")
    new_secondary = frozenset(
        (axis, a, b)
        for axis, a, b in cs.secondary
        if (a, b) in (new_h if axis == "H" else new_v)
    )
    return replace(cs, H=new_h, V=new_v, secondary=new_secondary)


def constraint_set_id(cs: SeparationConstraintSet | None) -> str | None:
    """Short content hash identifying a constraint set in serialized output."""
    if cs is None:
        return None
    payload = json.dumps(
        {
            "H": sorted(cs.H),
            "V": sorted(cs.V),
            "secondary": sorted(cs.secondary),
            "epsilon": cs.epsilon,
            "setting": cs.setting.value,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


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

    for axis, coord in (("H", 0), ("V", 1)):
        pairs, gaps = cs.gapped_pairs(axis)
        if not pairs:
            continue
        ia = np.array([pos[a] for a, _ in pairs])
        ib = np.array([pos[b] for _, b in pairs])
        need = (sides[ia] + sides[ib]) / 2.0 + np.array(gaps)
        got = centers[ib, coord] - centers[ia, coord]
        for k in np.flatnonzero(got < need - tol).tolist():
            amount = float(need[k] - got[k])
            out.append(Violation(f"separation[{axis}]", pairs[k], amount))
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
