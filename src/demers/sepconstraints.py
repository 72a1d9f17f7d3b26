"""Directed horizontal/vertical separation constraints between region pairs.

Every region pair gets a primary constraint in H (left-of) or V (below),
chosen by whichever centroid distance is larger. The strong setting adds a
gap-free secondary constraint in the other axis for nonadjacent pairs whose
bounding boxes are separated in both axes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter

from .mapdata import AdjacencyGraph

Pair = tuple[str, str]


class ConstraintError(ValueError):
    pass


class Setting(Enum):
    WEAK = "weak"
    STRONG = "strong"


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

    def primary_pairs(self, axis: str) -> list[Pair]:
        pairs = self.H if axis == "H" else self.V
        return sorted(p for p in pairs if not self.is_secondary(axis, p))

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
    other axis, oriented by centroid order in that axis.
    """
    H: set[Pair] = set()
    V: set[Pair] = set()
    secondary: set[tuple[str, str, str]] = set()
    regions = sorted(map.regions, key=lambda r: r.id)
    boxes = {r.id: r.bbox() for r in regions}
    for i, ra in enumerate(regions):
        for rb in regions[i + 1 :]:
            ax, ay = ra.centroid
            bx, by = rb.centroid
            dx, dy = bx - ax, by - ay
            if dx == 0 and dy == 0:
                raise ConstraintError(
                    f"coincident centroids for {ra.id!r} and {rb.id!r}"
                )
            if abs(dx) >= abs(dy):
                H.add((ra.id, rb.id) if dx > 0 else (rb.id, ra.id))
                other_axis = "V"
                ordered = (ra.id, rb.id) if dy > 0 else (rb.id, ra.id)
                degenerate = dy == 0
            else:
                V.add((ra.id, rb.id) if dy > 0 else (rb.id, ra.id))
                other_axis = "H"
                ordered = (ra.id, rb.id) if dx > 0 else (rb.id, ra.id)
                degenerate = dx == 0
            if (
                setting is Setting.STRONG
                and not degenerate
                and not map.adjacent(ra.id, rb.id)
                and _both_separators(boxes[ra.id], boxes[rb.id])
            ):
                (H if other_axis == "H" else V).add(ordered)
                secondary.add((other_axis, ordered[0], ordered[1]))
    return SeparationConstraintSet(
        H=frozenset(H),
        V=frozenset(V),
        secondary=frozenset(secondary),
        epsilon=epsilon,
        setting=setting,
        adjacencies=frozenset(map.edges),
    )


def _both_separators(a, b) -> bool:
    x_sep = a[2] < b[0] or b[2] < a[0]
    y_sep = a[3] < b[1] or b[3] < a[1]
    return x_sep and y_sep


def validate_dag(cs: SeparationConstraintSet) -> list[str] | None:
    """Return a directed cycle that would make the constraints infeasible.

    Checked are the cycles that actually rule out a placement: within H alone,
    within V alone, and within the union of primary constraints. A pair may
    legitimately carry a primary constraint one way and a secondary constraint
    the opposite way in the other axis (one axis orders them left-right, the
    other bottom-top), so the raw union of all four orientations need not be
    acyclic in the strong setting. Returns the cycle's distinct regions in
    edge order, or None when consistent.
    """
    for edges in (
        cs.sorted_h(),
        cs.sorted_v(),
        sorted(set(cs.primary_pairs("H")) | set(cs.primary_pairs("V"))),
    ):
        try:
            _successors_first(edges)
        except CycleError as exc:
            return exc.args[1]
    return None


def _successors_first(edges: list[Pair]) -> tuple[dict[str, list[str]], list[str]]:
    """Successor lists of the regions in ``edges``, and those regions ordered
    so that each comes after all of its successors.

    Raises ``CycleError`` whose ``args[1]`` is a directed cycle: its distinct
    regions in edge order.
    """
    succ: dict[str, list[str]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    try:
        # TopologicalSorter reads the successors as predecessors, so it puts
        # them first and reports a cycle against the edges' direction
        return succ, list(TopologicalSorter(succ).static_order())
    except CycleError as exc:
        raise CycleError("directed cycle", exc.args[1][:0:-1]) from None


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

    Reachability is one bitset per region, filled in reverse topological
    order, so H and V must each be acyclic (see ``validate_dag``).
    """

    def reduced(edges: frozenset[Pair]) -> frozenset[Pair]:
        try:
            succ, order = _successors_first(sorted(edges))
        except CycleError as exc:
            raise ConstraintError(f"directed cycle {exc.args[1]}") from None
        bit = {r: 1 << i for i, r in enumerate(succ)}
        reach: dict[str, int] = {}  # regions reachable by one or more edges
        for r in order:
            acc = 0
            for s in succ[r]:
                acc |= bit[s] | reach[s]
            reach[r] = acc
        out = set()
        for a, targets in succ.items():
            # reachable from a by two or more edges; in a DAG no successor
            # reaches itself, so the direct edge (a, b) is never counted
            longer = 0
            for s in targets:
                longer |= reach[s]
            out.update(
                (a, b) for b in targets if cs.is_adjacent(a, b) or not longer & bit[b]
            )
        return frozenset(out)

    new_h = reduced(cs.H)
    new_v = reduced(cs.V)
    new_secondary = frozenset(
        (axis, a, b)
        for axis, a, b in cs.secondary
        if (a, b) in (new_h if axis == "H" else new_v)
    )
    return replace(cs, H=new_h, V=new_v, secondary=new_secondary)
