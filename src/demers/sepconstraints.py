"""Directed horizontal/vertical separation constraints between region pairs.

Every region pair gets a primary constraint in H (left-of) or V (below),
chosen by whichever centroid distance is larger. The strong setting adds a
gap-free secondary constraint in the other axis for nonadjacent pairs whose
bounding boxes are separated in both axes. Pairs and the primary-axis rule
come from the map's cached ``pair_table`` (see ``mapdata``).

A set stores each axis once, as region-index arrays (``AxisPairs``), which
the LP rows, the validity check, the cycle check, the reduction and the
leaders read. The string pairs ``H``, ``V`` and ``secondary`` are views.
``find`` reads a pair's row from one dense pair-to-row table per axis,
built on first use (n² int32 entries: 0.6 MB per axis at 400 regions).
``content_id`` hashes the same JSON text the string pairs would give, put
together from per-region strings: on a jittered 20x20 strong set (79 800
region pairs) it took 46-59 ms, against 209-327 ms for ``json.dumps`` of
the pairs (one core of a shared 2-vCPU host).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from graphlib import CycleError, TopologicalSorter
from typing import Iterable, NamedTuple

import numpy as np

from .mapdata import AdjacencyGraph, _read_only

Pair = tuple[str, str]


class ConstraintError(ValueError):
    pass


class Setting(Enum):
    WEAK = "weak"
    STRONG = "strong"


class AxisPairs(NamedTuple):
    """One axis's pairs, region ``ia[k]`` before ``ib[k]``, as read-only
    arrays sorted by (ia, ib), with the secondary and the adjacent ones marked."""

    ia: np.ndarray
    ib: np.ndarray
    secondary: np.ndarray
    adjacent: np.ndarray

    def take(self, rows: np.ndarray) -> AxisPairs:
        """The pairs at ``rows``, an index array or a mask."""
        return AxisPairs(*(_read_only(a[rows]) for a in self))


def _axis_pairs(n: int, ia, ib, secondary, adjacent) -> AxisPairs:
    """The pairs over n regions, sorted by (ia, ib)."""
    ia, ib = np.asarray(ia, dtype=np.int64), np.asarray(ib, dtype=np.int64)
    pairs = AxisPairs(ia, ib, np.asarray(secondary, bool), np.asarray(adjacent, bool))
    return pairs.take(np.argsort(ia * n + ib))


@dataclass(frozen=True, eq=False)
class SeparationConstraintSet:
    """The pairs of each axis, ``axes["H"]`` and ``axes["V"]``, over the sorted
    regions ``ids``, with gap epsilon. Sets are equal when their regions,
    pairs, marks, epsilon and setting are."""

    ids: tuple[str, ...]
    axes: dict[str, AxisPairs]
    epsilon: float
    setting: Setting

    @classmethod
    def from_pairs(
        cls, H: Iterable[Pair], V: Iterable[Pair], secondary=(), epsilon: float = 0.0,
        setting: Setting = Setting.WEAK, adjacencies=(), ids: Iterable[str] | None = None,
    ) -> SeparationConstraintSet:
        """A set built by hand from string pairs. The ("H"|"V", a, b) triples
        of ``secondary`` and the unordered pairs of ``adjacencies`` mark pairs
        of H and V. ``ids`` defaults to the regions that H and V name."""
        secondary, adjacent = set(secondary), {frozenset(e) for e in adjacencies}
        H, V = set(H), set(V)
        ids = tuple(sorted({r for p in H | V for r in p} if ids is None else ids))
        pos = {r: i for i, r in enumerate(ids)}
        return cls(ids, {
            axis: _axis_pairs(len(ids), [pos[a] for a, _ in P], [pos[b] for _, b in P],
                              [(axis, *p) in secondary for p in P],
                              [frozenset(p) in adjacent for p in P])
            for axis, P in (("H", H), ("V", V))
        }, epsilon, setting)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SeparationConstraintSet) and (self is other or (
            (self.ids, self.epsilon, self.setting) == (other.ids, other.epsilon, other.setting)
            and all(map(np.array_equal, self.axes["H"] + self.axes["V"],
                        other.axes["H"] + other.axes["V"]))))

    def gaps(self, axis: str) -> np.ndarray:
        """Required extra separation per pair: epsilon unless secondary or adjacent."""
        p = self.axes[axis]
        return np.where(p.secondary | p.adjacent, 0.0, self.epsilon)

    @cached_property
    def position(self) -> dict[str, int]:
        return {r: i for i, r in enumerate(self.ids)}

    @cached_property
    def _orders(self) -> dict[str, tuple[list[int], list[int]]]:
        """``_order_or_cycle`` of each axis, for ``validate_dag`` and ``reduce_transitive``."""
        return {axis: _order_or_cycle(len(self.ids), p.ia, p.ib) for axis, p in self.axes.items()}

    @cached_property
    def _rows(self) -> dict[str, np.ndarray]:
        """Per axis, the dense (n, n) table of each pair's row, -1 where absent."""
        n = len(self.ids)
        rows = {}
        for axis, p in self.axes.items():
            table = np.full((n, n), -1, dtype=np.int32)
            table[p.ia, p.ib] = np.arange(p.ia.size, dtype=np.int32)
            rows[axis] = _read_only(table)
        return rows

    def find(self, axis: str, a: str, b: str) -> int | None:
        """Row of the pair (a, b) in one axis's arrays, None when absent."""
        i, j = self.position.get(a), self.position.get(b)
        if i is None or j is None:
            return None
        k = int(self._rows[axis][i, j])
        return k if k >= 0 else None

    def is_adjacent(self, a: str, b: str) -> bool:
        """Whether a pair of the set between a and b is a map adjacency."""
        return any(k is not None and bool(self.axes[axis].adjacent[k]) for axis in "HV"
                   for k in (self.find(axis, a, b), self.find(axis, b, a)))

    def _named(self, axis: str, mask: np.ndarray | None = None) -> list[Pair]:
        p = self.axes[axis] if mask is None else self.axes[axis].take(mask)
        return [(self.ids[i], self.ids[j]) for i, j in zip(p.ia.tolist(), p.ib.tolist())]

    # read-only string views, built on first use
    @cached_property
    def H(self) -> frozenset[Pair]:
        return frozenset(self._named("H"))

    @cached_property
    def V(self) -> frozenset[Pair]:
        return frozenset(self._named("V"))

    @cached_property
    def secondary(self) -> frozenset[tuple[str, str, str]]:
        return frozenset((axis, *p) for axis in "HV"
                         for p in self._named(axis, self.axes[axis].secondary))

    @cached_property
    def content_id(self) -> str:
        """Short hash of the pairs, secondary marks, epsilon and setting that
        identifies the set in serialized output; computed once per set.

        The hashed text is ``json.dumps`` of ``{"H": [[a, b], ...], "V": ...,
        "secondary": sorted(self.secondary), "epsilon": ..., "setting": ...}``
        with sorted keys, pairs in array order, which is sorted order, and
        the secondary triples the H rows so marked, then the V rows. It is
        put together from each id's JSON text, one string concatenation per
        pair over object arrays.
        """
        enc = np.array([json.dumps(r) for r in self.ids], dtype=object)
        tail = ", " + enc + "]"

        def pairs(head: str, ia: np.ndarray, ib: np.ndarray) -> str:
            """The pairs' list items, ``head`` a, then ", " b "]" each."""
            return ", ".join(((head + enc)[ia] + tail[ib]).tolist())

        H, V = self.axes["H"], self.axes["V"]
        secondary = [pairs(f'["{axis}", ', p.ia[p.secondary], p.ib[p.secondary])
                     for axis, p in (("H", H), ("V", V))]
        payload = (f'{{"H": [{pairs("[", H.ia, H.ib)}], "V": [{pairs("[", V.ia, V.ib)}], '
                   f'"epsilon": {json.dumps(self.epsilon)}, '
                   f'"secondary": [{", ".join(s for s in secondary if s)}], '
                   f'"setting": {json.dumps(self.setting.value)}}}')
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dot(self) -> str:
        """DOT digraph of all constraints, secondary ones dashed."""
        lines = ["digraph separation {", "  rankdir=LR;"]
        for axis, color in (("H", "blue"), ("V", "red")):
            for (a, b), sec in zip(self._named(axis), self.axes[axis].secondary.tolist()):
                style = "dashed" if sec else "solid"
                lines.append(f'  "{a}" -> "{b}" [label="{axis}", color={color}, style={style}];')
        return "\n".join(lines + ["}", ""])


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

    A derived set has no directed cycle, so ``validate_dag`` returns None:
    every H pair, primary or secondary, runs toward larger centroid x, and
    every V pair toward larger centroid y, so x orders H and y orders V.
    Along a primary H pair x+y does not decrease (dx > 0 and |dx| >= |dy|),
    and where it stays the same x increases; along a primary V pair x+y
    increases (dy > 0 and |dy| > |dx|). So (x+y, x) orders the union of the
    primary pairs.
    """
    ids = map.sorted_ids
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
    adjacent = map.adjacency_mask[ia, ib]
    extra = np.zeros_like(horiz)  # pairs with a secondary constraint
    if setting is Setting.STRONG:
        x_sep = (box[ia, 2] < box[ib, 0]) | (box[ib, 2] < box[ia, 0])
        y_sep = (box[ia, 3] < box[ib, 1]) | (box[ib, 3] < box[ia, 1])
        extra = (other != 0) & ~adjacent & x_sep & y_sep

    def axis(primary: np.ndarray, second: np.ndarray) -> AxisPairs:
        """The masked primary and secondary rows of the pair table, first
        region at the smaller coordinate."""
        rows = np.concatenate([np.flatnonzero(primary), np.flatnonzero(second)])
        fwd = np.concatenate([main[primary], other[second]]) > 0
        a, b = ia[rows], ib[rows]
        marked = np.arange(rows.size) >= np.count_nonzero(primary)
        return _axis_pairs(len(ids), np.where(fwd, a, b), np.where(fwd, b, a),
                           marked, adjacent[rows])

    axes = {"H": axis(horiz, extra & ~horiz), "V": axis(~horiz, extra & horiz)}
    return SeparationConstraintSet(ids, axes, epsilon, setting)


def _order_or_cycle(n: int, ia: np.ndarray, ib: np.ndarray) -> tuple[list[int], list[int]]:
    """Regions 0..n-1, each after all of its successors along the edges ia -> ib
    (Kahn's algorithm), and []; or [] and a directed cycle of the edges, as its
    distinct regions in edge order. Edges distinct and sorted by (ia, ib) give
    the same cycle in every process."""
    start = np.searchsorted(ia, np.arange(n + 1)).tolist()
    targets, indeg = ib.tolist(), np.bincount(ib, minlength=n).tolist()
    ready, order = [r for r in range(n) if not indeg[r]], []
    while ready:
        order.append(r := ready.pop())
        for s in targets[start[r]:start[r + 1]]:
            indeg[s] -= 1
            if not indeg[s]:
                ready.append(s)
    if len(order) == n:
        return order[::-1], []
    graph: dict[int, list[int]] = {}
    for a, b in zip(ia.tolist(), targets):
        graph.setdefault(a, []).append(b)
        graph.setdefault(b, [])
    try:
        # TopologicalSorter reads the successors as predecessors, so it
        # reports the cycle against the edges' direction
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return [], exc.args[1][:0:-1]
    raise AssertionError("Kahn's algorithm stalled on an acyclic graph")


def validate_dag(cs: SeparationConstraintSet) -> list[str] | None:
    """Return a directed cycle that would make the constraints infeasible.

    Checked are the cycles that actually rule out a placement: within H alone,
    within V alone, and within the union of primary constraints. A pair may
    legitimately carry a primary constraint one way and a secondary constraint
    the opposite way in the other axis (one axis orders them left-right, the
    other bottom-top), so the raw union of all four orientations need not be
    acyclic in the strong setting. Returns the cycle's distinct regions in
    edge order, or None when consistent. A derived set never has one (see
    ``derive_constraints``); sets built by hand may.
    """
    n = len(cs.ids)
    primary = [p.take(~p.secondary) for p in cs.axes.values()]
    keys = np.sort(np.concatenate([p.ia * n + p.ib for p in primary]))
    union = keys[np.diff(keys, prepend=-1) != 0]  # np.unique would import numpy.ma
    for _, cycle in (*cs._orders.values(), _order_or_cycle(n, union // n, union % n)):
        if cycle:
            return [cs.ids[r] for r in cycle]
    return None


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

    Reachability is one boolean row per region, filled in the successors-first
    order of each axis that ``validate_dag`` checked; so each must be acyclic.
    """
    n = len(cs.ids)

    def reduced(axis: str, p: AxisPairs) -> AxisPairs:
        order, cycle = cs._orders[axis]
        if cycle:
            raise ConstraintError(f"directed cycle {[cs.ids[r] for r in cycle]}")
        start = np.searchsorted(p.ia, np.arange(n + 1))
        reach = np.zeros((n, n), dtype=bool)  # by one or more edges
        longer = np.zeros((n, n), dtype=bool)  # by two or more
        for r in order:
            succ = p.ib[start[r]:start[r + 1]]
            if succ.size:
                # in a DAG no successor reaches itself, so the direct edge
                # (r, b) never counts as a longer path
                longer[r] = reach[succ].any(axis=0)
                reach[r] = longer[r]
                reach[r, succ] = True
        return p.take(p.adjacent | ~longer[p.ia, p.ib])

    return replace(cs, axes={axis: reduced(axis, p) for axis, p in cs.axes.items()})
