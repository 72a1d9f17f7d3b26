import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overlapping_pairs, pair_gap, square_map
from demers.layout import (
    LayoutError,
    SquareLayout,
    Violation,
    anchor_to_origins,
    decode,
    interpolate,
    l1_gap,
    layout_from_json,
    validity_violations,
)
from demers.lpmodel import ModelSpec, build_single_lp
from demers.sepconstraints import Setting, derive_constraints
from demers.simplexsolver import solve_lp
from demers.synth import grid_map


def layout_of(squares, cs=None, diagonal=20.0):
    return SquareLayout(
        centers={rid: (x, y) for rid, (x, y, _) in squares.items()},
        sides={rid: s for rid, (_, _, s) in squares.items()},
        constraint_ref=cs,
        diagonal=diagonal,
    )


class TestL1Gap:
    def test_touching_is_zero(self):
        lay = layout_of({"a": (0, 0, 2.0), "b": (2, 0, 2.0)})
        assert l1_gap(lay, "a", "b") == 0.0

    def test_single_axis_gap(self):
        lay = layout_of({"a": (0, 0, 4.0), "b": (8, 0, 2.0)})
        assert l1_gap(lay, "a", "b") == pytest.approx(5.0)

    def test_both_axis_gap(self):
        lay = layout_of({"a": (0, 0, 2.0), "b": (5, 5, 2.0)})
        assert l1_gap(lay, "a", "b") == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", range(30))
    def test_zero_iff_rects_touch_or_overlap(self, seed):
        rng = random.Random(seed)
        lay = layout_of({
            "a": (rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0.5, 3)),
            "b": (rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0.5, 3)),
        })
        gap = l1_gap(lay, "a", "b")
        ra, rb = lay.rect("a"), lay.rect("b")
        touches = (
            ra[0] <= rb[2] and rb[0] <= ra[2] and ra[1] <= rb[3] and rb[1] <= ra[3]
        )
        assert (gap == 0.0) == touches


def solved_pair(seed, k_sides=2):
    """Two layouts for the same constraint set with different side tables."""
    rng = random.Random(seed)
    squares = {
        f"r{i}": (rng.uniform(0, 15), rng.uniform(0, 15), rng.uniform(0.8, 3))
        for i in range(6)
    }
    ids = sorted(squares)
    edges = {(ids[i], ids[i + 1]) for i in range(0, len(ids) - 1, 2)}
    g = square_map(squares, edges)
    cs = derive_constraints(g, 0.2, Setting.WEAK)
    lays = []
    for j in range(k_sides):
        sides = {rid: squares[rid][2] * rng.uniform(0.6, 1.6) for rid in ids}
        model = build_single_lp(g, sides, cs, ModelSpec())
        lays.append(decode(solve_lp(model.problem), model)[0])
    return lays


class TestInterpolate:
    def test_endpoints(self):
        a, b = solved_pair(1)
        assert interpolate(a, b, 0.0).centers == a.centers
        assert interpolate(a, b, 1.0).centers == b.centers

    def test_symmetry(self):
        a, b = solved_pair(2)
        lhs = interpolate(a, b, 0.3)
        rhs = interpolate(b, a, 0.7)
        for rid in lhs.centers:
            assert lhs.centers[rid] == pytest.approx(rhs.centers[rid])
            assert lhs.sides[rid] == pytest.approx(rhs.sides[rid])

    @pytest.mark.parametrize("seed", range(10))
    def test_frames_stay_valid_and_overlap_free(self, seed):
        a, b = solved_pair(seed)
        for t in [i / 10 for i in range(1, 10)]:
            frame = interpolate(a, b, t)
            assert not validity_violations(frame)
            assert overlapping_pairs(frame) == []

    def test_constraint_inequalities_hold_along_the_blend(self):
        a, b = solved_pair(4)
        cs = a.constraint_ref
        for t in (0.25, 0.5, 0.75):
            frame = interpolate(a, b, t)
            for axis, pairs, coord in (("H", sorted(cs.H), 0), ("V", sorted(cs.V), 1)):
                for u, v in pairs:
                    w = (frame.sides[u] + frame.sides[v]) / 2
                    need = w + pair_gap(cs, axis, (u, v))
                    got = frame.centers[v][coord] - frame.centers[u][coord]
                    assert got >= need - 1e-7

    def test_mismatched_constraint_sets_rejected(self):
        a, _ = solved_pair(5)
        c, _ = solved_pair(6)
        with pytest.raises(LayoutError, match="constraint"):
            interpolate(a, c, 0.5)

    def test_sets_compared_by_content(self):
        # a copy of the set is the same set; another epsilon is not, even
        # with the same pairs
        a, b = solved_pair(5)
        cs = b.constraint_ref
        copy = dataclasses.replace(b, constraint_ref=dataclasses.replace(cs))
        assert copy.constraint_ref is not cs
        assert interpolate(a, copy, 0.5).constraint_ref is a.constraint_ref
        moved = dataclasses.replace(
            b, constraint_ref=dataclasses.replace(cs, epsilon=cs.epsilon * 2)
        )
        with pytest.raises(LayoutError, match="do not share a separation constraint set"):
            interpolate(a, moved, 0.5)


class TestDecode:
    def test_invalid_solution_rejected(self):
        squares = {"a": (0, 0, 2.0), "b": (5, 0, 2.0)}
        g = square_map(squares, set())
        cs = derive_constraints(g, 0.5, Setting.WEAK)
        model = build_single_lp(g, {"a": 2.0, "b": 2.0}, cs, ModelSpec())
        sol = solve_lp(model.problem)
        x = model.blocks[0].x  # center columns in region_ids order: a, b
        sol.x[x[1]] = sol.x[x[0]]
        with pytest.raises(LayoutError, match="invalid"):
            decode(sol, model)

    def test_no_values_rejected(self):
        from demers.simplexsolver import Solution, SolveStatus

        squares = {"a": (0, 0, 2.0)}
        g = square_map(squares, set())
        cs = derive_constraints(g, 0.5, Setting.WEAK)
        model = build_single_lp(g, {"a": 2.0}, cs, ModelSpec())
        with pytest.raises(LayoutError, match="status"):
            decode(Solution(SolveStatus.INFEASIBLE), model)


class TestAnchoring:
    def test_anchor_reduces_displacement_and_keeps_validity(self):
        lays = solved_pair(7)
        origins = {rid: (0.0, 0.0) for rid in lays[0].centers}
        # pick the solved instance's own centroids as origins
        anchored = anchor_to_origins(lays, {r: lays[0].centers[r] for r in lays[0].centers})
        for lay in anchored:
            assert not validity_violations(lay)

    def test_translation_is_joint(self):
        lays = solved_pair(8)
        origins = {r: (100.0, -50.0) for r in lays[0].centers}
        anchored = anchor_to_origins(lays, origins)
        dx0 = anchored[0].centers[next(iter(origins))][0] - lays[0].centers[next(iter(origins))][0]
        for old, new in zip(lays, anchored):
            for rid in old.centers:
                assert new.centers[rid][0] - old.centers[rid][0] == pytest.approx(dx0)


class TestSerialization:
    def test_json_round_trip(self):
        lay, _ = solved_pair(9)
        doc = json.loads(lay.to_json())
        assert doc["schema_version"] == 1
        back = layout_from_json(doc)
        for rid in lay.centers:
            assert back.centers[rid] == pytest.approx(lay.centers[rid])
            assert back.sides[rid] == pytest.approx(lay.sides[rid])

    def test_json_is_sorted_and_deterministic(self):
        lay, _ = solved_pair(10)
        assert lay.to_json() == lay.to_json()
        ids = [r["id"] for r in json.loads(lay.to_json())["regions"]]
        assert ids == sorted(ids)


def violations_by_loop(layout):
    """Reference: the scalar validity check, one Python test per pair."""
    cs = layout.constraint_ref
    tol = 1e-6 * (layout.diagonal or 1.0)
    centers, sides = layout.centers, layout.sides
    out = []

    def w(a, b):
        return (sides[a] + sides[b]) / 2.0

    for axis, pairs, coord in (("H", sorted(cs.H), 0), ("V", sorted(cs.V), 1)):
        for a, b in pairs:
            need = w(a, b) + pair_gap(cs, axis, (a, b))
            got = centers[b][coord] - centers[a][coord]
            if got < need - tol:
                out.append(Violation(f"separation[{axis}]", (a, b), need - got))
    ids = sorted(centers)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            dx = abs(centers[a][0] - centers[b][0])
            dy = abs(centers[a][1] - centers[b][1])
            if max(dx, dy) < w(a, b) - tol:
                out.append(Violation("interior-disjoint", (a, b), w(a, b) - max(dx, dy)))
    return out


@st.composite
def perturbed_layouts(draw):
    """A grid map's constraint set with a random layout, some squares stacked."""
    cols, rows = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    jitter = draw(st.sampled_from([0.0, 0.3]))
    g = grid_map(cols, rows, jitter=jitter, seed=draw(st.integers(0, 9)))
    setting = draw(st.sampled_from([Setting.WEAK, Setting.STRONG]))
    cs = derive_constraints(g, draw(st.sampled_from([0.05, 0.2])), setting)
    ids = sorted(g.region_ids)
    value = st.floats(-3.0, 8.0, allow_nan=False)
    centers = {rid: (draw(value), draw(value)) for rid in ids}
    sides = {rid: draw(st.floats(0.1, 2.0)) for rid in ids}
    # inject overlaps: put some squares on top of (or just beside) others
    for rid in draw(st.lists(st.sampled_from(ids), max_size=len(ids))):
        x, y = centers[draw(st.sampled_from(ids))]
        shift = draw(st.sampled_from([0.0, 1e-9, 0.5]))
        centers[rid] = (x + shift, y)
    return SquareLayout(centers, sides, constraint_ref=cs, diagonal=g.diagonal())


@settings(max_examples=150, deadline=None)
@given(perturbed_layouts())
def test_vectorized_violations_match_scalar_reference(layout):
    assert validity_violations(layout) == violations_by_loop(layout)


def test_layout_without_a_diagonal_measures_by_its_squares():
    # two 0.1 x 0.1 squares overlapping by 5e-7 on a map of diagonal 0.224:
    # the overlap is below 1e-6 x 1 but above 1e-6 x 0.224, so a layout read
    # back from JSON (no diagonal) must fail as the solved one does
    g = square_map({"a": (0.05, 0.05, 0.1), "b": (0.15, 0.05, 0.1)}, {("a", "b")})
    cs = derive_constraints(g, 0.01, Setting.WEAK)
    squares = {"a": (0.05, 0.05, 0.1), "b": (0.15 - 5e-7, 0.05, 0.1)}
    solved = layout_of(squares, cs, diagonal=g.diagonal())
    loaded = layout_of(squares, cs, diagonal=0.0)
    assert g.diagonal() == pytest.approx(0.2236, abs=1e-4)
    assert loaded.reference_diagonal() == pytest.approx(0.2236, abs=1e-4)
    kinds = [(v.kind, v.pair) for v in validity_violations(loaded)]
    assert kinds == [("separation[H]", ("a", "b")), ("interior-disjoint", ("a", "b"))]
    for v in validity_violations(loaded):
        assert v.amount == pytest.approx(5e-7, rel=1e-6)
    assert validity_violations(loaded) == validity_violations(solved)
