import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import leader_crossings, polyline_monotone, square_map
from demers.layout import SquareLayout, decode, l1_gap, layout_from_json
from demers.leaders import (
    LeaderError,
    RoutingReport,
    all_leaders,
    lost_adjacencies,
    min_leader,
    two_bend_leader,
)
from demers.lpmodel import ModelSpec, ObjectiveKind, build_single_lp
from demers.sepconstraints import SeparationConstraintSet, Setting, derive_constraints
from demers.simplexsolver import solve_lp


def layout_for(squares, edges, setting=Setting.WEAK, epsilon=0.4):
    g = square_map(squares, set(edges))
    cs = derive_constraints(g, epsilon, setting)
    lay = SquareLayout(
        centers={r: (x, y) for r, (x, y, _) in squares.items()},
        sides={r: s for r, (_, _, s) in squares.items()},
        constraint_ref=cs,
        diagonal=20.0,
    )
    return g, cs, lay


class TestMinLeader:
    def test_straight_leader(self):
        _, cs, lay = layout_for(
            {"a": (0, 0, 4.0), "b": (8, 0, 2.0)}, {("a", "b")}
        )
        ld = min_leader(lay, cs, "a", "b")
        assert ld.bends == 0
        assert ld.length == pytest.approx(5.0)
        assert ld.polyline == ((2.0, 0.0), (7.0, 0.0))

    def test_straight_leader_midpoint_attachment(self):
        # overlap strip is y in [0,1]: leader sits at its midpoint
        _, cs, lay = layout_for(
            {"a": (0, 0, 2.0), "b": (6, 1, 2.0)}, {("a", "b")}
        )
        ld = min_leader(lay, cs, "a", "b")
        assert ld.polyline[0][1] == pytest.approx(0.5)

    def test_staircase_hugs_blocker_corner(self):
        squares = {
            "r1": (0, 0, 2.0),
            "r2": (6, 6, 2.0),
            "blk": (2.5, 3.5, 2.0),
        }
        _, cs, lay = layout_for(squares, {("r1", "r2")})
        ld = min_leader(lay, cs, "r1", "r2")
        assert ld.length == pytest.approx(l1_gap(lay, "r1", "r2"))
        assert (3.5, 2.5) in ld.polyline  # the blocker's bottom-right corner
        assert leader_crossings(ld, lay) == []
        assert polyline_monotone(ld.polyline)

    def test_two_bend_staircase_with_low_blocker(self):
        squares = {
            "r1": (0, 0, 2.0),
            "r2": (6, 6, 2.0),
            "blk": (1.5, 2.5, 3.0),  # bottom level with r1's top
        }
        _, cs, lay = layout_for(squares, {("r1", "r2")})
        ld = min_leader(lay, cs, "r1", "r2")
        assert ld.bends == 2
        assert ld.length == pytest.approx(8.0)
        assert leader_crossings(ld, lay) == []

    def test_empty_corridor_single_corner(self):
        _, cs, lay = layout_for({"r1": (0, 0, 2.0), "r2": (6, 6, 2.0)}, {("r1", "r2")})
        ld = min_leader(lay, cs, "r1", "r2")
        assert ld.bends == 1
        assert ld.length == pytest.approx(8.0)

    def test_intact_adjacency_rejected(self):
        _, cs, lay = layout_for({"a": (0, 0, 2.0), "b": (2, 0, 2.0)}, {("a", "b")})
        with pytest.raises(LeaderError, match="intact"):
            min_leader(lay, cs, "a", "b")

    def test_non_edge_rejected(self):
        _, cs, lay = layout_for({"a": (0, 0, 2.0), "b": (8, 0, 2.0)}, set())
        with pytest.raises(LeaderError, match="not a map adjacency"):
            min_leader(lay, cs, "a", "b")

    def test_non_minimal_pair_reported(self):
        # mid sits x-between a and b with H constraints to both
        squares = {"a": (0, 0, 2.0), "mid": (5, 1, 2.0), "b": (10, 0, 2.0)}
        _, cs, lay = layout_for(squares, {("a", "b")})
        with pytest.raises(LeaderError, match="minimal"):
            min_leader(lay, cs, "a", "b")

    @pytest.mark.parametrize("flip_x", [1.0, -1.0])
    @pytest.mark.parametrize("flip_y", [1.0, -1.0])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_all_orientations(self, flip_x, flip_y, transpose):
        base = {
            "r1": (0.0, 0.0, 2.0),
            "r2": (6.0, 6.0, 2.0),
            "blk": (2.5, 3.5, 2.0),
        }
        squares = {}
        for rid, (x, y, s) in base.items():
            x2, y2 = x * flip_x, y * flip_y
            if transpose:
                x2, y2 = y2, x2
            squares[rid] = (x2, y2, s)
        _, cs, lay = layout_for(squares, {("r1", "r2")})
        ld = min_leader(lay, cs, "r1", "r2")
        assert ld.length == pytest.approx(l1_gap(lay, "r1", "r2"))
        assert leader_crossings(ld, lay) == []
        assert polyline_monotone(ld.polyline)


class TestTwoBend:
    def test_requires_strong_setting(self):
        _, cs, lay = layout_for({"r1": (0, 0, 2.0), "r2": (6, 6, 2.0)}, {("r1", "r2")})
        with pytest.raises(LeaderError, match="strong"):
            two_bend_leader(lay, cs, "r1", "r2")

    def test_case1_zero_bends(self):
        _, cs, lay = layout_for(
            {"a": (0, 0, 4.0), "b": (8, 0, 2.0)}, {("a", "b")}, setting=Setting.STRONG
        )
        ld = two_bend_leader(lay, cs, "a", "b")
        assert ld.bends == 0

    def test_empty_corridor_one_bend(self):
        _, cs, lay = layout_for(
            {"r1": (0, 0, 2.0), "r2": (6, 6, 2.0)}, {("r1", "r2")},
            setting=Setting.STRONG,
        )
        ld = two_bend_leader(lay, cs, "r1", "r2")
        assert ld.bends == 1
        assert ld.length == pytest.approx(8.0)

    def test_blockers_give_at_most_two_bends(self):
        squares = {
            "r1": (0, 0, 2.0),
            "r2": (9, 9, 2.0),
            "b1": (2.5, 3.5, 2.0),
            "b2": (5.0, 5.5, 1.6),
            "b3": (7.0, 7.5, 1.6),
        }
        _, cs_weak, lay = layout_for(squares, {("r1", "r2")})
        _, cs_strong, lay_strong = layout_for(
            squares, {("r1", "r2")}, setting=Setting.STRONG
        )
        mini = min_leader(lay, cs_weak, "r1", "r2")
        tb = two_bend_leader(lay_strong, cs_strong, "r1", "r2")
        assert mini.bends > 2  # the staircase hugs every blocker corner here
        assert tb.bends <= 2
        assert tb.length == pytest.approx(mini.length)
        assert leader_crossings(tb, lay) == []
        assert leader_crossings(mini, lay) == []


def realizable_strong_instance(rng):
    """Constraints derived (strong) from a map of properly touching squares."""
    s = rng.uniform(1.0, 3.0, size=4)
    pid = ["p", "q", "r", "t"]
    cx = {"p": 0.0, "q": (s[0] + s[1]) / 2, "r": float(rng.uniform(-0.4, 0.4))}
    cy = {"p": 0.0, "q": float(rng.uniform(-0.4, 0.4)), "r": (s[0] + s[2]) / 2}
    cx["t"] = cx["r"] + (s[2] + s[3]) / 2
    cy["t"] = cy["r"] + float(rng.uniform(-0.3, 0.3))
    sides = dict(zip(pid, s))
    squares = {rid: (cx[rid], cy[rid], sides[rid]) for rid in pid}
    lay = SquareLayout(
        centers={r: (cx[r], cy[r]) for r in pid}, sides=sides, diagonal=10.0
    )

    def side_contact(a, b):
        ax0, ay0, ax1, ay1 = lay.rect(a)
        bx0, by0, bx1, by1 = lay.rect(b)
        if abs(ax1 - bx0) < 1e-9 or abs(bx1 - ax0) < 1e-9:
            return min(ay1, by1) - max(ay0, by0) > 1e-6
        if abs(ay1 - by0) < 1e-9 or abs(by1 - ay0) < 1e-9:
            return min(ax1, bx1) - max(ax0, bx0) > 1e-6
        return False

    edges = {
        (a, b)
        for i, a in enumerate(pid)
        for b in pid[i + 1 :]
        if l1_gap(lay, a, b) < 1e-9 and side_contact(a, b)
    }
    return squares, edges


class TestOnSolvedLayouts:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("setting", [Setting.WEAK, Setting.STRONG])
    def test_routed_leaders_are_minimal_and_clean(self, seed, setting):
        from demers.mapdata import compute_epsilon, scale_weights
        from demers.synth import grid_map, lognormal_weights

        g = grid_map(4)
        ws = lognormal_weights(g, k=1, seed=seed, sigma=1.2)
        table = scale_weights(ws, g)
        cs = derive_constraints(g, compute_epsilon(table, g), setting)
        model = build_single_lp(
            g, table.function_sides(0), cs, ModelSpec(setting=setting)
        )
        lay = decode(solve_lp(model.problem), model)[0]
        routed, report = all_leaders(lay, cs, g)
        assert report.routed == len(routed)
        assert len(routed) + len(report.unroutable) == len(lost_adjacencies(lay, g))
        for ld in routed:
            assert ld.length == pytest.approx(
                l1_gap(lay, *ld.endpoints), abs=1e-9 * lay.diagonal
            )
            assert leader_crossings(ld, lay) == []
            assert polyline_monotone(ld.polyline)
            for rid, pt in zip(ld.endpoints, (ld.polyline[0], ld.polyline[-1])):
                x0, y0, x1, y1 = lay.rect(rid)
                on_x = abs(pt[0] - x0) < 1e-9 or abs(pt[0] - x1) < 1e-9
                on_y = abs(pt[1] - y0) < 1e-9 or abs(pt[1] - y1) < 1e-9
                inside_x = x0 - 1e-9 <= pt[0] <= x1 + 1e-9
                inside_y = y0 - 1e-9 <= pt[1] <= y1 + 1e-9
                assert (on_x and inside_y) or (on_y and inside_x)

    @pytest.mark.parametrize("seed", range(12))
    def test_two_bend_under_certified_realizability(self, seed):
        rng = np.random.default_rng(seed)
        squares, edges = realizable_strong_instance(rng)
        if not edges:
            pytest.skip("degenerate draw without side contacts")
        g = square_map(squares, edges)
        from demers.sepconstraints import validate_dag

        cs = derive_constraints(g, 0.2, Setting.STRONG)
        assert validate_dag(cs) is None
        new_sides = {rid: float(v) for rid, v in zip(sorted(squares), rng.uniform(0.5, 2.5, 4))}
        model = build_single_lp(
            g, new_sides, cs,
            ModelSpec(objective_kind=ObjectiveKind.ORG, setting=Setting.STRONG),
        )
        lay = decode(solve_lp(model.problem), model)[0]
        for a, b in lost_adjacencies(lay, g):
            ld = two_bend_leader(lay, cs, a, b)
            assert ld.bends <= 2
            assert ld.length == pytest.approx(l1_gap(lay, a, b), abs=1e-9 * lay.diagonal)
            assert leader_crossings(ld, lay) == []

    def test_no_broken_edges_no_leaders(self):
        _, cs, lay = layout_for({"a": (0, 0, 2.0), "b": (2, 0, 2.0)}, {("a", "b")})
        g = square_map({"a": (0, 0, 2.0), "b": (2, 0, 2.0)}, {("a", "b")})
        routed, report = all_leaders(lay, cs, g)
        assert routed == []
        assert report.unroutable == ()

    def test_leader_json_shape(self):
        _, cs, lay = layout_for({"a": (0, 0, 4.0), "b": (8, 0, 2.0)}, {("a", "b")})
        ld = min_leader(lay, cs, "a", "b")
        doc = ld.to_json_dict()
        assert doc["from"] == "a" and doc["to"] == "b"
        assert doc["points"][0] == [2.0, 0.0]


class TestRetryWithoutMinimality:
    """``all_leaders`` routes each lost pair once, without the minimality
    hypothesis: these pin which leaders come out and each unroutable
    pair's reason."""

    def route(self, squares, edges, cs=None):
        g, derived, lay = layout_for(squares, edges)
        return all_leaders(lay, derived if cs is None else cs, g)

    def test_pair_not_minimal_is_routed(self):
        # mid sits x-between a and b with H constraints to both, but leaves
        # the shared strip's midline free
        squares = {"a": (0, 0, 2.0), "mid": (5, 1, 2.0), "b": (10, 0, 2.0)}
        routed, report = self.route(squares, {("a", "b")})
        assert [(ld.endpoints, ld.polyline) for ld in routed] == [
            (("a", "b"), ((1.0, 0.0), (9.0, 0.0)))
        ]
        assert report == RoutingReport(routed=1, unroutable=())

    def test_blocked_minimal_pair_is_reported(self):
        # the tall square is V-related to both, so (a, b) is minimal in H,
        # but it covers the whole shared strip
        squares = {"a": (0, 0, 2.0), "tall": (5, 6, 14.2), "b": (10, 0, 2.0)}
        routed, report = self.route(squares, {("a", "b")})
        assert routed == []
        assert report.unroutable == (
            ("a", "b", "no crossing-free minimal leader for ('a', 'b'); "
                       "blocked by ['tall']"),
        )

    def test_walled_off_pair_is_not_retried(self):
        # the wall's id puts "minimal" into the error text
        squares = {"r1": (0, 0, 2.0), "r2": (6, 6, 2.0), "minimal": (4.5, 3, 4.2)}
        routed, report = self.route(squares, {("r1", "r2")})
        assert routed == []
        assert report.unroutable == (
            ("r1", "r2", "corridor for ('r1', 'r2') is walled off by 'minimal'"),
        )

    def test_pair_without_constraint_is_not_retried(self):
        squares = {"minimal_a": (0, 0, 2.0), "b": (8, 0, 2.0)}
        _, cs, _ = layout_for(squares, {("minimal_a", "b")})
        bare = SeparationConstraintSet.from_pairs(
            (), (), epsilon=cs.epsilon, setting=cs.setting, ids=cs.ids
        )
        routed, report = self.route(squares, {("minimal_a", "b")}, bare)
        assert routed == []
        assert report.unroutable == (
            ("b", "minimal_a", "pair ('b', 'minimal_a') has no separation constraint"),
        )


@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e4])
def test_lost_pair_of_layout_without_diagonal_is_routed(scale):
    # a layout read back from JSON carries no diagonal; at every scale the
    # gap (5e-7 of the scale) is above LOST_TOL of the layout's reference
    # diagonal (0.224 of the scale), so lost_adjacencies, madj, all_leaders,
    # min_leader and two_bend_leader all call the pair lost, and each
    # leader is as long as the gap
    from demers.layout import layout_from_json
    from demers.metrics import madj

    g = square_map(
        {"a": (0.05 * scale, 0.05 * scale, 0.1 * scale),
         "b": (0.15 * scale, 0.05 * scale, 0.1 * scale)},
        {("a", "b")},
    )
    lay = layout_from_json({"regions": [
        {"id": "a", "cx": 0.05 * scale, "cy": 0.05 * scale, "side": 0.1 * scale},
        {"id": "b", "cx": (0.15 + 5e-7) * scale, "cy": 0.05 * scale, "side": 0.1 * scale},
    ]})
    assert lay.diagonal == 0.0
    gap = l1_gap(lay, "a", "b")
    assert gap == pytest.approx(5e-7 * scale, rel=1e-6)
    assert lost_adjacencies(lay, g) == [("a", "b")]
    assert madj([lay], g) == 1.0
    weak = derive_constraints(g, 0.01 * scale, Setting.WEAK)
    strong = derive_constraints(g, 0.01 * scale, Setting.STRONG)
    routed, report = all_leaders(lay, weak, g)
    assert report == RoutingReport(routed=1, unroutable=())
    leaders = [*routed, min_leader(lay, weak, "a", "b"), two_bend_leader(lay, strong, "a", "b")]
    for ld in leaders:
        assert ld.length == pytest.approx(gap, rel=1e-9)


@pytest.mark.parametrize("squares", [
    # c's bottom edge is the line where a's top meets b's bottom
    {"a": (0.5, -0.5, 1.0), "b": (3.5, 0.5, 1.0), "c": (2.0, 1.0, 2.0)},
    # c sits on a's top edge, the corridor's floor, rises past b's bottom
    # and ends at b's left edge
    {"a": (0.5, 0.5, 1.0), "b": (3.5, 3.5, 1.0), "c": (1.95, 2.05, 2.1)},
], ids=["strip", "corridor"])
def test_blocker_on_the_contact_line_routes_the_same_when_moved(squares):
    # moving c by 1e-16 of the diagonal in x and y, into a or b or off them,
    # leaves the pair routed: contacts within the lost-adjacency tolerance
    # count as touching, and the leader runs along c's edge
    polylines = []
    for shift in (0.0, 1e-16, -1e-16):
        x, y, side = squares["c"]
        moved = (x + shift * 20.0, y + shift * 20.0, side)
        g, cs, lay = layout_for({**squares, "c": moved}, {("a", "b")})
        routed, report = all_leaders(lay, cs, g)
        assert report == RoutingReport(routed=1, unroutable=()), shift
        [ld] = routed
        for end, (x, y) in zip(("a", "b"), (ld.polyline[0], ld.polyline[-1])):
            x0, y0, x1, y1 = lay.rect(end)
            assert x0 <= x <= x1 and y0 <= y <= y1, (shift, end)  # on the square
        assert abs(ld.length - l1_gap(lay, "a", "b")) <= 1e-9 * lay.diagonal
        assert leader_crossings(ld, lay) == []
        assert polyline_monotone(ld.polyline)
        polylines.append(np.array(ld.polyline))
    # the same route: every point lies within 1e-12 of the diagonal of one
    # of the unmoved leader's points, and the other way round
    for pts in polylines[1:]:
        gaps = np.abs(pts[:, None, :] - polylines[0][None, :, :]).max(axis=2)
        assert gaps.min(axis=1).max() <= 1e-12 * 20.0
        assert gaps.min(axis=0).max() <= 1e-12 * 20.0


@st.composite
def solved_layouts(draw):
    """LP-solved layouts of random jittered grids, weak and strong."""
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.synth import grid_map, lognormal_weights

    cols, rows = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    jitter = draw(st.one_of(st.just(0.0), st.floats(0.05, 0.4)))
    seed = draw(st.integers(0, 10_000))
    setting = draw(st.sampled_from(list(Setting)))
    objective = draw(st.sampled_from([ObjectiveKind.TOP, ObjectiveKind.ORG]))
    g = grid_map(cols, rows, jitter=jitter, seed=seed)
    ws = lognormal_weights(g, k=1, seed=seed, sigma=draw(st.floats(0.5, 2.0)))
    table = scale_weights(ws, g)
    cs = derive_constraints(g, compute_epsilon(table, g), setting)
    model = build_single_lp(g, table.function_sides(0), cs, ModelSpec(objective, setting))
    return g, cs, decode(solve_lp(model.problem), model)[0]


@st.composite
def lattice_layouts(draw):
    """Squares on cells of a 5x5 lattice that realize their own constraint
    set; sides near the cell size make touching edges, walled-off
    corridors and pairs that are not minimal."""
    from demers.layout import validity_violations

    cells = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                          min_size=2, max_size=14, unique=True))
    side = st.one_of(st.sampled_from([0.5, 0.9, 0.95]), st.floats(0.2, 0.95))
    squares = {f"c{x}_{y}": (float(x), float(y), draw(side)) for x, y in cells}
    ids = sorted(squares)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    g, cs, lay = layout_for(squares, edges, draw(st.sampled_from(list(Setting))), 0.05)
    assume(validity_violations(lay) == [])
    return g, cs, lay


@st.composite
def router_instances(draw):
    """Solved and lattice layouts, some read back through JSON. As
    ``layout_from_json`` returns them, those carry no map diagonal, so the
    lost-adjacency scale is their squares' bounding box. Some are shrunk by
    2**-17 first, exactly in binary floating point, so that their gaps fall
    below 1e-6 and only a rule that follows the layout's scale finds them
    lost."""
    g, cs, lay = draw(st.one_of(solved_layouts(), lattice_layouts()))
    if draw(st.booleans()):
        doc = lay.to_json_dict()
        scale = draw(st.sampled_from([1.0, 2.0**-17]))
        for r in doc["regions"]:
            r["cx"], r["cy"], r["side"] = r["cx"] * scale, r["cy"] * scale, r["side"] * scale
        lay = layout_from_json(doc)
    return g, cs, lay


@settings(max_examples=60, deadline=None)
@given(router_instances())
def test_router_matches_frozen_oracle(instance):
    # the router returns the oracle's leaders and reasons, and every
    # leader is minimal, monotone and crosses no square
    import oracle_leaders

    g, cs, lay = instance
    routed, report = all_leaders(lay, cs, g)
    assert (routed, report) == oracle_leaders.all_leaders(lay, cs, g)
    for ld in routed:
        assert abs(ld.length - l1_gap(lay, *ld.endpoints)) <= 1e-9 * lay.reference_diagonal()
        assert polyline_monotone(ld.polyline)
        assert leader_crossings(ld, lay) == []
