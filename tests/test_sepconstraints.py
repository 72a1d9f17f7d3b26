import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import square_map
from demers.lpmodel import ModelSpec, ObjectiveKind, build_single_lp
from demers.sepconstraints import (
    ConstraintError,
    SeparationConstraintSet,
    Setting,
    derive_constraints,
    reduce_transitive,
    validate_dag,
)
from demers.simplexsolver import solve_lp


def cs_of(squares, edges=(), setting=Setting.WEAK, epsilon=0.25):
    return derive_constraints(square_map(squares, set(edges)), epsilon, setting)


class TestDerive:
    def test_horizontal_dominance_goes_to_h(self):
        cs = cs_of({"a": (0, 0, 1), "b": (10, 3, 1)}, edges={("a", "b")})
        assert ("a", "b") in cs.H
        assert not cs.V

    def test_vertical_dominance_goes_to_v(self):
        cs = cs_of({"a": (0, 0, 1), "b": (1, 9, 1)}, edges={("a", "b")})
        assert ("a", "b") in cs.V
        assert not cs.H

    def test_tie_goes_to_h(self):
        cs = cs_of({"a": (0, 0, 1), "b": (5, 5, 1)})
        assert ("a", "b") in cs.H
        assert not cs.V

    def test_orientation_follows_coordinates(self):
        cs = cs_of({"a": (10, 0, 1), "b": (0, 3, 1)})
        assert ("b", "a") in cs.H

    def test_strong_adds_secondary_for_doubly_separated_pair(self):
        cs = cs_of(
            {"a": (0, 0, 1), "b": (10, 10, 1)}, setting=Setting.STRONG
        )
        assert ("a", "b") in cs.H  # tie rule: primary in H
        assert ("a", "b") in cs.V
        assert cs.secondary == {("V", "a", "b")}

    def test_strong_skips_adjacent_pairs(self):
        cs = cs_of(
            {"a": (0, 0, 1), "b": (10, 10, 1)},
            edges={("a", "b")},
            setting=Setting.STRONG,
        )
        assert not cs.secondary

    def test_strong_skips_pairs_without_both_separators(self):
        # boxes overlap in y, so only a vertical separating line exists
        cs = cs_of({"a": (0, 0, 2), "b": (10, 1, 2)}, setting=Setting.STRONG)
        assert not cs.secondary

    def test_coincident_centroids_error(self):
        with pytest.raises(ConstraintError, match="coincident"):
            cs_of({"a": (0, 0, 1), "b": (0, 0, 2)})

    def test_secondary_gap_is_zero(self):
        cs = cs_of({"a": (0, 0, 1), "b": (10, 10, 1)}, setting=Setting.STRONG)
        assert cs.gaps("V").tolist() == [0.0]
        assert cs.gaps("H").tolist() == [0.25]

    def test_adjacent_gap_is_zero(self):
        cs = cs_of({"a": (0, 0, 1), "b": (10, 3, 1)}, edges={("a", "b")})
        assert cs.gaps("H").tolist() == [0.0]

    def test_gaps_follow_epsilon(self):
        cs = cs_of({"a": (0, 0, 1), "b": (10, 10, 1)}, setting=Setting.STRONG)
        assert replace(cs, epsilon=0.5).gaps("H").tolist() == [0.5]


def random_squares(rng, n):
    squares = {}
    for i in range(n):
        squares[f"r{i}"] = (rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(0.5, 4))
    return squares


class TestInvariants:
    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("setting", [Setting.WEAK, Setting.STRONG])
    def test_derived_sets_are_acyclic(self, seed, setting):
        rng = random.Random(seed)
        cs = cs_of(random_squares(rng, 12), setting=setting)
        assert validate_dag(cs) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_every_pair_covered(self, seed):
        rng = random.Random(seed)
        squares = random_squares(rng, 10)
        cs = cs_of(squares)
        ids = sorted(squares)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                covered = any(
                    p in pairs
                    for pairs in (cs.H, cs.V)
                    for p in ((a, b), (b, a))
                )
                assert covered, (a, b)

    def test_mirror_swaps_h_orientation_keeps_v(self):
        rng = random.Random(3)
        squares = random_squares(rng, 8)
        mirrored = {rid: (-x, y, s) for rid, (x, y, s) in squares.items()}
        cs = cs_of(squares)
        cs_m = cs_of(mirrored)
        assert cs_m.H == frozenset((b, a) for a, b in cs.H)
        assert cs_m.V == cs.V

    @pytest.mark.parametrize("seed", range(8))
    def test_strong_contains_weak(self, seed):
        rng = random.Random(seed)
        squares = random_squares(rng, 9)
        weak = cs_of(squares)
        strong = cs_of(squares, setting=Setting.STRONG)
        assert weak.H <= strong.H
        assert weak.V <= strong.V


class TestValidateDag:
    def test_two_cycle_detected(self):
        base = cs_of({"a": (0, 0, 1), "b": (5, 0, 1)})
        broken = SeparationConstraintSet.from_pairs(
            H={("a", "b"), ("b", "a")}, V=(), epsilon=base.epsilon, setting=base.setting,
        )
        cycle = validate_dag(broken)
        assert cycle is not None
        assert set(cycle) == {"a", "b"}

    def test_single_region_ok(self):
        cs = cs_of({"a": (0, 0, 1)})
        assert validate_dag(cs) is None

    def test_longer_cycle_detected(self):
        base = cs_of({"a": (0, 0, 1), "b": (5, 0, 1), "c": (10, 0, 1)})
        broken = SeparationConstraintSet.from_pairs(
            H={("a", "b"), ("b", "c"), ("c", "a")}, V=(),
            epsilon=base.epsilon, setting=base.setting,
        )
        cycle = validate_dag(broken)
        assert cycle is not None
        assert len(cycle) == 3


class TestReduceTransitive:
    def make(self, H, adjacent=frozenset(), ids=("a", "b", "c")):
        return SeparationConstraintSet.from_pairs(
            H=H, V=(), epsilon=0.1, setting=Setting.WEAK, adjacencies=adjacent, ids=ids,
        )

    def test_transitive_triple_reduced(self):
        cs = self.make({("a", "b"), ("b", "c"), ("a", "c")})
        red = reduce_transitive(cs)
        assert red.H == frozenset({("a", "b"), ("b", "c")})

    def test_adjacent_pair_kept(self):
        cs = self.make({("a", "b"), ("b", "c"), ("a", "c")}, adjacent={("a", "c")})
        red = reduce_transitive(cs)
        assert ("a", "c") in red.H

    def test_collinear_chain_leaves_n_minus_one(self):
        n = 6
        squares = {f"r{i}": (3.0 * i, 0.0, 1.0) for i in range(n)}
        cs = cs_of(squares)
        red = reduce_transitive(cs)
        assert len(red.H) == n - 1
        assert not red.V

    @pytest.mark.parametrize("seed", range(6))
    def test_reduction_preserves_lp_optimum(self, seed):
        rng = random.Random(seed)
        squares = random_squares(rng, 7)
        ids = sorted(squares)
        edges = set()
        for i in range(len(ids) - 1):
            if rng.random() < 0.6:
                edges.add((ids[i], ids[i + 1]))
        g = square_map(squares, edges)
        cs = derive_constraints(g, 0.3, Setting.WEAK)
        sides = {rid: squares[rid][2] for rid in ids}
        spec = ModelSpec(objective_kind=ObjectiveKind.TOP)
        full = solve_lp(build_single_lp(g, sides, cs, spec).problem)
        red = solve_lp(build_single_lp(g, sides, reduce_transitive(cs), spec).problem)
        assert full.objective == pytest.approx(red.objective, abs=1e-6)

    def test_cycle_is_rejected(self):
        with pytest.raises(ConstraintError, match="cycle"):
            reduce_transitive(self.make({("a", "b"), ("b", "c"), ("c", "a")}))


def reduce_by_dfs(cs: SeparationConstraintSet) -> SeparationConstraintSet:
    """Reference reduction: one depth-first search per constraint."""

    def reachable_avoiding(adj, src, dst):
        stack = [n for n in adj.get(src, ()) if n != dst]
        seen = set(stack)
        while stack:
            node = stack.pop()
            if node == dst:
                return True
            for nxt in adj.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    def reduced(edges):
        adj = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
        return frozenset(
            (a, b) for a, b in edges
            if cs.is_adjacent(a, b) or not reachable_avoiding(adj, a, b)
        )

    new_h, new_v = reduced(cs.H), reduced(cs.V)
    secondary = frozenset(
        (axis, a, b) for axis, a, b in cs.secondary
        if (a, b) in (new_h if axis == "H" else new_v)
    )
    return SeparationConstraintSet.from_pairs(
        H=new_h, V=new_v, secondary=secondary, epsilon=cs.epsilon,
        setting=cs.setting, adjacencies=adjacencies_of(cs), ids=cs.ids,
    )


def adjacencies_of(cs):
    """The pairs of a set that it marks as map adjacencies."""
    return {(a, b) for a, b in cs.H | cs.V if cs.is_adjacent(a, b)}


@st.composite
def random_dag_sets(draw):
    """Constraint sets whose H and V are random DAGs over up to 12 regions."""
    n = draw(st.integers(1, 12))
    ids = [f"r{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def dag():
        # edges follow a random topological order, so there is no cycle
        order = draw(st.permutations(ids))
        picked = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return frozenset((order[i], order[j]) for i, j in picked)

    H, V = dag(), dag()
    adjacent = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    marked = draw(st.lists(st.sampled_from(sorted(
        [("H", a, b) for a, b in H] + [("V", a, b) for a, b in V]
    )), unique=True)) if H or V else []
    return SeparationConstraintSet.from_pairs(
        H=H, V=V, secondary=marked, epsilon=0.1, setting=Setting.STRONG,
        adjacencies=[(ids[i], ids[j]) for i, j in adjacent], ids=ids,
    )


@settings(max_examples=200, deadline=None)
@given(random_dag_sets())
def test_bitset_reduction_matches_dfs_reference(cs):
    assert reduce_transitive(cs) == reduce_by_dfs(cs)


@settings(max_examples=40, deadline=None)
@given(
    cols=st.integers(2, 4),
    rows=st.integers(1, 4),
    jitter=st.one_of(st.just(0.0), st.floats(0.05, 0.4)),
    seed=st.integers(0, 10_000),
    k=st.integers(1, 3),
    setting=st.sampled_from(list(Setting)),
    objective=st.sampled_from([ObjectiveKind.TOP, ObjectiveKind.ORG]),
)
def test_reduced_lp_matches_full_lp_on_grids(cols, rows, jitter, seed, k, setting, objective):
    # the LP on the reduced set reaches the full set's optimum, and its
    # layouts satisfy every constraint of the full set
    from demers.layout import decode, validity_violations
    from demers.lpmodel import Stability, build_multi_lp
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.synth import grid_map, lognormal_weights

    g = grid_map(cols, rows, jitter=jitter, seed=seed)
    table = scale_weights(lognormal_weights(g, k=k, seed=seed), g)
    cs = derive_constraints(g, compute_epsilon(table, g), setting)
    reduced = reduce_transitive(cs)

    def build(constraints):
        if k == 1:
            spec = ModelSpec(objective, setting)
            return build_single_lp(g, table.function_sides(0), constraints, spec)
        return build_multi_lp(g, table, constraints, ModelSpec(objective, setting, Stability.SU))

    full = solve_lp(build(cs).problem)
    model = build(reduced)
    sol = solve_lp(model.problem)
    assert sol.optimal and full.optimal
    assert sol.objective == pytest.approx(full.objective, rel=1e-7, abs=1e-12)
    layouts = decode(sol, model, cs)
    assert len(layouts) == k
    for lay in layouts:
        assert lay.constraint_ref is cs
        assert validity_violations(lay) == []


def derive_by_pairs(map, epsilon, setting):
    """Reference derivation, one region pair at a time."""
    H, V, secondary = set(), set(), set()
    regions = sorted(map.regions, key=lambda r: r.id)
    boxes = {r.id: r.bbox() for r in regions}

    def both_separators(a, b):
        x_sep = a[2] < b[0] or b[2] < a[0]
        y_sep = a[3] < b[1] or b[3] < a[1]
        return x_sep and y_sep

    for i, ra in enumerate(regions):
        for rb in regions[i + 1 :]:
            ax, ay = ra.centroid
            bx, by = rb.centroid
            dx, dy = bx - ax, by - ay
            if dx == 0 and dy == 0:
                raise ConstraintError(f"coincident centroids for {ra.id!r} and {rb.id!r}")
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
                and frozenset((ra.id, rb.id)) not in map.edges
                and both_separators(boxes[ra.id], boxes[rb.id])
            ):
                (H if other_axis == "H" else V).add(ordered)
                secondary.add((other_axis, ordered[0], ordered[1]))
    return SeparationConstraintSet.from_pairs(
        H=H, V=V, secondary=secondary, epsilon=epsilon, setting=setting,
        adjacencies=map.edges, ids=map.sorted_ids,
    )


@st.composite
def tied_square_maps(draw):
    """Square maps whose centroids sit on a coarse lattice, so equal
    coordinates, |dx| == |dy| and coincident centroids all occur."""
    n = draw(st.integers(0, 9))
    step = draw(st.sampled_from([1.0, 0.1, 3.7]))
    coord = st.one_of(st.integers(0, 4).map(lambda k: k * step), st.floats(0, 4 * step))
    # lattice sides make boxes that touch without overlapping
    side = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 2.0)).map(
        lambda s: s * step
    )
    squares = {f"r{i}": (draw(coord), draw(coord), draw(side)) for i in range(n)}
    ids = sorted(squares)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = square_map(squares, set(edges))
    if draw(st.booleans()):
        # centroids drawn apart from the boxes, so a pair level in its other
        # axis can still have boxes separated in both
        regions = [replace(r, centroid=(draw(coord), draw(coord))) for r in g.regions]
        g = replace(g, regions=regions)
    return g


@settings(max_examples=300, deadline=None)
@given(tied_square_maps(), st.sampled_from(list(Setting)))
def test_derive_matches_pair_loop(g, setting):
    try:
        want = derive_by_pairs(g, 0.1, setting)
    except ConstraintError as exc:
        with pytest.raises(ConstraintError) as got:
            derive_constraints(g, 0.1, setting)
        assert str(got.value) == str(exc)
        return
    got = derive_constraints(g, 0.1, setting)
    assert got == want
    # the proof in derive_constraints' docstring: no derived set has a cycle
    assert validate_dag(got) is None


@settings(max_examples=300, deadline=None)
@given(tied_square_maps(), st.sampled_from(list(Setting)), st.data())
def test_matches_frozen_oracle(g, setting, data):
    # derived and reduced sets give the string-pair module's pairs, marks,
    # gaps, DOT output, set ids and validity violations
    import oracle_sepconstraints as oracle
    from demers.layout import SquareLayout, constraint_set_id, validity_violations

    try:
        old = oracle.derive_constraints(g, 0.1, setting)
    except ConstraintError:
        return  # test_derive_matches_pair_loop compares the errors
    new = derive_constraints(g, 0.1, setting)
    assert validate_dag(new) is None is oracle.validate_dag(old)
    n = len(g.regions)
    sides = data.draw(st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    layout = SquareLayout(
        centers={r.id: r.centroid for r in g.regions},
        sides=dict(zip(g.region_ids, sides)),
        diagonal=g.diagonal() if g.regions and data.draw(st.booleans()) else 0.0,
    )
    for new, old in ((new, old), (reduce_transitive(new), oracle.reduce_transitive(old))):
        assert (new.H, new.V, new.secondary) == (old.H, old.V, old.secondary)
        for axis, pairs in (("H", old.H), ("V", old.V)):
            assert new.gaps(axis).tolist() == [old.gap(axis, p) for p in sorted(pairs)]
        assert new.to_dot() == old.to_dot()
        assert constraint_set_id(new) == oracle.constraint_set_id(old)
        assert validity_violations(replace(layout, constraint_ref=new)) == (
            oracle.validity_violations(replace(layout, constraint_ref=old))
        )


def test_equality_is_content():
    g = square_map({"a": (0, 0, 1), "b": (10, 10, 1), "c": (3, 7, 1)}, {("a", "c")})
    cs = derive_constraints(g, 0.25, Setting.STRONG)
    again = derive_constraints(g, 0.25, Setting.STRONG)
    assert cs is not again and cs == again
    assert cs != replace(cs, epsilon=0.5)
    assert cs != derive_constraints(g, 0.25, Setting.WEAK)
    assert cs != reduce_transitive(cs)  # drops V (a, b), implied by a < c < b
    built = SeparationConstraintSet.from_pairs(
        cs.H, cs.V, cs.secondary, 0.25, Setting.STRONG, adjacencies=g.edges
    )
    assert built == cs


def dfs_cycle_free(edges) -> bool:
    """Reference acyclicity check: a recursive depth-first search."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    state = {}  # 1 on the current path, 2 finished

    def visit(r):
        state[r] = 1
        for s in succ.get(r, ()):
            if state.get(s) == 1 or (s not in state and not visit(s)):
                return False
        state[r] = 2
        return True

    return all(r in state or visit(r) for r in list(succ))


@st.composite
def random_constraint_sets(draw):
    """Constraint sets over up to 7 regions whose H and V each follow a
    random order, plus up to two arbitrary edges that may close a cycle,
    and a random secondary marking."""
    n = draw(st.integers(1, 7))
    ids = [f"r{i}" for i in range(n)]
    ordered = [(a, b) for a in ids for b in ids if a != b]

    def edges():
        if not ordered:
            return frozenset()
        order = draw(st.permutations(ids))
        forward = [(a, b) for a, b in ordered if order.index(a) < order.index(b)]
        picked = draw(st.lists(st.sampled_from(forward), unique=True, max_size=10))
        return frozenset(picked + draw(st.lists(st.sampled_from(ordered), max_size=2)))

    H, V = edges(), edges()
    marked = sorted([("H", a, b) for a, b in H] + [("V", a, b) for a, b in V])
    secondary = draw(st.lists(st.sampled_from(marked), unique=True)) if marked else []
    return SeparationConstraintSet.from_pairs(
        H=H, V=V, secondary=secondary, epsilon=0.1, setting=Setting.STRONG, ids=ids,
    )


@settings(max_examples=400, deadline=None)
@given(random_constraint_sets())
def test_validate_dag_matches_dfs(cs):
    primary = {(a, b) for a, b in cs.H if ("H", a, b) not in cs.secondary}
    primary |= {(a, b) for a, b in cs.V if ("V", a, b) not in cs.secondary}
    graphs = [cs.H, cs.V, primary]
    cycle = validate_dag(cs)
    assert (cycle is None) == all(dfs_cycle_free(edges) for edges in graphs)
    if cycle is not None:
        assert len(set(cycle)) == len(cycle) >= 2
        steps = set(zip(cycle, cycle[1:] + cycle[:1]))
        assert any(steps <= edges for edges in graphs)


@settings(max_examples=400, deadline=None)
@given(random_constraint_sets())
def test_cycles_and_reductions_match_frozen_oracle(cs):
    # hand-built sets, cyclic ones included: the same reported cycle, and
    # the same reduction or the same error
    import oracle_sepconstraints as oracle

    old = oracle.SeparationConstraintSet(
        H=cs.H, V=cs.V, secondary=cs.secondary, epsilon=cs.epsilon,
        setting=cs.setting, adjacencies=frozenset(),
    )
    assert validate_dag(cs) == oracle.validate_dag(old)
    try:
        want = oracle.reduce_transitive(old)
    except ConstraintError as exc:
        with pytest.raises(ConstraintError) as got:
            reduce_transitive(cs)
        assert str(got.value) == str(exc)
        return
    red = reduce_transitive(cs)
    assert (red.H, red.V, red.secondary) == (want.H, want.V, want.secondary)


@settings(max_examples=200, deadline=None)
@given(tied_square_maps(), st.sampled_from(list(Setting)), st.booleans())
def test_find_matches_a_linear_scan(g, setting, reduced):
    # every ordered pair of ids, unknown ids included, in each axis: the
    # row of the pair in that axis's arrays, or None
    try:
        cs = derive_constraints(g, 0.1, setting)
    except ConstraintError:
        return
    cs = reduce_transitive(cs) if reduced else cs
    names = [*cs.ids, "unknown"]
    for axis in "HV":
        p = cs.axes[axis]
        rows = [(cs.ids[i], cs.ids[j]) for i, j in zip(p.ia.tolist(), p.ib.tolist())]
        for a in names:
            for b in names:
                want = next((k for k, pair in enumerate(rows) if pair == (a, b)), None)
                assert cs.find(axis, a, b) == want, (axis, a, b)


def test_content_id_matches_the_oracle_on_a_large_strong_set():
    # a jittered 12x12 grid, strong setting: 10 296 pairs, some secondary
    # in each axis, and an epsilon from scaled weights
    import oracle_sepconstraints as oracle
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.synth import grid_map, lognormal_weights

    g = grid_map(12, jitter=0.3, seed=3)
    eps = compute_epsilon(scale_weights(lognormal_weights(g, k=1, seed=3), g), g)
    new, old = derive_constraints(g, eps, Setting.STRONG), oracle.derive_constraints(
        g, eps, Setting.STRONG)
    assert all(p.secondary.any() for p in new.axes.values())
    assert new.content_id == oracle.constraint_set_id(old)
    lp = reduce_transitive(new)
    assert lp.content_id == oracle.constraint_set_id(oracle.SeparationConstraintSet(
        lp.H, lp.V, lp.secondary, eps, Setting.STRONG, g.edges))


def test_content_id_of_sets_built_by_hand():
    # ids that JSON escapes, an empty axis, secondary pairs in V only and
    # an integer epsilon
    import oracle_sepconstraints as oracle

    H, V = set(), {("a\"b", "c\\d"), ("é", "\n")}
    for eps, secondary in ((0, ()), (0.25, {("V", "é", "\n")})):
        cs = SeparationConstraintSet.from_pairs(H, V, secondary, eps, Setting.STRONG)
        assert cs.content_id == oracle.constraint_set_id(oracle.SeparationConstraintSet(
            frozenset(H), frozenset(V), frozenset(secondary), eps, Setting.STRONG, frozenset()))
