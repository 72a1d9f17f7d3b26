import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import overlapping_pairs, pair_gap, square_map
from demers.layout import decode, l1_gap, validity_violations
from demers.lpmodel import (
    LpProblem,
    ModelError,
    ModelSpec,
    ObjectiveKind,
    Stability,
    build_cnt_ilp,
    build_iterative_sequence,
    build_multi_lp,
    build_single_lp,
    max_violation,
)
from demers.mapdata import SideLengthTable
from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
from demers.simplexsolver import SolveStatus, solve_ilp, solve_lp


def abc_instance():
    """Three regions: B right of A, C above A, both adjacencies realizable."""
    squares = {"A": (0, 0, 4.0), "B": (10, 2, 2.0), "C": (1, 9, 2.0)}
    g = square_map(squares, {("A", "B"), ("A", "C")})
    sides = {rid: s for rid, (_, _, s) in squares.items()}
    cs = derive_constraints(g, 0.67, Setting.WEAK)
    return g, sides, cs


def table_of(map, per_function):
    sides = {}
    for i, func in enumerate(per_function):
        for rid, s in func.items():
            sides[(i, rid)] = s
    return SideLengthTable(sides=sides, diagonal=map.diagonal())


def primary_term(problem, values, prefix=("h", "v")):
    total = 0.0
    for v in problem.variables:
        if v.name[0] in prefix and "_" in v.name:
            total += values.get(v.name, 0.0)
    return total


class TestSingleLp:
    def test_abc_top_primary_term_zero(self):
        g, sides, cs = abc_instance()
        model = build_single_lp(g, sides, cs, ModelSpec())
        sol = solve_lp(model.problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert primary_term(model.problem, sol.values) == pytest.approx(0.0, abs=1e-7)
        lay = decode(sol, model)[0]
        # hand-verified optimum: B touches A's right side, C touches A's top
        assert lay.centers["B"][0] - lay.centers["A"][0] == pytest.approx(3.0, abs=1e-6)
        assert lay.centers["C"][1] - lay.centers["A"][1] == pytest.approx(3.0, abs=1e-6)
        assert l1_gap(lay, "A", "B") == pytest.approx(0.0, abs=1e-7)
        assert l1_gap(lay, "A", "C") == pytest.approx(0.0, abs=1e-7)

    def test_single_region_trivial_lp(self):
        g = square_map({"a": (0, 0, 2.0)}, set())
        cs = derive_constraints(g, 0.1, Setting.WEAK)
        model = build_single_lp(g, {"a": 2.0}, cs, ModelSpec())
        assert len(model.problem.variables) == 2
        assert len(model.problem.constraints) == 0
        assert model.problem.objective == {}

    def test_nonadjacent_pair_gets_gap(self):
        g = square_map({"a": (0, 0, 2.0), "b": (10, 0, 2.0)}, set())
        cs = derive_constraints(g, 1.0, Setting.WEAK)
        model = build_single_lp(g, {"a": 2.0, "b": 2.0}, cs, ModelSpec())
        sep = [
            c for c in model.problem.constraints if c.name.startswith("sepH")
        ]
        assert len(sep) == 1
        assert sep[0].relation == ">="
        assert sep[0].rhs == pytest.approx(3.0)

    def test_cnt_requires_ilp_builder(self):
        g, sides, cs = abc_instance()
        with pytest.raises(ModelError, match="build_cnt_ilp"):
            build_single_lp(g, sides, cs, ModelSpec(objective_kind=ObjectiveKind.CNT))

    def test_corner_fix_forces_epsilon_long_contact(self):
        # two adjacent squares separated in H: their shared vertical contact
        # must be at least epsilon long before the v distance reads zero
        g = square_map({"a": (0, 0, 2.0), "b": (5, 0, 2.0)}, {("a", "b")})
        cs = derive_constraints(g, 0.5, Setting.WEAK)
        model = build_single_lp(g, {"a": 2.0, "b": 2.0}, cs, ModelSpec())
        sol = solve_lp(model.problem)
        lay = decode(sol, model)[0]
        dy = abs(lay.centers["a"][1] - lay.centers["b"][1])
        assert dy <= 2.0 - 0.5 + 1e-7


class TestMultiLp:
    def test_identical_tables_have_zero_stability_terms(self):
        g, sides, cs = abc_instance()
        table = table_of(g, [sides, dict(sides)])
        spec = ModelSpec(stability=Stability.CO)
        model = build_multi_lp(g, table, cs, spec)
        sol = solve_lp(model.problem)
        coupling = sum(
            val for name, val in sol.values.items() if name.startswith(("cx_", "cy_"))
        )
        assert coupling == pytest.approx(0.0, abs=1e-7)
        lays = decode(sol, model)
        for rid in lays[0].centers:
            assert lays[0].centers[rid] == pytest.approx(lays[1].centers[rid], abs=1e-6)

    def test_su_couples_consecutive_pairs(self):
        g, sides, cs = abc_instance()
        table = table_of(g, [sides, dict(sides), dict(sides)])
        model = build_multi_lp(g, table, cs, ModelSpec(stability=Stability.SU))
        names = {v.name for v in model.problem.variables}
        assert "cx_A_0_1" in names and "cx_A_1_2" in names
        assert "cx_A_0_2" not in names
        pairs = {n for n in names if n.startswith("cx_")}
        assert len(pairs) == 2 * len(g.regions)

    def test_co_couples_all_pairs(self):
        g, sides, cs = abc_instance()
        table = table_of(g, [sides, dict(sides), dict(sides)])
        model = build_multi_lp(g, table, cs, ModelSpec(stability=Stability.CO))
        pairs = {
            n for n in (v.name for v in model.problem.variables) if n.startswith("cx_A")
        }
        assert pairs == {"cx_A_0_1", "cx_A_0_2", "cx_A_1_2"}

    def test_central_couples_to_first(self):
        g, sides, cs = abc_instance()
        table = table_of(g, [sides, dict(sides), dict(sides)])
        model = build_multi_lp(g, table, cs, ModelSpec(stability=Stability.CENTRAL))
        pairs = {
            n for n in (v.name for v in model.problem.variables) if n.startswith("cx_A")
        }
        assert pairs == {"cx_A_0_1", "cx_A_0_2"}

    def test_k1_rejected(self):
        g, sides, cs = abc_instance()
        table = table_of(g, [sides])
        with pytest.raises(ModelError, match="two weight functions"):
            build_multi_lp(g, table, cs, ModelSpec(stability=Stability.SU))


class TestIterative:
    def test_k1_is_single_plus_anchor(self):
        g, sides, cs = abc_instance()
        table = table_of(g, [sides])
        seq = build_iterative_sequence(g, table, cs, ModelSpec(stability=Stability.IT))
        assert len(seq) == 1
        model = seq.problem(0, None)
        anchored = {v.name for v in model.problem.variables if v.name.startswith("pxit")}
        assert len(anchored) == len(g.regions)

    def test_identical_sides_reproduce_previous_centers(self):
        g, sides, cs = abc_instance()
        table = table_of(g, [sides, dict(sides)])
        seq = build_iterative_sequence(g, table, cs, ModelSpec(stability=Stability.IT))
        m0 = seq.problem(0, None)
        lay0 = decode(solve_lp(m0.problem), m0)[0]
        m1 = seq.problem(1, lay0.centers)
        lay1 = decode(solve_lp(m1.problem), m1)[0]
        for rid in lay0.centers:
            assert lay1.centers[rid] == pytest.approx(lay0.centers[rid], abs=1e-6)

    def test_side_growth_causes_local_motion_only(self):
        g, sides, cs = abc_instance()
        grown = dict(sides, B=4.0)
        table = table_of(g, [sides, grown])
        seq = build_iterative_sequence(g, table, cs, ModelSpec(stability=Stability.IT))
        m0 = seq.problem(0, None)
        lay0 = decode(solve_lp(m0.problem), m0)[0]
        m1 = seq.problem(1, lay0.centers)
        sol1 = solve_lp(m1.problem)
        lay1 = decode(sol1, m1)[0]
        moved = {
            rid: abs(lay1.centers[rid][0] - lay0.centers[rid][0])
            + abs(lay1.centers[rid][1] - lay0.centers[rid][1])
            for rid in lay0.centers
        }
        assert sum(moved.values()) > 1e-6  # B grew, something must move
        # against a coarse exhaustive search: push B right by delta, keep rest
        best = math.inf
        for delta in [i * 0.05 for i in range(0, 41)]:
            centers = dict(lay0.centers)
            centers["B"] = (lay0.centers["B"][0] + delta, lay0.centers["B"][1])
            # feasibility: B must clear A by the grown half-sum
            if centers["B"][0] - centers["A"][0] < (4.0 + 4.0) / 2 - 1e-9:
                continue
            disp = delta
            best = min(best, disp)
        lp_disp = sum(
            val for name, val in sol1.values.items() if name.startswith(("pxit", "pyit"))
        )
        assert lp_disp <= best + 1e-6

    def test_missing_previous_rejected(self):
        g, sides, cs = abc_instance()
        table = table_of(g, [sides, dict(sides)])
        seq = build_iterative_sequence(g, table, cs, ModelSpec(stability=Stability.IT))
        with pytest.raises(ModelError, match="previous"):
            seq.problem(1, None)


class TestCntIlp:
    def test_path_of_three_keeps_all(self):
        squares = {"a": (0, 0, 2.0), "b": (3, 0, 2.0), "c": (6, 0, 2.0)}
        g = square_map(squares, {("a", "b"), ("b", "c")})
        cs = derive_constraints(g, 0.3, Setting.WEAK)
        spec = ModelSpec(objective_kind=ObjectiveKind.CNT)
        model = build_cnt_ilp(g, {r: 2.0 for r in squares}, cs, spec)
        sol = solve_ilp(model.problem)
        assert sol.status is SolveStatus.OPTIMAL
        lost = round(sum(v for n, v in sol.values.items() if n.startswith("b0_")))
        assert lost == 0

    def test_k4_gadget_must_lose_an_adjacency(self, luxembourg_paths):
        # four mutually adjacent regions cannot all touch as squares
        from demers.mapdata import (
            WeightKind,
            compute_epsilon,
            load_map,
            load_weights,
            scale_weights,
        )

        g = load_map(luxembourg_paths[0])
        ws = load_weights(luxembourg_paths[1], g, WeightKind.TIME_SERIES)
        table = scale_weights(ws, g)
        eps = compute_epsilon(table, g)
        cs = derive_constraints(g, eps, Setting.WEAK)
        spec = ModelSpec(objective_kind=ObjectiveKind.CNT)
        model = build_cnt_ilp(g, table.function_sides(0), cs, spec)
        sol = solve_ilp(model.problem)
        lost = round(sum(v for n, v in sol.values.items() if n.startswith("b0_")))
        assert lost == 1  # one break suffices with the bundled weights
        lay = decode(sol, model)[0]
        assert not validity_violations(lay)

    def test_single_edge_keeps_it(self):
        squares = {"a": (0, 0, 2.0), "b": (3, 1, 2.0)}
        g = square_map(squares, {("a", "b")})
        cs = derive_constraints(g, 0.3, Setting.WEAK)
        model = build_cnt_ilp(
            g, {"a": 2.0, "b": 2.0}, cs, ModelSpec(objective_kind=ObjectiveKind.CNT)
        )
        sol = solve_ilp(model.problem)
        assert round(sum(v for n, v in sol.values.items() if n.startswith("b0_"))) == 0


class TestModelInvariants:
    def topological_witness(self, g, sides, cs):
        """Layering by longest path in each axis; satisfies every constraint."""
        ids = sorted(g.region_ids)
        pos = {}
        for axis, pairs in (("H", sorted(cs.H)), ("V", sorted(cs.V))):
            dist = {rid: 0.0 for rid in ids}
            order = ids[:]
            for _ in range(len(ids)):
                for a, b in pairs:
                    w = (sides[a] + sides[b]) / 2 + pair_gap(cs, axis, (a, b))
                    dist[b] = max(dist[b], dist[a] + w)
            pos[axis] = dist
        return {rid: (pos["H"][rid], pos["V"][rid]) for rid in ids}

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("setting", [Setting.WEAK, Setting.STRONG])
    def test_every_built_lp_is_feasible(self, seed, setting):
        rng = random.Random(seed)
        squares = {
            f"r{i}": (rng.uniform(0, 20), rng.uniform(0, 20), rng.uniform(0.5, 3))
            for i in range(7)
        }
        ids = sorted(squares)
        edges = {(ids[i], ids[i + 1]) for i in range(len(ids) - 1)}
        g = square_map(squares, edges)
        cs = derive_constraints(g, 0.2, setting)
        sides = {rid: squares[rid][2] for rid in ids}
        model = build_single_lp(g, sides, cs, ModelSpec(setting=setting))
        centers = self.topological_witness(g, sides, cs)
        values = {}
        names, block = model.problem.col_names, model.blocks[0]
        for rid, xj, yj in zip(model.region_ids, block.x.tolist(), block.y.tolist()):
            values[names[xj]] = centers[rid][0]
            values[names[yj]] = centers[rid][1]
        # raise each objective helper variable to its implied lower bound
        anchors = set(values)
        for con in model.problem.constraints:
            if con.relation == "=":
                # a direction row expr - dp + dm = 0: dp takes expr's positive
                # part, dm its negative part
                expr = sum(k * values[n] for n, k in con.coeffs if n in anchors)
                for n, k in con.coeffs:
                    if n not in anchors:
                        values[n] = max(-k * expr, 0.0)
                continue
            helper = [(n, k) for n, k in con.coeffs if n not in anchors and k < 0]
            if len(helper) == 1:
                name, coeff = helper[0]
                lhs = sum(k * values.get(n, 0.0) for n, k in con.coeffs if n != name)
                needed = (lhs - con.rhs) / -coeff
                values[name] = max(values.get(name, 0.0), needed, 0.0)
        assert max_violation(model.problem, values) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_decoded_layouts_disjoint(self, seed):
        rng = random.Random(seed)
        squares = {
            f"r{i}": (rng.uniform(0, 15), rng.uniform(0, 15), rng.uniform(0.5, 3))
            for i in range(6)
        }
        ids = sorted(squares)
        g = square_map(squares, {(ids[0], ids[1]), (ids[2], ids[3])})
        cs = derive_constraints(g, 0.25, Setting.WEAK)
        sides = {rid: squares[rid][2] for rid in ids}
        model = build_single_lp(g, sides, cs, ModelSpec())
        lay = decode(solve_lp(model.problem), model)[0]
        assert overlapping_pairs(lay) == []

    def test_top_optimum_scales_with_sides_and_epsilon(self):
        g, sides, cs = abc_instance()
        # separate the squares so the optimum is nonzero
        far = {"A": (0, 0, 4.0), "B": (30, 2, 2.0), "C": (1, 9, 2.0)}
        g2 = square_map(far, {("A", "B"), ("A", "C")})
        cs2 = derive_constraints(g2, 0.5, Setting.WEAK)
        base_sides = {"A": 4.0, "B": 2.0, "C": 2.0}
        base_model = build_single_lp(g2, base_sides, cs2, ModelSpec())
        base = solve_lp(base_model.problem)
        factor = 2.5
        from dataclasses import replace

        cs_scaled = replace(cs2, epsilon=cs2.epsilon * factor)
        scaled_sides = {r: s * factor for r, s in base_sides.items()}
        scaled_model = build_single_lp(g2, scaled_sides, cs_scaled, ModelSpec())
        scaled = solve_lp(scaled_model.problem)
        # direction terms are scale-free, so compare the h/v primary term
        assert primary_term(scaled_model.problem, scaled.values) == pytest.approx(
            factor * primary_term(base_model.problem, base.values), rel=1e-5, abs=1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_top_optimal_distances_tight(self, seed):
        rng = random.Random(seed)
        squares = {
            f"r{i}": (rng.uniform(0, 12), rng.uniform(0, 12), rng.uniform(1, 3))
            for i in range(5)
        }
        ids = sorted(squares)
        edges = {(ids[i], ids[i + 1]) for i in range(len(ids) - 1)}
        g = square_map(squares, edges)
        cs = derive_constraints(g, 0.2, Setting.WEAK)
        sides = {rid: squares[rid][2] for rid in ids}
        model = build_single_lp(g, sides, cs, ModelSpec())
        sol = solve_lp(model.problem)
        lay = decode(sol, model)[0]
        for a, b in g.edge_list():
            key = f"{min(a,b)}__{max(a,b)}"
            h = sol.values[f"h0_{key}"]
            v = sol.values[f"v0_{key}"]
            prim = "H" if {(a, b), (b, a)} & cs.H else "V"  # weak: primaries only
            w = (sides[a] + sides[b]) / 2
            dx = abs(lay.centers[a][0] - lay.centers[b][0])
            dy = abs(lay.centers[a][1] - lay.centers[b][1])
            fix_h = cs.epsilon if prim == "V" else 0.0
            fix_v = cs.epsilon if prim == "H" else 0.0
            assert (
                abs(h) < 1e-6
                or abs(h - (dx - w + fix_h)) < 1e-6
            )
            assert (
                abs(v) < 1e-6
                or abs(v - (dy - w + fix_v)) < 1e-6
            )

    @pytest.mark.parametrize("k", [1, 2])
    def test_no_round_off_slopes_on_jittered_grids(self, tmp_path, k):
        # polygon centroids of one jittered grid row, read back from
        # GeoJSON, differ in y by round-off only; their slopes are emitted
        # as 0, not as values HiGHS would drop
        from demers.lpmodel import SLOPE_ROUNDOFF
        from demers.mapdata import (
            WeightKind, compute_epsilon, load_map, load_weights, scale_weights,
        )
        from demers.synth import write_instance

        map_path, csv_path = write_instance(tmp_path, 7, 0, k=k, jitter=0.3)
        g = load_map(map_path)
        table = scale_weights(load_weights(csv_path, g, WeightKind.TIME_SERIES), g)
        cs = derive_constraints(g, compute_epsilon(table, g), Setting.STRONG)
        spec = ModelSpec(
            objective_kind=ObjectiveKind.TOP, setting=Setting.STRONG,
            stability=Stability.SU if k > 1 else Stability.NONE,
        )
        model = build_multi_lp(g, table, cs, spec) if k > 1 else build_single_lp(
            g, table.function_sides(0), cs, spec
        )
        val = np.abs(model.problem.val)
        assert SLOPE_ROUNDOFF == 1e-9
        assert not np.any((val > 0) & (val <= SLOPE_ROUNDOFF))
        assert val.min() > 0


class TestLpFormat:
    def test_sections_and_determinism(self):
        g, sides, cs = abc_instance()
        model = build_single_lp(g, sides, cs, ModelSpec())
        text = model.problem.to_lp_format()
        assert text.startswith("\\* demers_TOP_single *\\\nMinimize")
        for section in ("Subject To", "Bounds", "End"):
            assert section in text
        assert text == model.problem.to_lp_format()

    def test_binaries_section(self):
        g, sides, cs = abc_instance()
        model = build_cnt_ilp(g, sides, cs, ModelSpec(objective_kind=ObjectiveKind.CNT))
        text = model.problem.to_lp_format()
        assert "Binaries" in text

    def test_unsafe_names_sanitized(self):
        p = LpProblem()
        p.add_var("x with space")
        p.add_constraint({"x with space": 1.0}, ">=", 1.0)
        p.add_objective("x with space", 1.0)
        text = p.to_lp_format()
        assert "x with space" not in text
        assert "x_with_space" in text


@st.composite
def named_square_maps(draw):
    """Square maps on distinct lattice points, with ids of several
    characters, non-ASCII ones among them. No id holds "_": joined by the
    names' "__" separator, such ids could name two pairs alike, and the
    model rejects duplicate column names."""
    ids = draw(st.lists(st.text("ab1é\"-", min_size=1, max_size=4), min_size=1,
                        max_size=8, unique=True))
    points = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                           min_size=len(ids), max_size=len(ids), unique=True))
    squares = {rid: (3.0 * x, 3.0 * y, draw(st.floats(0.5, 2.0)))
               for rid, (x, y) in zip(ids, points)}
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return square_map(squares, set(edges))


@settings(max_examples=100, deadline=None)
@given(named_square_maps(), st.sampled_from(list(Setting)), st.booleans())
def test_pair_names_match_the_f_strings(g, setting, reduced):
    # the direction columns of every map pair and the separation rows of
    # every constraint pair, named in each block of a two-function model
    ids = g.sorted_ids
    cs = derive_constraints(g, 0.2, setting)
    cs = reduce_transitive(cs) if reduced else cs
    sides = {rid: r.polygon[0][1][0] - r.polygon[0][0][0] for rid, r in zip(g.region_ids, g.regions)}
    problem = build_multi_lp(g, table_of(g, [sides, sides]), cs,
                             ModelSpec(setting=setting, stability=Stability.SU)).problem
    ia, ib, _, _, horiz = g.pair_table
    dpm = [n for n in problem.col_names if n.startswith(("dp", "dm"))]
    sep = [n for n in problem.row_names.values() if n.startswith("sep")]
    want_dpm, want_sep = [], []
    for tag in "01":
        want_dpm += [f"{p}{tag}_{'H' if hz else 'V'}_{ids[i]}__{ids[j]}"
                     for i, j, hz in zip(ia.tolist(), ib.tolist(), horiz.tolist())
                     for p in ("dp", "dm")]
        for axis in "HV":
            p = cs.axes[axis]
            want_sep += [f"sep{axis}{tag}_{cs.ids[i]}__{cs.ids[j]}"
                         for i, j in zip(p.ia.tolist(), p.ib.tolist())]
    assert dpm == want_dpm
    assert sep == want_sep
