import itertools
import random
import time
from fractions import Fraction

import pytest

from demers import simplexsolver as ss
from demers.lpmodel import LpProblem, max_violation
from demers.simplexsolver import SolveStatus, SolverError, solve_ilp, solve_lp
from oracle_simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, oracle_solve

STATUS_OF = {
    OPTIMAL: SolveStatus.OPTIMAL,
    INFEASIBLE: SolveStatus.INFEASIBLE,
    UNBOUNDED: SolveStatus.UNBOUNDED,
}


def random_lp(seed, n_max=8, m_max=12):
    rng = random.Random(seed)
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    c = [rng.randint(-5, 5) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [rng.randint(-5, 5) if rng.random() < 0.7 else 0 for _ in range(n)]
        rel = rng.choice(["<=", ">=", "="])
        rows.append((coeffs, rel, rng.randint(-10, 10)))
    return c, rows


def as_problem(c, rows):
    p = LpProblem()
    names = [f"x{i}" for i in range(len(c))]
    for nm in names:
        p.add_var(nm)
    for coeffs, rel, rhs in rows:
        p.add_constraint({names[i]: k for i, k in enumerate(coeffs)}, rel, rhs)
    for i, ci in enumerate(c):
        p.add_objective(names[i], ci)
    return p


class TestSolveLp:
    def test_min_x_at_bound(self):
        p = LpProblem()
        p.add_var("x")
        p.add_constraint({"x": 1.0}, ">=", 3.0)
        p.add_objective("x", 1.0)
        sol = solve_lp(p, engine="simplex")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0)
        assert sol.values["x"] == pytest.approx(3.0)

    def test_binding_first_constraint(self):
        p = LpProblem()
        p.add_var("x")
        p.add_var("y")
        p.add_constraint({"x": 1, "y": 1}, ">=", 2)
        p.add_constraint({"x": 1, "y": -1}, ">=", 0)
        p.add_objective("x", 1)
        p.add_objective("y", 1)
        assert solve_lp(p, engine="simplex").objective == pytest.approx(2.0)

    def test_infeasible(self):
        p = LpProblem()
        p.add_var("x", 0.0, 1.0)
        p.add_constraint({"x": 1}, ">=", 2)
        p.add_objective("x", 1)
        assert solve_lp(p, engine="simplex").status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        p = LpProblem()
        p.add_var("x", -float("inf"), float("inf"))
        p.add_constraint({"x": 1}, "<=", 5)
        p.add_objective("x", 1)
        assert solve_lp(p, engine="simplex").status is SolveStatus.UNBOUNDED

    def test_binary_rejected(self):
        p = LpProblem()
        p.add_var("b", 0, 1, binary=True)
        p.add_objective("b", 1)
        with pytest.raises(SolverError, match="binary"):
            solve_lp(p)

    def test_iteration_limit_returns_feasible_point(self):
        p = LpProblem()
        for i in range(6):
            p.add_var(f"x{i}", 0.0, 10.0)
            p.add_objective(f"x{i}", -1.0)
        # starts feasible at the origin; one pivot is not enough to finish
        sol = solve_lp(p, engine="simplex", iteration_limit=1)
        assert sol.status is SolveStatus.ITERATION_LIMIT
        assert max_violation(p, sol.values) <= 1e-9

    def test_ill_scaled_problem(self):
        p = LpProblem()
        p.add_var("x")
        p.add_var("y")
        p.add_constraint({"x": 1e6, "y": 1e-4}, ">=", 2e6)
        p.add_constraint({"x": 1.0}, "<=", 1.0)
        p.add_objective("y", 1e-3)
        sol = solve_lp(p, engine="simplex")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values["x"] == pytest.approx(1.0)
        assert sol.values["y"] == pytest.approx(1e10, rel=1e-6)

    @pytest.mark.parametrize("seed", range(120))
    def test_matches_exact_oracle(self, seed):
        c, rows = random_lp(seed)
        st, obj, _ = oracle_solve(
            [Fraction(v) for v in c],
            [([Fraction(v) for v in co], rel, Fraction(r)) for co, rel, r in rows],
        )
        sol = solve_lp(as_problem(c, rows), engine="simplex")
        assert sol.status is STATUS_OF[st]
        if st == OPTIMAL:
            ref = float(obj)
            assert abs(sol.objective - ref) <= 1e-6 * max(1.0, abs(ref))
            assert sol.dual_objective == pytest.approx(sol.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(0, 40))
    def test_engines_agree(self, seed):
        c, rows = random_lp(seed, n_max=6, m_max=8)
        p = as_problem(c, rows)
        a = solve_lp(p, engine="simplex")
        b = solve_lp(p, engine="highs")
        assert a.status == b.status
        if a.status is SolveStatus.OPTIMAL:
            assert a.objective == pytest.approx(b.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", [7, 21, 33])
    def test_invariant_under_reordering(self, seed):
        c, rows = random_lp(seed)
        base = solve_lp(as_problem(c, rows), engine="simplex")
        rng = random.Random(seed + 1)
        perm = list(range(len(c)))
        rng.shuffle(perm)
        c2 = [c[j] for j in perm]
        rows2 = [([co[j] for j in perm], rel, r) for co, rel, r in rows]
        rng.shuffle(rows2)
        other = solve_lp(as_problem(c2, rows2), engine="simplex")
        assert base.status == other.status
        if base.status is SolveStatus.OPTIMAL:
            assert base.objective == pytest.approx(other.objective, abs=1e-6)


def brute_force_binary(p: LpProblem):
    """Enumerate binary assignments; all variables must be binary."""
    names = [v.name for v in p.variables]
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(names)):
        values = dict(zip(names, bits))
        if max_violation(p, values) <= 1e-9:
            obj = sum(p.objective.get(n, 0.0) * v for n, v in values.items())
            if best is None or obj < best:
                best = obj
    return best


class TestSolveIlp:
    def test_forced_binary(self):
        p = LpProblem()
        p.add_var("h")
        p.add_var("b", 0, 1, binary=True)
        p.add_constraint({"h": 1, "b": -10}, "<=", 0)
        p.add_constraint({"h": 1}, ">=", 4)
        p.add_objective("b", 1)
        sol = solve_ilp(p)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.values["b"] == 1.0

    def test_covering_pair(self):
        p = LpProblem()
        p.add_var("b1", 0, 1, binary=True)
        p.add_var("b2", 0, 1, binary=True)
        p.add_constraint({"b1": 1, "b2": 1}, ">=", 1)
        p.add_objective("b1", 1)
        p.add_objective("b2", 1)
        assert solve_ilp(p).objective == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force_on_pure_binary(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        p = LpProblem()
        names = [f"b{i}" for i in range(n)]
        for nm in names:
            p.add_var(nm, 0, 1, binary=True)
            p.add_objective(nm, rng.randint(-4, 4))
        for _ in range(rng.randint(1, 5)):
            coeffs = {nm: rng.randint(-3, 3) for nm in names}
            p.add_constraint(coeffs, rng.choice(["<=", ">="]), rng.randint(-2, 4))
        expected = brute_force_binary(p)
        sol = solve_ilp(p)
        if expected is None:
            assert sol.status is SolveStatus.INFEASIBLE
        else:
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(expected, abs=1e-6)
            for nm in names:
                assert sol.values[nm] in (0.0, 1.0)

    def test_node_limit_returns_incumbent(self):
        rng = random.Random(5)
        p = LpProblem()
        names = [f"b{i}" for i in range(10)]
        for nm in names:
            p.add_var(nm, 0, 1, binary=True)
            p.add_objective(nm, -rng.random())
        p.add_constraint({nm: 1 for nm in names}, "<=", 5)
        sol = solve_ilp(p, node_limit=3)
        assert sol.status in (SolveStatus.NODE_LIMIT, SolveStatus.OPTIMAL)
        if sol.status is SolveStatus.NODE_LIMIT and sol.values:
            assert max_violation(p, sol.values) <= 1e-6


# ---------------------------------------------------------------------------
# cartogram LPs: the solver paths on the models the pipeline builds


def jittered_model(tmp_path, cols, seed, objective, setting, k=1):
    """Cartogram model of a jittered synth grid, read back from its files."""
    from demers.lpmodel import ModelSpec, Stability, build_multi_lp, build_single_lp
    from demers.mapdata import (
        WeightKind, compute_epsilon, load_map, load_weights, scale_weights,
    )
    from demers.sepconstraints import derive_constraints
    from demers.synth import write_instance

    map_path, csv_path = write_instance(
        tmp_path / f"k{k}", cols, seed, k=k, rows=cols, jitter=0.3
    )
    g = load_map(map_path)
    table = scale_weights(load_weights(csv_path, g, WeightKind.TIME_SERIES), g)
    cs = derive_constraints(g, compute_epsilon(table, g), setting)
    if k == 1:
        spec = ModelSpec(objective_kind=objective, setting=setting, stability=Stability.NONE)
        return g, build_single_lp(g, table.function_sides(0), cs, spec)
    spec = ModelSpec(objective_kind=objective, setting=setting, stability=Stability.SU)
    return g, build_multi_lp(g, table, cs, spec)


class TestDegeneratePhaseOne:
    @pytest.mark.parametrize("seed", [24, 31, 2000])
    def test_jittered_top_s_lp_is_feasible(self, tmp_path, seed):
        # long degenerate stretches in phase 1 leave round-off reduced costs
        # on columns without a positive pivot entry; they are not rays
        from demers.lpmodel import ObjectiveKind
        from demers.sepconstraints import Setting

        _, model = jittered_model(tmp_path, 3, seed, ObjectiveKind.TOP, Setting.STRONG)
        assert len(model.problem.constraints) <= ss.AUTO_SIMPLEX_MAX_ROWS
        ref = solve_lp(model.problem, engine="highs")
        for engine in ("simplex", "auto"):
            sol = solve_lp(model.problem, engine=engine)
            assert sol.status is SolveStatus.OPTIMAL, engine
            assert sol.engine == "simplex"
            assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
            assert max_violation(model.problem, sol.values) <= 1e-6


def highs_recorder(monkeypatch):
    """Record the time limit of every call into the HiGHS backend."""
    seen: list[float | None] = []
    real = ss._solve_highs

    def spy(problem, log, time_limit=None):
        seen.append(time_limit)
        return real(problem, log, time_limit)

    monkeypatch.setattr(ss, "_solve_highs", spy)
    return seen


class TestTimeLimit:
    def test_binary_free_ilp_forwards_limit(self, monkeypatch):
        seen = highs_recorder(monkeypatch)
        p = LpProblem()
        p.add_var("x")
        p.add_constraint({"x": 1.0}, ">=", 3.0)
        p.add_objective("x", 1.0)
        sol = solve_ilp(p, engine="highs", time_limit=7.5)
        assert sol.optimal
        assert seen == [7.5]

    def test_node_relaxations_get_remaining_time(self, monkeypatch):
        seen = highs_recorder(monkeypatch)
        p = LpProblem()
        names = [f"b{i}" for i in range(4)]
        for nm in names:
            p.add_var(nm, 0, 1, binary=True)
        p.add_constraint({nm: 2 for nm in names}, ">=", 3)
        for i, nm in enumerate(names):
            p.add_objective(nm, 1.0 + 0.1 * i)
        sol = solve_ilp(p, engine="highs", time_limit=30.0)
        assert sol.optimal
        assert sol.objective == pytest.approx(2.1)
        assert len(seen) >= 2
        assert all(t is not None and 0 < t <= 30.0 for t in seen)
        assert seen == sorted(seen, reverse=True)

    def test_relaxation_stopped_by_limit_ends_search(self, monkeypatch):
        # HiGHS reports a relaxation cut off by its time limit as an
        # iteration limit; past the deadline that ends the search
        def stopped(problem, log, time_limit=None):
            time.sleep(time_limit)
            return ss.Solution(SolveStatus.ITERATION_LIMIT, engine="highs")

        monkeypatch.setattr(ss, "_solve_highs", stopped)
        p = LpProblem()
        p.add_var("b", 0, 1, binary=True)
        p.add_objective("b", 1.0)
        sol = solve_ilp(p, engine="highs", time_limit=0.05)
        assert sol.status is SolveStatus.NODE_LIMIT
        assert sol.nodes == 1


def sized_lp(rows):
    """A feasible LP with exactly ``rows`` constraints."""
    rng = random.Random(rows)
    p = LpProblem()
    n = 20
    names = [f"x{i}" for i in range(n)]
    for nm in names:
        p.add_var(nm, 0.0, 10.0)
        p.add_objective(nm, rng.uniform(-1.0, 1.0))
    for _ in range(rows):
        picks = rng.sample(names, 3)
        p.add_constraint({nm: rng.uniform(0.1, 1.0) for nm in picks}, "<=", 15.0)
    return p


class TestHighsMethod:
    def test_method_switches_at_threshold(self):
        below = solve_lp(sized_lp(ss.HIGHS_IPM_MIN_ROWS - 1), engine="highs")
        above = solve_lp(sized_lp(ss.HIGHS_IPM_MIN_ROWS), engine="highs")
        assert (below.engine, below.method) == ("highs", "ds")
        assert (above.engine, above.method) == ("highs", "ipm")
        assert below.optimal and above.optimal
        assert below.crossover_nit == 0
        assert above.crossover_nit >= 0

    def test_bundled_simplex_records_no_method(self):
        sol = solve_lp(sized_lp(5), engine="simplex")
        assert (sol.engine, sol.method, sol.crossover_nit) == ("simplex", "", 0)

    @pytest.mark.parametrize(
        "objective,setting,k",
        [("TOP", "STRONG", 1), ("ORG", "WEAK", 2)],
    )
    def test_interior_point_matches_dual_simplex(
        self, tmp_path, monkeypatch, objective, setting, k
    ):
        from demers.layout import anchor_to_origins, decode, validity_violations
        from demers.lpmodel import ObjectiveKind
        from demers.sepconstraints import Setting

        kind = ObjectiveKind[objective]
        g, model = jittered_model(tmp_path, 7, 0, kind, Setting[setting], k=k)
        assert len(model.problem.constraints) >= ss.HIGHS_IPM_MIN_ROWS
        ipm = solve_lp(model.problem, engine="auto")
        monkeypatch.setattr(ss, "HIGHS_IPM_MIN_ROWS", 10**9)
        ds = solve_lp(model.problem, engine="auto")
        assert (ipm.method, ds.method) == ("ipm", "ds")
        assert ipm.objective == pytest.approx(ds.objective, abs=1e-7)

        layouts = []
        for sol in (ipm, ds):
            lays = decode(sol, model)
            if kind is not ObjectiveKind.ORG:
                lays = anchor_to_origins(lays, {r.id: r.centroid for r in g.regions})
            assert all(validity_violations(lay) == [] for lay in lays)
            layouts.append(lays)
        for a, b in zip(*layouts):
            for rid, (x, y) in a.centers.items():
                assert x == pytest.approx(b.centers[rid][0], abs=1e-7)
                assert y == pytest.approx(b.centers[rid][1], abs=1e-7)
