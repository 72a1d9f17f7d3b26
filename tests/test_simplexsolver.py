import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demers import simplexsolver as ss
from demers.lpmodel import LpProblem, max_violation
from demers.simplexsolver import SolveStatus, SolverError, solve_ilp, solve_lp
from oracle_simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, oracle_solve
from test_lp_golden import golden_problems

# the bundled simplex is reliable up to about this many rows; past it, it
# can drift onto a singular basis (the README's known limit)
BUNDLED_MAX_ROWS = 220

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

    @pytest.mark.parametrize("engine", ["highs", "auto"])
    def test_iteration_limit_reaches_highs(self, engine):
        # presolve does not solve this LP by itself: HiGHS needs 4 pivots
        p = sized_lp(30)
        assert solve_lp(p, engine=engine).iterations > 1
        sol = solve_lp(p, engine=engine, iteration_limit=1)
        assert (sol.engine, sol.status) == ("highs", SolveStatus.ITERATION_LIMIT)

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
        assert len(model.problem.constraints) <= BUNDLED_MAX_ROWS
        ref = solve_lp(model.problem, engine="highs")
        sol = solve_lp(model.problem, engine="simplex")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.engine == "simplex"
        assert sol.objective == pytest.approx(ref.objective, abs=1e-6)
        assert max_violation(model.problem, sol.values) <= 1e-6
        # engine="auto" sends every LP to HiGHS, whatever its size
        auto = solve_lp(model.problem, engine="auto")
        assert (auto.engine, auto.engine_reason) == ("highs", "auto: LP")
        assert auto.objective == ref.objective


class TestDriftedPivot:
    @pytest.mark.parametrize("seed, jitter, kind", [
        (33, 0.15, "TOP"), (69, 0.3, "ORG"), (1969, 0.15, "ORG"),
    ])
    def test_weak_grid_lp_matches_highs(self, seed, jitter, kind):
        # on these 3x3 grids a pivot entry near 1e-9 in the updated inverse
        # is zero in the basis; pivoting on it made the basis singular, and
        # the solve reported a wrong optimum or a singular basis
        from demers.lpmodel import ModelSpec, ObjectiveKind, build_single_lp
        from demers.mapdata import compute_epsilon, scale_weights
        from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
        from demers.synth import grid_map, lognormal_weights

        g = grid_map(3, 3, jitter=jitter, seed=seed)
        table = scale_weights(lognormal_weights(g, k=1, seed=seed), g)
        cs = reduce_transitive(derive_constraints(g, compute_epsilon(table, g), Setting.WEAK))
        spec = ModelSpec(ObjectiveKind[kind], Setting.WEAK)
        problem = build_single_lp(g, table.function_sides(0), cs, spec).problem
        assert problem.num_rows <= BUNDLED_MAX_ROWS
        ref = solve_lp(problem, engine="highs")
        sol = solve_lp(problem, engine="simplex")
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(ref.objective, rel=1e-7, abs=1e-12)
        assert max_violation(problem, sol.values) <= 1e-6


def highs_recorder(monkeypatch):
    """Record the time limit of every call into the HiGHS backend."""
    seen: list[float | None] = []
    real = ss._solve_highs

    def spy(problem, log, time_limit=None, iteration_limit=None):
        seen.append(time_limit)
        return real(problem, log, time_limit, iteration_limit)

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
        # the warm HiGHS object's run clock keeps counting across its runs,
        # so each node's limit is that clock plus what is left of the
        # search's time; the final LP is given what is left
        seen = highs_recorder(monkeypatch)
        limits = []
        real_solve = ss._HighsNodes.solve

        def spy(self, fixings, start):
            clock = self.highs.getRunTime()
            out = real_solve(self, fixings, start)
            limits.append((clock, self.highs.getOptionValue("time_limit")[1]))
            return out

        monkeypatch.setattr(ss._HighsNodes, "solve", spy)
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
        left = [limit - clock for clock, limit in limits]
        assert len(left) >= 2
        assert all(0 < t <= 30.0 for t in left)
        assert left == sorted(left, reverse=True)
        assert len(seen) == 1 and 0 < seen[0] <= left[-1]

    def test_relaxation_stopped_by_limit_ends_search(self, monkeypatch):
        # HiGHS reports a relaxation cut off by its time limit as an
        # iteration limit; past the deadline that ends the search
        def stopped(self, fixings, start):
            time.sleep(self.remaining())
            return ss.Solution(SolveStatus.ITERATION_LIMIT, engine="highs"), None

        monkeypatch.setattr(ss._HighsNodes, "solve", stopped)
        p = LpProblem()
        p.add_var("b", 0, 1, binary=True)
        p.add_objective("b", 1.0)
        sol = solve_ilp(p, engine="highs", time_limit=0.05)
        assert sol.status is SolveStatus.NODE_LIMIT
        assert sol.nodes == 1

    def test_warm_search_stops_at_time_limit_with_incumbent(self, monkeypatch):
        # the warm search needs far more than a second to prove this 5x5
        # CNT program optimal; at a 1 s limit it returns its incumbent,
        # past the limit by at most about one node
        problem = cnt_model("WEAK", cols=5, seed=0).problem
        node_seconds = []
        real_solve = ss._HighsNodes.solve

        def timed(self, fixings, start):
            t0 = time.perf_counter()
            out = real_solve(self, fixings, start)
            node_seconds.append(time.perf_counter() - t0)
            return out

        monkeypatch.setattr(ss._HighsNodes, "solve", timed)
        t0 = time.perf_counter()
        sol = solve_ilp(problem, time_limit=1.0)
        wall = time.perf_counter() - t0
        assert sol.status is SolveStatus.NODE_LIMIT
        assert sol.x is not None and sol.nodes > 1
        assert max_violation(problem, sol.values) <= 1e-6
        assert wall <= 1.0 + max(node_seconds) + 0.1

    def test_search_past_its_limit_leaves_the_final_lp_the_root_time(self, monkeypatch):
        # the root takes at least 0.05 s and a later node ends past the
        # deadline: the final LP still gets what the root took, not the
        # 1 ms floor of what is left
        seen = highs_recorder(monkeypatch)
        real_solve = ss._HighsNodes.solve
        deadline = time.perf_counter() + 0.2

        def slow(self, fixings, start):
            out = real_solve(self, fixings, start)
            time.sleep(0.05 if not fixings else max(deadline - time.perf_counter(), 0) + 0.01)
            return out

        monkeypatch.setattr(ss._HighsNodes, "solve", slow)
        p = LpProblem()
        names = [f"b{i}" for i in range(4)]
        for nm in names:
            p.add_var(nm, 0, 1, binary=True)
        p.add_constraint({nm: 2 for nm in names}, ">=", 3)
        for i, nm in enumerate(names):
            p.add_objective(nm, 1.0 + 0.1 * i)
        sol = solve_ilp(p, engine="highs", time_limit=0.2)
        assert sol.status is SolveStatus.NODE_LIMIT
        assert len(seen) == 1 and seen[0] >= 0.05

    def test_final_lp_gets_the_time_the_search_leaves(self, monkeypatch):
        # branching stops while the time the root relaxation took is still
        # left, so the final LP of the incumbent's binaries reaches its
        # optimum: the layout is a cold solve of those binaries. That LP may
        # run past the limit by up to the root's time (milliseconds here);
        # the slack is 0.1 s
        from demers.layout import decode

        model = cnt_model("WEAK", cols=5, seed=0)
        problem = model.problem
        finals = []
        real = ss._solve_highs

        def spy(p, log, time_limit=None, iteration_limit=None):
            finals.append(real(p, log, time_limit, iteration_limit))
            return finals[-1]

        monkeypatch.setattr(ss, "_solve_highs", spy)
        t0 = time.perf_counter()
        sol = solve_ilp(problem, time_limit=1.0)
        wall = time.perf_counter() - t0
        assert sol.status is SolveStatus.NODE_LIMIT
        [final] = finals
        assert final.optimal
        binaries = np.flatnonzero(problem.binary)
        fixed = dict(zip(binaries.tolist(), sol.x[binaries].astype(int).tolist()))
        base = problem.with_bounds(problem.lb, problem.ub,
                                   binary=np.zeros(problem.num_cols, dtype=bool))
        cold = real(ss._with_fixings(base, fixed), False)
        assert decode(sol, model)[0].centers == decode(cold, model)[0].centers
        assert wall <= 1.0 + 0.1

    def test_bundled_simplex_stops_at_time_limit(self, tmp_path):
        # without the limit this 1 132-row LP runs for seconds on the
        # bundled simplex; the deadline is checked between pivots
        from demers.lpmodel import ObjectiveKind
        from demers.sepconstraints import Setting

        _, model = jittered_model(tmp_path, 5, 0, ObjectiveKind.TOP, Setting.STRONG)
        t0 = time.perf_counter()
        sol = solve_lp(model.problem, engine="simplex", time_limit=0.05)
        assert time.perf_counter() - t0 < 1.0
        assert sol.status is SolveStatus.ITERATION_LIMIT
        assert sol.engine == "simplex"


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
        below = solve_lp(sized_lp(ss.HIGHS_DUAL_FORM_MIN_ROWS - 1), engine="highs")
        above = solve_lp(sized_lp(ss.HIGHS_DUAL_FORM_MIN_ROWS), engine="highs")
        assert (below.engine, below.method) == ("highs", "ds")
        assert (above.engine, above.method) == ("highs", "dual-form")
        assert below.optimal and above.optimal
        assert above.dual_objective == pytest.approx(above.objective, rel=ss.GAP_TOL)

    def test_bundled_simplex_records_no_method(self):
        sol = solve_lp(sized_lp(5), engine="simplex")
        assert (sol.engine, sol.method) == ("simplex", "")

    @pytest.mark.parametrize(
        "objective,setting,k",
        [("TOP", "STRONG", 1), ("ORG", "WEAK", 2)],
    )
    def test_dual_form_matches_dual_simplex(
        self, tmp_path, monkeypatch, objective, setting, k
    ):
        from demers.layout import anchor_to_origins, decode, validity_violations
        from demers.lpmodel import ObjectiveKind
        from demers.sepconstraints import Setting

        kind = ObjectiveKind[objective]
        g, model = jittered_model(tmp_path, 7, 0, kind, Setting[setting], k=k)
        assert len(model.problem.constraints) >= ss.HIGHS_DUAL_FORM_MIN_ROWS
        dual = solve_lp(model.problem, engine="auto")
        monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 10**9)
        ds = solve_lp(model.problem, engine="auto")
        assert (dual.method, ds.method) == ("dual-form", "ds")
        assert dual.objective == pytest.approx(ds.objective, abs=1e-7)

        layouts = []
        for sol in (dual, ds):
            lays = decode(sol, model)
            if kind is not ObjectiveKind.ORG:
                lays = anchor_to_origins(lays, {r.id: r.centroid for r in g.regions})
            assert all(validity_violations(lay) == [] for lay in lays)
            layouts.append(lays)
        for a, b in zip(*layouts):
            for rid, (x, y) in a.centers.items():
                assert x == pytest.approx(b.centers[rid][0], abs=1e-7)
                assert y == pytest.approx(b.centers[rid][1], abs=1e-7)


# ---------------------------------------------------------------------------
# the starting basis: unit columns, so the bundled simplex starts from B^-1 = I


def assert_identity_start(problem):
    sx = ss._Simplex(ss._standardize(problem), 1, False)
    eye = np.eye(sx.m)
    assert np.array_equal(sx.A[:, sx.basis], eye)
    assert np.array_equal(sx.binv, eye)


class TestStartingBasis:
    @pytest.mark.parametrize("stem", sorted(golden_problems()))
    def test_golden_models(self, stem):
        assert_identity_start(golden_problems()[stem])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_lps(self, seed):
        # mixed senses and negative right-hand sides flip rows and seed
        # some slacks, leaving artificials elsewhere
        assert_identity_start(as_problem(*random_lp(seed)))

    @pytest.mark.parametrize("setting", ["WEAK", "STRONG"])
    def test_cnt_nodes_start_from_parent_basis(self, monkeypatch, setting):
        # on HiGHS the root starts cold and every other node from its
        # parent's final basis (the primal probe from the node it probes):
        # the object still holds it when the parent was its last solve, and
        # gets it back through setBasis otherwise
        model = cnt_model(setting)
        calls, restored = [], []
        real_init, real_solve = ss._HighsNodes.__init__, ss._HighsNodes.solve

        class Recorder:
            """The HiGHS object, with its setBasis calls recorded."""

            def __init__(self, highs):
                self.highs = highs

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def setBasis(self, basis):
                restored.append(basis)
                return self.highs.setBasis(basis)

        def init(self, *args):
            real_init(self, *args)
            self.highs = Recorder(self.highs)

        def spy(self, fixings, start):
            before = len(restored)
            sol, basis = real_solve(self, fixings, start)
            calls.append((list(fixings.items()), start, basis, restored[before:], sol.iterations))
            return sol, basis

        monkeypatch.setattr(ss._HighsNodes, "__init__", init)
        monkeypatch.setattr(ss._HighsNodes, "solve", spy)
        sol = solve_ilp(model.problem, engine="highs")
        assert sol.optimal and sol.nodes > 2
        assert calls[0][:2] == ([], None) and calls[0][3] == []
        kept = 0
        for i, (items, start, _, set_to, _) in enumerate(calls[1:], start=1):
            # the parent: the latest earlier call fixing a proper prefix
            parent = max(
                (c for c in calls[:i] if len(c[0]) < len(items) and items[: len(c[0])] == c[0]),
                key=lambda c: len(c[0]),
            )
            assert start is parent[2] is not None
            if calls[i - 1][2] is start:
                assert set_to == []
                kept += 1
            else:
                assert len(set_to) == 1 and set_to[0] is start
        # dive children go on from the basis their parent left; nodes from
        # the heap, and the dive child after the probe, are set back to it
        assert 0 < kept < len(calls) - 1
        # the root and its probe run before the first branch, whose nodes
        # fix one binary
        branch = next(i for i, c in enumerate(calls) if len(c[0]) == 1)
        assert sol.root_iterations == sum(c[4] for c in calls[:branch]) > 0


def cnt_model(setting, cols=3, seed=4):
    """CNT ILP of a jittered grid; on the default 3x3 grid branch and bound
    needs a few nodes."""
    from demers.lpmodel import ModelSpec, ObjectiveKind, build_cnt_ilp
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
    from demers.synth import grid_map, lognormal_weights

    g = grid_map(cols, jitter=0.3, seed=seed)
    table = scale_weights(lognormal_weights(g, k=1, seed=seed), g)
    cs = reduce_transitive(
        derive_constraints(g, compute_epsilon(table, g), Setting[setting])
    )
    return build_cnt_ilp(
        g, table.function_sides(0), cs, ModelSpec(ObjectiveKind.CNT, Setting[setting])
    )


def test_progress_lines_are_logged(caplog):
    from demers.lpmodel import ModelSpec, ObjectiveKind, Stability, build_multi_lp
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.sepconstraints import Setting, derive_constraints
    from demers.synth import grid_map, lognormal_weights

    g = grid_map(3, jitter=0.3, seed=1)
    table = scale_weights(lognormal_weights(g, k=2, seed=1), g)
    cs = derive_constraints(g, compute_epsilon(table, g), Setting.WEAK)
    model = build_multi_lp(g, table, cs, ModelSpec(ObjectiveKind.TOP, Setting.WEAK, Stability.SU))
    with caplog.at_level("INFO", logger="demers"):
        quiet = solve_lp(model.problem, engine="simplex")
        assert caplog.records == []
        sol = solve_lp(model.problem, engine="simplex", log=True)
    assert sol.iterations == quiet.iterations >= 200
    lines = [r.getMessage() for r in caplog.records]
    assert lines == [f"[simplex] iter={i}" for i in range(200, sol.iterations + 1, 200)]
    assert {r.name for r in caplog.records} == {"demers.simplexsolver"}


# ---------------------------------------------------------------------------
# the searches against a plain one


def reference_solve_ilp(problem, solve_relaxation=None, node_limit=100_000):
    """Branch and bound as ``solve_ilp(engine="simplex")`` runs it, without
    its limits' timing and logging, keyed by binary name in plain loops.

    Every node relaxation is its own LP, standardized with the fixed
    binaries dropped and solved cold by ``solve_relaxation`` (the bundled
    simplex by default), and the incumbent's binaries are fixed and solved
    once more at the end. Counts the nodes, pivots and refactors as
    ``solve_ilp`` does.
    """
    import heapq
    from dataclasses import replace

    if solve_relaxation is None:
        def solve_relaxation(p):
            return ss._solve_simplex(p, None, False)

    binaries = [problem.col_names[j] for j in np.flatnonzero(problem.binary)]
    base = problem.with_bounds(
        problem.lb, problem.ub, binary=np.zeros(problem.num_cols, dtype=bool)
    )
    iterations = refactors = 0

    def relax(fixings):
        nonlocal iterations, refactors
        by_column = {base.col_index[name]: v for name, v in fixings.items()}
        sol = solve_relaxation(ss._with_fixings(base, by_column))
        iterations += sol.iterations
        refactors += sol.refactors
        return sol

    def rounded(sol):
        vals = dict(sol.values)
        for name in binaries:
            vals[name] = 1.0 if vals[name] > 0.5 else 0.0
        return replace(sol, x=np.array([vals[name] for name in sol.col_names]))

    incumbent = None
    nodes = 0
    root_iterations = None
    heap = []
    stack = [(-ss.INF, {})]
    seq = 0
    exhausted = True
    while stack or heap:
        if stack:
            bound, fixings = stack.pop()
        else:
            bound, _, fixings = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent.objective - 1e-9:
            continue
        if nodes >= node_limit:
            exhausted = False
            break
        nodes += 1
        rel = relax(fixings)
        if rel.status is SolveStatus.INFEASIBLE:
            continue
        assert rel.status is SolveStatus.OPTIMAL
        if incumbent is not None and rel.objective >= incumbent.objective - 1e-9:
            continue
        frac_name, frac_dist = None, -1.0
        for name in binaries:
            if name in fixings:
                continue
            val = rel.values.get(name, 0.0)
            dist = min(val, 1.0 - val)
            if dist > ss.INT_TOL and dist > frac_dist:
                frac_name, frac_dist = name, dist
        if frac_name is None:
            incumbent = rounded(rel)
            continue
        if incumbent is None:
            probe_fix = dict(fixings)
            for name in binaries:
                if name not in probe_fix:
                    val = rel.values.get(name, 0.0)
                    probe_fix[name] = 1 if val > ss.INT_TOL else 0
            probe = relax(probe_fix)
            if probe.status is SolveStatus.OPTIMAL:
                incumbent = rounded(probe)
        if root_iterations is None:
            root_iterations = iterations
        prefer = 1 if rel.values.get(frac_name, 0.0) >= 0.5 else 0
        seq += 1
        heapq.heappush(heap, (rel.objective, seq, {**fixings, frac_name: 1 - prefer}))
        stack.append((rel.objective, {**fixings, frac_name: prefer}))
    root_iterations = iterations if root_iterations is None else root_iterations
    if incumbent is not None:
        final = relax({name: int(incumbent.values[name]) for name in binaries})
        if final.status is SolveStatus.OPTIMAL:
            incumbent = rounded(final)
    counts = {"nodes": nodes, "iterations": iterations, "refactors": refactors,
              "root_iterations": root_iterations}
    if incumbent is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.NODE_LIMIT
        return ss.Solution(status, **counts)
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.NODE_LIMIT
    return replace(incumbent, status=status, **counts)


def assert_same_optimum(problem):
    ref = reference_solve_ilp(problem)
    assert ref.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE)
    binaries = [problem.col_names[j] for j in np.flatnonzero(problem.binary)]
    for engine in ("simplex", "highs"):
        sol = solve_ilp(problem, engine=engine)
        assert sol.status is ref.status, engine
        if ref.optimal:
            assert sol.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-12), engine
            assert max_violation(problem, sol.values) <= 1e-6, engine
            assert all(sol.values[nm] in (0.0, 1.0) for nm in binaries), engine


@st.composite
def binary_programs(draw):
    """Small mixed binary programs with integer data; some are infeasible."""
    n_bin = draw(st.integers(1, 7))
    n_cont = draw(st.integers(0, 3))
    p = LpProblem()
    names = [f"b{i}" for i in range(n_bin)] + [f"x{i}" for i in range(n_cont)]
    coef = st.integers(-4, 4)
    for i, nm in enumerate(names):
        if i < n_bin:
            p.add_var(nm, 0, 1, binary=True)
        else:
            p.add_var(nm, draw(st.sampled_from([0.0, -3.0])), draw(st.sampled_from([0.0, 2.5, 5.0])))
        p.add_objective(nm, draw(coef))
    for _ in range(draw(st.integers(1, 6))):
        coeffs = {nm: draw(coef) for nm in names}
        p.add_constraint(coeffs, draw(st.sampled_from(["<=", ">=", "="])), draw(st.integers(-3, 5)))
    return p


@settings(max_examples=150, deadline=None)
@given(binary_programs())
def test_warm_search_matches_cold_on_binary_programs(problem):
    assert_same_optimum(problem)


@st.composite
def cnt_ilps(draw, smallest=2, jitters=(0.0, 0.15, 0.3)):
    """CNT ILPs of grids from ``smallest`` x ``smallest`` cells (at least
    two) to 3x3, each jittered by one of ``jitters``, weak and strong."""
    from demers.lpmodel import ModelSpec, ObjectiveKind, build_cnt_ilp
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
    from demers.synth import grid_map, lognormal_weights

    cols = draw(st.integers(smallest, 3))
    rows = draw(st.integers(2 if cols == 1 else smallest, 3))
    seed = draw(st.integers(0, 10_000))
    setting = draw(st.sampled_from([Setting.WEAK, Setting.STRONG]))
    g = grid_map(cols, rows, jitter=draw(st.sampled_from(jitters)), seed=seed)
    table = scale_weights(lognormal_weights(g, k=1, seed=seed), g)
    cs = reduce_transitive(derive_constraints(g, compute_epsilon(table, g), setting))
    spec = ModelSpec(ObjectiveKind.CNT, setting)
    return build_cnt_ilp(g, table.function_sides(0), cs, spec).problem


@settings(max_examples=25, deadline=None)
@given(cnt_ilps())
def test_warm_search_matches_cold_on_cnt_ilps(problem):
    assert_same_optimum(problem)


@settings(max_examples=30, deadline=None)
@given(cnt_ilps(smallest=1, jitters=(0.15, 0.3)))
def test_warm_highs_and_cold_bundled_searches_reach_one_optimum(problem):
    # the same program on the warm HiGHS nodes and on the cold bundled
    # ones: both prove an optimum, and it is the same one; the centres may
    # differ where the optimum is tied
    warm, cold = (solve_ilp(problem, engine=engine) for engine in ("highs", "simplex"))
    assert (warm.engine, cold.engine) == ("highs", "simplex")
    assert warm.optimal and cold.optimal
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=0.0)


@st.composite
def cartogram_lps(draw):
    """TOP and ORG LPs of 2x2 to 3x3 grids, weak and strong, for one weight
    function, two coupled ones (SU) or a step of the iterative scheme (IT),
    with the full derived constraint set."""
    from demers.lpmodel import (
        ModelSpec, ObjectiveKind, Stability, build_iterative_sequence,
        build_multi_lp, build_single_lp,
    )
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
    from demers.synth import grid_map, lognormal_weights

    cols, rows = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from([ObjectiveKind.TOP, ObjectiveKind.ORG]))
    setting = draw(st.sampled_from([Setting.WEAK, Setting.STRONG]))
    stability = draw(st.sampled_from([Stability.NONE, Stability.SU, Stability.IT]))
    k = 1 if stability is Stability.NONE else 2
    g = grid_map(cols, rows, jitter=draw(st.sampled_from([0.0, 0.15, 0.3])), seed=seed)
    table = scale_weights(lognormal_weights(g, k=k, seed=seed), g)
    cs = derive_constraints(g, compute_epsilon(table, g), setting)
    spec = ModelSpec(kind, setting, stability)
    if stability is Stability.NONE:
        model = build_single_lp(g, table.function_sides(0), reduce_transitive(cs), spec)
    elif stability is Stability.SU:
        model = build_multi_lp(g, table, reduce_transitive(cs), spec)
    else:
        # the second step couples to fixed previous centres: the origins
        step = draw(st.integers(0, 1))
        seq = build_iterative_sequence(g, table, reduce_transitive(cs), spec)
        model = seq.problem(step, {r.id: r.centroid for r in g.regions} if step else None)
    return model, cs


@settings(max_examples=40, deadline=None)
@given(cartogram_lps())
def test_engines_agree_on_cartogram_lps(case):
    from demers.layout import decode, validity_violations

    model, cs = case
    highs = solve_lp(model.problem, engine="highs")
    assert highs.optimal
    solutions = [highs]
    try:
        solutions.append(solve_lp(model.problem, engine="simplex"))
    except SolverError as exc:
        # the documented limit of the bundled simplex, which engine="auto"
        # never uses: 3x3 grids at k = 2 have 324 to 400 rows
        assert str(exc) == "singular basis"
        assert model.problem.num_rows > BUNDLED_MAX_ROWS
    for sol in solutions:
        assert sol.optimal
        # ORG optima can be exactly zero, hence the absolute floor
        assert sol.objective == pytest.approx(highs.objective, rel=1e-7, abs=1e-12)
        for lay in decode(sol, model, cs):
            assert validity_violations(lay) == [], sol.engine


def two_row_form(problem: LpProblem) -> LpProblem:
    """``problem`` with each direction term in the two-row form.

    The builders write a direction term as one row ``expr - dp + dm = 0``
    over two columns that cost the same. The two-row form has one column
    ``d`` with that cost and the rows ``expr - d <= 0`` and
    ``-expr - d <= 0``, in the place of the one row; here ``d`` is ``dp``
    and ``dm`` is dropped. Every other row and column is copied in order.
    """
    out = LpProblem(problem.name)
    for v, cost in zip(problem.variables, problem.cost.tolist()):
        if not v.name.startswith("dm"):
            out.add_var(v.name, v.lb, v.ub, v.binary)
            out.add_objective(v.name, cost)
    for con in problem.constraints:
        split = [n for n, _ in con.coeffs if n.startswith(("dp", "dm"))]
        if not split:
            out.add_constraint(dict(con.coeffs), con.relation, con.rhs, con.name)
            continue
        assert con.relation == "=" and con.rhs == 0.0 and len(split) == 2
        expr = [(n, k) for n, k in con.coeffs if n not in split]
        for sign in (1.0, -1.0):
            out.add_constraint({**{n: sign * k for n, k in expr}, split[0]: -1.0}, "<=", 0.0)
    return out


def direction_exprs(problem: LpProblem, values: dict[str, float]) -> dict[str, float]:
    """``expr`` of each direction row at ``values``, keyed by its ``dp`` column."""
    out = {}
    for con in problem.constraints:
        split = [n for n, _ in con.coeffs if n.startswith(("dp", "dm"))]
        if split:
            out[split[0]] = sum(k * values[n] for n, k in con.coeffs if n not in split)
    return out


def objective_at(problem: LpProblem, values: dict[str, float]) -> float:
    return sum(c * values.get(n, 0.0) for n, c in problem.objective.items())


@settings(max_examples=30, deadline=None)
@given(cartogram_lps())
def test_one_row_direction_terms_solve_as_the_two_row_form(case):
    """Splitting a deviation into two priced columns keeps the optimum: for
    fixed centres the cheapest ``dp + dm`` is ``|expr|``, the cheapest ``d``.

    Both forms reach the same objective on both engines, and the optimal
    centres of each form, with the deviations they imply, are optimal for
    the other form. The centres themselves need not be equal: TOP models of
    these grids often have tied optima, on which the two engines already
    return different centres for the same model.
    """
    model, _ = case
    one_row = model.problem
    pairs = sum(name.startswith("dp") for name in one_row.col_names)
    assert pairs and sum(name.startswith("dm") for name in one_row.col_names) == pairs
    two_rows = two_row_form(one_row)
    assert two_rows.num_rows == one_row.num_rows + pairs
    assert two_rows.num_cols == one_row.num_cols - pairs
    for engine in ("simplex", "highs"):
        try:
            new, old = (solve_lp(p, engine=engine) for p in (one_row, two_rows))
        except SolverError as exc:
            # past BUNDLED_MAX_ROWS, as in test_engines_agree_on_cartogram_lps
            assert str(exc) == "singular basis" and engine == "simplex"
            assert two_rows.num_rows > BUNDLED_MAX_ROWS
            continue
        assert new.optimal and old.optimal
        # ORG optima can be exactly zero, hence the absolute floor
        assert new.objective == pytest.approx(old.objective, rel=1e-9, abs=1e-12), engine

        as_two_rows = dict(new.values)
        as_two_rows.update(
            (dp, abs(e)) for dp, e in direction_exprs(one_row, new.values).items()
        )
        as_one_row = dict(old.values)
        for dp, e in direction_exprs(one_row, old.values).items():
            as_one_row[dp], as_one_row["dm" + dp[2:]] = max(e, 0.0), max(-e, 0.0)
        for problem, values, optimum in (
            (two_rows, as_two_rows, old.objective), (one_row, as_one_row, new.objective)
        ):
            assert max_violation(problem, values) <= 1e-7, engine
            assert objective_at(problem, values) == pytest.approx(
                optimum, rel=1e-9, abs=1e-12
            ), engine


def test_phase_two_refactors_before_reporting_a_ray():
    # a TOP LP (143 rows in the two-row direction form, 107 now) on which a
    # drifted inverse showed a ray: the bundled simplex reported it
    # unbounded, HiGHS found the optimum
    from demers.lpmodel import ModelSpec, ObjectiveKind, build_single_lp
    from demers.mapdata import compute_epsilon, scale_weights
    from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
    from demers.synth import grid_map, lognormal_weights

    g = grid_map(3, 3, jitter=0.15, seed=0)
    table = scale_weights(lognormal_weights(g, k=1, seed=0), g)
    cs = reduce_transitive(derive_constraints(g, compute_epsilon(table, g), Setting.WEAK))
    model = build_single_lp(g, table.function_sides(0), cs, ModelSpec())
    assert model.problem.num_rows <= BUNDLED_MAX_ROWS
    sol = solve_lp(model.problem, engine="simplex")
    assert (sol.engine, sol.status) == ("simplex", SolveStatus.OPTIMAL)
    highs = solve_lp(model.problem, engine="highs")
    assert sol.objective == pytest.approx(highs.objective, rel=1e-9)
    auto = solve_lp(model.problem, engine="auto")
    assert (auto.engine, auto.engine_reason) == ("highs", "auto: LP")


def test_drifted_inverse_from_phase_one_is_refactored_before_a_ray(monkeypatch):
    # min -x - y s.t. x + y >= 2, x <= 3, y <= 4: phase 1 pivots out the
    # artificial of the first row, so phase 2 starts with an updated inverse
    problem = as_problem([-1, -1], [([1, 1], ">=", 2), ([1, 0], "<=", 3), ([0, 1], "<=", 4)])
    run_phase = ss._Simplex.run_phase

    def drifted(self, c, allowed, bounded=False):
        if not bounded:
            assert self.updates > 0
            self.binv = np.zeros_like(self.binv)  # every column now looks like a ray
        return run_phase(self, c, allowed, bounded)

    monkeypatch.setattr(ss._Simplex, "run_phase", drifted)
    sol = solve_lp(problem, engine="simplex")
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-7.0)
