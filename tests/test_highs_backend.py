"""The HiGHS backend: the same solves as ``linprog``, without its imports.

``simplexsolver._solve_highs`` hands each model to scipy's compiled HiGHS
bindings itself. These tests hold it to the frozen ``linprog`` path in
``oracle_highs.py``, on the LP itself and on the dual form that large LPs
are solved in, check its status mapping and its checks of an optimal point
and of the dual form's certificate, and check in fresh processes that a
solve leaves ``scipy.optimize`` and ``scipy.sparse`` unimported and that a
later ``linprog`` still works.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle_highs
from demers import simplexsolver as ss
from demers.lpmodel import LpProblem, max_violation
from demers.simplexsolver import SolverError, SolveStatus
from test_simplexsolver import cartogram_lps

INF = math.inf
SRC = Path(__file__).parent.parent / "src"


def lp(columns, rows, cost) -> LpProblem:
    """An LP from (name, lb, ub) columns, (coeffs, relation, rhs) rows and
    a cost per column name."""
    p = LpProblem()
    for name, lo, hi in columns:
        p.add_var(name, lo, hi)
    for coeffs, relation, rhs in rows:
        p.add_constraint(coeffs, relation, rhs)
    for name, c in cost.items():
        p.add_objective(name, c)
    return p


COEFF = st.one_of(st.integers(-4, 4).map(float), st.sampled_from([0.1, -0.7, 2.5, 1 / 3]))


@st.composite
def small_lps(draw):
    """Small LPs with "<=", ">=" and "=" rows, or none, over nonnegative,
    free, fixed, boxed and upper-bounded columns; many are infeasible or
    unbounded."""
    n = draw(st.integers(1, 6))
    columns = []
    for j in range(n):
        kind = draw(st.sampled_from(["nonneg", "free", "fixed", "boxed", "upper"]))
        lo = draw(st.integers(-3, 3).map(float))
        bounds = {
            "nonneg": (0.0, INF),
            "free": (-INF, INF),
            "fixed": (lo, lo),
            "boxed": (lo, lo + draw(st.integers(0, 4))),
            "upper": (-INF, lo),
        }[kind]
        columns.append((f"x{j}", *bounds))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        rows.append((
            {f"x{j}": draw(COEFF) for j in picks},
            draw(st.sampled_from(["<=", ">=", "="])),
            draw(st.integers(-8, 8)),
        ))
    return lp(columns, rows, {f"x{j}": draw(COEFF) for j in range(n)})


def solve_or_error(solve, problem):
    try:
        return solve(problem, False)
    except SolverError:
        return None


def assert_same_solve(problem):
    """The backend and the frozen ``linprog`` path agree: bit for bit when
    the backend solves the LP itself, as ``assert_dual_form_agrees`` says
    when it solves the LP's dual."""
    new = solve_or_error(ss._solve_highs, problem)
    old = solve_or_error(oracle_highs.solve_highs, problem)
    assert (new is None) == (old is None)
    if old is None:
        return
    assert new.engine == old.engine == "highs"
    if new.method == "dual-form":
        assert_dual_form_agrees(problem, new, old)
        return
    assert (new.status, new.method, new.iterations) == (old.status, old.method, old.iterations)
    if old.optimal:
        assert {k: v.hex() for k, v in new.values.items()} == {
            k: v.hex() for k, v in old.values.items()}
        assert new.objective.hex() == old.objective.hex()
        assert new.dual_objective == pytest.approx(old.dual_objective, rel=1e-12, abs=0)


def assert_dual_form_agrees(problem, new, old):
    """A dual-form solve ``new`` against the frozen dual simplex ``old``: the
    same status and, at an optimum, the objective within ``GAP_TOL``
    (relative, absolute below 1), a point within ``POINT_TOL`` of its rows
    and bounds, and a dual objective within ``GAP_TOL`` of its own."""
    assert new.method == "dual-form"
    assert new.status is old.status
    if old.optimal:
        gap = {"rel": ss.GAP_TOL, "abs": ss.GAP_TOL}
        assert new.objective == pytest.approx(old.objective, **gap)
        assert new.dual_objective == pytest.approx(new.objective, **gap)
        assert max_violation(problem, new.values) <= ss.POINT_TOL


@settings(max_examples=120, deadline=None)
@given(st.one_of(cartogram_lps().map(lambda case: case[0].problem), small_lps()))
def test_backend_matches_the_linprog_oracle(problem):
    # below the dual-form threshold: the LP itself, by dual simplex
    with mock.patch.object(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 10**9):
        assert_same_solve(problem)


# ---------------------------------------------------------------------------
# status mapping and the check of an optimal point


INFEASIBLE_LP = lp([("x", 0.0, INF)], [({"x": 1}, ">=", 3), ({"x": 1}, "<=", 1)], {"x": 1})
UNBOUNDED_LP = lp([("x", 0.0, INF), ("y", 0.0, INF)], [({"x": 1, "y": -1}, "<=", 1)], {"x": -1})
FEASIBLE_LP = lp([("x", 0.0, 4.0), ("y", -INF, INF)],
                 [({"x": 1, "y": 1}, ">=", 2), ({"x": 1, "y": -1}, "=", 1)],
                 {"x": 1, "y": 2})


@pytest.mark.parametrize("threshold", [0, 10**9])
class TestStatus:
    def test_infeasible(self, monkeypatch, threshold):
        monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", threshold)
        sol = ss.solve_lp(INFEASIBLE_LP, engine="highs")
        assert sol.status is SolveStatus.INFEASIBLE
        assert_same_solve(INFEASIBLE_LP)

    def test_lower_bound_above_upper_is_infeasible(self, monkeypatch, threshold):
        monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", threshold)
        p = lp([("x", 2.0, 1.0)], [({"x": 1}, "<=", 5)], {"x": 1})
        assert ss.solve_lp(p, engine="highs").status is SolveStatus.INFEASIBLE
        assert_same_solve(p)

    def test_unbounded(self, monkeypatch, threshold):
        monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", threshold)
        sol = ss.solve_lp(UNBOUNDED_LP, engine="highs")
        assert sol.status is SolveStatus.UNBOUNDED
        assert_same_solve(UNBOUNDED_LP)

    def test_free_column_without_rows_is_unbounded(self, monkeypatch, threshold):
        monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", threshold)
        p = lp([("x", -INF, INF)], [], {"x": 1})
        assert ss.solve_lp(p, engine="highs").status is SolveStatus.UNBOUNDED
        assert_same_solve(p)


def test_repeated_column_in_a_row_is_summed():
    # HiGHS refuses a column named twice in a row; linprog summed the two
    p = lp([("x", 0.0, INF), ("y", 0.0, INF)], [], {"x": -1, "y": -1})
    p.add_rows([[0, 1, 0]], [[1.0, 1.0, 2.0]], "<=", 6.0)
    p.add_rows([[1, 0, 1]], [[0.5, 1.0, 0.5]], ">=", 1.0)
    sol = ss._solve_highs(p, False)
    assert sol.optimal and sol.objective == -6.0
    assert_same_solve(p)


def test_time_limit_maps_to_iteration_limit(tmp_path):
    from demers.lpmodel import ObjectiveKind
    from demers.sepconstraints import Setting
    from test_simplexsolver import jittered_model

    _, model = jittered_model(tmp_path, 7, 0, ObjectiveKind.TOP, Setting.STRONG)
    assert model.problem.num_rows >= ss.HIGHS_DUAL_FORM_MIN_ROWS
    sol = ss.solve_lp(model.problem, engine="highs", time_limit=1e-9)
    assert sol.status is SolveStatus.ITERATION_LIMIT
    assert (sol.engine, sol.method) == ("highs", "dual-form")


def core_reporting(status=None, col_shift=0.0, row_shift=0.0, dual_shift=0.0):
    """The HiGHS module with ``_Highs`` wrapped: it reports ``status`` as the
    model status, when given, moves the first column of its solution by
    ``col_shift``, every row activity by ``row_shift`` and every row dual
    by ``dual_shift``."""
    core = ss._highs_core()

    class Reporting:
        def __init__(self):
            self._highs = core._Highs()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def getModelStatus(self):
            return self._highs.getModelStatus() if status is None else status

        def getSolution(self):
            sol = self._highs.getSolution()
            col_value = list(sol.col_value)
            col_value[0] += col_shift
            return types.SimpleNamespace(
                col_value=col_value, row_value=[v + row_shift for v in sol.row_value],
                row_dual=[v + dual_shift for v in sol.row_dual], col_dual=sol.col_dual,
            )

    return types.SimpleNamespace(**{**vars(core), "_Highs": Reporting})


@pytest.mark.parametrize("status,expected", [
    ("kInfeasible", SolveStatus.INFEASIBLE),
    ("kModelError", SolveStatus.INFEASIBLE),
    ("kUnbounded", SolveStatus.UNBOUNDED),
    ("kTimeLimit", SolveStatus.ITERATION_LIMIT),
    ("kIterationLimit", SolveStatus.ITERATION_LIMIT),
])
def test_status_mapping(monkeypatch, status, expected):
    fake = core_reporting(getattr(ss._highs_core().HighsModelStatus, status))
    monkeypatch.setattr(ss, "_highs_core", lambda: fake)
    assert ss._solve_highs(FEASIBLE_LP, False).status is expected


@pytest.mark.parametrize("status", ["kUnboundedOrInfeasible", "kSolveError", "kNotset"])
def test_other_statuses_raise(monkeypatch, status):
    fake = core_reporting(getattr(ss._highs_core().HighsModelStatus, status))
    monkeypatch.setattr(ss, "_highs_core", lambda: fake)
    with pytest.raises(SolverError, match="HiGHS failed"):
        ss._solve_highs(FEASIBLE_LP, False)


@pytest.mark.parametrize("col_shift,row_shift", [
    (0.0, 1e-3),  # the ">=" row, flipped, is off by 1e-3
    (0.0, -1e-3),  # the "=" row is off by 1e-3
    (-2.0, 0.0),  # x = 1.5 leaves its box [0, 4]
    (math.nan, 0.0),
])
def test_optimal_point_off_its_constraints_raises(monkeypatch, col_shift, row_shift):
    # the allowance is 10 * sqrt(1e-9), about 3.2e-4
    assert ss._solve_highs(FEASIBLE_LP, False).optimal
    fake = core_reporting(col_shift=col_shift, row_shift=row_shift)
    monkeypatch.setattr(ss, "_highs_core", lambda: fake)
    with pytest.raises(SolverError, match="outside its constraints"):
        ss._solve_highs(FEASIBLE_LP, False)


def test_optimal_point_within_the_allowance_passes(monkeypatch):
    fake = core_reporting(col_shift=1e-5, row_shift=1e-5)
    monkeypatch.setattr(ss, "_highs_core", lambda: fake)
    assert ss._solve_highs(FEASIBLE_LP, False).optimal


# ---------------------------------------------------------------------------
# the dual form: LPs of HIGHS_DUAL_FORM_MIN_ROWS rows or more


# a boxed, a fixed and an upper-bounded column
TWO_SIDED_LP = lp([("x", -1.0, 2.0), ("y", 3.0, 3.0), ("z", -INF, 1.0)],
                  [({"x": 1, "y": 1, "z": 1}, ">=", 2), ({"x": 1, "z": -1}, "<=", 4)],
                  {"x": 1, "y": -1, "z": -2})
LOWER_ABOVE_UPPER_LP = lp([("x", 2.0, 1.0)], [({"x": 1}, "<=", 5)], {"x": 1})


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    cartogram_lps().map(lambda case: (case[0].problem, *case)),
    small_lps().map(lambda problem: (problem, None, None)),
))
@example((INFEASIBLE_LP, None, None))
@example((UNBOUNDED_LP, None, None))
@example((TWO_SIDED_LP, None, None))
@example((LOWER_ABOVE_UPPER_LP, None, None))
def test_dual_form_matches_the_linprog_oracle(case):
    # every LP on the dual form, held to the frozen dual simplex path; a
    # cartogram LP's layouts decode valid from the recovered point
    from demers.layout import decode, validity_violations

    problem, model, cs = case
    with mock.patch.object(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0):
        new = ss._solve_highs(problem, False)
    old = oracle_highs.solve_highs(problem, False)
    assert_dual_form_agrees(problem, new, old)
    if model is not None:
        assert new.optimal
        for lay in decode(new, model, cs):
            assert validity_violations(lay) == []


# min x + y over x + y >= 1 in the box [0, 4]^2: optimum 1
GAP_LP = lp([("x", 0.0, 4.0), ("y", 0.0, 4.0)], [({"x": 1, "y": 1}, ">=", 1)],
            {"x": 1, "y": 1})


@pytest.mark.parametrize("shifts,match", [
    # the point x = -(row duals) moves by -2: below its lower bounds
    ({"dual_shift": 2.0}, "dual-form solve's point is outside its constraints"),
    # the row's dual moves by 1e-3: off the dual rows A^T y + z = c
    ({"col_shift": 1e-3}, "dual point is outside its constraints"),
    # the point moves by +0.5: feasible, but c x = 2 against the dual's 1
    ({"dual_shift": -0.5}, "objectives .* differ"),
])
def test_dual_form_certificate_failure_raises(monkeypatch, shifts, match):
    monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0)
    sol = ss._solve_highs(GAP_LP, False)
    assert (sol.method, sol.objective) == ("dual-form", 1.0)
    fake = core_reporting(**shifts)
    monkeypatch.setattr(ss, "_highs_core", lambda: fake)
    with pytest.raises(SolverError, match=match):
        ss._solve_highs(GAP_LP, False)


def highs_runs(monkeypatch) -> list:
    """Record the model passed to every HiGHS run of the backend."""
    runs = []
    real = ss._run_highs

    def spy(h, lp, *args):
        runs.append((lp.num_row_, lp.num_col_))
        return real(h, lp, *args)

    monkeypatch.setattr(ss, "_run_highs", spy)
    return runs


@pytest.mark.parametrize("problem,status", [
    (INFEASIBLE_LP, SolveStatus.INFEASIBLE),
    (UNBOUNDED_LP, SolveStatus.UNBOUNDED),
    (LOWER_ABOVE_UPPER_LP, SolveStatus.INFEASIBLE),
])
def test_dual_form_without_an_optimum_solves_the_lp_itself(monkeypatch, problem, status):
    # the dual (one row per column) ends infeasible or unbounded; the LP's
    # own dual simplex solve then gives the status
    monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0)
    runs = highs_runs(monkeypatch)
    sol = ss._solve_highs(problem, False)
    assert (sol.status, sol.method) == (status, "dual-form")
    assert runs == [(problem.num_cols, runs[0][1]), (problem.num_rows, problem.num_cols)]


@pytest.mark.parametrize("status", ["kTimeLimit", "kIterationLimit"])
def test_dual_form_limit_maps_to_iteration_limit(monkeypatch, status):
    monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0)
    fake = core_reporting(getattr(ss._highs_core().HighsModelStatus, status))
    monkeypatch.setattr(ss, "_highs_core", lambda: fake)
    runs = highs_runs(monkeypatch)
    sol = ss._solve_highs(FEASIBLE_LP, False)
    assert (sol.status, sol.method) == (SolveStatus.ITERATION_LIMIT, "dual-form")
    assert len(runs) == 1


def test_dual_form_solve_error_raises(monkeypatch):
    # a failed dual hands the LP to its own solve, which reports the failure
    monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0)
    fake = core_reporting(ss._highs_core().HighsModelStatus.kSolveError)
    monkeypatch.setattr(ss, "_highs_core", lambda: fake)
    runs = highs_runs(monkeypatch)
    with pytest.raises(SolverError, match="HiGHS failed"):
        ss._solve_highs(FEASIBLE_LP, False)
    assert len(runs) == 2


@pytest.mark.parametrize("array", ["cost", "val", "rhs"])
def test_non_finite_input_raises(array):
    p = lp([("x", 0.0, INF)], [({"x": 1}, "<=", 5)], {"x": 1})
    getattr(p, array)[0] = math.nan
    with pytest.raises(SolverError, match="non-finite"):
        ss._solve_highs(p, False)


def test_missing_extension_names_the_file(monkeypatch, tmp_path):
    import importlib.machinery
    import importlib.util

    real = importlib.util.find_spec

    def elsewhere(name, package=None):
        # the scipy package, found in an empty folder
        if name != "scipy":
            return real(name, package)
        spec = importlib.machinery.ModuleSpec(name, None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        return spec

    monkeypatch.delitem(sys.modules, ss._HIGHS_MODULE)
    monkeypatch.setattr(importlib.util, "find_spec", elsewhere)
    with pytest.raises(SolverError, match=str(tmp_path / "optimize" / "_highspy" / "_core")):
        ss._highs_core()


# ---------------------------------------------------------------------------
# imports, in fresh processes


def run_python(code: str, tmp_path: Path) -> str:
    """Run ``code`` in a fresh interpreter with ``src`` and ``tests`` on its
    path; returns its standard output."""
    env_path = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env={**os.environ, "PYTHONPATH": env_path, "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_leaves_scipy_optimize_and_sparse_unimported(tmp_path):
    # engine="auto" solves the jittered 5x5 TOP-S-SU LP on HiGHS, loading
    # its extension without importing scipy itself. A later linprog on the
    # same LP still works and finds the same point
    out = run_python("""
        import sys
        from demers import cli
        from demers import simplexsolver as ss
        from demers.synth import write_instance

        solved = []
        real = ss._solve_highs

        def recording(problem, log, time_limit=None, iteration_limit=None):
            solved.append((problem, real(problem, log, time_limit, iteration_limit)))
            return solved[-1][1]

        ss._solve_highs = recording
        map_path, csv_path = write_instance("inst", 5, 0, k=1, rows=5, jitter=0.3)
        res = cli.run(cli.RunConfig(map_path, csv_path, "TOP-S-SU", out_dir="out"))
        assert res.ok, res.status
        reasons = [(s["engine"], s["engine_reason"]) for s in res.solver_stats]
        assert reasons == [("highs", "auto: LP")], reasons
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert "scipy" not in sys.modules, loaded
        assert "scipy.optimize" not in sys.modules, loaded
        assert "scipy.sparse" not in sys.modules, loaded

        import oracle_highs
        from scipy.optimize._highspy import _core
        [(problem, ours)] = solved
        theirs = oracle_highs.solve_highs(problem, False)
        assert _core is ss._highs_core()
        assert ours.optimal and theirs.optimal
        assert ours.values == theirs.values
        print("ok")
    """, tmp_path)
    assert out.strip() == "ok"


def test_loader_reuses_a_module_scipy_optimize_loaded(tmp_path):
    out = run_python("""
        import scipy.optimize
        from scipy.optimize._highspy import _core
        from demers import simplexsolver as ss
        assert ss._highs_core() is _core
        print("ok")
    """, tmp_path)
    assert out.strip() == "ok"


def test_two_threads_load_the_module_once(tmp_path):
    out = run_python("""
        import importlib.util
        import threading
        import time
        from demers import simplexsolver as ss
        from test_simplexsolver import sized_lp

        loads = []
        real = importlib.util.module_from_spec

        def slow_load(spec):
            loads.append(spec.name)
            time.sleep(0.2)  # hold the lock while the other thread arrives
            return real(spec)

        importlib.util.module_from_spec = slow_load
        barrier = threading.Barrier(2)
        problem = sized_lp(30)
        results = []

        def solve():
            barrier.wait()
            results.append(ss.solve_lp(problem, engine="highs"))

        threads = [threading.Thread(target=solve) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert loads == [ss._HIGHS_MODULE], loads
        assert len(results) == 2 and all(r.optimal for r in results)
        assert results[0].values == results[1].values
        print("ok")
    """, tmp_path)
    assert out.strip() == "ok"
