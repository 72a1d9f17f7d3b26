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

import numpy as np
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


def core_reporting(status=None, col_shift=0.0, row_shift=0.0, dual_shift=0.0,
                   col_dual_shift=0.0):
    """The HiGHS module with ``_Highs`` wrapped: it reports ``status`` as the
    model status, when given, moves the first column of its solution by
    ``col_shift``, every row activity by ``row_shift``, every row dual by
    ``dual_shift`` and every column dual by ``col_dual_shift``."""
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
                row_dual=[v + dual_shift for v in sol.row_dual],
                col_dual=[v + col_dual_shift for v in sol.col_dual],
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


@pytest.mark.parametrize("threshold", [0, 10**9])
def test_refused_model(monkeypatch, threshold):
    # HiGHS's passModel refuses a column whose lower bound is +inf: the LP
    # reads as infeasible, on the dual form too, and a binary program whose
    # relaxation is refused raises
    monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", threshold)
    p = lp([("x", INF, INF)], [({"x": 1}, "<=", 5)], {"x": 1})
    assert ss.solve_lp(p).status is SolveStatus.INFEASIBLE
    p.add_var("b", 0, 1, binary=True)
    with pytest.raises(SolverError, match="HiGHS refused the relaxation"):
        ss.solve_ilp(p)


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

# LPs for the folding of singleton columns into bounds of the dual, each
# with the columns ``_folding`` must fold. A positive singleton in a "<="
# row is not folded: its bound would be a second upper bound on the row's
# dual, beside its sign
LE_SINGLETON_LP = lp([("x", -INF, INF), ("s", 0.0, INF)],
                     [({"x": 1, "s": 1}, "<=", 3)], {"x": -1, "s": 1})
# a negative singleton in a "<=" row is folded: x - s <= 3 bounds the
# row's dual from below, y >= -1, beside y <= 0
LE_NEGATIVE_SINGLETON_LP = lp([("x", 0.0, 5.0), ("s", 0.0, INF)],
                              [({"x": 1, "s": -1}, "<=", 3)], {"x": -1, "s": 1})
# two singletons on the negative side of one "=" row: p is folded, q, the
# cheaper one, stays a dual row
TWO_ON_ONE_SIDE_LP = lp([("x", 0.0, 4.0), ("p", 0.0, INF), ("q", 0.0, INF)],
                        [({"x": 1, "p": -1, "q": -1}, "=", 1)], {"x": -1, "p": 2, "q": 1})
# p has a nonzero lower bound and q a finite upper bound: only r is folded
BOUNDED_SINGLETONS_LP = lp(
    [("x", -5.0, 5.0), ("p", 1.0, INF), ("q", 0.0, 2.0), ("r", 0.0, INF)],
    [({"x": 1, "p": -1, "q": 1, "r": 1}, "=", 0)], {"x": 1, "p": 1, "q": 1, "r": 3})
# m's coefficient is -3: its bound is a lower bound, y >= -1/3
NEGATIVE_COEF_LP = lp([("x", 0.0, 4.0), ("m", 0.0, INF)],
                      [({"x": 2, "m": -3}, "=", 1)], {"x": 1, "m": 1})
# x - p + q = 2 with x <= 1: the optimum x = 1, q = 1 puts the row's dual
# on q's folded bound
ON_BOUND_LP = lp([("x", 0.0, 1.0), ("p", 0.0, INF), ("q", 0.0, INF)],
                 [({"x": 1, "p": -1, "q": 1}, "=", 2)], {"x": -1, "p": 1, "q": 1})
FOLDING = [
    (LE_SINGLETON_LP, []),
    (LE_NEGATIVE_SINGLETON_LP, ["s"]),
    (TWO_ON_ONE_SIDE_LP, ["p"]),
    (BOUNDED_SINGLETONS_LP, ["r"]),
    (NEGATIVE_COEF_LP, ["m"]),
    (ON_BOUND_LP, ["p", "q"]),
]


@pytest.mark.parametrize("problem,folded", FOLDING)
def test_folded_columns(problem, folded):
    fold = ss._folding(ss._highs_lp(problem), np.array([], dtype=np.int64))
    assert [problem.col_names[j] for j in fold.folded] == folded
    assert fold.kept.sum() == problem.num_cols - len(folded)


# LPs for the split of distance columns, each with the columns ``_split``
# must split. ORG's displacement: p >= |x - 2|, with x >= 3
DISPLACEMENT_LP = lp([("x", -INF, INF), ("p", 0.0, INF)],
                     [({"x": 1, "p": -1}, "<=", 2), ({"x": -1, "p": -1}, "<=", -2),
                      ({"x": 1}, ">=", 3)], {"p": 1})
# SU/CO's coupling: 2 c >= |x - y|, with x in [1, 4] and y in [-4, 0]
COUPLING_LP = lp([("x", 1.0, 4.0), ("y", -4.0, 0.0), ("c", 0.0, INF)],
                 [({"x": 1, "y": -1, "c": -2}, "<=", 0), ({"y": 1, "x": -1, "c": -2}, "<=", 0)],
                 {"c": 3})
# p >= |x| with t = 0, its second row written mirrored as x + p >= 0,
# which the ">=" flip turns into -x - p <= -0.0
MIRRORED_LP = lp([("x", 1.0, 3.0), ("p", 0.0, INF)],
                 [({"x": 1, "p": -1}, "<=", 0), ({"x": 1, "p": 1}, ">=", 0)], {"p": 1, "x": 1})
# TOP's h: x_a - x_b - h <= w on both sides, the same right-hand side
# w >= 0, so h = max(0, |x_a - x_b| - w) and at most one row needs h > 0
TOP_PAIR_LP = lp([("xa", 0.0, 5.0), ("xb", 0.0, 1.0), ("h", 0.0, INF)],
                 [({"xa": 1, "xb": -1, "h": -1}, "<=", 1.5),
                  ({"xb": 1, "xa": -1, "h": -1}, "<=", 1.5)], {"h": 1, "xa": -1})
# the displacement pair with p in a third row
THIRD_ENTRY_LP = lp([("x", -INF, INF), ("p", 0.0, INF), ("z", 0.0, INF)],
                    [({"x": 1, "p": -1}, "<=", 2), ({"x": -1, "p": -1}, "<=", -2),
                     ({"p": 1, "z": 1}, "<=", 5), ({"x": 1}, ">=", 3)], {"p": 1, "z": -1})
# the displacement pair as two "=" rows: x - p = 2 and -x - p = -2 fix p = 0
EQUALITY_PAIR_LP = lp([("x", -INF, INF), ("p", 0.0, INF)],
                      [({"x": 1, "p": -1}, "=", 2), ({"x": -1, "p": -1}, "=", -2)], {"p": 1})
# y enters both rows with the same sign: p >= |x - 2| - y does not hold
NOT_NEGATED_LP = lp([("x", -INF, INF), ("y", 0.0, 1.0), ("p", 0.0, INF)],
                    [({"x": 1, "y": 1, "p": -1}, "<=", 2), ({"x": -1, "y": 1, "p": -1}, "<=", -2),
                     ({"x": 1}, ">=", 3)], {"p": 1, "y": -1})
# y in the second row only: its entries are the first row's and one more
LONGER_ROW_LP = lp([("x", -INF, INF), ("p", 0.0, INF), ("y", 0.0, 1.0)],
                   [({"x": 1, "p": -1}, "<=", 2), ({"x": -1, "p": -1, "y": 1}, "<=", -2),
                    ({"x": 1}, ">=", 3)], {"p": 1, "y": -1})
# p and q share both rows, p + q >= |x - 2|: each is the other's entry of
# the same sign, so neither is split
SHARED_ROWS_LP = lp([("x", -INF, INF), ("p", 0.0, INF), ("q", 0.0, INF)],
                    [({"x": 1, "p": -1, "q": -1}, "<=", 2),
                     ({"x": -1, "p": -1, "q": -1}, "<=", -2), ({"x": 1}, ">=", 3)],
                    {"p": 1, "q": 2})
# h >= |x| + 1, right-hand sides -1 and -1: both rows need h > 0 at once,
# so the halves would sum to 2 where h is 1, and h is not split
OFFSET_PAIR_LP = lp([("x", -2.0, 3.0), ("h", 0.0, INF)],
                    [({"x": 1, "h": -1}, "<=", -1), ({"x": -1, "h": -1}, "<=", -1)], {"h": 1})
SPLITTING = [
    (DISPLACEMENT_LP, ["p"]),
    (COUPLING_LP, ["c"]),
    (MIRRORED_LP, ["p"]),
    (TOP_PAIR_LP, ["h"]),
    (THIRD_ENTRY_LP, []),
    (EQUALITY_PAIR_LP, []),
    (NOT_NEGATED_LP, []),
    (LONGER_ROW_LP, []),
    (SHARED_ROWS_LP, []),
    (OFFSET_PAIR_LP, []),
]


@pytest.mark.parametrize("problem,merged", SPLITTING)
def test_merged_columns(monkeypatch, problem, merged):
    # ``merged``: the columns split in two, whose halves are merged into
    # the dual's bounds: each column's entry in its first row and its
    # entry in its second are folded, and it is no dual row. The split LP,
    # solved as its dual, agrees with the LP itself
    model = ss._highs_lp(problem)
    split = ss._split(model, model.column())
    assert [problem.col_names[j] for j in split] == merged
    k = len(merged)
    fold = ss._folding(model, split)
    halves = list(zip(fold.folded.tolist(), fold.row.tolist()))
    for j in split:
        rows = model.index[model.start[j]:model.start[j + 1]].tolist()
        assert sorted(r for c, r in halves if c == j) == rows and len(rows) == 2
    assert not fold.kept[split].any()
    monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0)
    sol = ss._solve_highs(problem, False)
    assert (sol.dual_form["split"], sol.dual_form["dual_status"]) == (k, "optimal")
    assert_dual_form_agrees(problem, sol, oracle_highs.solve_highs(problem, False))


@st.composite
def distance_lps(draw):
    """Small LPs with distance columns, and how many of them ``_split``
    must split.

    Each distance column p >= 0 lies in two "<=" rows, ``a x - c1 p <= t1``
    and ``-a x - c2 p <= t2`` (the second sometimes written mirrored,
    ``a x + c2 p >= -t2``), with ``t1 + t2`` positive, zero (an L1 pair) or
    negative, over free, boxed and nonnegative columns x and a few more
    rows. Some distance columns cost less than nothing, which leaves the LP
    unbounded."""
    n = draw(st.integers(1, 3))
    columns = [(f"x{j}", *draw(st.sampled_from([(-INF, INF), (-3.0, 3.0), (0.0, 5.0)])))
               for j in range(n)]
    rows, cost, splits = [], {f"x{j}": draw(COEFF) for j in range(n)}, 0
    for i in range(draw(st.integers(1, 3))):
        p = f"p{i}"
        c1, c2 = (draw(st.sampled_from([1.0, 2.0, 0.5])) for _ in range(2))
        columns.append((p, 0.0, INF))
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        a = {f"x{j}": draw(COEFF.filter(bool)) for j in picks}
        t1 = draw(st.integers(-4, 4))
        t2 = -t1 + draw(st.sampled_from([1, 0, -1])) * draw(st.integers(1, 3))
        rows.append(({**a, p: -c1}, "<=", t1))
        if draw(st.booleans()):
            rows.append(({**{x: -v for x, v in a.items()}, p: -c2}, "<=", t2))
        else:
            rows.append(({**a, p: c2}, ">=", -t2))
        cost[p] = draw(st.sampled_from([0.0, 1.0, 2.5, -1.0]))
        splits += t1 + t2 >= 0
    for _ in range(draw(st.integers(0, 3))):
        picks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        rows.append(({f"x{j}": draw(COEFF) for j in picks},
                     draw(st.sampled_from(["<=", ">=", "="])), draw(st.integers(-8, 8))))
    return lp(columns, rows, cost), splits


@settings(max_examples=150, deadline=None)
@given(distance_lps())
@example((OFFSET_PAIR_LP, 0))
def test_split_keeps_the_optimum(case):
    # a distance column is split exactly when t1 + t2 >= 0, and the split
    # LP, solved as its dual, ends as the LP itself does: the same status,
    # the same objective within 1e-9 relative (absolute below 1) and a
    # point within the LP's own rows and bounds
    problem, splits = case
    with mock.patch.object(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0):
        new = ss._solve_highs(problem, False)
    old = oracle_highs.solve_highs(problem, False)
    assert new.method == "dual-form"
    assert new.dual_form["split"] == splits
    assert new.status is old.status
    if old.optimal:
        assert abs(new.objective - old.objective) <= 1e-9 * max(1.0, abs(old.objective))
        model = ss._highs_lp(problem)
        activity = np.bincount(model.index, model.value * new.x[model.column()],
                               minlength=model.row_upper.size)
        ss._check_point(model, new.x, activity, new.objective, "the split LP's point is")


@settings(max_examples=120, deadline=None)
@given(st.one_of(
    cartogram_lps().map(lambda case: (case[0].problem, *case)),
    small_lps().map(lambda problem: (problem, None, None)),
))
@example((INFEASIBLE_LP, None, None))
@example((UNBOUNDED_LP, None, None))
@example((TWO_SIDED_LP, None, None))
@example((LOWER_ABOVE_UPPER_LP, None, None))
@example((LE_SINGLETON_LP, None, None))
@example((LE_NEGATIVE_SINGLETON_LP, None, None))
@example((TWO_ON_ONE_SIDE_LP, None, None))
@example((BOUNDED_SINGLETONS_LP, None, None))
@example((NEGATIVE_COEF_LP, None, None))
@example((ON_BOUND_LP, None, None))
@example((DISPLACEMENT_LP, None, None))
@example((COUPLING_LP, None, None))
@example((MIRRORED_LP, None, None))
@example((SHARED_ROWS_LP, None, None))
@example((TOP_PAIR_LP, None, None))
@example((OFFSET_PAIR_LP, None, None))
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


@settings(max_examples=30, deadline=None)
@given(cartogram_lps())
def test_dual_form_recovers_the_direction_pairs(case):
    # every direction row expr - dp + dm = 0 folds both of its columns, as
    # does every split distance column its two halves; the direction
    # columns' recovered values split |expr| as the LP itself does
    from test_simplexsolver import direction_exprs

    problem = case[0].problem
    with mock.patch.object(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0):
        sol = ss._solve_highs(problem, False)
    assert (sol.method, sol.status) == ("dual-form", SolveStatus.OPTIMAL)
    values = sol.values
    exprs = direction_exprs(problem, values)
    assert sol.dual_form["folded"] == 2 * len(exprs) + 2 * sol.dual_form["split"]
    assert exprs
    for dp, expr in exprs.items():
        dm = "dm" + dp[2:]
        assert abs(values[dp] - values[dm] - expr) <= ss.POINT_TOL
        assert min(values[dp], values[dm]) <= ss.POINT_TOL


def has_l1_terms(case) -> bool:
    """Whether a ``cartogram_lps`` model has displacement (ORG, IT) or
    coupling (SU) columns."""
    from demers.lpmodel import ObjectiveKind, Stability

    spec = case[0].spec
    return spec.objective_kind is ObjectiveKind.ORG or spec.stability is not Stability.NONE


@settings(max_examples=30, deadline=None)
@given(cartogram_lps().filter(has_l1_terms))
def test_dual_form_recovers_the_l1_pairs(case):
    # every displacement and coupling column is an L1 pair, split in two
    # like TOP's distance columns h and v (ORG has none); its recovered
    # value is |a x - t| / c of both of its rows
    problem = case[0].problem
    with mock.patch.object(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0):
        sol = ss._solve_highs(problem, False)
    assert (sol.method, sol.status) == ("dual-form", SolveStatus.OPTIMAL)
    values = sol.values
    l1 = {name for name in problem.col_names if name.startswith(("px", "py", "cx", "cy"))}
    hv = {name for name in problem.col_names if name.startswith(("h", "v"))}
    assert sol.dual_form["split"] == len(l1) + len(hv)
    assert l1
    rows = 0
    for con in problem.constraints:
        [p] = [name for name, _ in con.coeffs if name in l1] or [None]
        if p is None:
            continue
        assert con.relation == "<="
        c = -dict(con.coeffs)[p]
        expr = sum(k * values[name] for name, k in con.coeffs if name != p) - con.rhs
        assert abs(values[p] - abs(expr) / c) <= ss.POINT_TOL
        rows += 1
    assert rows == 2 * len(l1)


# min x + y over x + y >= 1 in the box [0, 4]^2: optimum 1
GAP_LP = lp([("x", 0.0, 4.0), ("y", 0.0, 4.0)], [({"x": 1, "y": 1}, ">=", 1)],
            {"x": 1, "y": 1})
# min p + q + x over -p + q = 2 (row 0) and x = 1 (row 1), x in [0, 4]:
# optimum 3 at q = 2. Both of row 0's columns are folded, so its dual y_0
# is bounded by -1 <= y_0 <= 1 and no dual row holds it
FOLDED_LP = lp([("x", 0.0, 4.0), ("p", 0.0, INF), ("q", 0.0, INF)],
               [({"p": -1, "q": 1}, "=", 2), ({"x": 1}, "=", 1)],
               {"x": 1, "p": 1, "q": 1})
# min 3 p over 2 p >= |0 - 4|, an L1 pair without other entries: optimum 6.
# p is split in two, and both halves are folded: the dual has no row, and
# its columns y_0, y_1 lie in [-3/2, 0] (-w / c = -3/2), at 0 and -3/2 at
# the optimum
SPLIT_LP = lp([("p", 0.0, INF)], [({"p": -2}, "<=", 4), ({"p": -2}, "<=", -4)], {"p": 3})
# problem: (objective, folded, split)
CERTIFIED = {GAP_LP: (1.0, 0, 0), FOLDED_LP: (3.0, 2, 0), SPLIT_LP: (6.0, 2, 1)}


@pytest.mark.parametrize("shifts,match", [
    # the point x = -(row duals) moves by -2: below its lower bounds
    ({"dual_shift": 2.0}, "dual-form solve's point is outside its constraints"),
    # the row's dual moves by 1e-3: off the dual rows A^T y + z = c
    ({"col_shift": 1e-3}, "dual point is outside its constraints"),
    # the point moves by +0.5: feasible, but c x = 2 against the dual's 1
    ({"dual_shift": -0.5}, "objectives .* differ"),
    # FOLDED_LP's y_0 moves from 1 to 1.5, past q's folded bound c_q / a_q = 1
    ({"problem": FOLDED_LP, "col_shift": 0.5}, "dual point is outside its constraints"),
    # FOLDED_LP's y_0 has its reduced cost moved from -2 to -1: q = 1
    # leaves row 0 off by 1
    ({"problem": FOLDED_LP, "col_dual_shift": 1.0},
     "dual-form solve's point is outside its constraints"),
    # SPLIT_LP's y_0 moves from 0 to -2, past p's folded bound -w / c = -3/2
    ({"problem": SPLIT_LP, "col_shift": -2.0}, "dual point is outside its constraints"),
])
def test_dual_form_certificate_failure_raises(monkeypatch, shifts, match):
    shifts = dict(shifts)
    problem = shifts.pop("problem", GAP_LP)
    monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0)
    sol = ss._solve_highs(problem, False)
    assert sol.method == "dual-form"
    info = sol.dual_form
    assert (sol.objective, info["folded"], info["split"]) == CERTIFIED[problem]
    fake = core_reporting(**shifts)
    monkeypatch.setattr(ss, "_highs_core", lambda: fake)
    with pytest.raises(SolverError, match=match):
        ss._solve_highs(problem, False)


def highs_runs(monkeypatch) -> list:
    """Record the model of every HiGHS object the backend makes."""
    runs = []
    real = ss._highs_object

    def spy(h, model, *args, **kwargs):
        runs.append((model.row_upper.size, model.cost.size))
        return real(h, model, *args, **kwargs)

    monkeypatch.setattr(ss, "_highs_object", spy)
    return runs


@pytest.mark.parametrize("problem,status", [
    (INFEASIBLE_LP, SolveStatus.INFEASIBLE),
    (UNBOUNDED_LP, SolveStatus.UNBOUNDED),
    (LOWER_ABOVE_UPPER_LP, SolveStatus.INFEASIBLE),
])
def test_dual_form_without_an_optimum_solves_the_lp_itself(monkeypatch, problem, status):
    # the dual (one row per column not folded: UNBOUNDED_LP's y is a
    # negative singleton of its "<=" row) ends infeasible or unbounded; the
    # LP's own dual simplex solve then gives the status
    monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0)
    runs = highs_runs(monkeypatch)
    sol = ss._solve_highs(problem, False)
    assert (sol.status, sol.method) == (status, "dual-form")
    dual_rows = problem.num_cols - sol.dual_form["folded"]
    assert runs == [(dual_rows, runs[0][1]), (problem.num_rows, problem.num_cols)]


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
    # cli.run solves the jittered 5x5 TOP-S-SU LP on HiGHS, as its dual,
    # loading its extension without importing scipy itself. A later linprog
    # on the same LP still works and agrees with it as every dual-form
    # solve must (``assert_dual_form_agrees``)
    out = run_python("""
        import sys
        from demers import cli
        from demers import simplexsolver as ss
        from demers.synth import write_instance

        solved = []
        real = ss._solve_highs

        def recording(problem, log, time_limit=None):
            solved.append((problem, real(problem, log, time_limit)))
            return solved[-1][1]

        ss._solve_highs = recording
        map_path, csv_path = write_instance("inst", 5, 0, k=1, rows=5, jitter=0.3)
        res = cli.run(cli.RunConfig(map_path, csv_path, "TOP-S-SU", out_dir="out"))
        assert res.ok, res.status
        engines = [s["engine"] for s in res.solver_stats]
        assert engines == ["highs"], engines
        loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
        assert "scipy" not in sys.modules, loaded
        assert "scipy.optimize" not in sys.modules, loaded
        assert "scipy.sparse" not in sys.modules, loaded

        import oracle_highs
        from scipy.optimize._highspy import _core
        from test_highs_backend import assert_dual_form_agrees
        [(problem, ours)] = solved
        theirs = oracle_highs.solve_highs(problem, False)
        assert _core is ss._highs_core()
        assert ours.optimal and theirs.optimal
        assert_dual_form_agrees(problem, ours, theirs)
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
