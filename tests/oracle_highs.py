"""The HiGHS backend as it was through ``scipy.optimize.linprog``, kept as a
test oracle.

A frozen copy of ``demers.simplexsolver._solve_highs`` from before the
backend drove scipy's compiled HiGHS bindings itself, on its dual simplex
path. Every LP here is solved as it is, by dual simplex. The backend does
that below ``HIGHS_DUAL_FORM_MIN_ROWS`` rows, and there the property tests
require the same status, method, counters, values and objective, bit for
bit; patching that threshold above an LP's size keeps it on that path. From
the threshold on, the backend solves the LP's dual instead, and the tests
require the same status and the objective within ``GAP_TOL``.
"""

from __future__ import annotations

import time

import numpy as np

from demers.lpmodel import EQ, GE, LpProblem
from demers.simplexsolver import Solution, SolverError, SolveStatus


def solve_highs(
    problem: LpProblem, log: bool, time_limit: float | None = None
) -> Solution:
    from scipy import sparse
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    n = problem.num_cols
    sense, row, col = problem.sense, problem.row, problem.col
    sign = np.where(sense == GE, -1.0, 1.0)  # ">=" rows flip into "<=" rows
    signed_val, signed_rhs = problem.val * sign[row], problem.rhs * sign

    def part(rows: np.ndarray):
        """Sparse matrix and rhs of the ``rows`` mask, None when empty."""
        if not rows.any():
            return None, None
        renumber = np.cumsum(rows) - 1
        keep = rows[row]
        A = sparse.csc_matrix(
            (signed_val[keep], (renumber[row[keep]], col[keep])),
            shape=(int(rows.sum()), n),
        )
        return A, signed_rhs[rows]

    A_ub, b_ub = part(sense != EQ)
    A_eq, b_eq = part(sense == EQ)
    bounds = np.column_stack([problem.lb, problem.ub])
    res = linprog(
        problem.cost,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs-ds",
        options={"disp": bool(log), **({"time_limit": time_limit} if time_limit else {})},
    )
    wall = time.perf_counter() - t0
    counts = {
        "iterations": int(getattr(res, "nit", 0) or 0),
        "wall_time": wall,
        "engine": "highs",
        "method": "ds",
    }
    if res.status == 2:
        return Solution(SolveStatus.INFEASIBLE, **counts)
    if res.status == 3:
        return Solution(SolveStatus.UNBOUNDED, **counts)
    if res.status == 1:
        return Solution(SolveStatus.ITERATION_LIMIT, **counts)
    if res.status != 0:
        raise SolverError(f"HiGHS failed: {res.message}")
    values = dict(zip(problem.col_names, res.x.tolist()))
    try:
        dual = 0.0
        if b_ub is not None:
            dual += float(np.dot(res.ineqlin.marginals, b_ub))
        if b_eq is not None:
            dual += float(np.dot(res.eqlin.marginals, b_eq))
        for marginals, bound in ((res.lower.marginals, problem.lb),
                                 (res.upper.marginals, problem.ub)):
            finite = np.isfinite(bound)
            dual += float(np.dot(marginals[finite], bound[finite]))
    except AttributeError:
        dual = None
    return Solution(
        SolveStatus.OPTIMAL,
        x=np.array([values[name] for name in problem.col_names]),
        col_names=problem.col_names,
        objective=float(res.fun),
        dual_objective=dual,
        **counts,
    )

