"""LP and binary-ILP solving for the cartogram models.

The bundled engine is a two-phase primal revised simplex on a dense basis
inverse: equilibration, Dantzig pricing with a Bland fallback after a
degenerate streak, periodic refactorization. Integer problems are solved by
branch and bound over the binary variables, best-first on the relaxation
bound with deeper nodes preferred on ties.

Problems past ``AUTO_SIMPLEX_MAX_ROWS`` rows are routed to scipy's HiGHS
``linprog`` backend behind the same interface; both engines are available
explicitly via ``engine=``. HiGHS runs dual simplex below
``HIGHS_IPM_MIN_ROWS`` rows and interior point with crossover from there on.
The all-pairs direction terms make the cartogram LPs grow as n^2, and on
those LPs dual simplex pivots through long degenerate stretches: the
100-region TOP model (18 162 rows) took 12 214 pivots and about 7 s, interior
point 28 iterations and about 1.1 s, on one core. On jittered grid models
(TOP, k = 1) dual simplex won every model up to 730 rows (by 4-16%), the
two were within noise from 980 to 1 132 rows, and interior point won every
model from 1 314 rows on (15-82% faster, about twice as fast at 2 130). The
threshold sits in the gap between the last two. Crossover ends interior
point at a basic optimal solution, so large LPs still decode from a vertex
like small ones do. On the interior-point path ``iterations`` counts
interior-point iterations, not pivots; the crossover's pivots are
``crossover_nit``.
"""

from __future__ import annotations

import heapq
import math
import sys
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .lpmodel import LpProblem

INF = math.inf

# engine="auto" keeps the bundled simplex for problems up to this many rows
AUTO_SIMPLEX_MAX_ROWS = 220
# HiGHS solves LPs with at least this many rows by interior point + crossover,
# smaller ones by dual simplex (see the module docstring for the measurements)
HIGHS_IPM_MIN_ROWS = 1200

FEAS_TOL = 1e-7  # absolute, on the scaled constraints
OPT_TOL = 1e-9  # reduced-cost optimality threshold
INT_TOL = 1e-6  # integrality threshold for binaries
PIVOT_TOL = 1e-9
DEGENERATE_STREAK = 30  # degenerate pivots before switching to Bland's rule
REFACTOR_EVERY = 100


class SolverError(RuntimeError):
    pass


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"


@dataclass
class Solution:
    status: SolveStatus
    values: dict[str, float] = field(default_factory=dict)
    objective: float = math.nan
    iterations: int = 0
    nodes: int = 0
    wall_time: float = 0.0
    dual_objective: float | None = None
    engine: str = ""
    method: str = ""  # HiGHS method: "ipm" (interior point) or "ds" (dual simplex)
    crossover_nit: int = 0  # crossover pivots after interior point

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


def solve_lp(
    problem: LpProblem,
    engine: str = "auto",
    iteration_limit: int | None = None,
    time_limit: float | None = None,
    log: bool = False,
) -> Solution:
    """Solve a continuous LP to optimality (or detect infeasible/unbounded)."""
    if problem.num_binaries:
        raise SolverError("problem has binary variables; use solve_ilp")
    return _dispatch(problem, engine, iteration_limit, log, time_limit)


def solve_ilp(
    problem: LpProblem,
    engine: str = "auto",
    node_limit: int = 100_000,
    time_limit: float | None = None,
    log: bool = False,
) -> Solution:
    """Branch and bound over the binary variables of the problem.

    Nodes are explored best-first on the parent relaxation bound, deeper
    nodes first on ties, branching on the most fractional binary. Hitting
    the node limit or ``time_limit`` returns the incumbent with status
    NODE_LIMIT; every relaxation is given what is left of ``time_limit``.
    """
    binaries = [v.name for v in problem.variables if v.binary]
    if not binaries:
        return _dispatch(problem, engine, None, log, time_limit)
    t0 = time.perf_counter()
    deadline = t0 + time_limit if time_limit else None

    def remaining() -> float | None:
        # a positive floor: a zero limit would read as no limit at all
        return max(deadline - time.perf_counter(), 1e-3) if deadline else None

    relaxed_vars = [
        replace(v, binary=False) if v.binary else v for v in problem.variables
    ]
    base = LpProblem(
        name=problem.name,
        variables=relaxed_vars,
        constraints=problem.constraints,
        objective=problem.objective,
    )
    var_index = {v.name: i for i, v in enumerate(base.variables)}

    incumbent: Solution | None = None
    nodes = 0
    total_iters = 0
    total_crossover = 0
    # dive depth-first along the rounding of the current relaxation; the
    # sibling of every dive step waits in a best-bound heap for restarts
    heap: list[tuple[float, int, dict[str, int]]] = []
    stack: list[tuple[float, dict[str, int]]] = [(-INF, {})]
    seq = 0
    exhausted = True

    while stack or heap:
        if stack:
            bound, fixings = stack.pop()
        else:
            bound, _, fixings = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent.objective - 1e-9:
            continue
        if nodes >= node_limit or (deadline and time.perf_counter() > deadline):
            exhausted = False
            break
        nodes += 1
        rel = _dispatch(
            _with_fixings(base, var_index, fixings), engine, None, False, remaining()
        )
        total_iters += rel.iterations
        total_crossover += rel.crossover_nit
        if log:
            print(
                f"[bnb] node={nodes} depth={len(fixings)} status={rel.status.value} "
                f"obj={rel.objective:.6g}",
                file=sys.stderr,
            )
        if rel.status is SolveStatus.INFEASIBLE:
            continue
        if rel.status is SolveStatus.ITERATION_LIMIT and deadline and (
            time.perf_counter() >= deadline
        ):
            exhausted = False  # HiGHS stopped the relaxation at the time limit
            break
        if rel.status is not SolveStatus.OPTIMAL:
            raise SolverError(f"relaxation ended with {rel.status} in branch and bound")
        if incumbent is not None and rel.objective >= incumbent.objective - 1e-9:
            continue
        frac_name, frac_dist = None, -1.0
        for name in binaries:
            if name in fixings:
                continue
            val = rel.values.get(name, 0.0)
            dist = min(val, 1.0 - val)
            if dist > INT_TOL and dist > frac_dist:
                frac_name, frac_dist = name, dist
        if frac_name is None:
            vals = dict(rel.values)
            for name in binaries:
                vals[name] = 1.0 if vals.get(name, 0.0) > 0.5 else 0.0
            incumbent = replace(rel, values=vals)
            continue
        if incumbent is None:
            # primal probe: pin every binary (fractional ones high, which
            # only relaxes big-M links) to get an incumbent for pruning
            probe_fix = dict(fixings)
            for name in binaries:
                if name not in probe_fix:
                    val = rel.values.get(name, 0.0)
                    probe_fix[name] = 1 if val > INT_TOL else 0
            probe = _dispatch(
                _with_fixings(base, var_index, probe_fix), engine, None, False,
                remaining(),
            )
            total_iters += probe.iterations
            total_crossover += probe.crossover_nit
            if probe.status is SolveStatus.OPTIMAL:
                vals = dict(probe.values)
                for name in binaries:
                    vals[name] = float(probe_fix[name])
                incumbent = replace(probe, values=vals)
                if log:
                    print(
                        f"[bnb] probe incumbent obj={probe.objective:.6g}",
                        file=sys.stderr,
                    )
        prefer = 1 if rel.values.get(frac_name, 0.0) >= 0.5 else 0
        seq += 1
        heapq.heappush(
            heap, (rel.objective, seq, {**fixings, frac_name: 1 - prefer})
        )
        stack.append((rel.objective, {**fixings, frac_name: prefer}))

    wall = time.perf_counter() - t0
    if incumbent is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.NODE_LIMIT
        return Solution(
            status=status, nodes=nodes, iterations=total_iters, wall_time=wall
        )
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.NODE_LIMIT
    return Solution(
        status=status,
        values=incumbent.values,
        objective=incumbent.objective,
        iterations=total_iters,
        nodes=nodes,
        wall_time=wall,
        dual_objective=incumbent.dual_objective,
        engine=incumbent.engine,
        method=incumbent.method,
        crossover_nit=total_crossover,
    )


def _with_fixings(
    base: LpProblem, var_index: dict[str, int], fixings: dict[str, int]
) -> LpProblem:
    if not fixings:
        return base
    variables = list(base.variables)
    for name, val in fixings.items():
        i = var_index[name]
        variables[i] = replace(variables[i], lb=float(val), ub=float(val))
    return LpProblem(
        name=base.name,
        variables=variables,
        constraints=base.constraints,
        objective=base.objective,
    )


def _dispatch(
    problem: LpProblem,
    engine: str,
    iteration_limit: int | None,
    log: bool,
    time_limit: float | None = None,
) -> Solution:
    if engine == "auto":
        engine = (
            "simplex" if len(problem.constraints) <= AUTO_SIMPLEX_MAX_ROWS else "highs"
        )
    if engine == "simplex":
        return _solve_simplex(problem, iteration_limit, log)
    if engine == "highs":
        return _solve_highs(problem, log, time_limit)
    raise SolverError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# HiGHS backend


def _solve_highs(
    problem: LpProblem, log: bool, time_limit: float | None = None
) -> Solution:
    from scipy import sparse
    from scipy.optimize import linprog

    t0 = time.perf_counter()
    index = {v.name: i for i, v in enumerate(problem.variables)}
    n = len(problem.variables)
    c = np.zeros(n)
    for name, coeff in problem.objective.items():
        c[index[name]] = coeff

    ub_rhs: list[float] = []
    eq_rhs: list[float] = []
    ub_coo: list[tuple[int, int, float]] = []
    eq_coo: list[tuple[int, int, float]] = []
    for con in problem.constraints:
        if con.relation == "=":
            row = len(eq_rhs)
            eq_rhs.append(con.rhs)
            eq_coo.extend((row, index[v], k) for v, k in con.coeffs)
        else:
            sign = 1.0 if con.relation == "<=" else -1.0
            row = len(ub_rhs)
            ub_rhs.append(sign * con.rhs)
            ub_coo.extend((row, index[v], sign * k) for v, k in con.coeffs)

    def mat(coo, nrows):
        if not nrows:
            return None
        rows, cols, vals = zip(*coo) if coo else ((), (), ())
        return sparse.csc_matrix((vals, (rows, cols)), shape=(nrows, n))

    bounds = [
        (None if v.lb == -INF else v.lb, None if v.ub == INF else v.ub)
        for v in problem.variables
    ]
    method = "ipm" if len(problem.constraints) >= HIGHS_IPM_MIN_ROWS else "ds"
    res = linprog(
        c,
        A_ub=mat(ub_coo, len(ub_rhs)),
        b_ub=np.asarray(ub_rhs) if ub_rhs else None,
        A_eq=mat(eq_coo, len(eq_rhs)),
        b_eq=np.asarray(eq_rhs) if eq_rhs else None,
        bounds=bounds,
        method=f"highs-{method}",
        options={"disp": bool(log), **({"time_limit": time_limit} if time_limit else {})},
    )
    wall = time.perf_counter() - t0
    counts = {
        "iterations": int(getattr(res, "nit", 0) or 0),
        "crossover_nit": int(getattr(res, "crossover_nit", 0) or 0),
        "wall_time": wall,
        "engine": "highs",
        "method": method,
    }
    if res.status == 2:
        return Solution(SolveStatus.INFEASIBLE, **counts)
    if res.status == 3:
        return Solution(SolveStatus.UNBOUNDED, **counts)
    if res.status == 1:
        return Solution(SolveStatus.ITERATION_LIMIT, **counts)
    if res.status != 0:
        raise SolverError(f"HiGHS failed: {res.message}")
    values = {name: float(res.x[i]) for name, i in index.items()}
    try:
        dual = 0.0
        if ub_rhs:
            dual += float(np.dot(res.ineqlin.marginals, np.asarray(ub_rhs)))
        if eq_rhs:
            dual += float(np.dot(res.eqlin.marginals, np.asarray(eq_rhs)))
        for j, (lo, hi) in enumerate(bounds):
            if lo is not None:
                dual += float(res.lower.marginals[j]) * lo
            if hi is not None:
                dual += float(res.upper.marginals[j]) * hi
    except AttributeError:
        dual = None
    return Solution(
        SolveStatus.OPTIMAL,
        values=values,
        objective=float(res.fun),
        dual_objective=dual,
        **counts,
    )


# ---------------------------------------------------------------------------
# bundled revised simplex


@dataclass
class _StdForm:
    """min c.t  s.t.  A t = b, t >= 0, with bookkeeping to map back.

    Each user variable is x = shift + sum(sign * t_col / col_scale) over its
    ``pieces``; fixed variables carry no columns at all.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    offset: float
    pieces: dict[str, tuple[float, list[tuple[int, float]]]]
    fixed: dict[str, float]
    col_scale: np.ndarray
    slack_sign: dict[int, tuple[int, float]]  # row -> (column, coefficient sign)


def _standardize(problem: LpProblem) -> _StdForm:
    obj = problem.objective
    n_struct = 0
    c_list: list[float] = []
    pieces: dict[str, tuple[float, list[tuple[int, float]]]] = {}
    fixed: dict[str, float] = {}
    bound_rows: list[tuple[str, float]] = []  # x <= ub rows for doubly bounded vars
    offset = 0.0
    infeasible_marker = False

    def new_col(cost: float) -> int:
        nonlocal n_struct
        c_list.append(cost)
        n_struct += 1
        return n_struct - 1

    for v in problem.variables:
        cost = obj.get(v.name, 0.0)
        if v.lb > v.ub:
            infeasible_marker = True
            fixed[v.name] = v.lb
            continue
        if v.lb == v.ub:
            fixed[v.name] = v.lb
            offset += cost * v.lb
            continue
        if v.lb == -INF and v.ub == INF:
            jp, jm = new_col(cost), new_col(-cost)
            pieces[v.name] = (0.0, [(jp, 1.0), (jm, -1.0)])
        elif v.lb != -INF:
            j = new_col(cost)
            pieces[v.name] = (v.lb, [(j, 1.0)])
            offset += cost * v.lb
            if v.ub != INF:
                bound_rows.append((v.name, v.ub))
        else:
            # upper bound only: x = ub - t with t >= 0
            j = new_col(-cost)
            pieces[v.name] = (v.ub, [(j, -1.0)])
            offset += cost * v.ub

    rows: list[tuple[dict[str, float], str, float]] = [
        (dict(con.coeffs), con.relation, con.rhs) for con in problem.constraints
    ]
    rows.extend(({name: 1.0}, "<=", ub) for name, ub in bound_rows)
    if infeasible_marker:
        rows.append(({}, ">=", 1.0))

    m = len(rows)
    n_slack = sum(1 for _, rel, _ in rows if rel != "=")
    A = np.zeros((m, n_struct + n_slack))
    b = np.zeros(m)
    c = np.zeros(n_struct + n_slack)
    c[:n_struct] = c_list
    slack_sign: dict[int, tuple[int, float]] = {}

    next_slack = n_struct
    for i, (coeffs, rel, rhs) in enumerate(rows):
        acc = rhs
        for vname, coeff in coeffs.items():
            if vname in fixed:
                acc -= coeff * fixed[vname]
                continue
            shift, cols = pieces[vname]
            acc -= coeff * shift
            for j, sign in cols:
                A[i, j] += coeff * sign
        b[i] = acc
        if rel != "=":
            sign = 1.0 if rel == "<=" else -1.0
            A[i, next_slack] = sign
            slack_sign[i] = (next_slack, sign)
            next_slack += 1

    # equilibrate rows then columns with powers of two
    if m:
        mags = np.max(np.abs(A), axis=1)
        row_scale = np.where(mags > 0, np.exp2(np.round(np.log2(np.where(mags > 0, mags, 1.0)))), 1.0)
        A /= row_scale[:, None]
        b /= row_scale
    col_scale = np.ones(A.shape[1])
    if A.size:
        mags = np.max(np.abs(A), axis=0)
        col_scale = np.where(mags > 0, np.exp2(np.round(np.log2(np.where(mags > 0, mags, 1.0)))), 1.0)
        # scaled variable t' = col_scale * t, so costs divide by the scale
        A /= col_scale[None, :]
        c = c / col_scale

    return _StdForm(
        A=A, b=b, c=c, offset=offset, pieces=pieces, fixed=fixed,
        col_scale=col_scale, slack_sign=slack_sign,
    )


class _Simplex:
    """Revised simplex state: tableau-free pivoting on a dense basis inverse."""

    def __init__(self, std: _StdForm, iteration_limit: int, log: bool) -> None:
        self.log = log
        self.limit = iteration_limit
        self.iterations = 0
        self.streak = 0

        A, b = std.A.copy(), std.b.copy()
        m, n = A.shape
        neg = b < 0
        A[neg] *= -1.0
        b[neg] *= -1.0

        self.m, self.n_real = m, n
        self.A = np.hstack([A, np.eye(m)]) if m else A
        self.b = b
        self.basis = np.arange(n, n + m)
        for row, (col, sign) in std.slack_sign.items():
            # a slack that still points positive after row normalization can
            # seed the basis instead of an artificial
            coeff = self.A[row, col]
            if coeff > PIVOT_TOL:
                self.basis[row] = col
        self.binv = np.zeros((0, 0))
        self._refactor()

    def _refactor(self) -> None:
        if self.m == 0:
            return
        B = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis") from exc

    def xb(self) -> np.ndarray:
        return self.binv @ self.b if self.m else np.zeros(0)

    def run_phase(
        self, c: np.ndarray, allowed: np.ndarray, bounded: bool = False
    ) -> str:
        """Pivot to optimality on costs ``c`` over the ``allowed`` columns.

        ``bounded`` says the objective cannot fall below zero (phase 1). An
        improving column with no positive pivot entry would then be a ray
        along which it does, so its negative reduced cost is round-off. The
        basis inverse is refactored to shed the drift; if the column still
        looks like a ray it is skipped until a pivot lowers the objective.
        Skips last through degenerate pivots: while the vertex stays put the
        skipped set only grows, so Bland's rule cannot cycle.
        """
        if self.m == 0:
            return "optimal"
        since_refactor = 0
        skipped: list[int] = []
        while True:
            if self.iterations >= self.limit:
                return "iteration_limit"
            y = c[self.basis] @ self.binv
            reduced = c - y @ self.A
            reduced[self.basis] = 0.0
            if skipped:
                reduced[skipped] = 0.0
            cand = np.flatnonzero(allowed & (reduced < -OPT_TOL))
            if cand.size == 0:
                return "optimal"
            if self.streak >= DEGENERATE_STREAK:
                j = int(cand[0])  # Bland: smallest eligible index
            else:
                j = int(cand[np.argmin(reduced[cand])])
            d = self.binv @ self.A[:, j]
            pos = np.flatnonzero(d > PIVOT_TOL)
            if pos.size == 0:
                if not bounded:
                    return "unbounded"
                if since_refactor:
                    self._refactor()
                    since_refactor = 0
                else:
                    skipped.append(j)
                continue
            xb = self.xb()
            ratios = xb[pos] / d[pos]
            best = float(np.min(ratios))
            ties = pos[ratios <= best + 1e-12]
            r = int(ties[np.argmin(self.basis[ties])])
            self.streak = self.streak + 1 if best <= 1e-12 else 0
            if best > 1e-12:
                skipped.clear()
            self.basis[r] = j
            piv = d[r]
            self.binv[r, :] /= piv
            col = d.copy()
            col[r] = 0.0
            self.binv -= np.outer(col, self.binv[r, :])
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0
            if self.log and self.iterations % 200 == 0:
                print(f"[simplex] iter={self.iterations}", file=sys.stderr)


def _solve_simplex(
    problem: LpProblem, iteration_limit: int | None, log: bool
) -> Solution:
    t0 = time.perf_counter()
    std = _standardize(problem)
    m, n_cols = std.A.shape
    limit = iteration_limit or max(2000, 50 * (m + n_cols))
    sx = _Simplex(std, limit, log)
    n_all = sx.A.shape[1]
    art_mask = np.zeros(n_all, dtype=bool)
    art_mask[sx.n_real :] = True

    def finish(status: SolveStatus, with_values: bool) -> Solution:
        wall = time.perf_counter() - t0
        if not with_values:
            return Solution(status, iterations=sx.iterations, wall_time=wall,
                            engine="simplex")
        xb = np.maximum(sx.xb(), 0.0)
        t = np.zeros(n_all)
        t[sx.basis] = xb
        values = {name: float(v) for name, v in std.fixed.items()}
        for name, (shift, cols) in std.pieces.items():
            values[name] = float(
                shift + sum(sign * t[j] / std.col_scale[j] for j, sign in cols)
            )
        obj = sum(problem.objective.get(nm, 0.0) * v for nm, v in values.items())
        y = c2[sx.basis] @ sx.binv if sx.m else np.zeros(0)
        dual = float(y @ sx.b) + std.offset if sx.m else std.offset
        return Solution(
            status,
            values=values,
            objective=float(obj),
            iterations=sx.iterations,
            wall_time=wall,
            dual_objective=dual,
            engine="simplex",
        )

    c2 = np.zeros(n_all)
    c2[: std.c.size] = std.c

    if bool((sx.basis >= sx.n_real).any()):
        c1 = np.zeros(n_all)
        c1[sx.n_real :] = 1.0
        status = sx.run_phase(c1, allowed=np.ones(n_all, dtype=bool), bounded=True)
        if status == "iteration_limit":
            return finish(SolveStatus.ITERATION_LIMIT, with_values=False)
        xb = sx.xb()
        art_value = float(np.sum(xb[sx.basis >= sx.n_real]))
        if art_value > 1e-7:
            return finish(SolveStatus.INFEASIBLE, with_values=False)
        # pivot leftover zero-valued artificials out of the basis; rows where
        # that is impossible are redundant and their artificial stays pinned
        for i in range(sx.m):
            if sx.basis[i] < sx.n_real:
                continue
            row = sx.binv[i, :] @ sx.A[:, : sx.n_real]
            js = np.flatnonzero(np.abs(row) > 1e-9)
            if js.size:
                j = int(js[0])
                d = sx.binv @ sx.A[:, j]
                sx.basis[i] = j
                piv = d[i]
                sx.binv[i, :] /= piv
                col = d.copy()
                col[i] = 0.0
                sx.binv -= np.outer(col, sx.binv[i, :])

    status = sx.run_phase(c2, allowed=~art_mask)
    if status == "unbounded":
        return finish(SolveStatus.UNBOUNDED, with_values=False)
    if status == "iteration_limit":
        return finish(SolveStatus.ITERATION_LIMIT, with_values=True)
    return finish(SolveStatus.OPTIMAL, with_values=True)
