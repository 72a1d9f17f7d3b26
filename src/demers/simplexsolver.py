"""LP and binary-ILP solving for the cartogram models.

The bundled engine is a two-phase primal revised simplex on a dense basis
inverse: equilibration, Dantzig pricing with a Bland fallback after a
degenerate streak, periodic refactorization. It starts from a basis of unit
columns (artificials, and slacks that the power-of-two scaling leaves at
exactly +1), so the starting inverse is the identity and needs no
factorization. Integer problems are solved by branch and bound over the
binary variables, best-first on the relaxation bound with deeper nodes
preferred on ties. With ``log=True`` both report progress through this
module's logger at INFO level.

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
import logging
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .lpmodel import EQ, GE, LE, LpProblem

INF = math.inf

# progress lines ("[bnb] ...", "[simplex] ..."), emitted at INFO when a
# solve is called with log=True; ``demers run --solver-log`` shows them
logger = logging.getLogger(__name__)

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
    if not problem.num_binaries:
        return _dispatch(problem, engine, None, log, time_limit)
    binaries = [problem.col_names[j] for j in np.flatnonzero(problem.binary)]
    t0 = time.perf_counter()
    deadline = t0 + time_limit if time_limit else None

    def remaining() -> float | None:
        # a positive floor: a zero limit would read as no limit at all
        return max(deadline - time.perf_counter(), 1e-3) if deadline else None

    base = problem.with_bounds(
        problem.lb, problem.ub, binary=np.zeros(problem.num_cols, dtype=bool)
    )

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
            _with_fixings(base, fixings), engine, None, False, remaining()
        )
        total_iters += rel.iterations
        total_crossover += rel.crossover_nit
        if log:
            logger.info(
                "[bnb] node=%d depth=%d status=%s obj=%.6g",
                nodes, len(fixings), rel.status.value, rel.objective,
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
                _with_fixings(base, probe_fix), engine, None, False,
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
                    logger.info("[bnb] probe incumbent obj=%.6g", probe.objective)
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


def _with_fixings(base: LpProblem, fixings: dict[str, int]) -> LpProblem:
    if not fixings:
        return base
    lb, ub = base.lb.copy(), base.ub.copy()
    cols = [base.col_index[name] for name in fixings]
    lb[cols] = ub[cols] = list(fixings.values())
    return base.with_bounds(lb, ub)


def _dispatch(
    problem: LpProblem,
    engine: str,
    iteration_limit: int | None,
    log: bool,
    time_limit: float | None = None,
) -> Solution:
    if engine == "auto":
        engine = "simplex" if problem.num_rows <= AUTO_SIMPLEX_MAX_ROWS else "highs"
    if engine == "simplex":
        return _solve_simplex(problem, iteration_limit, log, time_limit)
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
    method = "ipm" if problem.num_rows >= HIGHS_IPM_MIN_ROWS else "ds"
    res = linprog(
        problem.cost,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
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

    User variable j is x = shift[j] + sum over k of
    piece_sign[j, k] * t[piece[j, k]] / col_scale[piece[j, k]], for the
    pieces k with piece[j, k] >= 0; fixed variables have no pieces and
    ``shift`` holds their value. Row ``slack_rows[i]`` has its slack in
    column ``slack_cols[i]``.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    offset: float
    shift: np.ndarray
    piece: np.ndarray  # (n, 2) column per piece, -1 for none
    piece_sign: np.ndarray  # (n, 2)
    fixed: np.ndarray
    col_scale: np.ndarray
    slack_rows: np.ndarray
    slack_cols: np.ndarray


def _standardize(problem: LpProblem) -> _StdForm:
    lb, ub, cost = problem.lb, problem.ub, problem.cost
    infeasible = lb > ub
    fixed = infeasible | (lb == ub)
    free = ~fixed & (lb == -INF) & (ub == INF)
    lower = ~fixed & ~free & (lb != -INF)  # x = lb + t
    upper = ~fixed & ~free & ~lower  # x = ub - t
    width = np.where(fixed, 0, np.where(free, 2, 1))
    first = np.cumsum(width) - width
    n_struct = int(width.sum())
    piece = np.full((lb.size, 2), -1)
    piece[~fixed, 0] = first[~fixed]
    piece[free, 1] = first[free] + 1
    piece_sign = np.zeros((lb.size, 2))
    piece_sign[~fixed, 0] = np.where(upper, -1.0, 1.0)[~fixed]
    piece_sign[free, 1] = -1.0
    shift = np.where(fixed | lower, lb, np.where(upper, ub, 0.0))
    c_struct = np.zeros(n_struct)
    for k in (0, 1):
        has = piece[:, k] >= 0
        c_struct[piece[has, k]] = cost[has] * piece_sign[has, k]
    offset = 0.0
    for term in np.where(infeasible | free, 0.0, cost * shift).tolist():
        offset += term

    # the problem's rows, then x <= ub for doubly bounded variables, then
    # an unsatisfiable row when some variable has lb > ub
    bounded = np.flatnonzero(lower & (ub != INF))
    m0 = problem.num_rows
    sense = np.concatenate([problem.sense, np.full(bounded.size, LE, np.int8),
                            np.full(int(infeasible.any()), GE, np.int8)])
    rhs = np.concatenate([problem.rhs, ub[bounded], np.ones(int(infeasible.any()))])
    rows = np.concatenate([problem.row, m0 + np.arange(bounded.size)])
    cols = np.concatenate([problem.col, bounded])
    vals = np.concatenate([problem.val, np.ones(bounded.size)])

    m = sense.size
    slack_rows = np.flatnonzero(sense != EQ)
    slack_cols = n_struct + np.arange(slack_rows.size)
    A = np.zeros((m, n_struct + slack_rows.size))
    b = rhs.copy()
    np.subtract.at(b, rows, vals * shift[cols])
    for k in (0, 1):
        has = piece[cols, k] >= 0
        np.add.at(A, (rows[has], piece[cols[has], k]),
                  vals[has] * piece_sign[cols[has], k])
    A[slack_rows, slack_cols] = np.where(sense[slack_rows] == LE, 1.0, -1.0)
    c = np.zeros(A.shape[1])
    c[:n_struct] = c_struct

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
        A=A, b=b, c=c, offset=offset, shift=shift, piece=piece,
        piece_sign=piece_sign, fixed=fixed, col_scale=col_scale,
        slack_rows=slack_rows, slack_cols=slack_cols,
    )


class _Simplex:
    """Revised simplex state: tableau-free pivoting on a dense basis inverse."""

    def __init__(
        self, std: _StdForm, iteration_limit: int, log: bool,
        deadline: float | None = None,
    ) -> None:
        self.log = log
        self.limit = iteration_limit
        self.deadline = deadline
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
        # a slack that still points positive after row normalization can
        # seed the basis instead of an artificial
        seeds = self.A[std.slack_rows, std.slack_cols] > PIVOT_TOL
        self.basis[std.slack_rows[seeds]] = std.slack_cols[seeds]
        # every starting basis column is a unit column: an artificial, or a
        # slack, whose one entry the power-of-two scaling leaves at exactly
        # +-1 and the seeding above only takes at +1; so B = I and B^-1 = I
        self.binv = np.eye(m)

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
        skipped set only grows, so Bland's rule cannot cycle. Past the
        iteration limit or the deadline it returns "iteration_limit".
        """
        if self.m == 0:
            return "optimal"
        since_refactor = 0
        skipped: list[int] = []
        while True:
            if self.iterations >= self.limit or (
                self.deadline is not None and time.perf_counter() > self.deadline
            ):
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
            self.binv -= col[:, None] * self.binv[r, :]
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0
            if self.log and self.iterations % 200 == 0:
                logger.info("[simplex] iter=%d", self.iterations)


def _solve_simplex(
    problem: LpProblem,
    iteration_limit: int | None,
    log: bool,
    time_limit: float | None = None,
) -> Solution:
    t0 = time.perf_counter()
    std = _standardize(problem)
    m, n_cols = std.A.shape
    limit = iteration_limit or max(2000, 50 * (m + n_cols))
    sx = _Simplex(std, limit, log, t0 + time_limit if time_limit else None)
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
        pieces = np.zeros(std.shift.size)
        for k in (0, 1):
            has = std.piece[:, k] >= 0
            j = std.piece[has, k]
            pieces[has] += std.piece_sign[has, k] * t[j] / std.col_scale[j]
        x = np.where(std.fixed, std.shift, std.shift + pieces).tolist()
        # fixed variables first, as the objective sum below runs in this order
        order = np.concatenate([np.flatnonzero(std.fixed), np.flatnonzero(~std.fixed)])
        values = {problem.col_names[j]: x[j] for j in order.tolist()}
        cost = problem.cost.tolist()
        obj = sum(cost[j] * x[j] for j in order.tolist())
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
                sx.binv -= col[:, None] * sx.binv[i, :]

    status = sx.run_phase(c2, allowed=~art_mask)
    if status == "unbounded":
        return finish(SolveStatus.UNBOUNDED, with_values=False)
    if status == "iteration_limit":
        return finish(SolveStatus.ITERATION_LIMIT, with_values=True)
    return finish(SolveStatus.OPTIMAL, with_values=True)
