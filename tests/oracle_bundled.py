"""The bundled simplex and its warm branch and bound, kept as a test oracle.

A frozen copy of ``demers.simplexsolver``'s two-phase primal simplex, dual
simplex and warm-started branch and bound (``engine="simplex"`` only), in
which every pivot updates all of the basis inverse and the node bookkeeping
runs in plain Python loops. The property tests compare the production
solver with it pivot for pivot: status, counters, objective and values,
byte for byte. ``HEAP_INVERSE_BYTES`` is read from the production module,
so patching it there patches both.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace

import numpy as np

from demers import simplexsolver as ss
from demers.lpmodel import EQ, GE, LE, LpProblem
from demers.simplexsolver import INF, Solution, SolverError, SolveStatus

FEAS_TOL = 1e-7
OPT_TOL = 1e-9
INT_TOL = 1e-6
PIVOT_TOL = 1e-9
SMALL_PIVOT = 1e-7
DEGENERATE_STREAK = 30
REFACTOR_EVERY = 100


def solve_lp(problem: LpProblem) -> Solution:
    """``simplexsolver.solve_lp(problem, engine="simplex")`` without limits."""
    return _solve_simplex(problem, None)


def solve_ilp(problem: LpProblem, node_limit: int = 100_000) -> Solution:
    """``simplexsolver.solve_ilp(problem, engine="simplex")`` without a time
    limit or logging."""
    if not problem.num_binaries:
        return _solve_simplex(problem, None)
    binaries = [problem.col_names[j] for j in np.flatnonzero(problem.binary)]
    base = problem.with_bounds(
        problem.lb, problem.ub, binary=np.zeros(problem.num_cols, dtype=bool)
    )
    relax = _WarmNodes(base, problem.binary)

    incumbent: Solution | None = None
    nodes = 0
    total_iters = 0
    total_refactors = 0
    root_iters: int | None = None
    heap: list[tuple[float, int, dict[str, int], _Basis | None]] = []
    stack: list[tuple[float, dict[str, int], _Basis | None]] = [(-INF, {}, None)]
    seq = held = 0
    exhausted = True

    while stack or heap:
        if stack:
            bound, fixings, start = stack.pop()
        else:
            bound, _, fixings, start = heapq.heappop(heap)
            if start is not None and start.binv is not None:
                held -= start.binv.nbytes
        if incumbent is not None and bound >= incumbent.objective - 1e-9:
            continue
        if nodes >= node_limit:
            exhausted = False
            break
        nodes += 1
        rel, basis = relax.solve(fixings, start)
        total_iters += rel.iterations
        total_refactors += rel.refactors
        if rel.status is SolveStatus.INFEASIBLE:
            continue
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
            incumbent = _rounded(rel, binaries)
            continue
        if incumbent is None:
            probe_fix = dict(fixings)
            for name in binaries:
                if name not in probe_fix:
                    val = rel.values.get(name, 0.0)
                    probe_fix[name] = 1 if val > INT_TOL else 0
            probe, _ = relax.solve(probe_fix, None if basis is None else basis.copy())
            total_iters += probe.iterations
            total_refactors += probe.refactors
            if probe.status is SolveStatus.OPTIMAL:
                incumbent = _rounded(probe, binaries)
        if root_iters is None:
            root_iters = total_iters
        prefer = 1 if rel.values.get(frac_name, 0.0) >= 0.5 else 0
        seq += 1
        sibling = _sibling_basis(basis, held)
        if sibling is not None and sibling.binv is not None:
            held += sibling.binv.nbytes
        heapq.heappush(heap, (rel.objective, seq, {**fixings, frac_name: 1 - prefer}, sibling))
        stack.append((rel.objective, {**fixings, frac_name: prefer}, basis))

    root_iters = total_iters if root_iters is None else root_iters
    if incumbent is not None:
        fixed = {name: int(incumbent.values[name]) for name in binaries}
        final = _solve_simplex(_with_fixings(base, fixed), None)
        total_iters += final.iterations
        total_refactors += final.refactors
        if final.status is SolveStatus.OPTIMAL:
            incumbent = _rounded(final, binaries)
    counts = {"nodes": nodes, "engine": "simplex", "root_iterations": root_iters,
              "iterations": total_iters, "refactors": total_refactors}
    if incumbent is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.NODE_LIMIT
        return Solution(status=status, **counts)
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.NODE_LIMIT
    return Solution(
        status=status,
        x=incumbent.x,
        col_names=incumbent.col_names,
        objective=incumbent.objective,
        dual_objective=incumbent.dual_objective,
        **counts,
    )


def _rounded(rel: Solution, binaries: list[str]) -> Solution:
    """An integral relaxation as an incumbent, its binaries rounded exactly."""
    vals = dict(rel.values)
    for name in binaries:
        vals[name] = 1.0 if vals.get(name, 0.0) > 0.5 else 0.0
    return replace(rel, x=np.array([vals[name] for name in rel.col_names]))


def _fixed_bounds(
    base: LpProblem, fixings: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds of ``base`` with every fixed binary pinned to its value."""
    lb, ub = base.lb.copy(), base.ub.copy()
    cols = [base.col_index[name] for name in fixings]
    lb[cols] = ub[cols] = list(fixings.values())
    return lb, ub


def _with_fixings(base: LpProblem, fixings: dict[str, int]) -> LpProblem:
    return base.with_bounds(*_fixed_bounds(base, fixings)) if fixings else base



@dataclass
class _StdForm:
    """min c.t  s.t.  A t = b, t >= 0, with bookkeeping to map back.

    User variable j is x = shift[j] + sum over k of
    piece_sign[j, k] * t[piece[j, k]] / col_scale[piece[j, k]], for the
    pieces k with piece[j, k] >= 0; fixed variables have no pieces and
    ``shift`` holds their value. Row ``slack_rows[i]`` has its slack in
    column ``slack_cols[i]``. Only ``shift``, ``b`` and ``offset`` depend on
    the column bounds; ``rebound`` recomputes them for new bounds.
    """

    A: np.ndarray
    c: np.ndarray
    piece: np.ndarray  # (n, 2) column per piece, -1 for none
    piece_sign: np.ndarray  # (n, 2)
    fixed: np.ndarray
    col_scale: np.ndarray
    slack_rows: np.ndarray
    slack_cols: np.ndarray
    # what the bound-dependent parts are computed from
    problem: LpProblem
    lower: np.ndarray  # x = lb + t
    upper: np.ndarray  # x = ub - t
    free: np.ndarray
    bounded: np.ndarray  # columns with an x <= ub row after the problem's rows
    rows: np.ndarray  # coefficients of those rows, unscaled, in COO form
    cols: np.ndarray
    vals: np.ndarray
    row_scale: np.ndarray
    b: np.ndarray = field(default_factory=lambda: np.zeros(0))
    shift: np.ndarray = field(default_factory=lambda: np.zeros(0))
    offset: float = 0.0

    def rebound(self, lb: np.ndarray, ub: np.ndarray) -> _StdForm:
        """The same form for new bounds on columns that keep their pieces.

        ``A``, ``c``, the pieces and the scaling are shared with this form;
        a column that is fixed here stays fixed at its new ``lb``.
        """
        shift = np.where(self.fixed | self.lower, lb, np.where(self.upper, ub, 0.0))
        offset = 0.0
        for term in np.where((lb > ub) | self.free, 0.0, self.problem.cost * shift).tolist():
            offset += term
        rhs, bounded = self.problem.rhs, self.bounded
        extra = self.A.shape[0] - rhs.size - bounded.size  # the lb > ub row
        b = np.concatenate([rhs, ub[bounded], np.ones(extra)])
        np.subtract.at(b, self.rows, self.vals * shift[self.cols])
        b /= self.row_scale
        return replace(self, b=b, shift=shift, offset=offset)


def _standardize(problem: LpProblem, keep: np.ndarray | None = None) -> _StdForm:
    """Standard form of ``problem``; ``keep`` marks columns that stay columns.

    A column with ``lb == ub`` is fixed and drops out unless ``keep`` marks
    it: branch and bound keeps its binaries, so that a fixing only moves
    ``b`` (see ``_StdForm.rebound``).
    """
    lb, ub, cost = problem.lb, problem.ub, problem.cost
    infeasible = lb > ub
    fixed = infeasible | (lb == ub)
    if keep is not None:
        fixed &= infeasible | ~keep
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
    c_struct = np.zeros(n_struct)
    for k in (0, 1):
        has = piece[:, k] >= 0
        c_struct[piece[has, k]] = cost[has] * piece_sign[has, k]

    # the problem's rows, then x <= ub for doubly bounded variables, then
    # an unsatisfiable row when some variable has lb > ub
    bounded = np.flatnonzero(lower & (ub != INF))
    m0 = problem.num_rows
    sense = np.concatenate([problem.sense, np.full(bounded.size, LE, np.int8),
                            np.full(int(infeasible.any()), GE, np.int8)])
    rows = np.concatenate([problem.row, m0 + np.arange(bounded.size)])
    cols = np.concatenate([problem.col, bounded])
    vals = np.concatenate([problem.val, np.ones(bounded.size)])

    m = sense.size
    slack_rows = np.flatnonzero(sense != EQ)
    slack_cols = n_struct + np.arange(slack_rows.size)
    A = np.zeros((m, n_struct + slack_rows.size))
    for k in (0, 1):
        has = piece[cols, k] >= 0
        np.add.at(A, (rows[has], piece[cols[has], k]),
                  vals[has] * piece_sign[cols[has], k])
    A[slack_rows, slack_cols] = np.where(sense[slack_rows] == LE, 1.0, -1.0)
    c = np.zeros(A.shape[1])
    c[:n_struct] = c_struct

    # equilibrate rows then columns with powers of two; A has rows but no
    # columns when every variable is fixed and every row is an equation
    row_scale, col_scale = np.ones(m), np.ones(A.shape[1])
    if A.size:
        mags = np.max(np.abs(A), axis=1)
        row_scale = np.where(mags > 0, np.exp2(np.round(np.log2(np.where(mags > 0, mags, 1.0)))), 1.0)
        A /= row_scale[:, None]
        mags = np.max(np.abs(A), axis=0)
        col_scale = np.where(mags > 0, np.exp2(np.round(np.log2(np.where(mags > 0, mags, 1.0)))), 1.0)
        # scaled variable t' = col_scale * t, so costs divide by the scale
        A /= col_scale[None, :]
        c = c / col_scale

    std = _StdForm(
        A=A, c=c, piece=piece, piece_sign=piece_sign, fixed=fixed,
        col_scale=col_scale, slack_rows=slack_rows, slack_cols=slack_cols,
        problem=problem, lower=lower, upper=upper, free=free, bounded=bounded,
        rows=rows, cols=cols, vals=vals, row_scale=row_scale,
    )
    return std.rebound(lb, ub)


@dataclass
class _Basis:
    """Basic column per row, and the inverse of that basis when it is current.

    Without ``binv`` the next solve refactors once from ``cols``. ``updates``
    counts the pivots that updated ``binv`` since it was last refactored.
    """

    cols: np.ndarray
    binv: np.ndarray | None = None
    updates: int = 0

    def copy(self) -> _Basis:
        return _Basis(self.cols, None if self.binv is None else self.binv.copy(), self.updates)


def _sibling_basis(basis: _Basis | None, held: int) -> _Basis | None:
    """The start of a node pushed on the branch-and-bound heap.

    It is its parent's basis, with a copy of the inverse while the heap's
    inverses, ``held`` bytes before this one, stay within
    ``ss.HEAP_INVERSE_BYTES``; past that only the columns, and the popped node
    refactors. The copy is taken before the dive child updates the inverse.
    """
    if basis is None:
        return None
    if basis.binv is None or held + basis.binv.nbytes > ss.HEAP_INVERSE_BYTES:
        return _Basis(basis.cols)
    return basis.copy()


class _Simplex:
    """Revised simplex state: tableau-free pivoting on a dense basis inverse."""

    def __init__(self, std: _StdForm, iteration_limit: int) -> None:
        self.limit = iteration_limit
        self.iterations = 0
        self.streak = 0
        self.updates = 0  # rank-1 updates of binv since it was last refactored
        self.refactors = 0  # dense inverses computed
        self.drifted = False  # a pivot entry was found to be drift

        A, b = std.A.copy(), std.b.copy()
        m, n = A.shape
        neg = b < 0
        A[neg] *= -1.0
        b[neg] *= -1.0
        # rows flipped to start the artificials at nonnegative values; a
        # later ``b`` on the same ``A`` is flipped the same way
        self.flip = np.where(neg, -1.0, 1.0)

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
        # phase-2 costs; artificials cost nothing there and may not enter
        self.c = np.zeros(self.A.shape[1])
        self.c[:n] = std.c
        self.real = np.zeros(self.A.shape[1], dtype=bool)
        self.real[:n] = True

    def _refactor(self) -> None:
        if self.m == 0:
            return
        B = self.A[:, self.basis]
        try:
            self.binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis") from exc
        self.updates = 0
        self.refactors += 1

    def _real_entry(self, r: int, j: int, sign: float) -> bool:
        """Whether entry ``r`` of B^-1 A_j, solved afresh from the basis,
        exceeds ``PIVOT_TOL`` with the given sign."""
        try:
            fresh = np.linalg.solve(self.A[:, self.basis], self.A[:, j])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis") from exc
        return bool(sign * fresh[r] > PIVOT_TOL)

    def xb(self) -> np.ndarray:
        return self.binv @ self.b if self.m else np.zeros(0)

    def _stopped(self) -> bool:
        return self.iterations >= self.limit

    def _pivot(self, r: int, j: int, d: np.ndarray) -> None:
        """Column ``j`` (``d`` = B^-1 A_j) replaces the basic column of row ``r``.

        ``d`` is overwritten.
        """
        self.basis[r] = j
        self.binv[r, :] /= d[r]
        d[r] = 0.0
        self.binv -= d[:, None] * self.binv[r, :]
        self.updates += 1

    def run_phase(
        self, c: np.ndarray, allowed: np.ndarray, bounded: bool = False
    ) -> str:
        """Pivot to optimality on costs ``c`` over the ``allowed`` columns.

        An improving column with no positive pivot entry is a ray only if
        the basis inverse has not drifted: unless no pivot has updated it
        since its last refactor, in this call or before it, the inverse is
        refactored and the columns priced again. ``bounded``
        says the objective cannot fall below zero (phase 1): a column that
        still looks like a ray there has a negative reduced cost from
        round-off, and it is skipped until a pivot lowers the objective.
        Skips last through degenerate pivots: while the vertex stays put the
        skipped set only grows, so Bland's rule cannot cycle. Past the
        iteration limit it returns "iteration_limit".

        Basic, blocked and skipped columns price at zero, so neither rule
        can pick one: the entering column is the smallest reduced cost
        (Dantzig) or the first below ``-OPT_TOL`` (Bland), and none is
        eligible when that is not below ``-OPT_TOL``.
        """
        if self.m == 0:
            return "optimal"
        since_refactor = 0
        skipped: list[int] = []
        blocked = np.flatnonzero(~allowed)
        while True:
            if self._stopped():
                return "iteration_limit"
            y = c[self.basis] @ self.binv
            reduced = c - y @ self.A
            reduced[self.basis] = 0.0
            reduced[blocked] = 0.0
            if skipped:
                reduced[skipped] = 0.0
            if self.streak >= DEGENERATE_STREAK:
                j = int(np.argmax(reduced < -OPT_TOL))  # Bland: smallest eligible index
            else:
                j = int(np.argmin(reduced))
            if not reduced[j] < -OPT_TOL:
                return "optimal"
            d = self.binv @ self.A[:, j]
            pos = np.flatnonzero(d > PIVOT_TOL)
            if pos.size == 0:
                # self.updates also counts the pivots of an earlier phase
                # and of the dual simplex, which may have drifted binv
                if self.updates:
                    self._refactor()
                    since_refactor = 0
                elif not bounded:
                    return "unbounded"
                else:
                    skipped.append(j)
                continue
            xb = self.xb()
            ratios = xb[pos] / d[pos]
            best = float(np.min(ratios))
            ties = pos[ratios <= best + 1e-12]
            r = int(ties[np.argmin(self.basis[ties])])
            # a small pivot from an updated inverse may be drift: checked
            # against the basis, and if it is, refactored and priced again
            if d[r] < SMALL_PIVOT and self.updates and not self._real_entry(r, j, 1.0):
                self.drifted = True
                self._refactor()
                since_refactor = 0
                continue
            self.streak = self.streak + 1 if best <= 1e-12 else 0
            if best > 1e-12:
                skipped.clear()
            self._pivot(r, j, d)
            self.iterations += 1
            since_refactor += 1
            if since_refactor >= REFACTOR_EVERY:
                self._refactor()
                since_refactor = 0

    def two_phase(self) -> tuple[SolveStatus, bool]:
        """Solve from the artificial start; returns the status and whether
        the basis holds a point to report."""
        if bool((self.basis >= self.n_real).any()):
            c1 = np.zeros(self.A.shape[1])
            c1[self.n_real :] = 1.0
            status = self.run_phase(c1, allowed=np.ones(c1.size, dtype=bool), bounded=True)
            if status == "iteration_limit":
                return SolveStatus.ITERATION_LIMIT, False
            if self.artificial_value() > 1e-7:
                return SolveStatus.INFEASIBLE, False
            # pivot leftover zero-valued artificials out of the basis; rows
            # where that is impossible are redundant and their artificial
            # stays pinned
            for i in range(self.m):
                if self.basis[i] < self.n_real:
                    continue
                row = self.binv[i, :] @ self.A[:, : self.n_real]
                js = np.flatnonzero(np.abs(row) > 1e-9)
                if js.size:
                    j = int(js[0])
                    self._pivot(i, j, self.binv @ self.A[:, j])

        status = self.run_phase(self.c, allowed=self.real)
        if status == "unbounded":
            return SolveStatus.UNBOUNDED, False
        if status == "iteration_limit":
            return SolveStatus.ITERATION_LIMIT, True
        if self.drifted and self.updates:
            self._refactor()
        return SolveStatus.OPTIMAL, True

    def artificial_value(self) -> float:
        xb = self.xb()
        return float(np.sum(xb[self.basis >= self.n_real]))

    def run_dual(self) -> str:
        """Dual simplex from a dual feasible basis, until every basic value
        is nonnegative.

        The leaving row is the most negative basic value. The entering
        column is the one whose reduced cost first reaches zero as the row
        leaves (the dual ratio test), the largest pivot among ties, so every
        reduced cost stays nonnegative. Artificials never enter. A row with
        no negative entry is a dual ray: it sets a sum of nonnegative terms
        equal to a negative value, so the problem is infeasible. The row
        ``y = B^-1[r]`` is checked as it is (``y A >= 0``, ``y b < 0``), so
        drift in the inverse cannot fake that certificate. Returns
        "feasible", "infeasible" or "iteration_limit".
        """
        if self.m == 0:
            return "feasible"
        while True:
            if self._stopped():
                return "iteration_limit"
            xb = self.xb()
            r = int(np.argmin(xb))
            if xb[r] >= -FEAS_TOL:
                return "feasible"
            alpha = self.binv[r, :] @ self.A
            cand = np.flatnonzero(self.real & (alpha < -PIVOT_TOL))
            if cand.size == 0:
                return "infeasible"
            y = self.c[self.basis] @ self.binv
            reduced = np.maximum(self.c[cand] - y @ self.A[:, cand], 0.0)
            ratios = reduced / -alpha[cand]
            ties = cand[ratios <= float(np.min(ratios)) + 1e-12]
            j = int(ties[np.argmin(alpha[ties])])
            if -alpha[j] < SMALL_PIVOT and self.updates and not self._real_entry(r, j, -1.0):
                self.drifted = True
                self._refactor()
                continue
            self._pivot(r, j, self.binv @ self.A[:, j])
            self.iterations += 1
            if self.updates >= REFACTOR_EVERY:
                self._refactor()

    def solution(
        self, status: SolveStatus, with_values: bool, problem: LpProblem,
        std: _StdForm,
    ) -> Solution:
        if not with_values:
            return Solution(status, iterations=self.iterations,
                            engine="simplex", refactors=self.refactors)
        xb = np.maximum(self.xb(), 0.0)
        t = np.zeros(self.A.shape[1])
        t[self.basis] = xb
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
        y = self.c[self.basis] @ self.binv if self.m else np.zeros(0)
        dual = float(y @ self.b) + std.offset if self.m else std.offset
        return Solution(
            status,
            x=np.array([values[name] for name in problem.col_names]),
            col_names=problem.col_names,
            objective=float(obj),
            iterations=self.iterations,
            dual_objective=dual,
            engine="simplex",
            refactors=self.refactors,
        )


def _iteration_limit(std: _StdForm) -> int:
    m, n_cols = std.A.shape
    return max(2000, 50 * (m + n_cols))


def _solve_simplex(problem: LpProblem, iteration_limit: int | None) -> Solution:
    std = _standardize(problem)
    sx = _Simplex(std, iteration_limit or _iteration_limit(std))
    return sx.solution(*sx.two_phase(), problem, std)


class _WarmNodes:
    """Node relaxations of one binary program on the bundled simplex.

    The program is standardized once with its binaries kept as columns, so
    a node's fixings change only ``b``. The root is solved by the two-phase
    primal simplex. Every other node starts from its parent's optimal basis,
    which stays dual feasible because ``A`` and ``c`` never change: the dual
    simplex restores primal feasibility and the primal simplex confirms
    optimality. A node that runs into trouble there (basic artificials above
    1e-7, an iteration limit, a singular basis) is solved cold instead.
    """

    def __init__(self, base: LpProblem, binary: np.ndarray) -> None:
        self.base = base
        self.root = _standardize(base, keep=binary)
        self.limit = _iteration_limit(self.root)
        # the root's frame, whose row flips and artificials every node shares
        self.sx = _Simplex(self.root, self.limit)

    def relaxation(self, fixings: dict[str, int]) -> _StdForm:
        if not fixings:
            return self.root
        return self.root.rebound(*_fixed_bounds(self.base, fixings))

    def solve(
        self, fixings: dict[str, int], start: _Basis | None
    ) -> tuple[Solution, _Basis | None]:
        """Solve a node from ``start``, its parent's basis; None is the root.

        The inverse in ``start`` is updated in place, and the returned basis
        owns the inverse the node ends with (None when the node has none).
        """
        std, sx = self.relaxation(fixings), self.sx
        if start is None:
            sol = sx.solution(*sx.two_phase(), self.base, std)
            return sol, _Basis(sx.basis.copy(), sx.binv, sx.updates)
        status = self._warm(std, start)
        if status == "optimal":
            sol = sx.solution(SolveStatus.OPTIMAL, True, self.base, std)
            return sol, _Basis(sx.basis.copy(), sx.binv, sx.updates)
        if status == "infeasible":
            return sx.solution(SolveStatus.INFEASIBLE, False, self.base, std), None
        # the cold solve flips rows by its own b; its basis is refactored in
        # the root's frame when a child starts from it
        cold = _Simplex(std, self.limit)
        sol = cold.solution(*cold.two_phase(), self.base, std)
        sol.iterations += sx.iterations
        sol.refactors += sx.refactors
        return sol, _Basis(cold.basis.copy())

    def _warm(self, std: _StdForm, start: _Basis) -> str:
        sx = self.sx
        sx.b = std.b * sx.flip
        sx.basis = start.cols.copy()
        sx.iterations = sx.streak = sx.refactors = 0
        try:
            if start.binv is None:
                sx._refactor()
            else:
                sx.binv, sx.updates = start.binv, start.updates
            status = sx.run_dual()
            if status == "feasible":
                status = sx.run_phase(sx.c, allowed=sx.real)
        except SolverError:  # singular basis
            return "singular"
        if status == "optimal" and sx.artificial_value() > 1e-7:
            return "drift"
        return status
