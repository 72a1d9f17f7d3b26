"""The bundled simplex, kept as a test oracle.

A frozen copy of ``demers.simplexsolver``'s two-phase primal simplex
(``engine="simplex"`` only), in which every pivot updates all of the basis
inverse. The property tests compare the production solver with it pivot
for pivot: status, counters, objective and values, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from demers.lpmodel import EQ, GE, LE, LpProblem
from demers.simplexsolver import INF, Solution, SolverError, SolveStatus

OPT_TOL = 1e-9
PIVOT_TOL = 1e-9
SMALL_PIVOT = 1e-7
DEGENERATE_STREAK = 30
REFACTOR_EVERY = 100


def solve_lp(problem: LpProblem) -> Solution:
    """``simplexsolver.solve_lp(problem, engine="simplex")`` without limits."""
    return _solve_simplex(problem, None)


@dataclass
class _StdForm:
    """min c.t  s.t.  A t = b, t >= 0, with bookkeeping to map back.

    User variable j is x = shift[j] + sum over k of
    piece_sign[j, k] * t[piece[j, k]] / col_scale[piece[j, k]], for the
    pieces k with piece[j, k] >= 0; fixed variables have no pieces and
    ``shift`` holds their value. Row ``slack_rows[i]`` has its slack in
    column ``slack_cols[i]``. ``offset`` is the objective at t = 0.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    offset: float
    piece: np.ndarray  # (n, 2) column per piece, -1 for none
    piece_sign: np.ndarray  # (n, 2)
    fixed: np.ndarray
    shift: np.ndarray
    col_scale: np.ndarray
    slack_rows: np.ndarray
    slack_cols: np.ndarray


def _standardize(problem: LpProblem) -> _StdForm:
    """Standard form of ``problem``; a column with ``lb == ub`` is fixed and
    drops out."""
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

    shift = np.where(fixed | lower, lb, np.where(upper, ub, 0.0))
    offset = 0.0
    for term in np.where(infeasible | free, 0.0, cost * shift).tolist():
        offset += term
    b = np.concatenate([problem.rhs, ub[bounded], np.ones(int(infeasible.any()))])
    np.subtract.at(b, rows, vals * shift[cols])
    b /= row_scale
    return _StdForm(
        A=A, b=b, c=c, offset=offset, piece=piece, piece_sign=piece_sign,
        fixed=fixed, shift=shift, col_scale=col_scale,
        slack_rows=slack_rows, slack_cols=slack_cols,
    )


class _Simplex:
    """Revised simplex state: tableau-free pivoting on a dense basis inverse."""

    def __init__(self, std: _StdForm, iteration_limit: int) -> None:
        self.limit = iteration_limit
        self.iterations = 0
        self.streak = 0
        self.updates = 0  # rank-1 updates of binv since it was last refactored
        self.refactors = 0  # dense inverses computed

        A, b = std.A.copy(), std.b.copy()
        m, n = A.shape
        # rows flipped to start the artificials at nonnegative values
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

    def _real_entry(self, r: int, j: int) -> bool:
        """Whether entry ``r`` of B^-1 A_j, solved afresh from the basis,
        exceeds ``PIVOT_TOL``."""
        try:
            fresh = np.linalg.solve(self.A[:, self.basis], self.A[:, j])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis") from exc
        return bool(fresh[r] > PIVOT_TOL)

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
                # self.updates also counts the pivots of an earlier phase,
                # which may have drifted binv
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
            if d[r] < SMALL_PIVOT and self.updates and not self._real_entry(r, j):
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
        if self.updates:
            self._refactor()
        return SolveStatus.OPTIMAL, True

    def artificial_value(self) -> float:
        xb = self.xb()
        return float(np.sum(xb[self.basis >= self.n_real]))

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
