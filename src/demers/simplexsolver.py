"""LP and binary-ILP solving for the cartogram models.

Two engines sit behind one interface and can be asked for with ``engine=``:
HiGHS, reached through scipy's compiled bindings, and a bundled two-phase
primal revised simplex on a dense basis inverse. ``engine="auto"`` solves
every problem on HiGHS. The bundled simplex serves explicit
``engine="simplex"`` solves, an independent reference the tests hold HiGHS
against. With ``log=True`` both report progress through this module's
logger at INFO level; HiGHS's own log goes there too, through its logging
callback, and nothing is printed to stdout.

A ``Solution`` carries its point as ``x``, a float array in the problem's
``col_names`` order: HiGHS's column vector as it comes, or the bundled
simplex's point mapped back from its standard form. Branch and bound keys
its fixings by column index and reads ``x`` at the binary columns.
``Solution.values`` is a read-only view by column name, built on first
read, for callers that name columns.

Binary programs are solved by branch and bound over the binary variables,
best-first on the relaxation bound with deeper nodes preferred on ties. On
HiGHS every node relaxation runs on one HiGHS object (``_HighsNodes``): the
relaxation is passed once, with presolve off, and a node only changes the
bounds of the binary columns and restarts dual simplex from its parent's
basis. On the bundled simplex each node is a cold LP. Either way the search
ends by fixing all of the incumbent's binaries and solving that LP cold, so
a CNT layout depends on its binaries only, not on the path of the search.
Through ``cli.run``, on one BLAS thread, the warm HiGHS search took 0.51 s
for the jittered 4x4 ``CNT-W-SU`` program (173 rows, 1 401 nodes).

The bundled simplex equilibrates the rows and columns, prices by Dantzig's
rule with a Bland fallback after a degenerate streak, and refactors
periodically. It starts from a basis of unit columns (artificials, and
slacks that the power-of-two scaling leaves at exactly +1), so the starting
inverse is the identity and needs no factorization. A pivot prices every
column (``y = c_B @ binv``, then ``y @ A``), computes the entering column
``binv @ A[:, j]`` and the basic values ``binv @ b`` for the ratio test, and
updates ``binv`` in place. The update touches only the columns where the
normalised pivot row is nonzero (10.2 of m = 99.5 on average on ``exact``);
every other entry would have a zero subtracted from it. Each of those BLAS
products is computed whole, on the operands named here: a product on a
slice of ``A``, or a slice of a product, can differ in its last bits
(``y @ A[:, :n]`` against ``(y @ A)[:n]`` did in 2 078 of 3 000 random
Gaussian cases with m from 40 to 180, on one OpenBLAS thread), and a last
bit can move a tie-break and with it a pivot. ``tests/oracle_bundled.py``
keeps a frozen copy of this solver, and the property tests require the same
pivots, nodes and floats.

Known limit: past about 220 rows the bundled simplex drifts numerically and
can raise ``SolverError("singular basis")``, as on 1 of 20 jittered 4x4
``TOP-S`` LPs (282-288 rows). On an LP with tied optima its vertex can also
depend on the number of OpenBLAS threads (``exact`` grid3x3s4 ``TOP-S-SU``
ended on different vertices on one thread and on two).

Through the compiled core HiGHS is faster on the smallest cartogram LPs
too: summed over the 12 grid LPs of ``exact`` (110-144 rows, best of 5
solves each, one BLAS thread, two passes), 28-29 ms against 200-204 ms for
the bundled simplex, and over the 12 LPs of ``sample3`` and ``luxembourg``
(26-64 rows) 16-17 ms against 26-28 ms.
HiGHS is reached through scipy's compiled bindings,
``scipy.optimize._highspy._core``, the extension ``linprog`` drives.
``_highs_core`` loads that one file without importing ``scipy`` itself (it
finds scipy's folder through ``importlib.util.find_spec``, which saves
0.8 MB of RSS per process), and ``_solve_highs`` hands it the model
as ``linprog`` did: the same rows in the same order and the same options, so
the solves are the same, and ``tests/oracle_highs.py`` keeps the ``linprog``
path to check that. The Python layers above the extension cost more than most
solves: in a fresh process after ``import demers.cli``, on one BLAS thread,
``import scipy.sparse`` took 0.18-0.22 s and ``import scipy.optimize`` with
it 0.45-0.58 s and 44 MB of RSS, and the first ``linprog`` call on the 7x7
``ladder`` model took 0.63-0.69 s against 0.12 s for later calls. The
extension alone loads in 0.02 s and 4.7 MB, and its first solve of that model
takes 0.10-0.15 s.

HiGHS runs dual simplex with presolve on. An LP of fewer than
``HIGHS_DUAL_FORM_MIN_ROWS`` rows goes in as it is. A larger one goes in as
its dual (``_dual_lp``): one column per row, one unit column per finite
column bound, and one equality row per column. The all-pairs direction
terms make the cartogram LPs grow as n^2, one row and two nonnegative
columns per region pair. Each of those columns lies in one row only, so
in the dual its row, with its bound's unit column, only bounds one dual
column, and presolve folds those rows away: the dual of the jittered
400-region TOP-S LP (96 697 rows) presolves to 2 314 rows. The LP's point
is the negated row duals of the dual solve, and it comes with a checked
certificate (see ``_solve_dual_form``).

Through ``cli.run``, on one BLAS thread, the dual form solved the jittered
TOP-S-SU grids of 100 regions (7 179 rows) in 0.09 s, 196 regions
(25 057 rows) in 0.54 s and 400 regions in 1.8 s, where interior point
with crossover took 0.40 s, 5.3 s and 29 s and dual simplex on the
100-region LP itself 1.9 s. Presolve is what makes it fast: without it
the 100-region dual took 5.5 s. Peak RSS at 400 regions rose from 286 to
371 MB, presolve's working copies of the dual. The dual form was faster
from 283 rows on as well (1.4 times at 283 rows, 2.5 times at 616), but
the threshold stays where interior point took over: below it the LPs,
and the CNT programs' final LPs with their tied optima, keep the vertices
their goldens and benchmarks pin.
"""

from __future__ import annotations

import heapq
import importlib.machinery
import importlib.util
import logging
import math
import operator
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, reduce
from types import MappingProxyType

import numpy as np

from .lpmodel import EQ, GE, LE, LpProblem

INF = math.inf

# progress lines ("[bnb] ...", "[simplex] ...", and HiGHS's own log as
# "[highs] ..."), emitted at INFO when a solve is called with log=True;
# ``demers run --solver-log`` prints them on stderr
logger = logging.getLogger(__name__)

# HiGHS solves LPs with at least this many rows as their dual, smaller ones
# as they are (see the module docstring for the measurements)
HIGHS_DUAL_FORM_MIN_ROWS = 1000

FEAS_TOL = 1e-7  # absolute, on the scaled constraints
OPT_TOL = 1e-9  # reduced-cost optimality threshold
INT_TOL = 1e-6  # integrality threshold for binaries
PIVOT_TOL = 1e-9
# a chosen pivot below this is checked against the basis itself: from an
# updated inverse it can be drift, which pivots onto a singular basis
SMALL_PIVOT = 1e-7
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


@dataclass(eq=False)
class Solution:
    status: SolveStatus
    x: np.ndarray | None = None  # the point, in ``col_names`` order; None without one
    col_names: list[str] = field(default_factory=list, repr=False)  # the problem's
    objective: float = math.nan
    iterations: int = 0
    nodes: int = 0
    wall_time: float = 0.0
    dual_objective: float | None = None
    engine: str = ""
    method: str = ""  # HiGHS: "ds" (dual simplex) or "dual-form" (dual simplex on the dual)
    engine_reason: str = ""  # "explicit", or the auto rule: "auto: LP" or "auto: ILP"
    root_iterations: int = 0  # branch and bound: pivots before the first branch
    refactors: int = 0  # dense basis inverses the bundled simplex computed

    @property
    def optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    @cached_property
    def values(self) -> MappingProxyType:
        """The point by column name, a read-only view built from ``x`` on first read."""
        x = () if self.x is None else self.x.tolist()
        return MappingProxyType(dict(zip(self.col_names, x)))


def solve_lp(
    problem: LpProblem,
    engine: str = "auto",
    iteration_limit: int | None = None,
    time_limit: float | None = None,
    log: bool = False,
) -> Solution:
    """Solve a continuous LP to optimality (or detect infeasible/unbounded).

    ``iteration_limit`` caps the pivots on either engine; a solve that
    reaches it, or ``time_limit``, ends with ITERATION_LIMIT.
    """
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
    Branching stops while the time the search took up to the end of its
    root relaxation is still left, and the final LP is given that much or
    what is left, whichever is more, so a search cut by its time limit
    still ends with the final LP's optimum.
    On HiGHS the node relaxations are warm started on one HiGHS object (see
    ``_HighsNodes``); on the bundled simplex each is solved cold. Either way
    the incumbent's LP, all binaries fixed, is solved cold at the end.
    """
    if not problem.num_binaries:
        return _dispatch(problem, engine, None, log, time_limit)
    engine, reason = _choose_engine(problem, engine)
    binaries = np.flatnonzero(problem.binary)  # fixings are keyed by these columns
    t0 = time.perf_counter()
    deadline = t0 + time_limit if time_limit else None

    def remaining() -> float | None:
        # a positive floor: a zero limit would read as no limit at all
        return max(deadline - time.perf_counter(), 1e-3) if deadline else None

    base = problem.with_bounds(
        problem.lb, problem.ub, binary=np.zeros(problem.num_cols, dtype=bool)
    )
    if engine == "highs":
        relax: _HighsNodes | _ColdNodes = _HighsNodes(base, binaries, remaining)
    else:
        relax = _ColdNodes(base, remaining)

    incumbent: Solution | None = None
    nodes = 0
    total_iters = 0
    total_refactors = 0
    root_iters: int | None = None  # pivots spent before the first branch
    # kept for the final LP: the time from the start to the end of the root
    # relaxation, a cold solve of the relaxation with its set-up. Branching
    # stops once less than this is left of ``time_limit``
    reserve = 0.0
    # dive depth-first along the rounding of the current relaxation; the
    # sibling of every dive step waits in a best-bound heap for restarts.
    # Each entry carries the basis its relaxation starts from (None: the
    # engine's own start)
    heap: list[tuple[float, int, dict[int, int], object]] = []
    stack: list[tuple[float, dict[int, int], object]] = [(-INF, {}, None)]
    seq = 0
    exhausted = True

    while stack or heap:
        if stack:
            bound, fixings, start = stack.pop()
        else:
            bound, _, fixings, start = heapq.heappop(heap)
        if incumbent is not None and bound >= incumbent.objective - 1e-9:
            continue
        if nodes >= node_limit or (deadline and deadline - time.perf_counter() < reserve):
            exhausted = False
            break
        nodes += 1
        rel, basis = relax.solve(fixings, start)
        if nodes == 1:
            reserve = time.perf_counter() - t0
        total_iters += rel.iterations
        total_refactors += rel.refactors
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
            exhausted = False  # the relaxation was stopped at the time limit
            break
        if rel.status is not SolveStatus.OPTIMAL:
            raise SolverError(f"relaxation ended with {rel.status} in branch and bound")
        if incumbent is not None and rel.objective >= incumbent.objective - 1e-9:
            continue
        # the most fractional free binary, the first one on ties
        vals = rel.x[binaries]
        dist = np.minimum(vals, 1.0 - vals)
        dist[np.searchsorted(binaries, list(fixings))] = -INF  # binaries ascend
        frac = int(dist.argmax())
        if not dist[frac] > INT_TOL:
            incumbent = _rounded(rel, binaries)
            continue
        frac_col = int(binaries[frac])
        if incumbent is None:
            # primal probe: pin every binary (fractional ones high, which
            # only relaxes big-M links) to get an incumbent for pruning
            probe_fix = dict(fixings)
            for j, high in zip(binaries.tolist(), (vals > INT_TOL).tolist()):
                probe_fix.setdefault(j, int(high))
            probe, _ = relax.solve(probe_fix, basis)
            total_iters += probe.iterations
            total_refactors += probe.refactors
            if probe.status is SolveStatus.OPTIMAL:
                incumbent = _rounded(probe, binaries)
                if log:
                    logger.info("[bnb] probe incumbent obj=%.6g", probe.objective)
        if root_iters is None:
            root_iters = total_iters
        prefer = 1 if vals[frac] >= 0.5 else 0
        seq += 1
        heapq.heappush(heap, (rel.objective, seq, {**fixings, frac_col: 1 - prefer}, basis))
        stack.append((rel.objective, {**fixings, frac_col: prefer}, basis))

    root_iters = total_iters if root_iters is None else root_iters
    if incumbent is not None:
        # the layout comes from the incumbent's binaries alone, not from the
        # basis the search reached them with: fix them all and solve cold
        fixed = dict(zip(binaries.tolist(), incumbent.x[binaries].astype(int).tolist()))
        final = _dispatch(_with_fixings(base, fixed), engine, None, False,
                          max(remaining(), reserve) if deadline else None)
        total_iters += final.iterations
        total_refactors += final.refactors
        if final.status is SolveStatus.OPTIMAL:
            incumbent = _rounded(final, binaries)
    counts = {"nodes": nodes, "engine": engine, "engine_reason": reason,
              "root_iterations": root_iters, "iterations": total_iters,
              "refactors": total_refactors, "wall_time": time.perf_counter() - t0}
    if incumbent is None:
        status = SolveStatus.INFEASIBLE if exhausted else SolveStatus.NODE_LIMIT
        return Solution(status=status, **counts)
    status = SolveStatus.OPTIMAL if exhausted else SolveStatus.NODE_LIMIT
    return Solution(
        status=status,
        x=incumbent.x, col_names=incumbent.col_names,
        objective=incumbent.objective,
        dual_objective=incumbent.dual_objective,
        method=incumbent.method,
        **counts,
    )


def _rounded(rel: Solution, binaries: np.ndarray) -> Solution:
    """An integral relaxation as an incumbent, its binary columns rounded in place."""
    rel.x[binaries] = np.where(rel.x[binaries] > 0.5, 1.0, 0.0)
    return rel


def _with_fixings(base: LpProblem, fixings: dict[int, int]) -> LpProblem:
    """``base`` with every fixed binary column pinned to its value."""
    if not fixings:
        return base
    lb, ub = base.lb.copy(), base.ub.copy()
    lb[list(fixings)] = ub[list(fixings)] = list(fixings.values())
    return base.with_bounds(lb, ub)


class _ColdNodes:
    """Node relaxations solved from scratch by the bundled simplex, one LP per node."""

    def __init__(self, base: LpProblem, remaining) -> None:
        self.base, self.remaining = base, remaining

    def solve(self, fixings: dict[int, int], start: None) -> tuple[Solution, None]:
        return _solve_simplex(_with_fixings(self.base, fixings), None, False, self.remaining()), None


def _choose_engine(problem: LpProblem, engine: str) -> tuple[str, str]:
    """The engine that solves ``problem`` and why, as the manifest records it."""
    if engine in ("simplex", "highs"):
        return engine, "explicit"
    if engine != "auto":
        raise SolverError(f"unknown engine {engine!r}")
    return "highs", "auto: ILP" if problem.num_binaries else "auto: LP"


def _dispatch(
    problem: LpProblem,
    engine: str,
    iteration_limit: int | None,
    log: bool,
    time_limit: float | None = None,
) -> Solution:
    engine, reason = _choose_engine(problem, engine)
    if engine == "simplex":
        sol = _solve_simplex(problem, iteration_limit, log, time_limit)
    else:
        sol = _solve_highs(problem, log, time_limit, iteration_limit)
    sol.engine_reason = reason
    return sol


# ---------------------------------------------------------------------------
# HiGHS backend


# the compiled HiGHS bindings that scipy.optimize.linprog drives, under the
# name scipy imports them by
_HIGHS_MODULE = "scipy.optimize._highspy._core"
_highs_lock = threading.Lock()


def _highs_core():
    """scipy's HiGHS extension module, loaded without importing ``scipy``.

    The module is registered in ``sys.modules`` under its canonical name, so
    a later ``import scipy.optimize`` reuses it, and a module that is already
    there is returned as it is. (Import statements find it there; the
    attribute ``scipy.optimize._highspy._core`` of a package imported later
    stays unset.) pybind11 cannot initialise the extension twice, hence the
    lock: two threads may reach the first HiGHS solve at once.
    """
    core = sys.modules.get(_HIGHS_MODULE)
    if core is not None:
        return core
    with _highs_lock:
        core = sys.modules.get(_HIGHS_MODULE)
        if core is not None:
            return core
        # scipy's folder, found without importing scipy itself
        scipy_spec = importlib.util.find_spec("scipy")
        if scipy_spec is None:
            raise SolverError("HiGHS needs scipy, which is not installed")
        folder = os.path.join(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")
        candidates = [os.path.join(folder, "_core" + suffix)
                      for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next((c for c in candidates if os.path.isfile(c)), None)
        if path is None:
            raise SolverError(f"HiGHS extension not found: no file {candidates[0]}")
        spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
        core = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS_MODULE] = core
        try:
            spec.loader.exec_module(core)
        except BaseException:
            del sys.modules[_HIGHS_MODULE]
            raise
        return core


def _log_highs_line(kind, message: str, data_out, data_in, user_data) -> None:
    """HiGHS's logging callback: each line to this module's logger."""
    line = message.rstrip("\n")
    if line:
        logger.info("[highs] %s", line)


@dataclass(frozen=True)
class _Rows:
    """The rows ``linprog`` hands HiGHS: the matrix in compressed columns
    (``column`` names each entry's column), each row's upper bound ``rhs``,
    and the count ``n_ub`` of "<=" rows, which come first."""

    start: np.ndarray
    index: np.ndarray
    column: np.ndarray
    value: np.ndarray
    rhs: np.ndarray
    n_ub: int


def _highs_rows(problem: LpProblem) -> _Rows:
    """``problem``'s rows as ``linprog`` hands them to HiGHS.

    The ">=" rows are flipped into "<=" rows, and all "<=" rows come first,
    in model order, then the "=" rows as ``lhs = rhs``. A non-finite cost,
    coefficient or right-hand side raises ``SolverError`` (``linprog``
    refused them too).
    """
    n, m = problem.num_cols, problem.num_rows
    sense, row, col = problem.sense, problem.row, problem.col
    if not all(np.isfinite(a).all() for a in (problem.cost, problem.val, problem.rhs)):
        raise SolverError("HiGHS input holds a non-finite cost, coefficient or right-hand side")
    sign = np.where(sense == GE, -1.0, 1.0)  # ">=" rows flip into "<=" rows
    val, rhs = problem.val * sign[row], problem.rhs * sign
    eq = sense == EQ
    order = np.argsort(eq, kind="stable")  # new row -> model row
    renumber = np.empty(m, dtype=np.int64)
    renumber[order] = np.arange(m)

    # compressed columns, rows ascending within a column, duplicates summed
    new_row = renumber[row]
    by_col = np.lexsort((new_row, col))
    index, column, value = new_row[by_col], col[by_col], val[by_col]
    first = np.ones(index.size, dtype=bool)
    first[1:] = (index[1:] != index[:-1]) | (column[1:] != column[:-1])
    if not first.all():
        starts = np.flatnonzero(first)
        index, column, value = index[starts], column[starts], np.add.reduceat(value, starts)
    return _Rows(_starts(column, n), index, column, value, rhs[order], m - int(eq.sum()))


def _starts(column: np.ndarray, n: int) -> np.ndarray:
    """Where each of ``n`` columns starts in entries sorted by ``column``."""
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(column, minlength=n), out=start[1:])
    return start


def _make_lp(h, cost, lower, upper, row_lower, row_upper, start, index, value):
    """A ``HighsLp`` from column arrays and a matrix in compressed columns."""
    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cost.size
    lp.num_row_ = lp.a_matrix_.num_row_ = row_upper.size
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = cost, lower, upper
    lp.row_lower_, lp.row_upper_ = row_lower, row_upper
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start, index, value
    return lp


def _highs_lp(h, problem: LpProblem, rows: _Rows):
    """``problem`` as the ``HighsLp`` that ``linprog`` hands HiGHS: the
    "<=" rows have no lower bound (HiGHS's infinity is IEEE inf)."""
    lhs = rows.rhs.copy()
    lhs[: rows.n_ub] = -INF
    return _make_lp(h, problem.cost, problem.lb, problem.ub, lhs, rows.rhs,
                    rows.start, rows.index, rows.value)


def _dual_lp(h, problem: LpProblem, rows: _Rows):
    """The dual of ``problem``, as a minimisation.

    For min c x subject to A x <= b ("<=" rows), A x = b ("=" rows) and
    l <= x <= u, the dual is min -b y - l z_l - u z_u subject to
    A^T y + z_l + z_u = c, with y <= 0 on the "<=" rows, y free on the "="
    rows, and one column z_l >= 0 per finite l and z_u <= 0 per finite u,
    in the order of ``_finite_bounds``. Each dual row is a primal column.
    """
    m, n_ub = rows.rhs.size, rows.n_ub
    lb, ub = problem.lb, problem.ub
    has_l, has_u = _finite_bounds(problem)
    units = has_l.size + has_u.size
    # the dual's columns y are the primal's rows: entries sorted by row
    by_row = np.lexsort((rows.column, rows.index))
    index = np.concatenate([rows.column[by_row], has_l, has_u])
    owner = np.concatenate([rows.index[by_row], m + np.arange(units)])
    lower = np.concatenate([np.full(m, -INF), np.zeros(has_l.size), np.full(has_u.size, -INF)])
    upper = np.concatenate([np.zeros(n_ub), np.full(m - n_ub + has_l.size, INF),
                            np.zeros(has_u.size)])
    cost = -np.concatenate([rows.rhs, lb[has_l], ub[has_u]])
    value = np.concatenate([rows.value[by_row], np.ones(units)])
    return _make_lp(h, cost, lower, upper, problem.cost, problem.cost,
                    _starts(owner, m + units), index, value)


def _finite_bounds(problem: LpProblem) -> tuple[np.ndarray, np.ndarray]:
    """The columns with a finite lower bound and with a finite upper bound."""
    return np.flatnonzero(np.isfinite(problem.lb)), np.flatnonzero(np.isfinite(problem.ub))


def _highs_options(h, presolve: bool, log: bool):
    """``linprog``'s HiGHS options for dual simplex."""
    options = h.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.solver = "simplex"
    options.simplex_strategy = int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = int(h.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = options.log_to_console = bool(log)
    return options


def _run_highs(h, lp, log: bool, time_limit: float | None, iteration_limit: int | None):
    """Solve ``lp`` by dual simplex with presolve on, on a new HiGHS object.

    Returns the object, its model status and its info, None when the run
    failed. The object keeps its own copy of ``lp``; the caller's is dropped
    before the run when the call holds the only reference.
    """
    options = _highs_options(h, presolve=True, log=log)
    if time_limit:
        options.time_limit = float(time_limit)
    if iteration_limit is not None:
        options.simplex_iteration_limit = int(iteration_limit)
    highs, error = h._Highs(), h.HighsStatus.kError
    if log:
        # with a logging callback HiGHS hands it each log line and prints
        # nothing; it still logs only while log_to_console is on
        highs.setCallback(_log_highs_line, None)
        highs.startCallback(h.cb.HighsCallbackType.kCallbackLogging)
    if highs.passOptions(options) == error:
        return highs, highs.getModelStatus(), None
    passed = highs.passModel(lp)
    del lp
    if passed == error:
        return highs, h.HighsModelStatus.kModelError, None
    if highs.run() == error:
        return highs, highs.getModelStatus(), None
    return highs, highs.getModelStatus(), highs.getInfo()


def _no_point(h, highs, status, ran: bool, counts: dict) -> Solution | None:
    """The solution of a HiGHS model status that ends without a point: None
    for an optimal run, ``SolverError`` for a failure."""
    status_of = h.HighsModelStatus
    if status in (status_of.kInfeasible, status_of.kModelError):
        return Solution(SolveStatus.INFEASIBLE, **counts)
    if status == status_of.kUnbounded:
        return Solution(SolveStatus.UNBOUNDED, **counts)
    if status in (status_of.kTimeLimit, status_of.kIterationLimit):
        return Solution(SolveStatus.ITERATION_LIMIT, **counts)
    if status != status_of.kOptimal or not ran:
        raise SolverError(f"HiGHS failed: {highs.modelStatusToString(status)}")
    return None


# linprog's allowance on an optimal point's rows and bounds
POINT_TOL = 10 * math.sqrt(1e-9)
# the largest gap between a dual-form solve's primal and dual objectives,
# relative to the primal objective (or 1, when that is smaller)
GAP_TOL = 1e-9


def _check_point(problem: LpProblem, rows: _Rows, x: np.ndarray, activity: np.ndarray,
                 objective: float, source: str) -> None:
    """``linprog``'s check of an optimal point: no NaN, and rows and bounds
    off by at most ``POINT_TOL``; raises ``SolverError`` otherwise."""
    residual = rows.rhs - activity
    n_ub, tol = rows.n_ub, POINT_TOL
    if (
        np.isnan(x).any() or math.isnan(objective) or np.isnan(residual).any()
        or not np.all((x >= problem.lb - tol) & (x <= problem.ub + tol))
        or (residual[:n_ub] < -tol).any() or (np.abs(residual[n_ub:]) > tol).any()
    ):
        raise SolverError(f"{source} outside its constraints by more than {tol:.2e}")


def _solve_highs(
    problem: LpProblem,
    log: bool,
    time_limit: float | None = None,
    iteration_limit: int | None = None,
) -> Solution:
    """Solve ``problem`` with HiGHS by dual simplex with presolve on.

    An LP of fewer than ``HIGHS_DUAL_FORM_MIN_ROWS`` rows is handed over as
    ``linprog`` hands it (``_highs_rows``), with ``linprog``'s options,
    status mapping and final feasibility check of an optimal point. A larger
    one is solved as its dual (``_solve_dual_form``); when the dual ends
    infeasible or unbounded, the LP itself is solved as a small one is, and
    that solve gives the status.
    """
    h = _highs_core()
    t0 = time.perf_counter()
    rows = _highs_rows(problem)
    counts = {"iterations": 0, "engine": "highs", "method": "ds"}
    if problem.num_rows >= HIGHS_DUAL_FORM_MIN_ROWS:
        counts["method"] = "dual-form"
        sol = _solve_dual_form(h, problem, rows, log, time_limit, iteration_limit, counts)
        if sol is not None:
            sol.wall_time = time.perf_counter() - t0
            return sol
        if time_limit:
            time_limit = max(time_limit - (time.perf_counter() - t0), 1e-3)

    highs, status, info = _run_highs(h, _highs_lp(h, problem, rows), log, time_limit,
                                     iteration_limit)
    counts["iterations"] += int(info.simplex_iteration_count) if info else 0
    counts["wall_time"] = time.perf_counter() - t0
    stopped = _no_point(h, highs, status, info is not None, counts)
    if stopped is not None:
        return stopped

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = info.objective_function_value
    _check_point(problem, rows, x, np.array(solution.row_value), objective,
                 "HiGHS returned an optimal point")
    # the dual objective as linprog's marginals give it: the "<=" rows, the
    # "=" rows, then each column's dual on the bound its basis status names
    n_ub, rhs = rows.n_ub, rows.rhs
    row_dual, col_dual = np.array(solution.row_dual), np.array(solution.col_dual)
    col_status = np.array([int(s) for s in highs.getBasis().col_status])
    lower = np.where(col_status == int(h.HighsBasisStatus.kLower), col_dual, 0.0)
    upper = np.where(col_status == int(h.HighsBasisStatus.kUpper), col_dual, 0.0)
    dual = 0.0
    for duals, bound in ((row_dual[:n_ub], rhs[:n_ub]), (row_dual[n_ub:], rhs[n_ub:]),
                         (lower, problem.lb), (upper, problem.ub)):
        finite = np.isfinite(bound)
        dual += float(np.dot(duals[finite], bound[finite]))
    return Solution(
        SolveStatus.OPTIMAL,
        x=x, col_names=problem.col_names,
        objective=float(objective),
        dual_objective=dual,
        **counts,
    )


def _solve_dual_form(
    h, problem: LpProblem, rows: _Rows, log: bool, time_limit: float | None,
    iteration_limit: int | None, counts: dict,
) -> Solution | None:
    """Solve ``problem`` as its dual (``_dual_lp``); None when the dual ends
    neither optimal nor at a limit, so the LP must be solved itself.

    The point is the negated row duals of the dual solve. It comes with a
    checked certificate: the point passes ``linprog``'s check, the dual
    point meets its own rows and signs within the same allowance, and the
    two objectives differ by at most ``GAP_TOL``. A failed check raises
    ``SolverError``. Records the dual solve's pivots in ``counts``.
    """
    highs, status, info = _run_highs(h, _dual_lp(h, problem, rows), log, time_limit,
                                     iteration_limit)
    counts["iterations"] = int(info.simplex_iteration_count) if info else 0
    status_of = h.HighsModelStatus
    if status in (status_of.kTimeLimit, status_of.kIterationLimit):
        return Solution(SolveStatus.ITERATION_LIMIT, **counts)
    if status != status_of.kOptimal or info is None:
        return None

    solution = highs.getSolution()
    x = -np.array(solution.row_dual)
    w = np.array(solution.col_value)
    objective = float(problem.cost @ x)
    m = rows.rhs.size
    activity = np.bincount(rows.index, rows.value * x[rows.column], minlength=m)
    _check_point(problem, rows, x, activity, objective, "the dual-form solve's point is")
    has_l, has_u = _finite_bounds(problem)
    nl, tol = has_l.size, POINT_TOL
    y, z_l, z_u = w[:m], w[m:m + nl], w[m + nl:]
    # the dual rows: c - A^T y - z_l - z_u = 0
    residual = problem.cost - np.bincount(rows.column, rows.value * y[rows.index],
                                          minlength=problem.num_cols)
    residual[has_l] -= z_l
    residual[has_u] -= z_u
    if (
        np.isnan(w).any() or (np.abs(residual) > tol).any()
        or (y[: rows.n_ub] > tol).any() or (z_l < -tol).any() or (z_u > tol).any()
    ):
        raise SolverError(f"the dual-form solve's dual point is outside its constraints "
                          f"by more than {tol:.2e}")
    dual = float(rows.rhs @ y + problem.lb[has_l] @ z_l + problem.ub[has_u] @ z_u)
    if not abs(objective - dual) <= GAP_TOL * max(1.0, abs(objective)):
        raise SolverError(f"the dual-form solve's objectives {objective!r} and {dual!r} "
                          f"differ by more than {GAP_TOL:g} relative")
    return Solution(SolveStatus.OPTIMAL, x=x, col_names=problem.col_names,
                    objective=objective, dual_objective=dual, **counts)


class _HighsNodes:
    """Node relaxations of one binary program, warm on one HiGHS object.

    The relaxation is passed once, in ``_highs_lp``'s rows, and solved by
    dual simplex with presolve off. A node sets its fixings with
    ``changeColsBounds`` on the binary columns; HiGHS keeps the basis of its
    last solve, which a bound change leaves dual feasible, and starts the
    node's dual simplex from it. A node whose parent was not the last solve
    (a node popped from the heap, or the dive child after the primal probe)
    first gets its parent's basis back through ``setBasis``.

    HiGHS measures ``time_limit`` on the object's run clock, which keeps
    counting across ``run()`` calls, so each node's limit is that clock's
    reading plus the seconds left.
    """

    def __init__(self, base: LpProblem, binaries: np.ndarray, remaining) -> None:
        h = self.h = _highs_core()
        self.remaining, self.col_names = remaining, base.col_names
        self.cols = binaries.astype(np.int32)
        self.lb, self.ub = base.lb[binaries], base.ub[binaries]
        self.highs = h._Highs()
        self.highs.passOptions(_highs_options(h, presolve=False, log=False))
        self.highs.passModel(_highs_lp(h, base, _highs_rows(base)))
        self.held = None  # the basis the object holds, as its last solve returned it

    def solve(self, fixings: dict[int, int], start) -> tuple[Solution, object]:
        """Solve a node from ``start``, its parent's basis; None is the root.

        Returns the node's solution and its final basis (None without one).
        """
        t0 = time.perf_counter()
        h, highs = self.h, self.highs
        lb, ub = self.lb.copy(), self.ub.copy()
        at = np.searchsorted(self.cols, list(fixings))  # the binary columns ascend
        lb[at] = ub[at] = list(fixings.values())
        highs.changeColsBounds(self.cols.size, self.cols, lb, ub)
        if start is not None and start is not self.held:
            highs.setBasis(start)
        left = self.remaining()
        if left is not None:
            highs.setOptionValue("time_limit", highs.getRunTime() + left)
        ran = highs.run() != h.HighsStatus.kError
        info = highs.getInfo()
        counts = {"iterations": int(info.simplex_iteration_count) if ran else 0,
                  "wall_time": time.perf_counter() - t0, "engine": "highs", "method": "ds"}
        self.held = None
        stopped = _no_point(h, highs, highs.getModelStatus(), ran, counts)
        if stopped is not None:
            return stopped, None
        self.held = highs.getBasis()
        sol = Solution(SolveStatus.OPTIMAL, x=np.array(highs.getSolution().col_value),
                       col_names=self.col_names, objective=float(info.objective_function_value),
                       **counts)
        return sol, self.held


# ---------------------------------------------------------------------------
# bundled revised simplex


@dataclass
class _StdForm:
    """min c.t  s.t.  A t = b, t >= 0, with bookkeeping to map back.

    User variable j is x = shift[j] plus sign * t[col] / scale for each of
    its pieces: ``unpiece`` holds, for the first and the second piece, the
    mask of the variables that have one and the piece's columns, signs and
    column scales. Fixed variables have no pieces and ``shift`` holds their
    value. Row ``slack_rows[i]`` has its slack in column ``slack_cols[i]``.
    ``order`` lists the fixed variables first, then the others: the order in
    which a solution sums its objective, with the variables' ``costs`` in
    that order. ``offset`` is the objective at t = 0.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    offset: float
    problem: LpProblem
    fixed: np.ndarray
    shift: np.ndarray
    slack_rows: np.ndarray
    slack_cols: np.ndarray
    unpiece: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    order: np.ndarray
    costs: list[float]


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
    # columns when every variable is fixed and every row is an equation.
    # The reciprocal of a power of two is exact, so multiplying by it gives
    # the bits that dividing by the scale gives
    row_scale, col_scale = np.ones(m), np.ones(A.shape[1])
    if A.size:
        mags = np.max(np.abs(A), axis=1)
        row_scale = np.where(mags > 0, np.exp2(np.round(np.log2(np.where(mags > 0, mags, 1.0)))), 1.0)
        A *= (1.0 / row_scale)[:, None]
        mags = np.max(np.abs(A), axis=0)
        col_scale = np.where(mags > 0, np.exp2(np.round(np.log2(np.where(mags > 0, mags, 1.0)))), 1.0)
        # scaled variable t' = col_scale * t, so costs divide by the scale
        col_inv = 1.0 / col_scale
        A *= col_inv[None, :]
        c = c * col_inv

    unpiece = []
    for k in (0, 1):
        has = piece[:, k] >= 0
        j = piece[has, k]
        unpiece.append((has, j, piece_sign[has, k], col_scale[j]))
    order = np.concatenate([np.flatnonzero(fixed), np.flatnonzero(~fixed)])

    # the bounds move into b: each column is shifted to its bound
    shift = np.where(fixed | lower, lb, np.where(upper, ub, 0.0))
    terms = np.where(infeasible | free, 0.0, cost * shift)
    b = np.concatenate([problem.rhs, ub[bounded], np.ones(int(infeasible.any()))])
    np.subtract.at(b, rows, vals * shift[cols])
    b /= row_scale
    return _StdForm(
        A=A, b=b, c=c,
        # added one by one from 0.0, in column order; sum() compensates
        # float sums from Python 3.12 on, which could move the last bit
        offset=reduce(operator.add, terms.tolist(), 0.0),
        problem=problem, fixed=fixed, shift=shift,
        slack_rows=slack_rows, slack_cols=slack_cols, unpiece=unpiece,
        order=order, costs=cost[order].tolist(),
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
        self.updates = 0  # rank-1 updates of binv since it was last refactored
        self.refactors = 0  # dense inverses computed
        self.drifted = False  # a pivot entry was found to be drift

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
        exceeds ``PIVOT_TOL``. Leaves ``binv`` as it is."""
        try:
            fresh = np.linalg.solve(self.A[:, self.basis], self.A[:, j])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis") from exc
        return bool(fresh[r] > PIVOT_TOL)

    def xb(self) -> np.ndarray:
        return self.binv @ self.b if self.m else np.zeros(0)

    def _stopped(self) -> bool:
        return self.iterations >= self.limit or (
            self.deadline is not None and time.perf_counter() > self.deadline
        )

    def _pivot(self, r: int, j: int, d: np.ndarray) -> None:
        """Column ``j`` (``d`` = B^-1 A_j) replaces the basic column of row ``r``.

        Row ``r`` of the inverse is divided by the pivot, then ``d[k]`` times
        it is subtracted from every other row ``k``. Only the columns where
        that row is nonzero are touched: elsewhere the update subtracts a
        zero and leaves the value as it is. ``d`` is overwritten.
        """
        self.basis[r] = j
        row = self.binv[r]
        row /= d[r]
        d[r] = 0.0
        nz = row.nonzero()[0]
        # those columns as rows of the transpose: each runs along all m rows
        self.binv.T[nz] -= row[nz, None] * d
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
        skipped set only grows, so Bland's rule cannot cycle. A pivot entry
        below ``SMALL_PIVOT`` from an updated inverse is solved again from
        the basis; if it is drift there, pivoting on it would make the basis
        singular, so the inverse is refactored and the columns priced again.
        Past the iteration limit or the deadline it returns "iteration_limit".

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
                j = int((reduced < -OPT_TOL).argmax())  # Bland: smallest eligible index
            else:
                j = int(reduced.argmin())
            if not reduced[j] < -OPT_TOL:
                return "optimal"
            d = self.binv @ self.A[:, j]
            pos = (d > PIVOT_TOL).nonzero()[0]
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
            ratios = (self.binv @ self.b)[pos] / d[pos]
            best = float(ratios.min())
            ties = pos[ratios <= best + 1e-12]
            r = int(ties[0] if ties.size == 1 else ties[self.basis[ties].argmin()])
            if d[r] < SMALL_PIVOT and self.updates and not self._real_entry(r, j):
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
            if self.log and self.iterations % 200 == 0:
                logger.info("[simplex] iter=%d", self.iterations)

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
        # an inverse that drifted once may have drifted again: the point
        # is read from a fresh one
        if self.drifted and self.updates:
            self._refactor()
        return SolveStatus.OPTIMAL, True

    def artificial_value(self) -> float:
        xb = self.xb()
        return float(np.sum(xb[self.basis >= self.n_real]))

    def solution(
        self, status: SolveStatus, with_values: bool, std: _StdForm, t0: float
    ) -> Solution:
        """The point of the current basis in ``std.problem``'s variables."""
        wall = time.perf_counter() - t0
        if not with_values:
            return Solution(status, iterations=self.iterations, wall_time=wall,
                            engine="simplex", refactors=self.refactors)
        xb = np.maximum(self.xb(), 0.0)
        t = np.zeros(self.A.shape[1])
        t[self.basis] = xb
        pieces = np.zeros(std.shift.size)
        for has, j, sign, scale in std.unpiece:
            pieces[has] += sign * t[j] / scale
        x = np.where(std.fixed, std.shift, std.shift + pieces)
        obj = sum(map(operator.mul, std.costs, x[std.order].tolist()))
        y = self.c[self.basis] @ self.binv if self.m else np.zeros(0)
        dual = float(y @ self.b) + std.offset if self.m else std.offset
        return Solution(
            status,
            x=x, col_names=std.problem.col_names,
            objective=float(obj),
            iterations=self.iterations,
            wall_time=wall,
            dual_objective=dual,
            engine="simplex",
            refactors=self.refactors,
        )


def _iteration_limit(std: _StdForm) -> int:
    m, n_cols = std.A.shape
    return max(2000, 50 * (m + n_cols))


def _solve_simplex(
    problem: LpProblem,
    iteration_limit: int | None,
    log: bool,
    time_limit: float | None = None,
) -> Solution:
    t0 = time.perf_counter()
    std = _standardize(problem)
    sx = _Simplex(std, iteration_limit or _iteration_limit(std), log,
                  t0 + time_limit if time_limit else None)
    return sx.solution(*sx.two_phase(), std, t0)
