"""LP and binary-ILP solving for the cartogram models.

The bundled engine is a two-phase primal revised simplex on a dense basis
inverse: equilibration, Dantzig pricing with a Bland fallback after a
degenerate streak, periodic refactorization. It starts from a basis of unit
columns (artificials, and slacks that the power-of-two scaling leaves at
exactly +1), so the starting inverse is the identity and needs no
factorization. Integer problems are solved by branch and bound over the
binary variables, best-first on the relaxation bound with deeper nodes
preferred on ties. With ``log=True`` both report progress through this
module's logger at INFO level; HiGHS's own log goes there too, through its
logging callback, and nothing is printed to stdout.

A ``Solution`` carries its point as ``x``, a float array in the problem's
``col_names`` order: HiGHS's column vector as it comes, or the bundled
simplex's point mapped back from its standard form. Branch and bound keys
its fixings by column index and reads ``x`` at the binary columns.
``Solution.values`` is a read-only view by column name, built on first
read, for callers that name columns.

A primal pivot prices every column (``y = c_B @ binv``, then ``y @ A``),
computes the entering column ``binv @ A[:, j]`` and the basic values
``binv @ b`` for the ratio test, and updates ``binv`` in place. A dual pivot
takes the leaving row from ``binv @ b``, its entries ``binv[r] @ A`` and the
candidates' reduced costs ``y @ A[:, cand]``. The update touches only the
columns where the normalised pivot row is nonzero (10.2 of m = 99.5 on
average on ``exact``); every other entry would have a zero subtracted from
it. Each of those BLAS products is computed whole, on the operands named
here: a product on a slice of ``A``, or a slice of a product, can differ in
its last bits (``y @ A[:, :n]`` against ``(y @ A)[:n]`` did in 2 078 of
3 000 random Gaussian cases with m from 40 to 180, on one OpenBLAS thread),
and a last bit can move a tie-break and with it a pivot. ``tests/oracle_bundled.py`` keeps a frozen copy of this
solver, and the property tests require the same pivots, nodes and floats.

On the bundled engine the search is incremental. The binary program is
standardized once, with its binaries kept as columns, so fixing a binary
changes only the right-hand side. The root relaxation is solved by the
two-phase primal simplex; every other node starts from its parent's optimal
basis, which stays dual feasible, and a dense dual simplex restores primal
feasibility (a row with no entering column proves the node infeasible).
A node the warm start cannot finish cleanly is solved cold. On the CNT
ILPs of the ``exact`` benchmark this cut the pivots per pass from 36 421
to about 6 100. HiGHS re-solves each node cold. Either way the search ends
by fixing all of the incumbent's binaries and solving that LP cold, so a
CNT layout depends on its binaries only, not on the path of the search.

A warm-started node inherits its parent's basis inverse instead of
computing one. The dive child updates it in place; the sibling pushed on the
best-bound heap keeps a copy, taken before the dive, with the count of
pivots that updated it since its last refactor (which sets the dual
simplex's refactor cadence). Copying m x m floats costs microseconds,
inverting them milliseconds. The copies the heap holds are capped at
``HEAP_INVERSE_BYTES``; an entry pushed past the cap keeps only its basic
columns and refactors when it is popped, as does the child of a node that
was solved cold. On ``exact`` the heap holds at most 22 entries of
m <= 98, about 1.7 MB, and the dense inverses per pass fell from 290 to 21.

Known limit: asked for explicitly past ``AUTO_SIMPLEX_MAX_ROWS``, the
bundled simplex drifts numerically and can raise ``SolverError("singular
basis")``, as on jittered 4x4 ``TOP-S`` LPs (474 rows). On an LP with tied
optima its vertex can also depend on the number of OpenBLAS threads
(``exact`` grid3x3s4 ``TOP-S-SU`` ended on different vertices on one thread
and on two). ``engine="auto"`` gives it only binary programs of up to
``AUTO_SIMPLEX_MAX_ROWS`` rows.

Both engines sit behind one interface and can be asked for with
``engine=``. ``engine="auto"`` solves every LP on HiGHS, and binary
programs up to ``AUTO_SIMPLEX_MAX_ROWS`` rows by the bundled warm search,
larger ones by HiGHS. Through the compiled core HiGHS is faster on the
smallest cartogram LPs too: summed over the 12 grid LPs of ``exact``
(110-144 rows, best of 5 solves each, one BLAS thread, two passes), 28-29 ms
against 200-204 ms for the bundled simplex, and over the 12 LPs of
``sample3`` and ``luxembourg`` (26-64 rows) 16-17 ms against 26-28 ms. On
the small binary programs the warm search is faster than either HiGHS
route (ROADMAP item 4).
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
takes 0.10-0.15 s. HiGHS runs dual simplex below
``HIGHS_IPM_MIN_ROWS`` rows and interior point with crossover from there on.
The all-pairs direction terms make the cartogram LPs grow as n^2, and on
those LPs dual simplex pivots through long degenerate stretches: the jittered
100-region TOP-S model (7 179 rows) took 8 955 pivots and 2.3 s, interior
point 22 iterations and 0.55 s, on one core. On jittered grid models (TOP-S,
k = 1, seeds 0-2, median of 7 solves) dual simplex won 5 of the 6 models of
608 to 739 rows (by up to 16%), the two were within 10% from 799 to 930 rows,
and interior point won every model from 1 088 rows on (9-36% faster up to
1 507 rows, about twice as fast at 2 511). The threshold sits in the gap
between the last two. Crossover ends interior point at a basic optimal
solution, so large LPs still decode from a vertex like small ones do. On the
interior-point path ``iterations`` counts interior-point iterations, not
pivots; the crossover's pivots are ``crossover_nit``.
"""

from __future__ import annotations

import copy
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

# engine="auto" keeps binary programs up to this many rows on the bundled
# warm branch and bound; every LP, and larger binary programs, go to HiGHS
AUTO_SIMPLEX_MAX_ROWS = 220
# HiGHS solves LPs with at least this many rows by interior point + crossover,
# smaller ones by dual simplex (see the module docstring for the measurements)
HIGHS_IPM_MIN_ROWS = 1000

FEAS_TOL = 1e-7  # absolute, on the scaled constraints
OPT_TOL = 1e-9  # reduced-cost optimality threshold
INT_TOL = 1e-6  # integrality threshold for binaries
PIVOT_TOL = 1e-9
# a chosen pivot below this is checked against the basis itself: from an
# updated inverse it can be drift, which pivots onto a singular basis
SMALL_PIVOT = 1e-7
DEGENERATE_STREAK = 30  # degenerate pivots before switching to Bland's rule
REFACTOR_EVERY = 100
# bytes of basis inverses the branch-and-bound heap may hold; a sibling
# pushed past this keeps only its basic columns and is refactored when popped
HEAP_INVERSE_BYTES = 8 << 20


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
    method: str = ""  # HiGHS method: "ipm" (interior point) or "ds" (dual simplex)
    crossover_nit: int = 0  # crossover pivots after interior point
    engine_reason: str = ""  # "explicit", or the auto rule: "auto: LP", "auto: 96 rows <= 220"
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

    ``iteration_limit`` caps the pivots on either engine (on HiGHS also the
    interior-point iterations); a solve that reaches it, or ``time_limit``,
    ends with ITERATION_LIMIT.
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
    On the bundled simplex the node relaxations are warm started (see
    ``_WarmNodes``) and the incumbent's LP, all binaries fixed, is solved
    cold at the end.
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
    if engine == "simplex":
        relax: _WarmNodes | _ColdNodes = _WarmNodes(base, problem.binary, deadline)
    else:
        relax = _ColdNodes(base, engine, remaining)

    incumbent: Solution | None = None
    nodes = 0
    total_iters = 0
    total_crossover = 0
    total_refactors = 0
    root_iters: int | None = None  # pivots spent before the first branch
    # dive depth-first along the rounding of the current relaxation; the
    # sibling of every dive step waits in a best-bound heap for restarts.
    # Each entry carries the basis its relaxation starts from (None: cold);
    # ``held`` counts the bytes of the inverses kept by heap entries
    heap: list[tuple[float, int, dict[int, int], _Basis | None]] = []
    stack: list[tuple[float, dict[int, int], _Basis | None]] = [(-INF, {}, None)]
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
        if nodes >= node_limit or (deadline and time.perf_counter() > deadline):
            exhausted = False
            break
        nodes += 1
        rel, basis = relax.solve(fixings, start)
        total_iters += rel.iterations
        total_crossover += rel.crossover_nit
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
            probe, _ = relax.solve(probe_fix, None if basis is None else basis.copy())
            total_iters += probe.iterations
            total_crossover += probe.crossover_nit
            total_refactors += probe.refactors
            if probe.status is SolveStatus.OPTIMAL:
                incumbent = _rounded(probe, binaries)
                if log:
                    logger.info("[bnb] probe incumbent obj=%.6g", probe.objective)
        if root_iters is None:
            root_iters = total_iters
        prefer = 1 if vals[frac] >= 0.5 else 0
        seq += 1
        sibling = _sibling_basis(basis, held)
        if sibling is not None and sibling.binv is not None:
            held += sibling.binv.nbytes
        heapq.heappush(heap, (rel.objective, seq, {**fixings, frac_col: 1 - prefer}, sibling))
        stack.append((rel.objective, {**fixings, frac_col: prefer}, basis))

    root_iters = total_iters if root_iters is None else root_iters
    if incumbent is not None:
        # the layout comes from the incumbent's binaries alone, not from the
        # basis the search reached them with: fix them all and solve cold
        fixed = dict(zip(binaries.tolist(), incumbent.x[binaries].astype(int).tolist()))
        final = _dispatch(_with_fixings(base, fixed), engine, None, False, remaining())
        total_iters += final.iterations
        total_crossover += final.crossover_nit
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
        crossover_nit=total_crossover,
        **counts,
    )


def _rounded(rel: Solution, binaries: np.ndarray) -> Solution:
    """An integral relaxation as an incumbent, its binary columns rounded in place."""
    rel.x[binaries] = np.where(rel.x[binaries] > 0.5, 1.0, 0.0)
    return rel


def _fixed_bounds(
    base: LpProblem, fixings: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds of ``base`` with every fixed binary column pinned to its value."""
    lb, ub = base.lb.copy(), base.ub.copy()
    lb[list(fixings)] = ub[list(fixings)] = list(fixings.values())
    return lb, ub


def _with_fixings(base: LpProblem, fixings: dict[int, int]) -> LpProblem:
    return base.with_bounds(*_fixed_bounds(base, fixings)) if fixings else base


class _ColdNodes:
    """Node relaxations solved from scratch, one LP per node (HiGHS)."""

    def __init__(self, base: LpProblem, engine: str, remaining) -> None:
        self.base, self.engine, self.remaining = base, engine, remaining

    def solve(self, fixings: dict[int, int], start: None) -> tuple[Solution, None]:
        sol = _dispatch(
            _with_fixings(self.base, fixings), self.engine, None, False, self.remaining()
        )
        return sol, None


def _choose_engine(problem: LpProblem, engine: str) -> tuple[str, str]:
    """The engine that solves ``problem`` and why, as the manifest records it."""
    if engine in ("simplex", "highs"):
        return engine, "explicit"
    if engine != "auto":
        raise SolverError(f"unknown engine {engine!r}")
    if not problem.num_binaries:
        return "highs", "auto: LP"
    rows = problem.num_rows
    if rows <= AUTO_SIMPLEX_MAX_ROWS:
        return "simplex", f"auto: {rows} rows <= {AUTO_SIMPLEX_MAX_ROWS}"
    return "highs", f"auto: {rows} rows > {AUTO_SIMPLEX_MAX_ROWS}"


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


def _solve_highs(
    problem: LpProblem,
    log: bool,
    time_limit: float | None = None,
    iteration_limit: int | None = None,
) -> Solution:
    """Solve ``problem`` with HiGHS, handed the model as ``linprog`` hands it.

    The ">=" rows are flipped into "<=" rows, and all "<=" rows come first,
    in model order, then the "=" rows as ``lhs = rhs``: the row order steers
    interior point's path. The options are ``linprog``'s, and so are the
    status mapping and the final feasibility check of an optimal point. A
    non-finite cost, coefficient or right-hand side raises ``SolverError``
    (``linprog`` refused them too).
    """
    h = _highs_core()
    t0 = time.perf_counter()
    n, m = problem.num_cols, problem.num_rows
    sense, row, col = problem.sense, problem.row, problem.col
    if not all(np.isfinite(a).all() for a in (problem.cost, problem.val, problem.rhs)):
        raise SolverError("HiGHS input holds a non-finite cost, coefficient or right-hand side")
    sign = np.where(sense == GE, -1.0, 1.0)  # ">=" rows flip into "<=" rows
    val, rhs = problem.val * sign[row], problem.rhs * sign
    eq = sense == EQ
    n_ub = m - int(eq.sum())
    order = np.argsort(eq, kind="stable")  # new row -> model row
    renumber = np.empty(m, dtype=np.int64)
    renumber[order] = np.arange(m)
    rhs = rhs[order]
    lhs = rhs.copy()
    lhs[:n_ub] = -INF  # HiGHS's infinity is IEEE inf

    # compressed columns, rows ascending within a column, duplicates summed
    new_row = renumber[row]
    by_col = np.lexsort((new_row, col))
    index, column, value = new_row[by_col], col[by_col], val[by_col]
    first = np.ones(index.size, dtype=bool)
    first[1:] = (index[1:] != index[:-1]) | (column[1:] != column[:-1])
    if not first.all():
        starts = np.flatnonzero(first)
        index, column, value = index[starts], column[starts], np.add.reduceat(value, starts)
    start = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(column, minlength=n), out=start[1:])

    lp = h.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = m
    lp.a_matrix_.format_ = h.MatrixFormat.kColwise
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = problem.cost, problem.lb, problem.ub
    lp.row_lower_, lp.row_upper_ = lhs, rhs
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = start, index, value

    method = "ipm" if m >= HIGHS_IPM_MIN_ROWS else "ds"
    options = h.HighsOptions()
    options.presolve = "on"
    options.solver = "ipm" if method == "ipm" else "simplex"
    options.simplex_strategy = int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = int(h.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = options.log_to_console = bool(log)
    if time_limit:
        options.time_limit = float(time_limit)
    if iteration_limit is not None:
        options.simplex_iteration_limit = options.ipm_iteration_limit = int(iteration_limit)

    highs, error, status_of = h._Highs(), h.HighsStatus.kError, h.HighsModelStatus
    if log:
        # with a logging callback HiGHS hands it each log line and prints
        # nothing; it still logs only while log_to_console is on
        highs.setCallback(_log_highs_line, None)
        highs.startCallback(h.cb.HighsCallbackType.kCallbackLogging)
    info = None
    if highs.passOptions(options) == error:
        status = highs.getModelStatus()
    elif highs.passModel(lp) == error:
        status = status_of.kModelError
    elif highs.run() == error:
        status = highs.getModelStatus()
    else:
        status = highs.getModelStatus()
        info = highs.getInfo()
    counts = {
        "iterations": int(info.simplex_iteration_count or info.ipm_iteration_count)
        if info else 0,
        "crossover_nit": int(info.crossover_iteration_count) if info else 0,
        "wall_time": time.perf_counter() - t0,
        "engine": "highs",
        "method": method,
    }
    if status in (status_of.kInfeasible, status_of.kModelError):
        return Solution(SolveStatus.INFEASIBLE, **counts)
    if status == status_of.kUnbounded:
        return Solution(SolveStatus.UNBOUNDED, **counts)
    if status in (status_of.kTimeLimit, status_of.kIterationLimit):
        return Solution(SolveStatus.ITERATION_LIMIT, **counts)
    if status != status_of.kOptimal or info is None:
        raise SolverError(f"HiGHS failed: {highs.modelStatusToString(status)}")

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = info.objective_function_value
    residual = rhs - np.array(solution.row_value)
    # linprog's check of an optimal point: no NaN, and rows and bounds off
    # by at most 10 * sqrt(1e-9)
    tol = 10 * math.sqrt(1e-9)
    if (
        np.isnan(x).any() or math.isnan(objective) or np.isnan(residual).any()
        or not np.all((x >= problem.lb - tol) & (x <= problem.ub + tol))
        or (residual[:n_ub] < -tol).any() or (np.abs(residual[n_ub:]) > tol).any()
    ):
        raise SolverError(
            f"HiGHS returned an optimal point outside its constraints by more than {tol:.2e}"
        )
    # the dual objective as linprog's marginals give it: the "<=" rows, the
    # "=" rows, then each column's dual on the bound its basis status names
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
    that order. Only ``shift``, ``b``
    and ``offset`` depend on the column bounds; ``rebound`` recomputes them
    for new bounds.
    """

    A: np.ndarray
    c: np.ndarray
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
    unpiece: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    order: np.ndarray
    costs: list[float]
    b: np.ndarray = field(default_factory=lambda: np.zeros(0))
    shift: np.ndarray = field(default_factory=lambda: np.zeros(0))
    offset: float = 0.0

    def rebound(self, lb: np.ndarray, ub: np.ndarray) -> _StdForm:
        """The same form for new bounds on columns that keep their pieces.

        ``A``, ``c``, the pieces and the scaling are shared with this form;
        a column that is fixed here stays fixed at its new ``lb``.
        """
        shift = np.where(self.fixed | self.lower, lb, np.where(self.upper, ub, 0.0))
        terms = np.where((lb > ub) | self.free, 0.0, self.problem.cost * shift)
        rhs, bounded = self.problem.rhs, self.bounded
        extra = self.A.shape[0] - rhs.size - bounded.size  # the lb > ub row
        b = np.concatenate([rhs, ub[bounded], np.ones(extra)])
        np.subtract.at(b, self.rows, self.vals * shift[self.cols])
        b /= self.row_scale
        out = copy.copy(self)
        # added one by one from 0.0, in column order; sum() compensates
        # float sums from Python 3.12 on, which could move the last bit
        out.b, out.shift, out.offset = b, shift, reduce(operator.add, terms.tolist(), 0.0)
        return out


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
    std = _StdForm(
        A=A, c=c, fixed=fixed,
        col_scale=col_scale, slack_rows=slack_rows, slack_cols=slack_cols,
        problem=problem, lower=lower, upper=upper, free=free, bounded=bounded,
        rows=rows, cols=cols, vals=vals, row_scale=row_scale, unpiece=unpiece,
        order=order, costs=cost[order].tolist(),
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
    ``HEAP_INVERSE_BYTES``; past that only the columns, and the popped node
    refactors. The copy is taken before the dive child updates the inverse.
    """
    if basis is None:
        return None
    if basis.binv is None or held + basis.binv.nbytes > HEAP_INVERSE_BYTES:
        return _Basis(basis.cols)
    return basis.copy()


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
        exceeds ``PIVOT_TOL`` with the given sign. Leaves ``binv`` as it is."""
        try:
            fresh = np.linalg.solve(self.A[:, self.basis], self.A[:, j])
        except np.linalg.LinAlgError as exc:
            raise SolverError("singular basis") from exc
        return bool(sign * fresh[r] > PIVOT_TOL)

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
            ratios = (self.binv @ self.b)[pos] / d[pos]
            best = float(ratios.min())
            ties = pos[ratios <= best + 1e-12]
            r = int(ties[0] if ties.size == 1 else ties[self.basis[ties].argmin()])
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
            xb = self.binv @ self.b
            r = int(xb.argmin())
            if xb[r] >= -FEAS_TOL:
                return "feasible"
            alpha = self.binv[r] @ self.A
            # the real columns come first, the artificials after them
            cand = (alpha[: self.n_real] < -PIVOT_TOL).nonzero()[0]
            if cand.size == 0:
                return "infeasible"
            y = self.c[self.basis] @ self.binv
            reduced = np.maximum(self.c[cand] - y @ self.A[:, cand], 0.0)
            pivots = alpha[cand]
            ratios = reduced / -pivots
            tied = ratios <= float(ratios.min()) + 1e-12
            j = int(cand[tied][pivots[tied].argmin()])
            if -alpha[j] < SMALL_PIVOT and self.updates and not self._real_entry(r, j, -1.0):
                self.drifted = True
                self._refactor()
                continue
            self._pivot(r, j, self.binv @ self.A[:, j])
            self.iterations += 1
            if self.updates >= REFACTOR_EVERY:
                self._refactor()

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

    def __init__(
        self, base: LpProblem, binary: np.ndarray, deadline: float | None
    ) -> None:
        self.base = base
        self.root = _standardize(base, keep=binary)
        self.limit = _iteration_limit(self.root)
        self.deadline = deadline
        # the root's frame, whose row flips and artificials every node shares
        self.sx = _Simplex(self.root, self.limit, False, deadline)

    def relaxation(self, fixings: dict[int, int]) -> _StdForm:
        if not fixings:
            return self.root
        return self.root.rebound(*_fixed_bounds(self.base, fixings))

    def solve(
        self, fixings: dict[int, int], start: _Basis | None
    ) -> tuple[Solution, _Basis | None]:
        """Solve a node from ``start``, its parent's basis; None is the root.

        The inverse in ``start`` is updated in place, and the returned basis
        owns the inverse the node ends with (None when the node has none).
        """
        t0 = time.perf_counter()
        std, sx = self.relaxation(fixings), self.sx
        if start is None:
            sol = sx.solution(*sx.two_phase(), std, t0)
            return sol, _Basis(sx.basis.copy(), sx.binv, sx.updates)
        status = self._warm(std, start)
        if status == "optimal":
            sol = sx.solution(SolveStatus.OPTIMAL, True, std, t0)
            return sol, _Basis(sx.basis.copy(), sx.binv, sx.updates)
        if status == "infeasible":
            return sx.solution(SolveStatus.INFEASIBLE, False, std, t0), None
        if self.deadline is not None and time.perf_counter() > self.deadline:
            return sx.solution(SolveStatus.ITERATION_LIMIT, False, std, t0), None
        # the cold solve flips rows by its own b; its basis is refactored in
        # the root's frame when a child starts from it
        cold = _Simplex(std, self.limit, False, self.deadline)
        sol = cold.solution(*cold.two_phase(), std, t0)
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
