"""LP and binary-ILP solving for the cartogram models.

Every solve of the pipeline runs on HiGHS, reached through scipy's compiled
bindings. ``solve_lp(engine="simplex")`` runs the bundled reference LP
solver instead, a two-phase primal revised simplex on a dense basis
inverse, which the tests hold HiGHS against. With ``log=True`` both report
progress through this module's logger at INFO level; HiGHS's own log goes
there too, through its logging callback, and nothing is printed to stdout.

A ``Solution`` carries its point as ``x``, a float array in the problem's
``col_names`` order: HiGHS's column vector as it comes, or the bundled
simplex's point mapped back from its standard form. Branch and bound keys
its fixings by column index and reads ``x`` at the binary columns.
``Solution.values`` is a read-only view by column name, built on first
read, for callers that name columns.

Binary programs are solved on HiGHS only, by branch and bound over the
binary variables, best-first on the relaxation bound with deeper nodes
preferred on ties. Every node relaxation runs on one HiGHS object
(``_HighsNodes``): the relaxation is passed once, with presolve off, and a
node only changes the bounds of the binary columns and restarts dual
simplex from its parent's basis. The search ends by fixing all of the
incumbent's binaries on that object and solving that LP cold, with its
basis cleared and presolve on, so a CNT layout depends on its binaries
only, not on the path of the search. That run is bit for bit a new
object's solve of the fixed LP itself, at any size. Through ``cli.run``, on
one BLAS thread, the search took 0.51 s for the jittered 4x4 ``CNT-W-SU``
program (173 rows, 1 401 nodes).

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
0.8 MB of RSS per process). Every model reaches it the same way: as a
``_Model``, the arrays ``passModel`` takes, on an object ``_highs_object``
sets up, run by ``_run``, which sets the time limit on the object's run
clock and maps the model status. ``_highs_lp`` builds an LP's ``_Model``
as ``linprog`` handed it over: the same rows in the same order, with the
same options, so the solves are the same, and ``tests/oracle_highs.py``
keeps the ``linprog`` path to check that. The Python layers above the
extension cost more than most solves: in a fresh process after
``import demers.cli``, on one BLAS thread,
``import scipy.sparse`` took 0.18-0.22 s and ``import scipy.optimize`` with
it 0.45-0.58 s and 44 MB of RSS, and the first ``linprog`` call on the 7x7
``ladder`` model took 0.63-0.69 s against 0.12 s for later calls. The
extension alone loads in 0.02 s and 4.7 MB, and its first solve of that model
takes 0.10-0.15 s. Every model goes in through the array form of
``passModel`` (``_pass_model``): building a ``HighsLp`` attribute by
attribute converts each array to a ``std::vector``, which took 3.8 ms for
the dual of the 100-region ``ladder`` LP against 0.42 ms for the arrays
(median of 15, one BLAS thread), with the same pivots after.

HiGHS runs dual simplex. An LP of fewer than ``HIGHS_DUAL_FORM_MIN_ROWS``
(250) rows goes in as it is, with presolve on. A larger one goes in as the
dual of its merged form (``_solve_dual_form``), fully reduced, with
presolve off: one column per row, one unit column per finite bound of a
kept column, and one equality row per kept column. The
all-pairs direction terms make the cartogram LPs grow as n^2, one "=" row
``expr - dp + dm = 0`` and two nonnegative columns per region pair. Each
of those columns lies in that row only, so its dual row ``a y_r + z_l = c``
with ``z_l >= 0`` only says ``a y_r <= c``. ``_dual_lp`` folds it into a
bound on the row's dual column y_r, ``c / a`` from above for ``a > 0`` and
from below for ``a < 0``, and gives it no dual row and no unit column: the
column-singleton reduction of Andersen & Andersen ("Presolving in linear
programming", Math. Programming 71, 1995), done once while the dual is
built. A column is folded when it has one entry, in an "=" row, ``lb == 0``
and ``ub == inf``, and no earlier column was folded on its coefficient's
side of that row (``_folding``). The dual of the jittered 400-region
TOP-S-SU LP (96 697 rows) then has 2 320 rows, where HiGHS's presolve had
to fold 159 600 rows itself. The LP's point is the negated row duals of
the dual solve; a folded column j of row r is ``max(0, -d_r / a_j)``, where
d_r is the reduced cost of y_r, nonzero only when y_r sits on a folded
bound. It comes with a checked certificate (see ``_solve_dual_form``).

ORG's displacement and the SU, CO and IT stability terms are L1 distances:
one column p >= 0 with cost w in two "<=" rows ``a x - c p <= t`` and
``-a x - c p <= -t``, which say ``c p >= |a x - t|`` (an L1 pair,
``_l1_pairs``). Before the dual is built, ``_merged`` writes each pair as
one "=" row ``a x - c p + c m = t`` with a new column m >= 0 of cost w. p
and m are then column singletons of that row, so the fold turns them into
the bounds ``[-w/c, w/c]`` of its dual column u: the pair's two dual
columns, p's dual row and p's unit column become one bounded column, and
the LP's p is ``p + m``. (In the LP's own dual, u is ``min(u, 0)`` on the
first row and ``min(-u, 0)`` on the second.) With both reductions made,
HiGHS's presolve has little left to remove: on the folded 7x7 TOP-S-SU
dual (266 rows) it found only the 2 dependent rows of the translation
freedom, then postsolved and solved the LP again from the postsolved
basis, and on the unmerged 7x7 k = 2 ORG-W-SU dual it removed 336 of 826
rows. So the dual goes in with presolve off.

Through ``cli.run``, on one BLAS thread (median of 3, jittered grids, seed
0), the dual form solved the TOP-S-SU LPs of 100 regions (7 179 rows),
196 regions (25 057 rows) and 400 regions (96 697 rows) in 0.034, 0.36 and
0.99 s, against 0.059, 0.46 and 1.46 s with presolve on and without the
merge; peak RSS at 400 regions fell from 240 to 167 MB. The merge pays
most on the coupled LPs: at 100 regions and k = 4, ORG-W-SU (28 312 rows,
1 400 pairs merged) fell from 2.40 to 0.21 s, TOP-S-SU from 0.55 to 0.24 s,
and at 49 regions ORG-S-CO from 0.090 to 0.068 s. Presolve off without the
merge made both ORG LPs slower: 2.35-2.48 -> 3.29-3.71 s and 0.081-0.091
-> 0.154-0.162 s (two runs of 3), so the two go together. Dual simplex on the
100-region TOP-S-SU LP itself took 1.9 s. The threshold is where the dual
form started to win, measured with presolve on and before the merge: on
the jittered 3x3 to 5x5 grids' TOP and ORG LPs, weak and strong,
seeds 0-2 (median of 15 solves, one BLAS thread), the LP itself took
0.75-1.02 times as long as its dual form at 120-158 rows, 1.09-1.84 times
as long at 336-418 rows (0.85 on one 418-row ORG draw) and 1.10-4.1 times
as long at 760-932 rows. Every LP of the ``exact`` benchmark and of the
``lp_layout_*`` goldens has at most 144 rows and goes in as it is. A CNT
program's final LP has no direction terms to fold and is solved as itself
on the search's object at any size.
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
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, reduce
from types import MappingProxyType

import numpy as np

from . import notices
from .lpmodel import EQ, GE, LE, LpProblem

INF = math.inf

# progress lines ("[bnb] ...", "[simplex] ...", and HiGHS's own log as
# "[highs] ..."), emitted at INFO when a solve is called with log=True;
# ``demers run --solver-log`` prints them on stderr
logger = logging.getLogger(__name__)

# HiGHS solves LPs with at least this many rows as their dual, smaller ones
# as they are (see the module docstring for the measurements)
HIGHS_DUAL_FORM_MIN_ROWS = 250

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
    root_iterations: int = 0  # branch and bound: pivots before the first branch
    # branch and bound: how the incumbent's final LP ended (None without one);
    # short of OPTIMAL, the point is the node relaxation's that found it
    final_status: SolveStatus | None = None
    # dual form: the dual HiGHS was handed, as ``dual_rows``, ``dual_cols``,
    # ``folded`` (the columns folded into bounds) and ``merged`` (the L1
    # pairs merged into one row each), and ``dual_status``, how its solve
    # ended: "optimal", or what sent the LP to its own solve
    dual_form: dict | None = None
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
    engine: str = "highs",
    time_limit: float | None = None,
    log: bool = False,
) -> Solution:
    """Solve a continuous LP to optimality (or detect infeasible/unbounded).

    ``engine`` is ``"highs"`` or ``"simplex"``, the bundled reference
    solver. A solve that reaches ``time_limit`` ends with ITERATION_LIMIT.
    """
    if problem.num_binaries:
        raise SolverError("problem has binary variables; use solve_ilp")
    if engine == "highs":
        return _solve_highs(problem, log, time_limit)
    if engine == "simplex":
        return _solve_simplex(problem, log=log, time_limit=time_limit)
    raise SolverError(f"unknown engine {engine!r}")


def solve_ilp(
    problem: LpProblem,
    node_limit: int = 100_000,
    time_limit: float | None = None,
    log: bool = False,
) -> Solution:
    """Branch and bound over the binary variables of the problem.

    Nodes are explored best-first on the parent relaxation bound, deeper
    nodes first on ties, branching on the most fractional binary. Hitting
    the node limit or ``time_limit`` returns the incumbent with status
    NODE_LIMIT; every relaxation is given what is left of ``time_limit``.
    Branching stops while twice the time the search took up to the end of
    its root relaxation is still left, and the final LP is given that much
    or what is left, whichever is more, so a search cut by its time limit
    still ends with the final LP's optimum. A final LP that ends without
    one leaves the incumbent's node point in place; ``final_status`` says
    how it ended, and a notice (``notices.warn``) says so too.
    The node relaxations are warm started on one HiGHS object, and the
    incumbent's LP, all binaries fixed, is solved cold on that object at the
    end (see ``_HighsNodes``). A problem without binaries is one LP on HiGHS.
    """
    if not problem.num_binaries:
        return _solve_highs(problem, log, time_limit)
    binaries = np.flatnonzero(problem.binary)  # fixings are keyed by these columns
    t0 = time.perf_counter()
    deadline = t0 + time_limit if time_limit else None

    def remaining() -> float | None:
        # a positive floor: a zero limit would read as no limit at all
        return max(deadline - time.perf_counter(), 1e-3) if deadline else None

    relax = _HighsNodes(problem, binaries, remaining)

    incumbent: Solution | None = None
    nodes = 0
    total_iters = 0
    root_iters: int | None = None  # pivots spent before the first branch
    # kept for the final LP: twice the time from the start to the end of the
    # root relaxation, a cold solve of the relaxation with its set-up.
    # Twice, as the final LP, cold with presolve on, ran for 0.47-1.08 times
    # that long on jittered 5x5 CNT programs. Branching stops once less than
    # this is left of ``time_limit``
    reserve = 0.0
    # dive depth-first along the rounding of the current relaxation; the
    # sibling of every dive step waits in a best-bound heap for restarts.
    # Each entry carries the basis its relaxation starts from (None: a
    # cold start)
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
            reserve = 2 * (time.perf_counter() - t0)
        total_iters += rel.iterations
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
    final_status = None
    if incumbent is not None:
        # the layout comes from the incumbent's binaries alone, not from the
        # basis the search reached them with: fix them all and solve cold
        final = relax.final(incumbent.x[binaries],
                            max(remaining(), reserve) if deadline else None)
        total_iters += final.iterations
        final_status = final.status
        if final.status is SolveStatus.OPTIMAL:
            incumbent = _rounded(final, binaries)
        else:
            notices.warn(f"final LP of a binary program ended {final.status.value}; "
                         "the point is its incumbent node's relaxation", stacklevel=2)
    counts = {"nodes": nodes, "engine": "highs", "root_iterations": root_iters,
              "iterations": total_iters, "wall_time": time.perf_counter() - t0}
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
        final_status=final_status,
        **counts,
    )


def _rounded(rel: Solution, binaries: np.ndarray) -> Solution:
    """An integral relaxation as an incumbent, its binary columns rounded in place."""
    rel.x[binaries] = np.where(rel.x[binaries] > 0.5, 1.0, 0.0)
    return rel


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


def _starts(column: np.ndarray, n: int) -> np.ndarray:
    """Where each of ``n`` columns starts in entries sorted by ``column``,
    and where the last one ends."""
    start = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(column, minlength=n), out=start[1:])
    return start


@dataclass(frozen=True)
class _Model:
    """An LP as the arrays HiGHS's ``passModel`` takes: column costs and
    bounds, row bounds, and the matrix in compressed columns (``start`` as
    ``_starts`` gives it). Its "<=" rows, with no lower bound (HiGHS's
    infinity is IEEE inf), come before its "=" rows, whose two bounds are
    equal."""

    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    row_lower: np.ndarray
    row_upper: np.ndarray
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray

    @property
    def n_le(self) -> int:
        """The number of "<=" rows."""
        return int(np.count_nonzero(self.row_lower == -INF))

    def column(self) -> np.ndarray:
        """Each matrix entry's column."""
        return np.repeat(np.arange(self.cost.size), np.diff(self.start))


def _pass_model(h, highs, model: _Model):
    """Hand ``model`` to ``highs`` as arrays, a minimisation without an
    offset or integer columns; returns HiGHS's status."""
    n = model.cost.size
    return highs.passModel(
        n, model.row_upper.size, model.index.size, int(h.MatrixFormat.kColwise),
        int(h.ObjSense.kMinimize), 0.0, model.cost, model.lower, model.upper,
        model.row_lower, model.row_upper, model.start[:-1], model.index, model.value,
        np.zeros(n, dtype=np.int32),
    )


def _highs_lp(problem: LpProblem) -> _Model:
    """``problem`` as ``linprog`` hands it to HiGHS.

    The ">=" rows are flipped into "<=" rows, and all "<=" rows come first,
    in model order, then the "=" rows. A non-finite cost, coefficient or
    right-hand side raises ``SolverError`` (``linprog`` refused them too).
    """
    n, m = problem.num_cols, problem.num_rows
    sense, row, col = problem.sense, problem.row, problem.col
    if not all(np.isfinite(a).all() for a in (problem.cost, problem.val, problem.rhs)):
        raise SolverError("HiGHS input holds a non-finite cost, coefficient or right-hand side")
    sign = np.where(sense == GE, -1.0, 1.0)  # ">=" rows flip into "<=" rows
    val, rhs = problem.val * sign[row], problem.rhs * sign
    eq = sense == EQ
    order = np.argsort(eq, kind="stable")  # new row -> model row
    renumber = np.empty(m, dtype=np.int32)
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
    row_upper = rhs[order]
    row_lower = row_upper.copy()
    row_lower[: m - int(eq.sum())] = -INF
    return _Model(problem.cost, problem.lb, problem.ub, row_lower, row_upper,
                  _starts(column, n), index, value)


@dataclass(frozen=True)
class _Pairs:
    """The L1 pairs ``_merged`` merges: each pair's column ``col``, with
    the entry ``-coef`` in its rows ``first`` and ``second``."""

    col: np.ndarray
    coef: np.ndarray
    first: np.ndarray
    second: np.ndarray


def _l1_pairs(model: _Model, column: np.ndarray) -> _Pairs:
    """The columns that are an L1 distance over two "<=" rows.

    Such a column p has ``lb == 0``, ``ub == inf`` and two entries, both the
    same ``-c < 0``, in "<=" rows ``a x - c p <= t`` and ``-a x - c p <= -t``:
    the other entries of the two rows are exact negatives of each other, and
    so are their right-hand sides. Together they say ``c p >= |a x - t|``.
    No other such column can share either row, as its two entries would
    have to be negatives of each other. ``column`` is ``model.column()``.
    """
    start, value, rhs = model.start, model.value, model.row_upper
    col = np.flatnonzero((np.diff(start) == 2) & (model.lower == 0.0) & (model.upper == INF))
    r1, r2 = model.index[start[col]], model.index[start[col] + 1]
    v1, v2 = value[start[col]], value[start[col] + 1]
    n_le = model.n_le
    ok = (v1 == v2) & (v1 < 0.0) & (r1 < n_le) & (r2 < n_le) & (rhs[r1] == -rhs[r2])
    col, r1, r2, coef = col[ok], r1[ok], r2[ok], -v1[ok]
    # the candidate rows' entries, by row and, within a row, by column
    in_pair = np.zeros(rhs.size, dtype=bool)
    in_pair[r1] = in_pair[r2] = True
    at = np.flatnonzero(in_pair[model.index])
    at = at[np.lexsort((column[at], model.index[at]))]
    row = model.index[at]
    s1, s2 = np.searchsorted(row, r1), np.searchsorted(row, r2)
    size = np.searchsorted(row, r1, side="right") - s1
    same = size == np.searchsorted(row, r2, side="right") - s2
    col, coef, r1, r2, s1, s2, size = (a[same] for a in (col, coef, r1, r2, s1, s2, size))
    # entry by entry, the same column, with the same value at p and the
    # negated value elsewhere
    owner = np.repeat(np.arange(col.size), size)
    offset = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    e1, e2 = at[s1[owner] + offset], at[s2[owner] + offset]
    own = column[e1] == col[owner]
    match = (column[e1] == column[e2]) & np.where(own, value[e1] == value[e2],
                                                  value[e1] == -value[e2])
    good = np.bincount(owner, ~match, minlength=col.size) == 0
    return _Pairs(col[good], coef[good], r1[good], r2[good])


def _merged(model: _Model, column: np.ndarray, pairs: _Pairs) -> tuple[_Model, np.ndarray]:
    """``model`` with each L1 pair's two rows merged into one "=" row, and
    that merged model's ``column()``.

    The pair ``a x - c p <= t``, ``-a x - c p <= -t`` becomes the row
    ``a x - c p + c m = t`` with a new column m, ``0 <= m`` and the cost of
    p: its ``p - m`` is ``(a x - t) / c``, so at an optimum ``p + m`` is
    ``|a x - t| / c``, the least p allowed. p and m lie in that row only,
    and ``_folding`` folds both. The kept "<=" rows come first, in order,
    then the "=" rows, then the merged rows in the order of ``pairs``, and
    the m columns come after the model's, in that order too.
    """
    m, n, n_le = model.row_upper.size, model.cost.size, model.n_le
    k = pairs.col.size
    if not k:
        return model, column
    paired = np.zeros(m, dtype=bool)
    paired[pairs.first] = paired[pairs.second] = True
    order = np.concatenate([np.flatnonzero(~paired[:n_le]), np.arange(n_le, m), pairs.first])
    renumber = np.full(m, -1, dtype=np.int32)
    renumber[order] = np.arange(order.size)
    keep = renumber[model.index] >= 0  # the second rows' entries go
    index = np.concatenate([renumber[model.index[keep]], renumber[pairs.first]])
    merged_column = np.concatenate([column[keep], n + np.arange(k)])
    row_upper = model.row_upper[order]
    row_lower = row_upper.copy()
    row_lower[: n_le - 2 * k] = -INF
    merged = _Model(np.concatenate([model.cost, model.cost[pairs.col]]),
                    np.concatenate([model.lower, np.zeros(k)]),
                    np.concatenate([model.upper, np.full(k, INF)]),
                    row_lower, row_upper, _starts(merged_column, n + k), index,
                    np.concatenate([model.value[keep], pairs.coef]))
    return merged, merged_column


@dataclass(frozen=True)
class _Folding:
    """The columns ``_dual_lp`` folds into bounds, each with its row and
    its coefficient there, and the other columns: ``kept``, a mask of the
    columns that are rows of the dual, and ``has_l``/``has_u``, the columns
    with a unit column for a finite lower and for a finite upper bound."""

    folded: np.ndarray
    row: np.ndarray
    coef: np.ndarray
    kept: np.ndarray
    has_l: np.ndarray
    has_u: np.ndarray


def _folding(model: _Model) -> _Folding:
    """The columns whose dual row becomes a bound on one dual column.

    A column is folded when it has one entry, in an "=" row, ``lb == 0``,
    ``ub == inf``, and is the first such column with that coefficient's
    sign in that row: its dual row ``a y_r + z_l = c`` with ``z_l >= 0``
    only says ``a y_r <= c``, a bound on ``y_r``, and a row takes one bound
    from each side.
    """
    lb, ub = model.lower, model.upper
    single = np.flatnonzero((np.diff(model.start) == 1) & (lb == 0.0) & (ub == INF))
    at = model.start[single]
    row, coef = model.index[at], model.value[at]
    eligible = (row >= model.n_le) & (coef != 0.0)
    single, row, coef = single[eligible], row[eligible], coef[eligible]
    # the first candidate per row and side; candidates ascend by column
    first = np.sort(np.unique(2 * row + (coef > 0), return_index=True)[1])
    kept = np.ones(lb.size, dtype=bool)
    kept[single[first]] = False
    return _Folding(single[first], row[first], coef[first], kept,
                    np.flatnonzero(np.isfinite(lb) & kept), np.flatnonzero(np.isfinite(ub)))


def _dual_lp(model: _Model, column: np.ndarray, fold: _Folding) -> _Model:
    """The dual of ``model``, as a minimisation, with ``fold``'s columns
    folded into bounds; ``column`` is ``model.column()``.

    For min c x subject to A x <= b ("<=" rows), A x = b ("=" rows) and
    l <= x <= u, the dual is min -b y - l z_l - u z_u subject to
    A^T y + z_l + z_u = c, with y <= 0 on the "<=" rows, y free on the "="
    rows, and one column z_l >= 0 per finite l and z_u <= 0 per finite u of
    a kept column, in the order of ``fold.has_l`` and ``fold.has_u``. Each
    dual row is a kept column, in column order. A folded column j, with
    ``a`` in row r, bounds y_r instead: ``y_r <= c_j / a`` for ``a > 0``,
    ``y_r >= c_j / a`` for ``a < 0``.
    """
    m, n_le = model.row_upper.size, model.n_le
    has_l, has_u, kept = fold.has_l, fold.has_u, fold.kept
    units = has_l.size + has_u.size
    dual_row = np.cumsum(kept, dtype=np.int32) - 1  # primal column -> dual row
    # the dual's columns y are the primal's rows: kept entries sorted by row
    keep = kept[column]
    column, row = column[keep], model.index[keep]
    by_row = np.lexsort((column, row))
    index = np.concatenate([dual_row[column[by_row]], dual_row[has_l], dual_row[has_u]])
    owner = np.concatenate([row[by_row], m + np.arange(units)])
    lower = np.concatenate([np.full(m, -INF), np.zeros(has_l.size), np.full(has_u.size, -INF)])
    upper = np.concatenate([np.zeros(n_le), np.full(m - n_le + has_l.size, INF),
                            np.zeros(has_u.size)])
    bound = model.cost[fold.folded] / fold.coef
    up = fold.coef > 0
    upper[fold.row[up]] = bound[up]
    lower[fold.row[~up]] = bound[~up]
    cost = -np.concatenate([model.row_upper, model.lower[has_l], model.upper[has_u]])
    value = np.concatenate([model.value[keep][by_row], np.ones(units)])
    c = model.cost[kept]
    return _Model(cost, lower, upper, c, c, _starts(owner, m + units), index, value)


def _highs_object(h, model: _Model, presolve: bool = True, log: bool = False):
    """A new HiGHS object holding ``model``, set up as ``linprog`` sets it
    up for dual simplex; None when HiGHS refuses the model.

    ``presolve`` stays on for an LP solved as itself. It is off for the
    branch and bound relaxation, which restarts warm from a basis, and for
    the dual form: ``_solve_dual_form`` hands over a dual with its L1 pairs
    merged and its column singletons folded, where presolve found little
    more to remove (2 dependent rows of a TOP dual) and then paid for a
    postsolve and a second solve. With the merge and presolve off, the
    7x7 k = 2 ORG-W-SU dual fell from 826 to 532 rows and its solve from
    32-35 to 30-31 ms, and the 10x10 TOP-S-SU dual's solve from 79 to
    46-48 ms (median of 9, one BLAS thread).

    With ``log``, HiGHS hands each log line to this module's logger and
    prints nothing. The object keeps its own copy of ``model``, so a copy
    the caller passes without keeping it is dropped before the run.
    """
    highs, error = h._Highs(), h.HighsStatus.kError
    if log:
        # with a logging callback HiGHS hands it each log line and prints
        # nothing; it still logs only while log_to_console is on
        highs.setCallback(_log_highs_line, None)
        highs.startCallback(h.cb.HighsCallbackType.kCallbackLogging)
    options = h.HighsOptions()
    options.presolve = "on" if presolve else "off"
    options.solver = "simplex"
    options.simplex_strategy = int(h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)
    options.highs_debug_level = int(h.HighsDebugLevel.kHighsDebugLevelNone)
    options.output_flag = options.log_to_console = bool(log)
    if highs.passOptions(options) == error:
        raise SolverError("HiGHS refused its options")
    return None if _pass_model(h, highs, model) == error else highs


def _run(h, highs, time_limit: float | None, counts: dict) -> Solution | None:
    """Run ``highs`` from what it holds and map its model status.

    HiGHS measures ``time_limit`` on the object's run clock, which keeps
    counting across ``run()`` calls, so the limit set is that clock's
    reading plus ``time_limit``. Adds the run's pivots to
    ``counts["iterations"]``. Returns None at an optimum, a solution without
    a point for an infeasible or unbounded model or a run cut by a limit
    (ITERATION_LIMIT), and raises ``SolverError`` for a failure. A refused
    model (``highs`` None) is infeasible, as HiGHS's model error is.
    """
    status_of = h.HighsModelStatus
    if highs is None:
        return Solution(SolveStatus.INFEASIBLE, **counts)
    if time_limit:
        highs.setOptionValue("time_limit", highs.getRunTime() + float(time_limit))
    ran = highs.run() != h.HighsStatus.kError
    if ran:
        counts["iterations"] += int(highs.getInfo().simplex_iteration_count)
    status = highs.getModelStatus()
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


def _check_point(model: _Model, x: np.ndarray, activity: np.ndarray,
                 objective: float, source: str) -> None:
    """``linprog``'s check of an optimal point: no NaN, and rows and bounds
    off by at most ``POINT_TOL``; raises ``SolverError`` otherwise."""
    residual = model.row_upper - activity
    n_le, tol = model.n_le, POINT_TOL
    if (
        np.isnan(x).any() or math.isnan(objective) or np.isnan(residual).any()
        or not np.all((x >= model.lower - tol) & (x <= model.upper + tol))
        or (residual[:n_le] < -tol).any() or (np.abs(residual[n_le:]) > tol).any()
    ):
        raise SolverError(f"{source} outside its constraints by more than {tol:.2e}")


def _optimum(h, highs, model: _Model, col_names: list[str], counts: dict) -> Solution:
    """The optimum ``highs`` reached on ``model``, its point checked as
    ``linprog`` checked it, with the dual objective as ``linprog``'s
    marginals give it: the "<=" rows, the "=" rows, then each column's dual
    on the bound its basis status names."""
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = highs.getObjectiveValue()
    _check_point(model, x, np.array(solution.row_value), objective,
                 "HiGHS returned an optimal point")
    n_le, rhs = model.n_le, model.row_upper
    row_dual, col_dual = np.array(solution.row_dual), np.array(solution.col_dual)
    col_status = np.array([int(s) for s in highs.getBasis().col_status])
    lower = np.where(col_status == int(h.HighsBasisStatus.kLower), col_dual, 0.0)
    upper = np.where(col_status == int(h.HighsBasisStatus.kUpper), col_dual, 0.0)
    dual = 0.0
    for duals, bound in ((row_dual[:n_le], rhs[:n_le]), (row_dual[n_le:], rhs[n_le:]),
                         (lower, model.lower), (upper, model.upper)):
        finite = np.isfinite(bound)
        dual += float(np.dot(duals[finite], bound[finite]))
    return Solution(SolveStatus.OPTIMAL, x=x, col_names=col_names,
                    objective=float(objective), dual_objective=dual, **counts)


def _solve_highs(problem: LpProblem, log: bool, time_limit: float | None = None) -> Solution:
    """Solve ``problem`` with HiGHS by dual simplex.

    An LP of fewer than ``HIGHS_DUAL_FORM_MIN_ROWS`` rows is handed over as
    ``linprog`` hands it (``_highs_lp``), with ``linprog``'s options,
    presolve on, status mapping and final feasibility check of an optimal
    point. A larger one is solved as its dual (``_solve_dual_form``); when
    the dual ends infeasible, unbounded or failed, the LP itself is solved
    as a small one is, that solve gives the status, and ``dual_status`` in
    ``Solution.dual_form`` says how the dual ended.
    """
    h = _highs_core()
    t0 = time.perf_counter()
    model = _highs_lp(problem)
    counts = {"iterations": 0, "engine": "highs", "method": "ds"}
    sol = None
    if problem.num_rows >= HIGHS_DUAL_FORM_MIN_ROWS:
        counts["method"] = "dual-form"
        sol = _solve_dual_form(h, model, problem.col_names, log, time_limit, counts)
        if sol is None and time_limit:
            time_limit = max(time_limit - (time.perf_counter() - t0), 1e-3)
    if sol is None:
        highs = _highs_object(h, model, log=log)
        sol = _run(h, highs, time_limit, counts) or _optimum(h, highs, model,
                                                              problem.col_names, counts)
    sol.wall_time = time.perf_counter() - t0
    return sol


def _solve_dual_form(
    h, model: _Model, col_names: list[str], log: bool, time_limit: float | None,
    counts: dict,
) -> Solution | None:
    """Solve ``model`` as the dual of its merged form; None when the dual
    ends neither optimal nor at a limit, so the LP must be solved itself.

    Its L1 pairs are merged first (``_l1_pairs``, ``_merged``), and the
    merged model goes to HiGHS as its dual (``_dual_lp``), with presolve
    off. The merged point is the negated row duals of the dual solve; a
    folded column j of row r, with coefficient a there, is
    ``max(0, -d_r / a)``, where d_r is the reduced cost of y_r. A pair's
    column p is then ``p + m`` of the merged point. It comes with a checked
    certificate: the point passes ``linprog``'s check on ``model``'s own
    rows and bounds, the dual point meets the merged model's dual rows,
    signs and folded bounds within the same allowance, and its objective
    differs from ``model``'s at the point by at most ``GAP_TOL``. A failed
    check raises ``SolverError``. Records the dual solve's pivots, the size
    of the dual and how its solve ended in ``counts``.
    """
    n = model.cost.size
    column = model.column()
    pairs = _l1_pairs(model, column)
    merged, merged_column = _merged(model, column, pairs)
    k, m = pairs.col.size, merged.row_upper.size
    fold = _folding(merged)
    info = counts["dual_form"] = {
        "dual_rows": int(fold.kept.sum()), "dual_cols": m + fold.has_l.size + fold.has_u.size,
        "folded": fold.folded.size - 2 * k, "merged": k, "dual_status": "failed",
    }
    highs = _highs_object(h, _dual_lp(merged, merged_column, fold), presolve=False, log=log)
    try:
        stopped = _run(h, highs, time_limit, counts)
    except SolverError:
        return None  # the LP's own solve reports the failure
    if stopped is not None:
        info["dual_status"] = stopped.status.value
        return stopped if stopped.status is SolveStatus.ITERATION_LIMIT else None
    info["dual_status"] = SolveStatus.OPTIMAL.value

    solution = highs.getSolution()
    w = np.array(solution.col_value)
    xm = np.empty(n + k)
    xm[fold.kept] = -np.array(solution.row_dual)
    d = np.array(solution.col_dual)[fold.row]
    xm[fold.folded] = np.maximum(0.0, -d / fold.coef)
    x = xm[:n]
    x[pairs.col] += xm[n:]
    objective = float(model.cost @ x)
    activity = np.bincount(model.index, model.value * x[column], minlength=model.row_upper.size)
    _check_point(model, x, activity, objective, "the dual-form solve's point is")
    has_l, has_u, tol = fold.has_l, fold.has_u, POINT_TOL
    y, z_l, z_u = w[:m], w[m:m + has_l.size], w[m + has_l.size:]
    # the dual rows c - A^T y - z_l - z_u = 0 of the kept columns, and
    # c - a y_r >= 0 (the folded bounds) of the folded ones
    residual = merged.cost - np.bincount(merged_column, merged.value * y[merged.index],
                                         minlength=n + k)
    residual[has_l] -= z_l
    residual[has_u] -= z_u
    if (
        np.isnan(w).any() or (np.abs(residual[fold.kept]) > tol).any()
        or (residual[fold.folded] < -tol).any()
        or (y[: merged.n_le] > tol).any() or (z_l < -tol).any() or (z_u > tol).any()
    ):
        raise SolverError(f"the dual-form solve's dual point is outside its constraints "
                          f"by more than {tol:.2e}")
    dual = float(merged.row_upper @ y + merged.lower[has_l] @ z_l + merged.upper[has_u] @ z_u)
    if not abs(objective - dual) <= GAP_TOL * max(1.0, abs(objective)):
        raise SolverError(f"the dual-form solve's objectives {objective!r} and {dual!r} "
                          f"differ by more than {GAP_TOL:g} relative")
    return Solution(SolveStatus.OPTIMAL, x=x, col_names=col_names,
                    objective=objective, dual_objective=dual, **counts)


class _HighsNodes:
    """Node relaxations of one binary program, warm on one HiGHS object,
    and the final LP of its incumbent, cold on the same object.

    The relaxation is passed once, in ``_highs_lp``'s rows, and solved by
    dual simplex with presolve off. A node sets its fixings with
    ``changeColsBounds`` on the binary columns; HiGHS keeps the basis of its
    last solve, which a bound change leaves dual feasible, and starts the
    node's dual simplex from it. A node whose parent was not the last solve
    (a node popped from the heap, or the dive child after the primal probe)
    first gets its parent's basis back through ``setBasis``. Each node's
    time limit is what ``remaining`` leaves (see ``_run``).
    """

    def __init__(self, problem: LpProblem, binaries: np.ndarray, remaining) -> None:
        h = self.h = _highs_core()
        self.remaining, self.col_names = remaining, problem.col_names
        self.cols = binaries.astype(np.int32)
        self.model = _highs_lp(problem)
        self.highs = _highs_object(h, self.model, presolve=False)
        if self.highs is None:
            raise SolverError("HiGHS refused the relaxation")
        self.held = None  # the basis the object holds, as its last solve returned it

    def solve(self, fixings: dict[int, int], start) -> tuple[Solution, object]:
        """Solve a node from ``start``, its parent's basis; None is the root.

        Returns the node's solution and its final basis (None without one).
        """
        t0 = time.perf_counter()
        h, highs = self.h, self.highs
        lb, ub = self.model.lower[self.cols], self.model.upper[self.cols]
        at = np.searchsorted(self.cols, list(fixings))  # the binary columns ascend
        lb[at] = ub[at] = list(fixings.values())
        highs.changeColsBounds(self.cols.size, self.cols, lb, ub)
        if start is not None and start is not self.held:
            highs.setBasis(start)
        counts = {"iterations": 0, "engine": "highs", "method": "ds"}
        self.held = None
        sol = _run(h, highs, self.remaining(), counts)
        if sol is None:
            self.held = highs.getBasis()
            sol = Solution(SolveStatus.OPTIMAL, x=np.array(highs.getSolution().col_value),
                           col_names=self.col_names, objective=float(highs.getObjectiveValue()),
                           **counts)
        sol.wall_time = time.perf_counter() - t0
        return sol, self.held

    def final(self, values: np.ndarray, time_limit: float | None) -> Solution:
        """The LP with every binary pinned to ``values``, solved as a new
        object handed that LP would solve it.

        ``clearSolver`` drops the search's basis and solution, and presolve
        goes on, so the run starts cold; the optimum gets the check and dual
        objective of any LP optimum (``_optimum``).
        """
        t0 = time.perf_counter()
        h, highs, cols = self.h, self.highs, self.cols
        highs.changeColsBounds(cols.size, cols, values, values)
        highs.clearSolver()
        highs.setOptionValue("presolve", "on")
        lower, upper = self.model.lower.copy(), self.model.upper.copy()
        lower[cols] = upper[cols] = values
        model = replace(self.model, lower=lower, upper=upper)
        counts = {"iterations": 0, "engine": "highs", "method": "ds"}
        sol = _run(h, highs, time_limit, counts) or _optimum(h, highs, model, self.col_names,
                                                              counts)
        sol.wall_time = time.perf_counter() - t0
        return sol


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
        # the point is read from a fresh inverse: an updated one can carry
        # enough drift to move an optimum near zero by 1e-11
        if self.updates:
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
    iteration_limit: int | None = None,
    log: bool = False,
    time_limit: float | None = None,
) -> Solution:
    t0 = time.perf_counter()
    std = _standardize(problem)
    sx = _Simplex(std, iteration_limit or _iteration_limit(std), log,
                  t0 + time_limit if time_limit else None)
    return sx.solution(*sx.two_phase(), std, t0)
