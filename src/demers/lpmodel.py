"""Translate maps, side lengths and separation constraints into LPs/ILPs.

One variable block per weight function: square centers (x, y), L1 distance
variables for adjacent pairs (TOP and CNT), directional-deviation
variables, and optional origin-displacement or inter-block stability
variables. Objectives cover total adjacent distance (TOP), origin
displacement (ORG) and lost-adjacency count (CNT, with binaries).
``ModelSpec`` picks the objective, setting and stability scheme; the
weights between the terms are the module constants ``SECONDARY_WEIGHT``,
``ADJACENT_DIRECTION_BOOST`` and ``STABILITY_WEIGHT``.

A direction term is one equality row per map pair, ``expr - dp + dm = 0``,
over two nonnegative columns that each cost the term's weight. For fixed
centers the cheapest feasible ``dp + dm`` is ``|expr|``, so the optimal value
and the optimal centers are those of the two-row form ``±expr - d <= 0``,
from one row and 6 nonzeros per pair instead of two rows and 10. These rows
are 86-90% of a model's rows. The displacement and coupling terms keep their
two rows: CNT's final LP has tied optima, and splitting those rows as well
moved CNT layouts (sample3 ``CNT-W-IT``: mrel 0.407 to 0.281).

``LpProblem`` keeps its columns and its sparse rows as numpy arrays, which
both solver engines read directly; the builders emit each constraint family
with one bulk call over region-index arrays, shared by all blocks: the rows
of the map's cached views (``AdjacencyGraph.pair_table`` and the others) and
the separation constraint set's per-axis arrays (``AxisPairs``), which give
the separation rows and their gaps. The per-pair names (direction columns,
separation rows) are one string concatenation per name over object arrays
of per-region prefixes. On a jittered 10x10 grid the direction columns'
names took 0.8 ms against 1.7 ms as one f-string per name, and the whole
``TOP-S`` model 5.9 against 7.2 ms (best of 15, one core of a shared 2-vCPU
host). At 400 regions the build takes about 120 ms, a third of it to add
the 160 000 direction column names to ``col_index``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .mapdata import AdjacencyGraph, SideLengthTable
from .sepconstraints import SeparationConstraintSet, Setting

INF = math.inf

# Objective trade-offs. SECONDARY_WEIGHT scales the direction-deviation
# terms, CNT's distance tie-breakers and the origin anchor of the first IT
# step. It must stay small enough that they can never override a
# primary-objective improvement; 1e-3, with deviations bounded by the map
# extent, satisfies that for the bundled data scales.
SECONDARY_WEIGHT = 1e-3
# Direction deviations of adjacent pairs weigh this much more than others.
ADJACENT_DIRECTION_BOOST = 10.0
# Weight of the displacement terms that tie layouts of different weight
# functions together (CO, SU, CENTRAL and IT stability).
STABILITY_WEIGHT = 1.0
# Direction slopes at or below this magnitude are round-off between the
# centroids of one grid row or column and are emitted as 0. HiGHS drops
# matrix values up to its small_matrix_value (1e-9) anyway, so both engines
# read the same model.
SLOPE_ROUNDOFF = 1e-9

Point = tuple[float, float]


class ModelError(ValueError):
    pass


# ---------------------------------------------------------------------------
# solver-agnostic problem container


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float = 0.0
    ub: float = INF
    binary: bool = False


@dataclass(frozen=True)
class LinConstraint:
    coeffs: tuple[tuple[str, float], ...]
    relation: str  # "<=", ">=" or "="
    rhs: float
    name: str = ""


SENSES = ("<=", ">=", "=")  # a row's sense code indexes this
LE, GE, EQ = range(3)
_SENSE_CODE = {s: i for i, s in enumerate(SENSES)}


class _Buffer:
    """A 1-d array grown in chunks, joined on the first read after a write."""

    __slots__ = ("dtype", "_parts")

    def __init__(self, dtype, data=()) -> None:
        self.dtype = dtype
        self._parts = [np.asarray(data, dtype=dtype).ravel()]

    def extend(self, values) -> None:
        self._parts.append(np.asarray(values, dtype=self.dtype).ravel())

    @property
    def array(self) -> np.ndarray:
        if len(self._parts) > 1:
            self._parts = [np.concatenate(self._parts)]
        return self._parts[0]


class LpProblem:
    """A linear (or binary-integer) program, objective minimized.

    Columns are arrays: ``col_names``, bounds ``lb``/``ub``, the ``binary``
    mask and the objective vector ``cost``. Rows are COO triplets ``row``,
    ``col``, ``val`` (ordered by row, a row's entries in insertion order)
    with a ``sense`` code into ``SENSES`` and an ``rhs`` per row;
    ``row_names`` maps the rows that have a name. Rows never hold an exact
    zero coefficient. ``variables``, ``constraints`` and ``objective`` are
    read-only views built from the arrays on demand.
    """

    def __init__(
        self,
        name: str = "lp",
        variables=(),
        constraints=(),
        objective: dict[str, float] | None = None,
    ) -> None:
        self.name = name
        self.col_names: list[str] = []
        self.col_index: dict[str, int] = {}
        self.row_names: dict[int, str] = {}
        self.num_rows = 0
        self._lb, self._ub = _Buffer(float), _Buffer(float)
        self._binary, self._cost = _Buffer(bool), _Buffer(float)
        self._row, self._col = _Buffer(np.int64), _Buffer(np.int64)
        self._val, self._rhs = _Buffer(float), _Buffer(float)
        self._sense = _Buffer(np.int8)
        self._views: dict[str, tuple] = {}
        for v in variables:
            self.add_var(v.name, v.lb, v.ub, v.binary)
        for con in constraints:
            self.add_constraint(dict(con.coeffs), con.relation, con.rhs, con.name)
        for vname, coeff in (objective or {}).items():
            self.add_objective(vname, coeff)

    # -- arrays ------------------------------------------------------------

    lb = property(lambda self: self._lb.array)
    ub = property(lambda self: self._ub.array)
    binary = property(lambda self: self._binary.array)
    cost = property(lambda self: self._cost.array)
    row = property(lambda self: self._row.array)
    col = property(lambda self: self._col.array)
    val = property(lambda self: self._val.array)
    sense = property(lambda self: self._sense.array)
    rhs = property(lambda self: self._rhs.array)

    @property
    def num_cols(self) -> int:
        return len(self.col_names)

    @property
    def nnz(self) -> int:
        return self.val.size

    @property
    def num_binaries(self) -> int:
        return int(self.binary.sum())

    def size(self) -> dict[str, int]:
        """Model size as rows, columns, nonzeros and binaries."""
        return {"rows": self.num_rows, "cols": self.num_cols,
                "nnz": self.nnz, "binaries": self.num_binaries}

    # -- building ----------------------------------------------------------

    def add_vars(
        self, names: list[str], lb: float = 0.0, ub: float = INF, binary: bool = False
    ) -> np.ndarray:
        """Append columns; returns their indices."""
        start = len(self.col_names)
        self.col_names.extend(names)
        self.col_index.update(zip(names, range(start, start + len(names))))
        if len(self.col_index) != len(self.col_names):
            raise ModelError("duplicate variable name")
        n = len(names)
        self._lb.extend(np.full(n, lb, dtype=float))
        self._ub.extend(np.full(n, ub, dtype=float))
        self._binary.extend(np.full(n, binary, dtype=bool))
        self._cost.extend(np.zeros(n))
        self._views.clear()
        return np.arange(start, start + n)

    def add_var(
        self, name: str, lb: float = 0.0, ub: float = INF, binary: bool = False
    ) -> str:
        self.add_vars([name], lb, ub, binary)
        return name

    def add_rows(
        self, cols, vals, relation: str, rhs, names: list[str] | None = None
    ) -> None:
        """Append one row per line of the (m, p) column-index array ``cols``.

        ``vals`` broadcasts to the shape of ``cols`` and ``rhs`` to (m,).
        Exact-zero coefficients are dropped, as ``add_constraint`` drops them.
        """
        if relation not in _SENSE_CODE:
            raise ModelError(f"bad relation {relation!r}")
        cols = np.asarray(cols, dtype=np.int64)
        m = cols.shape[0]
        full_vals, full_rhs = np.empty(cols.shape), np.empty(m)
        full_vals[...], full_rhs[...] = vals, rhs  # broadcast
        vals = full_vals.ravel()
        rows = np.repeat(np.arange(self.num_rows, self.num_rows + m), cols.shape[1])
        keep = vals != 0.0
        self._row.extend(rows[keep])
        self._col.extend(cols.ravel()[keep])
        self._val.extend(vals[keep])
        self._sense.extend(np.full(m, _SENSE_CODE[relation], dtype=np.int8))
        self._rhs.extend(full_rhs)
        if names is not None:
            self.row_names.update(zip(range(self.num_rows, self.num_rows + m), names))
        self.num_rows += m
        self._views.clear()

    def add_constraint(
        self,
        coeffs: dict[str, float],
        relation: str,
        rhs: float,
        name: str = "",
    ) -> None:
        cols = [self._column(v, "constraint") for v in coeffs]
        self.add_rows(
            [cols], [[float(c) for c in coeffs.values()]], relation, float(rhs),
            names=[name] if name else None,
        )

    def add_objective(self, name: str, coeff: float) -> None:
        if coeff == 0.0:
            return
        self.cost[self._column(name, "objective")] += coeff
        self._views.clear()

    def add_objective_terms(self, cols, coeffs) -> None:
        """Add ``coeffs`` to the objective coefficients of columns ``cols``."""
        np.add.at(self.cost, np.asarray(cols), coeffs)
        self._views.clear()

    def _column(self, name: str, what: str) -> int:
        try:
            return self.col_index[name]
        except KeyError:
            raise ModelError(f"{what} references unknown {name!r}") from None

    def with_bounds(
        self, lb: np.ndarray, ub: np.ndarray, binary: np.ndarray | None = None
    ) -> "LpProblem":
        """A copy with the same rows and objective and new column bounds.

        The copy shares the row arrays and takes ``lb``, ``ub`` and ``binary``
        as given; none of them is ever written in place.
        """
        out = LpProblem(self.name)
        out.col_names = list(self.col_names)
        out.col_index = dict(self.col_index)
        out.row_names = dict(self.row_names)
        out.num_rows = self.num_rows
        out._lb, out._ub = _Buffer(float, lb), _Buffer(float, ub)
        out._binary = _Buffer(bool, self.binary if binary is None else binary)
        out._cost = _Buffer(float, self.cost.copy())
        out._row, out._col = _Buffer(np.int64, self.row), _Buffer(np.int64, self.col)
        out._val, out._rhs = _Buffer(float, self.val), _Buffer(float, self.rhs)
        out._sense = _Buffer(np.int8, self.sense)
        return out

    # -- views -------------------------------------------------------------

    @property
    def variables(self) -> tuple[Variable, ...]:
        if "variables" not in self._views:
            self._views["variables"] = tuple(
                Variable(n, lo, hi, b)
                for n, lo, hi, b in zip(
                    self.col_names, self.lb.tolist(), self.ub.tolist(),
                    self.binary.tolist(),
                )
            )
        return self._views["variables"]

    @property
    def constraints(self) -> tuple[LinConstraint, ...]:
        if "constraints" not in self._views:
            names = self.col_names
            ends = np.cumsum(np.bincount(self.row, minlength=self.num_rows)).tolist()
            cols, vals = self.col.tolist(), self.val.tolist()
            out = []
            start = 0
            for i, (end, sense, rhs) in enumerate(
                zip(ends, self.sense.tolist(), self.rhs.tolist())
            ):
                coeffs = tuple(zip([names[j] for j in cols[start:end]], vals[start:end]))
                name = self.row_names.get(i, "")
                out.append(LinConstraint(coeffs, SENSES[sense], rhs, name))
                start = end
            self._views["constraints"] = tuple(out)
        return self._views["constraints"]

    @property
    def objective(self) -> dict[str, float]:
        nz = np.flatnonzero(self.cost)
        return dict(zip([self.col_names[j] for j in nz], self.cost[nz].tolist()))

    def validate(self) -> None:
        col = self.col
        if col.size and (col.min() < 0 or col.max() >= self.num_cols):
            raise ModelError("constraint references an unknown column")
        bad = np.flatnonzero(~np.isfinite(self.val))
        if bad.size:
            raise ModelError(
                f"non-finite coefficient on {self.col_names[col[bad[0]]]!r}"
            )
        bad = np.flatnonzero(~np.isfinite(self.cost))
        if bad.size:
            raise ModelError(
                f"non-finite objective coefficient on {self.col_names[bad[0]]!r}"
            )

    def to_lp_format(self) -> str:
        """Serialize in CPLEX-style LP file syntax."""
        safe = _SafeNames()
        out = [f"\\* {self.name} *\\", "Minimize"]
        obj_terms = _format_terms(
            [(safe[v], c) for v, c in sorted(self.objective.items())]
        )
        out.append(f" obj: {obj_terms if obj_terms else '0 ' + safe[self.col_names[0]]}"
                   if self.col_names else " obj: 0")
        out.append("Subject To")
        for i, c in enumerate(self.constraints):
            label = safe[c.name] if c.name else f"c{i}"
            terms = _format_terms([(safe[v], k) for v, k in c.coeffs])
            out.append(f" {label}: {terms} {c.relation} {_num(c.rhs)}")
        out.append("Bounds")
        for v in self.variables:
            if v.binary:
                out.append(f" 0 <= {safe[v.name]} <= 1")
            elif v.lb == -INF and v.ub == INF:
                out.append(f" {safe[v.name]} free")
            elif v.ub == INF:
                if v.lb != 0.0:
                    out.append(f" {safe[v.name]} >= {_num(v.lb)}")
            else:
                lo = "-inf" if v.lb == -INF else _num(v.lb)
                out.append(f" {lo} <= {safe[v.name]} <= {_num(v.ub)}")
        binaries = [safe[v.name] for v in self.variables if v.binary]
        if binaries:
            out.append("Binaries")
            out.append(" " + " ".join(binaries))
        out.append("End")
        return "\n".join(out) + "\n"


class _SafeNames:
    """Map arbitrary names to LP-format-safe unique identifiers."""

    def __init__(self) -> None:
        self._map: dict[str, str] = {}
        self._used: set[str] = set()

    def __getitem__(self, name: str) -> str:
        if name not in self._map:
            base = re.sub(r"[^A-Za-z0-9_.]", "_", name) or "v"
            if base[0].isdigit():
                base = "_" + base
            cand, k = base, 1
            while cand in self._used:
                cand = f"{base}~{k}"
                k += 1
            self._used.add(cand)
            self._map[name] = cand
        return self._map[name]


def _num(x: float) -> str:
    return format(x, ".12g")


def _format_terms(terms: list[tuple[str, float]]) -> str:
    parts: list[str] = []
    for name, coeff in terms:
        sign = "-" if coeff < 0 else "+"
        mag = abs(coeff)
        if parts:
            parts.append(f"{sign} {_num(mag)} {name}")
        else:
            parts.append(f"{'-' if coeff < 0 else ''}{_num(mag)} {name}")
    return " ".join(parts)


def max_violation(problem: LpProblem, values: dict[str, float]) -> float:
    """Largest constraint/bound violation of an assignment (0 if feasible)."""
    x = np.array([values.get(name, 0.0) for name in problem.col_names], dtype=float)
    lhs = np.bincount(
        problem.row, weights=problem.val * x[problem.col], minlength=problem.num_rows
    )
    excess = lhs - problem.rhs
    sense = problem.sense
    row_viol = np.where(sense == LE, excess, np.where(sense == GE, -excess, np.abs(excess)))
    return float(max(
        0.0,
        np.max(problem.lb - x, initial=0.0),
        np.max(x - problem.ub, initial=0.0),
        np.max(row_viol, initial=0.0),
    ))


# ---------------------------------------------------------------------------
# model configuration


class ObjectiveKind(Enum):
    TOP = "TOP"  # total distance between adjacent regions
    ORG = "ORG"  # total displacement from origins
    CNT = "CNT"  # number of lost adjacencies (integer program)


class Stability(Enum):
    NONE = "NONE"
    CO = "CO"  # couple all weight-function pairs
    SU = "SU"  # couple successive pairs
    IT = "IT"  # iterate, coupling to the previously solved layout
    CENTRAL = "CENTRAL"  # couple everything to the first function


@dataclass(frozen=True)
class ModelSpec:
    """Objective and stability configuration; the trade-off weights are constants."""

    objective_kind: ObjectiveKind = ObjectiveKind.TOP
    setting: Setting = Setting.WEAK
    stability: Stability = Stability.NONE


@dataclass(frozen=True, eq=False)
class BlockMeta:
    """Locates one weight function's variables inside a problem: the
    columns of its centers, in ``CartogramModel.region_ids`` order."""

    function_index: int
    sides: dict[str, float]
    x: np.ndarray
    y: np.ndarray


@dataclass
class CartogramModel:
    """An LpProblem plus the metadata needed to decode its solution."""

    problem: LpProblem
    blocks: list[BlockMeta]
    cs: SeparationConstraintSet
    region_ids: list[str]
    diagonal: float
    spec: ModelSpec


# ---------------------------------------------------------------------------
# builders


def _pair_key(a: str, b: str) -> str:
    x, y = sorted((a, b))
    return f"{x}__{y}"


def _emit_block(
    prob: LpProblem,
    tag: str,
    function_index: int,
    map: AdjacencyGraph,
    sides: dict[str, float],
    cs: SeparationConstraintSet,
    spec: ModelSpec,
) -> BlockMeta:
    """Emit one weight function's variables, constraints and objective terms.

    Each constraint family is one bulk append over region-index arrays.
    """
    ids, pos, n = map.sorted_ids, map.position, len(map.sorted_ids)
    sid = np.array(ids, dtype=object)  # for names, one concatenation per pair
    side = np.array([sides[rid] for rid in ids], dtype=float)
    eps = cs.epsilon
    xc = prob.add_vars([f"x{tag}_{rid}" for rid in ids], -INF, INF)
    yc = prob.add_vars([f"y{tag}_{rid}" for rid in ids], -INF, INF)
    to_map = np.array([pos[r] for r in cs.ids], dtype=np.int64)  # set row -> map row

    def w(ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
        return (side[ia] + side[ib]) / 2.0

    # separation constraints: center distance at least half-sides plus gap
    for axis, coord in (("H", xc), ("V", yc)):
        pairs = cs.axes[axis]
        ia, ib = to_map[pairs.ia], to_map[pairs.ib]
        prob.add_rows(
            np.stack([coord[ib], coord[ia]], axis=1), [1.0, -1.0], ">=",
            w(ia, ib) + cs.gaps(axis),
            names=((f"sep{axis}{tag}_" + sid + "__")[ia] + sid[ib]).tolist(),
        )

    # distance variables per adjacency, with the corner-contact correction:
    # the off-axis distance only reaches zero once the squares share a
    # boundary segment at least epsilon long. The primary axis is the map's
    # rule, ``pair_table.horiz``, at the pair's row (np.triu_indices order).
    # Only TOP and CNT price them; in ORG they would cost nothing and bind
    # nothing
    edges = map.edge_list() if spec.objective_kind is not ObjectiveKind.ORG else []
    ea, eb = np.array([(pos[a], pos[b]) for a, b in edges], dtype=np.int64).reshape(-1, 2).T
    on_v = ~map.pair_table.horiz[ea * (2 * n - ea - 1) // 2 + eb - ea - 1]
    hv = prob.add_vars(
        [f"{p}{tag}_{_pair_key(a, b)}" for a, b in edges for p in ("h", "v")]
    )
    h, v = hv[0::2], hv[1::2]
    if edges:
        ww = w(ea, eb)
        rhs_h = ww - np.where(on_v, eps, 0.0)
        rhs_v = ww - np.where(on_v, 0.0, eps)
        # per edge: x and y rows for (a, b), then for (b, a)
        xa, xb, ya, yb = xc[ea], xc[eb], yc[ea], yc[eb]
        cols = np.stack([xa, xb, h, ya, yb, v, xb, xa, h, yb, ya, v], axis=1)
        rhs = np.stack([rhs_h, rhs_v, rhs_h, rhs_v], axis=1)
        prob.add_rows(cols.reshape(-1, 3), [1.0, -1.0, -1.0], "<=", rhs.ravel())

    # directional deviation from the centroid ray, one term per map pair; the
    # transposed formula keeps the slope finite on V pairs (coincident
    # centroids give a NaN slope, which ``LpProblem.validate`` rejects)
    if spec.objective_kind is not ObjectiveKind.CNT and len(ids) > 1:
        ia, ib, dx, dy, horiz = map.pair_table
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(horiz, dy / dx, dx / dy)
        slope[np.abs(slope) <= SLOPE_ROUNDOFF] = 0.0
        main = horiz.astype(np.intp)
        # per pair "dp{tag}_{H|V}_{a}__{b}", then the same with "dm"
        dpm_names = np.empty(2 * main.size, dtype=object)
        for k, p in enumerate(("dp", "dm")):
            head = np.stack([f"{p}{tag}_{axis}_" + sid + "__" for axis in "VH"])
            dpm_names[k::2] = head[main, ia] + sid[ib]
        dpm = prob.add_vars(dpm_names.tolist())
        # H: y_a - y_b + slope (x_b - x_a); V: x_a - x_b + slope (y_b - y_a)
        xy = np.stack([xc, yc])  # y columns (main) for H pairs
        cols = np.stack([xy[main, ia], xy[main, ib], xy[1 - main, ib], xy[1 - main, ia],
                         dpm[0::2], dpm[1::2]], axis=1)
        one = np.ones_like(slope)
        # per pair: expr - dp + dm = 0, the deviation |expr| split in two
        vals = np.stack([one, -one, slope, -slope, -one, one], axis=1)
        prob.add_rows(cols, vals, "=", 0.0)
        boost = np.where(map.adjacency_mask[ia, ib], ADJACENT_DIRECTION_BOOST, 1.0)
        prob.add_objective_terms(dpm, np.repeat(SECONDARY_WEIGHT * boost, 2))

    if spec.objective_kind is ObjectiveKind.TOP:
        prob.add_objective_terms(hv, 1.0)
    elif spec.objective_kind is ObjectiveKind.ORG:
        _emit_displacement(prob, f"o{tag}", ids, xc, yc, map.centroid_array, 1.0)
    elif spec.objective_kind is ObjectiveKind.CNT:
        n = len(ids)
        big_m = 2.0 * (sum(sides.values()) + max(0, n - 1) * eps)
        bvars = prob.add_vars(
            [f"b{tag}_{_pair_key(a, b)}" for a, b in edges], 0.0, 1.0, binary=True
        )
        prob.add_rows(
            np.stack([h, v, bvars], axis=1), [1.0, 1.0, -big_m], "<=", 0.0
        )
        prob.add_objective_terms(bvars, 1.0)
        prob.add_objective_terms(hv, SECONDARY_WEIGHT)

    return BlockMeta(function_index=function_index, sides=dict(sides), x=xc, y=yc)


def _emit_displacement(
    prob: LpProblem,
    tag: str,
    ids: tuple[str, ...],
    xc: np.ndarray,
    yc: np.ndarray,
    targets: np.ndarray,
    weight: float,
) -> None:
    """L1 distance of each center to a fixed target point, added to the objective.

    ``xc``/``yc`` are the center columns and ``targets`` the (n, 2) points,
    both in ``ids`` order.
    """
    pxy = prob.add_vars([f"{p}{tag}_{rid}" for rid in ids for p in ("px", "py")])
    px, py = pxy[0::2], pxy[1::2]
    tx, ty = targets[:, 0], targets[:, 1]
    # per region: x - px <= tx, -x - px <= -tx, then the same for y
    cols = np.stack([xc, px, xc, px, yc, py, yc, py], axis=1).reshape(-1, 2)
    vals = np.tile([[1.0, -1.0], [-1.0, -1.0]], (2 * len(ids), 1))
    rhs = np.stack([tx, -tx, ty, -ty], axis=1)
    prob.add_rows(cols, vals, "<=", rhs.ravel())
    prob.add_objective_terms(pxy, weight)


def _emit_coupling(
    prob: LpProblem,
    ids: tuple[str, ...],
    bi: BlockMeta,
    bj: BlockMeta,
    weight: float,
) -> None:
    """Displacement variables tying the same region's centers in two blocks."""
    i, j = bi.function_index, bj.function_index
    cxy = prob.add_vars([f"{p}_{rid}_{i}_{j}" for rid in ids for p in ("cx", "cy")])
    cx, cy = cxy[0::2], cxy[1::2]
    cols = np.stack([bi.x, bj.x, cx, bj.x, bi.x, cx, bi.y, bj.y, cy, bj.y, bi.y, cy], axis=1)
    prob.add_rows(cols.reshape(-1, 3), [1.0, -1.0, -1.0], "<=", 0.0)
    prob.add_objective_terms(cxy, weight)


def _model(
    prob: LpProblem,
    blocks: list[BlockMeta],
    map: AdjacencyGraph,
    cs: SeparationConstraintSet,
    spec: ModelSpec,
) -> CartogramModel:
    """Validate a finished problem and wrap it with what ``decode`` needs."""
    prob.validate()
    return CartogramModel(
        problem=prob,
        blocks=blocks,
        cs=cs,
        region_ids=list(map.sorted_ids),
        diagonal=map.diagonal(),
        spec=spec,
    )


def build_single_lp(
    map: AdjacencyGraph,
    sides: dict[str, float],
    cs: SeparationConstraintSet,
    spec: ModelSpec,
) -> CartogramModel:
    """LP for one weight function (no stability coupling, no binaries)."""
    if spec.stability is not Stability.NONE:
        raise ModelError("single LP expects stability NONE")
    if spec.objective_kind is ObjectiveKind.CNT:
        raise ModelError("use build_cnt_ilp for the lost-adjacency objective")
    prob = LpProblem(name=f"demers_{spec.objective_kind.value}_single")
    block = _emit_block(prob, "0", 0, map, sides, cs, spec)
    return _model(prob, [block], map, cs, spec)


def build_cnt_ilp(
    map: AdjacencyGraph,
    sides: dict[str, float],
    cs: SeparationConstraintSet,
    spec: ModelSpec,
) -> CartogramModel:
    """Integer program counting lost adjacencies via one binary per T-edge.

    The binary's big-M is the L1 diagonal of a box that provably contains an
    optimal placement (all side lengths plus maximal gaps, per axis), so the
    optimal count is preserved. Distances enter the objective with a small
    weight to break ties toward closer squares.
    """
    if spec.objective_kind is not ObjectiveKind.CNT:
        raise ModelError("spec.objective_kind must be CNT")
    prob = LpProblem(name="demers_CNT_single")
    block = _emit_block(prob, "0", 0, map, sides, cs, spec)
    return _model(prob, [block], map, cs, spec)


def _coupling_pairs(k: int, stability: Stability) -> list[tuple[int, int]]:
    if stability is Stability.CO:
        return [(i, j) for i in range(k) for j in range(i + 1, k)]
    if stability is Stability.SU:
        return [(i, i + 1) for i in range(k - 1)]
    if stability is Stability.CENTRAL:
        return [(0, i) for i in range(1, k)]
    raise ModelError(f"no coupling pairs for stability {stability}")


def build_multi_lp(
    map: AdjacencyGraph,
    table: SideLengthTable,
    cs: SeparationConstraintSet,
    spec: ModelSpec,
) -> CartogramModel:
    """One coupled problem over all weight functions.

    Emits k copies of the single-function block and ties region centers
    together with displacement variables for the chosen index pairs: all
    pairs (CO), successive pairs (SU) or everything to the first function
    (CENTRAL). The stability terms are scaled by ``STABILITY_WEIGHT``.
    """
    k = table.k
    if k < 2:
        raise ModelError("multi-function LP needs at least two weight functions")
    if spec.stability not in (Stability.CO, Stability.SU, Stability.CENTRAL):
        raise ModelError(f"unsupported stability {spec.stability} for one coupled LP")
    prob = LpProblem(
        name=f"demers_{spec.objective_kind.value}_{spec.stability.value}_k{k}"
    )
    blocks = [
        _emit_block(prob, str(i), i, map, table.function_sides(i), cs, spec)
        for i in range(k)
    ]
    for i, j in _coupling_pairs(k, spec.stability):
        _emit_coupling(prob, map.sorted_ids, blocks[i], blocks[j], STABILITY_WEIGHT)
    return _model(prob, blocks, map, cs, spec)


class IterativeSequence:
    """Problems for the iterate-and-fix stability scheme, built lazily.

    The first problem anchors the layout with an origin-displacement term;
    each later problem couples its centers to the previously solved centers
    (plain constants) with the stability weight.
    """

    def __init__(
        self,
        map: AdjacencyGraph,
        table: SideLengthTable,
        cs: SeparationConstraintSet,
        spec: ModelSpec,
    ) -> None:
        if spec.stability is not Stability.IT:
            raise ModelError("iterative sequence expects stability IT")
        self.map = map
        self.table = table
        self.cs = cs
        self.spec = spec

    def __len__(self) -> int:
        return self.table.k

    def problem(
        self, i: int, previous_centers: dict[str, Point] | None
    ) -> CartogramModel:
        if i > 0 and previous_centers is None:
            raise ModelError(f"step {i} needs the previously solved centers")
        spec = self.spec
        ids = self.map.sorted_ids
        prob = LpProblem(
            name=f"demers_{spec.objective_kind.value}_IT_step{i}"
        )
        block = _emit_block(
            prob, "0", i, self.map, self.table.function_sides(i), self.cs, spec
        )
        if i == 0:
            # ORG already measures origin displacement as its primary term.
            # Other objectives get the origin term only as an anchor and
            # tie-breaker, weighted so it cannot distort the primary optimum.
            if spec.objective_kind is not ObjectiveKind.ORG:
                _emit_displacement(
                    prob, "it", ids, block.x, block.y, self.map.centroid_array,
                    SECONDARY_WEIGHT,
                )
        else:
            missing = set(ids) - set(previous_centers)
            if missing:
                raise ModelError(f"previous solution missing regions {sorted(missing)}")
            previous = np.array([previous_centers[rid] for rid in ids], dtype=float)
            _emit_displacement(
                prob, "it", ids, block.x, block.y, previous.reshape(-1, 2), STABILITY_WEIGHT
            )
        return _model(prob, [block], self.map, self.cs, spec)


def build_iterative_sequence(
    map: AdjacencyGraph,
    table: SideLengthTable,
    cs: SeparationConstraintSet,
    spec: ModelSpec,
) -> IterativeSequence:
    return IterativeSequence(map, table, cs, spec)
