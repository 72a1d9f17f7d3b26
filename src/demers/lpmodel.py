"""Translate maps, side lengths and separation constraints into LPs/ILPs.

One variable block per weight function: square centers (x, y), L1 distance
variables for adjacent pairs, directional-deviation variables, and optional
origin-displacement or inter-block stability variables. Objectives cover
total adjacent distance (TOP), origin displacement (ORG) and lost-adjacency
count (CNT, with binaries).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

from .mapdata import AdjacencyGraph, SideLengthTable
from .sepconstraints import SeparationConstraintSet, Setting

INF = math.inf

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


@dataclass
class LpProblem:
    """A linear (or binary-integer) program, objective minimized."""

    name: str = "lp"
    variables: list[Variable] = field(default_factory=list)
    constraints: list[LinConstraint] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)

    def add_var(
        self, name: str, lb: float = 0.0, ub: float = INF, binary: bool = False
    ) -> str:
        self.variables.append(Variable(name, lb, ub, binary))
        return name

    def add_constraint(
        self,
        coeffs: dict[str, float],
        relation: str,
        rhs: float,
        name: str = "",
    ) -> None:
        if relation not in ("<=", ">=", "="):
            raise ModelError(f"bad relation {relation!r}")
        items = tuple((v, float(c)) for v, c in coeffs.items() if c != 0.0)
        self.constraints.append(LinConstraint(items, relation, float(rhs), name))

    def add_objective(self, name: str, coeff: float) -> None:
        if coeff == 0.0:
            return
        self.objective[name] = self.objective.get(name, 0.0) + coeff

    @property
    def num_binaries(self) -> int:
        return sum(1 for v in self.variables if v.binary)

    def var_names(self) -> list[str]:
        return [v.name for v in self.variables]

    def validate(self) -> None:
        declared = {v.name for v in self.variables}
        for c in self.constraints:
            for vname, coeff in c.coeffs:
                if vname not in declared:
                    raise ModelError(f"constraint references unknown {vname!r}")
                if not math.isfinite(coeff):
                    raise ModelError(f"non-finite coefficient on {vname!r}")
        for vname, coeff in self.objective.items():
            if vname not in declared:
                raise ModelError(f"objective references unknown {vname!r}")
            if not math.isfinite(coeff):
                raise ModelError(f"non-finite objective coefficient on {vname!r}")

    def to_lp_format(self) -> str:
        """Serialize in CPLEX-style LP file syntax."""
        safe = _SafeNames()
        out = [f"\\* {self.name} *\\", "Minimize"]
        obj_terms = _format_terms(
            [(safe[v], c) for v, c in sorted(self.objective.items())]
        )
        out.append(f" obj: {obj_terms if obj_terms else '0 ' + safe[self.variables[0].name]}"
                   if self.variables else " obj: 0")
        out.append("Subject To")
        for i, c in enumerate(self.constraints):
            rel = {"<=": "<=", ">=": ">=", "=": "="}[c.relation]
            label = safe[c.name] if c.name else f"c{i}"
            terms = _format_terms([(safe[v], k) for v, k in c.coeffs])
            out.append(f" {label}: {terms} {rel} {_num(c.rhs)}")
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
    worst = 0.0
    for v in problem.variables:
        x = values.get(v.name, 0.0)
        worst = max(worst, v.lb - x, x - v.ub)
    for c in problem.constraints:
        lhs = sum(coeff * values.get(name, 0.0) for name, coeff in c.coeffs)
        if c.relation == "<=":
            worst = max(worst, lhs - c.rhs)
        elif c.relation == ">=":
            worst = max(worst, c.rhs - lhs)
        else:
            worst = max(worst, abs(lhs - c.rhs))
    return worst


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
    """Objective/stability configuration and trade-off weights.

    ``secondary_weight`` must stay small enough that the direction terms it
    scales can never override a primary-objective improvement; the default
    1e-3 with deviations bounded by the map extent satisfies that for the
    bundled data scales.
    """

    objective_kind: ObjectiveKind = ObjectiveKind.TOP
    setting: Setting = Setting.WEAK
    stability: Stability = Stability.NONE
    secondary_weight: float = 1e-3
    adjacent_direction_boost: float = 10.0
    stability_weight: float = 1.0


@dataclass(frozen=True)
class BlockMeta:
    """Locates one weight function's variables inside a problem."""

    function_index: int
    sides: dict[str, float]
    x: dict[str, str]
    y: dict[str, str]


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
    *,
    with_binaries: bool = False,
    primary_weight: float = 1.0,
) -> BlockMeta:
    """Emit one weight function's variables, constraints and objective terms."""
    ids = sorted(map.region_ids)
    centroids = {r.id: r.centroid for r in map.regions}
    eps = cs.epsilon
    x = {rid: prob.add_var(f"x{tag}_{rid}", -INF, INF) for rid in ids}
    y = {rid: prob.add_var(f"y{tag}_{rid}", -INF, INF) for rid in ids}

    def w(a: str, b: str) -> float:
        return (sides[a] + sides[b]) / 2.0

    # separation constraints: center distance at least half-sides plus gap
    for axis, pairs, coord in (("H", cs.sorted_h(), x), ("V", cs.sorted_v(), y)):
        for a, b in pairs:
            prob.add_constraint(
                {coord[b]: 1.0, coord[a]: -1.0},
                ">=",
                w(a, b) + cs.gap(axis, (a, b)),
                name=f"sep{axis}{tag}_{a}__{b}",
            )

    # distance variables per adjacency, with the corner-contact correction:
    # the off-axis distance only reaches zero once the squares share a
    # boundary segment at least epsilon long
    edges = map.edge_list()
    h_names: dict[tuple[str, str], str] = {}
    v_names: dict[tuple[str, str], str] = {}
    for a, b in edges:
        prim = cs.primary_axis_of(a, b)
        if prim is None:
            raise ModelError(f"adjacent pair ({a!r}, {b!r}) has no primary constraint")
        axis = prim[0]
        key = _pair_key(a, b)
        hv = prob.add_var(f"h{tag}_{key}")
        vv = prob.add_var(f"v{tag}_{key}")
        h_names[(a, b)] = hv
        v_names[(a, b)] = vv
        fix_h = eps if axis == "V" else 0.0
        fix_v = eps if axis == "H" else 0.0
        for u, v_ in ((a, b), (b, a)):
            prob.add_constraint(
                {x[u]: 1.0, x[v_]: -1.0, hv: -1.0}, "<=", w(a, b) - fix_h
            )
            prob.add_constraint(
                {y[u]: 1.0, y[v_]: -1.0, vv: -1.0}, "<=", w(a, b) - fix_v
            )

    # directional deviation from the centroid ray, one term per region pair;
    # the transposed formula keeps the slope coefficient finite when the
    # pair's dominant centroid distance is vertical
    if spec.objective_kind is not ObjectiveKind.CNT:
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                (ax_, ay_), (bx_, by_) = centroids[a], centroids[b]
                dx_, dy_ = bx_ - ax_, by_ - ay_
                if dx_ == 0.0 and dy_ == 0.0:
                    raise ModelError(f"coincident centroids for {a!r} and {b!r}")
                if abs(dx_) >= abs(dy_):
                    axis = "H"
                    slope = dy_ / dx_
                    expr = {y[a]: 1.0, y[b]: -1.0, x[b]: slope, x[a]: -slope}
                else:
                    axis = "V"
                    slope = dx_ / dy_
                    expr = {x[a]: 1.0, x[b]: -1.0, y[b]: slope, y[a]: -slope}
                d = prob.add_var(f"d{tag}_{axis}_{a}__{b}")
                prob.add_constraint({**expr, d: -1.0}, "<=", 0.0)
                prob.add_constraint({k: -c for k, c in expr.items()} | {d: -1.0}, "<=", 0.0)
                boost = (
                    spec.adjacent_direction_boost if cs.is_adjacent(a, b) else 1.0
                )
                prob.add_objective(d, spec.secondary_weight * boost)

    if spec.objective_kind is ObjectiveKind.TOP:
        for name in list(h_names.values()) + list(v_names.values()):
            prob.add_objective(name, primary_weight)
    elif spec.objective_kind is ObjectiveKind.ORG:
        _emit_displacement(
            prob, f"o{tag}", ids, x, y,
            {rid: centroids[rid] for rid in ids}, primary_weight,
        )
    elif spec.objective_kind is ObjectiveKind.CNT:
        if not with_binaries:
            raise ModelError("CNT objective requires the integer builder")
        n = len(ids)
        big_m = 2.0 * (sum(sides.values()) + max(0, n - 1) * eps)
        for a, b in edges:
            bvar = prob.add_var(f"b{tag}_{_pair_key(a, b)}", 0.0, 1.0, binary=True)
            prob.add_constraint(
                {h_names[(a, b)]: 1.0, v_names[(a, b)]: 1.0, bvar: -big_m},
                "<=",
                0.0,
            )
            prob.add_objective(bvar, primary_weight)
        for name in list(h_names.values()) + list(v_names.values()):
            prob.add_objective(name, spec.secondary_weight)

    return BlockMeta(function_index=function_index, sides=dict(sides), x=x, y=y)


def _emit_displacement(
    prob: LpProblem,
    tag: str,
    ids: list[str],
    x: dict[str, str],
    y: dict[str, str],
    targets: dict[str, Point],
    weight: float,
) -> None:
    """L1 distance of each center to a fixed target point, added to the objective."""
    for rid in ids:
        tx, ty = targets[rid]
        px = prob.add_var(f"px{tag}_{rid}")
        py = prob.add_var(f"py{tag}_{rid}")
        prob.add_constraint({x[rid]: 1.0, px: -1.0}, "<=", tx)
        prob.add_constraint({x[rid]: -1.0, px: -1.0}, "<=", -tx)
        prob.add_constraint({y[rid]: 1.0, py: -1.0}, "<=", ty)
        prob.add_constraint({y[rid]: -1.0, py: -1.0}, "<=", -ty)
        prob.add_objective(px, weight)
        prob.add_objective(py, weight)


def _emit_coupling(
    prob: LpProblem,
    ids: list[str],
    bi: BlockMeta,
    bj: BlockMeta,
    weight: float,
) -> None:
    """Displacement variables tying the same region's centers in two blocks."""
    i, j = bi.function_index, bj.function_index
    for rid in ids:
        cx = prob.add_var(f"cx_{rid}_{i}_{j}")
        cy = prob.add_var(f"cy_{rid}_{i}_{j}")
        prob.add_constraint({bi.x[rid]: 1.0, bj.x[rid]: -1.0, cx: -1.0}, "<=", 0.0)
        prob.add_constraint({bj.x[rid]: 1.0, bi.x[rid]: -1.0, cx: -1.0}, "<=", 0.0)
        prob.add_constraint({bi.y[rid]: 1.0, bj.y[rid]: -1.0, cy: -1.0}, "<=", 0.0)
        prob.add_constraint({bj.y[rid]: 1.0, bi.y[rid]: -1.0, cy: -1.0}, "<=", 0.0)
        prob.add_objective(cx, weight)
        prob.add_objective(cy, weight)


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
    prob.validate()
    return CartogramModel(
        problem=prob,
        blocks=[block],
        cs=cs,
        region_ids=sorted(map.region_ids),
        diagonal=map.diagonal(),
        spec=spec,
    )


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
    block = _emit_block(prob, "0", 0, map, sides, cs, spec, with_binaries=True)
    prob.validate()
    return CartogramModel(
        problem=prob,
        blocks=[block],
        cs=cs,
        region_ids=sorted(map.region_ids),
        diagonal=map.diagonal(),
        spec=spec,
    )


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
    (CENTRAL). The stability terms are scaled by ``spec.stability_weight``.
    """
    k = table.k
    if k < 2:
        raise ModelError("multi-function LP needs at least two weight functions")
    if spec.stability not in (Stability.CO, Stability.SU, Stability.CENTRAL):
        raise ModelError(f"unsupported stability {spec.stability} for one coupled LP")
    with_binaries = spec.objective_kind is ObjectiveKind.CNT
    prob = LpProblem(
        name=f"demers_{spec.objective_kind.value}_{spec.stability.value}_k{k}"
    )
    ids = sorted(map.region_ids)
    blocks = [
        _emit_block(
            prob, str(i), i, map, table.function_sides(i), cs, spec,
            with_binaries=with_binaries,
        )
        for i in range(k)
    ]
    for i, j in _coupling_pairs(k, spec.stability):
        _emit_coupling(prob, ids, blocks[i], blocks[j], spec.stability_weight)
    prob.validate()
    return CartogramModel(
        problem=prob,
        blocks=blocks,
        cs=cs,
        region_ids=ids,
        diagonal=map.diagonal(),
        spec=spec,
    )


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
        ids = sorted(self.map.region_ids)
        with_binaries = spec.objective_kind is ObjectiveKind.CNT
        prob = LpProblem(
            name=f"demers_{spec.objective_kind.value}_IT_step{i}"
        )
        block = _emit_block(
            prob, "0", i, self.map, self.table.function_sides(i), self.cs, spec,
            with_binaries=with_binaries,
        )
        if i == 0:
            # ORG already measures origin displacement as its primary term.
            # Other objectives get the origin term only as an anchor and
            # tie-breaker, weighted so it cannot distort the primary optimum.
            if spec.objective_kind is not ObjectiveKind.ORG:
                origins = {r.id: r.centroid for r in self.map.regions}
                _emit_displacement(
                    prob, "it", ids, block.x, block.y, origins,
                    spec.secondary_weight,
                )
        else:
            missing = set(ids) - set(previous_centers)
            if missing:
                raise ModelError(f"previous solution missing regions {sorted(missing)}")
            _emit_displacement(
                prob, "it", ids, block.x, block.y, previous_centers,
                spec.stability_weight,
            )
        prob.validate()
        return CartogramModel(
            problem=prob,
            blocks=[block],
            cs=self.cs,
            region_ids=ids,
            diagonal=self.map.diagonal(),
            spec=spec,
        )


def build_iterative_sequence(
    map: AdjacencyGraph,
    table: SideLengthTable,
    cs: SeparationConstraintSet,
    spec: ModelSpec,
) -> IterativeSequence:
    return IterativeSequence(map, table, cs, spec)
