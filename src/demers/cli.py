"""Pipeline orchestration and the ``demers`` command-line entry point.

One run: ingest map and weights, derive constraints, build and solve the
requested variant, route leaders, score the layouts, write JSON/CSV/SVG
artifacts. Variant strings concatenate the objective, the constraint
setting and the stability scheme, e.g. ``TOP-S-SU`` or ``CNT-W-IT``; the
force baseline uses ``FRC-{O,T}-{S,U}`` (origin/topology force, stable or
origin-based initialization).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import logging
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from . import leaders as leadersmod, metrics as metricsmod, notices
from .forcelayout import ForceConfig, InitMode, QualityForce, run_frc
from .layout import SquareLayout, anchor_to_origins, decode
from .lpmodel import (
    CartogramModel,
    ModelSpec,
    ObjectiveKind,
    Stability,
    build_cnt_ilp,
    build_iterative_sequence,
    build_multi_lp,
    build_single_lp,
)
from .mapdata import (
    AdjacencyGraph,
    WeightKind,
    compute_epsilon,
    load_map,
    load_weights,
    scale_weights,
)
from .render import render_frames, render_svg
from .sepconstraints import (
    SeparationConstraintSet,
    Setting,
    derive_constraints,
    reduce_transitive,
    validate_dag,
)
from .simplexsolver import SolveStatus, Solution, solve_ilp, solve_lp
from .synth import write_instance

SCHEMA_VERSION = 1

LP_OBJECTIVES = {"TOP": ObjectiveKind.TOP, "ORG": ObjectiveKind.ORG, "CNT": ObjectiveKind.CNT}
LP_SETTINGS = {"S": Setting.STRONG, "W": Setting.WEAK}
LP_STABILITIES = {
    "CO": Stability.CO,
    "SU": Stability.SU,
    "IT": Stability.IT,
    "CENTRAL": Stability.CENTRAL,
}


# weight kinds as the command line and matrix specs name them
WEIGHT_KINDS = {"timeseries": WeightKind.TIME_SERIES, "vectors": WeightKind.WEIGHT_VECTORS}


class VariantError(ValueError):
    pass


@dataclass(frozen=True)
class Variant:
    objective: ObjectiveKind | None = None
    setting: Setting | None = None
    stability: Stability | None = None
    frc_quality: QualityForce | None = None
    frc_stable_init: bool | None = None

    @property
    def is_frc(self) -> bool:
        return self.frc_quality is not None


def parse_variant(raw: str) -> Variant:
    parts = raw.strip().upper().split("-")
    if len(parts) == 3 and parts[0] == "FRC":
        if parts[1] not in ("O", "T") or parts[2] not in ("S", "U"):
            raise VariantError(f"bad force variant {raw!r}")
        return Variant(
            frc_quality=QualityForce.ORIGIN if parts[1] == "O" else QualityForce.TOPOLOGY,
            frc_stable_init=parts[2] == "S",
        )
    if len(parts) == 3 and parts[0] in LP_OBJECTIVES:
        if parts[1] not in LP_SETTINGS or parts[2] not in LP_STABILITIES:
            raise VariantError(f"bad variant {raw!r}")
        return Variant(
            objective=LP_OBJECTIVES[parts[0]],
            setting=LP_SETTINGS[parts[1]],
            stability=LP_STABILITIES[parts[2]],
        )
    raise VariantError(
        f"cannot parse variant {raw!r}: expected OBJ-SETTING-STABILITY or FRC-Q-INIT"
    )


@dataclass
class RunConfig:
    map_path: str
    weights_path: str
    variant: str
    out_dir: str | None = None
    kind: WeightKind = WeightKind.TIME_SERIES
    area_proportional: bool = False
    engine: str = "auto"
    lp_time_limit: float = 60.0
    ilp_time_limit: float = 300.0
    node_limit: int = 100_000
    frames: int = 0
    dump_lp: bool = False
    dump_constraints: bool = False
    solver_log: bool = False
    labels: bool = False
    dataset_name: str | None = None
    frc_max_iterations: int = 100_000


@dataclass
class RunResult:
    config: RunConfig
    status: str  # "ok", "partial", or "error: ..."
    layouts: list[SquareLayout] = field(default_factory=list)
    leaders_per_layout: list[list] = field(default_factory=list)
    routing_per_layout: list[leadersmod.RoutingReport] = field(default_factory=list)
    report: metricsmod.MetricsReport | None = None
    solver_stats: list[dict] = field(default_factory=list)
    # pair counts per axis of the derived set and of the reduced set the
    # LP/ILP rows come from; None for force runs
    constraint_counts: dict[str, dict[str, int]] | None = None
    wall_time: float = 0.0
    # seconds per pipeline stage (``ingest``, ``constraints``, ``model``,
    # ``solve``, ...) up to the end of the run or the failure; artifact
    # writing after the metrics is not counted, as in ``wall_time``
    stage_seconds: dict[str, float] = field(default_factory=dict)
    artifacts: list[str] = field(default_factory=list)
    error_stage: str | None = None  # pipeline stage that raised, on failure
    traceback: str | None = None
    # what the run warned about its results: clamped metrics, residual
    # force overlap (see ``notices``)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def unroutable_per_layout(self) -> list[int]:
        return [len(r.unroutable) for r in self.routing_per_layout]

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _solution_stats(sol: Solution) -> dict:
    return {
        "status": sol.status.value,
        "objective": sol.objective,
        "iterations": sol.iterations,
        "nodes": sol.nodes,
        "engine": sol.engine,
        "engine_reason": sol.engine_reason,
        "method": sol.method,
        "dual_objective": sol.dual_objective,
        "refactors": sol.refactors,
        "wall_time": sol.wall_time,
    }


class _Stage:
    """The pipeline stage a run is in, named in its failure report, and the
    ``perf_counter`` seconds spent in each stage so far."""

    def __init__(self) -> None:
        self.name = "variant"
        self.seconds: dict[str, float] = {}
        self._since = time.perf_counter()

    def enter(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[self.name] = self.seconds.get(self.name, 0.0) + (now - self._since)
        self.name, self._since = name, now

    def totals(self) -> dict[str, float]:
        """Seconds per stage, the current one counted up to now."""
        self.enter(self.name)
        return dict(self.seconds)


def _pair_counts(cs: SeparationConstraintSet) -> dict[str, int]:
    h, v = cs.axes["H"], cs.axes["V"]
    return {"H": h.ia.size, "V": v.ia.size, "secondary": int(h.secondary.sum() + v.secondary.sum())}


def _solve_lp_variant(
    variant: Variant,
    config: RunConfig,
    map: AdjacencyGraph,
    table,
    cs: SeparationConstraintSet,
    lp_cs: SeparationConstraintSet,
    stats: list[dict],
    stage: _Stage,
) -> tuple[list[SquareLayout], bool]:
    """Solve the requested LP/ILP variant; returns layouts and a partial flag.

    The model rows come from ``lp_cs``, the transitive reduction of ``cs``;
    every layout is validated against, and refers to, the full set ``cs``.
    Each solve appends its statistics to ``stats``.
    """
    stability = variant.stability
    if table.k == 1 and stability is not Stability.IT:
        stability = Stability.NONE  # nothing to couple
    spec = ModelSpec(
        objective_kind=variant.objective,
        setting=variant.setting,
        stability=stability,
    )
    is_cnt = variant.objective is ObjectiveKind.CNT
    partial = False

    def run_one(model: CartogramModel) -> Solution:
        nonlocal partial
        stage.enter("solve")
        if model.problem.num_binaries:
            sol = solve_ilp(
                model.problem,
                engine=config.engine,
                node_limit=config.node_limit,
                time_limit=config.ilp_time_limit,
                log=config.solver_log,
            )
            if sol.status is SolveStatus.NODE_LIMIT:
                partial = True
        else:
            sol = solve_lp(
                model.problem,
                engine=config.engine,
                time_limit=config.lp_time_limit,
                log=config.solver_log,
            )
        entry = _solution_stats(sol)
        if model.problem.num_binaries:
            entry["root_iterations"] = sol.root_iterations
            # the pairs the incumbent lets go: a binary at 0 forces its
            # pair's gaps to 0, so at most this many adjacencies are lost
            entry["binaries_set"] = (
                None if sol.x is None else int((sol.x[model.problem.binary] > 0.5).sum())
            )
        stats.append({**entry, **model.problem.size()})
        if sol.x is None:
            raise RuntimeError(f"solver returned {sol.status.value} with no point")
        stage.enter("decode")
        return sol

    anchored = variant.objective is ObjectiveKind.ORG
    stage.enter("model")
    if spec.stability is Stability.NONE:
        sides = table.function_sides(0)
        model = build_cnt_ilp(map, sides, lp_cs, spec) if is_cnt else build_single_lp(
            map, sides, lp_cs, spec
        )
        _maybe_dump_lp(config, model, "model")
        layouts = decode(run_one(model), model, cs)
    elif spec.stability is Stability.IT:
        anchored = True
        seq = build_iterative_sequence(map, table, lp_cs, spec)
        layouts = []
        prev = None
        for i in range(len(seq)):
            stage.enter("model")
            model = seq.problem(i, prev)
            _maybe_dump_lp(config, model, f"model_step{i}")
            lay = decode(run_one(model), model, cs)[0]
            layouts.append(lay)
            prev = lay.centers
    else:
        model = build_multi_lp(map, table, lp_cs, spec)
        _maybe_dump_lp(config, model, "model")
        layouts = decode(run_one(model), model, cs)

    if not anchored:
        origins = {r.id: r.centroid for r in map.regions}
        layouts = anchor_to_origins(layouts, origins)
    return layouts, partial


def _maybe_dump_lp(config: RunConfig, model: CartogramModel, stem: str) -> None:
    if config.dump_lp and config.out_dir:
        path = Path(config.out_dir) / f"{stem}.lp"
        path.write_text(model.problem.to_lp_format(), encoding="utf-8")


def _run_frc_variant(
    variant: Variant,
    config: RunConfig,
    map: AdjacencyGraph,
    table,
    epsilon: float,
    stats: list[dict],
) -> tuple[list[SquareLayout], bool]:
    layouts: list[SquareLayout] = []
    previous = None
    all_converged = True
    for i in range(table.k):
        use_prev = variant.frc_stable_init and previous is not None
        cfg = ForceConfig(
            quality_variant=variant.frc_quality,
            init=InitMode.PREVIOUS_LAYOUT if use_prev else InitMode.MAP_ORIGINS,
            epsilon=epsilon,
            max_iterations=config.frc_max_iterations,
        )
        result = run_frc(map, table.function_sides(i), cfg, previous=previous)
        result.layout.function_index = i
        layouts.append(result.layout)
        previous = result.layout
        all_converged = all_converged and result.converged
        stats.append(
            {
                "status": "converged" if result.converged else "iteration_cap",
                "iterations": result.iterations,
                "max_force": result.max_force,
                "residual_overlap_area": result.residual_overlap_area,
                "residual_overlap_frac": result.residual_overlap_frac,
                "engine": "frc",
            }
        )
    return layouts, not all_converged


def run(config: RunConfig) -> RunResult:
    """Execute one variant end to end and write its artifacts.

    A failure in any stage becomes an ``error: ...`` status. The result then
    keeps the stage that failed and the traceback, and ``manifest.json``
    records them next to the solves made before the failure. Either way the
    result and the manifest carry ``stage_seconds``, the time per stage, and
    the run's ``warnings``, each still issued as it happened.
    """
    with notices.recording() as warned:
        return _run(config, warned)


def _run(config: RunConfig, warned: list[str]) -> RunResult:
    """``run``'s body; ``warned`` fills with the run's warnings as they happen."""
    t0 = time.perf_counter()
    out = Path(config.out_dir) if config.out_dir else None
    stage = _Stage()
    stats: list[dict] = []
    counts = None
    try:
        if out:
            stage.enter("artifacts")
            out.mkdir(parents=True, exist_ok=True)
            stage.enter("variant")
        variant = parse_variant(config.variant)
        stage.enter("ingest")
        map = load_map(config.map_path)
        weights = load_weights(config.weights_path, map, config.kind)
        table = scale_weights(weights, map, area_proportional=config.area_proportional)
        epsilon = compute_epsilon(table, map)

        leaders_per_layout: list[list] = []
        routing_per_layout: list[leadersmod.RoutingReport] = []
        if variant.is_frc:
            stage.enter("force")
            layouts, partial = _run_frc_variant(
                variant, config, map, table, epsilon, stats
            )
        else:
            stage.enter("constraints")
            cs = derive_constraints(map, epsilon, variant.setting)
            cycle = validate_dag(cs)
            if cycle is not None:
                raise RuntimeError(f"constraint derivation produced a cycle: {cycle}")
            lp_cs = reduce_transitive(cs)
            counts = {"derived": _pair_counts(cs), "kept": _pair_counts(lp_cs)}
            if config.dump_constraints and out:
                (out / "constraints.dot").write_text(cs.to_dot(), encoding="utf-8")
            layouts, partial = _solve_lp_variant(
                variant, config, map, table, cs, lp_cs, stats, stage
            )
            stage.enter("leaders")
            for lay in layouts:
                routed, routing = leadersmod.all_leaders(lay, cs, map)
                leaders_per_layout.append(routed)
                routing_per_layout.append(routing)
        if not leaders_per_layout:
            leaders_per_layout = [[] for _ in layouts]
            routing_per_layout = [leadersmod.RoutingReport(0, ())] * len(layouts)

        stage.enter("metrics")
        report = metricsmod.evaluate(layouts, map)
        result = RunResult(
            config=config,
            status="partial" if partial else "ok",
            layouts=layouts,
            leaders_per_layout=leaders_per_layout,
            routing_per_layout=routing_per_layout,
            report=report,
            solver_stats=stats,
            constraint_counts=counts,
            stage_seconds=stage.totals(),
            wall_time=time.perf_counter() - t0,
            warnings=warned,
        )
        if out:
            stage.enter("artifacts")
            _write_artifacts(result, out, config)
        return result
    except Exception as exc:  # noqa: BLE001 - per-run failures become statuses
        result = RunResult(
            config=config,
            status=f"error: {exc}",
            solver_stats=stats,
            constraint_counts=counts,
            stage_seconds=stage.totals(),
            wall_time=time.perf_counter() - t0,
            error_stage=stage.name,
            traceback=traceback.format_exc(),
            warnings=warned,
        )
        if out:
            with contextlib.suppress(OSError):
                _write_manifest(result, out)
        return result


def _write_artifacts(result: RunResult, out: Path, config: RunConfig) -> None:
    for lay, routed in zip(result.layouts, result.leaders_per_layout):
        i = lay.function_index
        p_json = out / f"layout_{i}.json"
        p_json.write_text(lay.to_json(routed) + "\n", encoding="utf-8")
        p_svg = out / f"cartogram_{i}.svg"
        p_svg.write_text(render_svg(lay, routed, labels=config.labels), encoding="utf-8")
        result.artifacts += [str(p_json), str(p_svg)]
    if config.frames >= 2 and len(result.layouts) >= 2:
        for i in range(len(result.layouts) - 1):
            a, b = result.layouts[i], result.layouts[i + 1]
            if a.constraint_ref is None or a.constraint_ref != b.constraint_ref:
                continue
            frame_dir = out / f"frames_{a.function_index}_{b.function_index}"
            frame_dir.mkdir(exist_ok=True)
            for j, doc in enumerate(render_frames(a, b, config.frames, labels=config.labels)):
                (frame_dir / f"frame_{j:04d}.svg").write_text(doc, encoding="utf-8")
    p_metrics = out / "metrics.json"
    p_metrics.write_text(
        json.dumps(result.report.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    (out / "metrics.csv").write_text(matrix_csv([result]), encoding="utf-8")
    result.artifacts += [str(p_metrics), _write_manifest(result, out)]


def _write_manifest(result: RunResult, out: Path) -> str:
    config = result.config
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "variant": config.variant,
        "map": str(config.map_path),
        "weights": str(config.weights_path),
        "kind": config.kind.value,
        "status": result.status,
        "error_stage": result.error_stage,
        "traceback": result.traceback,
        "wall_time": result.wall_time,
        "stage_seconds": result.stage_seconds,
        "constraints": result.constraint_counts,
        "solves": result.solver_stats,
        "leader_counts": [len(ls) for ls in result.leaders_per_layout],
        "unroutable_counts": result.unroutable_per_layout,
        "warnings": result.warnings,
        "unroutable_pairs": [
            [{"from": a, "to": b, "reason": why} for a, b, why in r.unroutable]
            for r in result.routing_per_layout
        ],
    }
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


CSV_FIELDS = [
    "dataset",
    "variant",
    "status",
    "k",
    "madj",
    "mrel",
    "mdis",
    "sdis",
    "srel",
    "lost_total",
]


def matrix_csv(results: list[RunResult]) -> str:
    """Combined CSV over runs, one row per (dataset, variant), sorted."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    rows = []
    for res in results:
        name = res.config.dataset_name or Path(res.config.map_path).stem
        row = {
            "dataset": name,
            "variant": res.config.variant,
            "status": res.status,
            "k": len(res.layouts),
            "madj": "",
            "mrel": "",
            "mdis": "",
            "sdis": "",
            "srel": "",
            "lost_total": "",
        }
        if res.report is not None:
            row.update(
                madj=f"{res.report.madj:.6f}",
                mrel=f"{res.report.mrel:.6f}",
                mdis=f"{res.report.mdis:.6f}",
                sdis=f"{res.report.sdis:.6f}",
                srel=f"{res.report.srel:.6f}",
                lost_total=sum(res.report.lost_counts),
            )
        rows.append(row)
    rows.sort(key=lambda r: (r["dataset"], r["variant"]))
    writer.writerows(rows)
    return buf.getvalue()


def run_matrix(configs: list[RunConfig], workers: int = 1) -> list[RunResult]:
    """Run independent configs, optionally in parallel; order-stable results."""
    if workers <= 1:
        return [run(c) for c in configs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, configs))


# ---------------------------------------------------------------------------
# argument parsing


def _weight_kind(raw: str) -> WeightKind:
    """The weight kind ``raw`` names in ``WEIGHT_KINDS``."""
    try:
        return WEIGHT_KINDS[raw]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"weight kind must be one of {', '.join(WEIGHT_KINDS)}, not {raw!r}"
        ) from None


def _add_run_args(p: argparse.ArgumentParser) -> None:
    """The ``run`` options; each default is ``RunConfig``'s."""
    p.add_argument("--map", required=True, help="GeoJSON FeatureCollection path")
    p.add_argument("--weights", required=True, help="CSV: region_id,function_name,value")
    p.add_argument("--variant", required=True, help="e.g. TOP-S-SU, CNT-W-IT, FRC-O-U")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--kind", type=_weight_kind, default=RunConfig.kind,
                   help=f"one of {', '.join(WEIGHT_KINDS)}")
    p.add_argument("--area-proportional", action="store_true",
                   help="map value to square area instead of side length")
    p.add_argument("--engine", choices=["auto", "simplex", "highs"], default=RunConfig.engine)
    p.add_argument("--node-limit", type=int, default=RunConfig.node_limit)
    p.add_argument("--lp-time-limit", type=float, default=RunConfig.lp_time_limit,
                   help="seconds per LP solve")
    p.add_argument("--ilp-time-limit", type=float, default=RunConfig.ilp_time_limit,
                   help="seconds per ILP branch and bound")
    p.add_argument("--frc-max-iterations", type=int, default=RunConfig.frc_max_iterations,
                   help="iteration cap per force layout")
    p.add_argument("--frames", type=int, default=0)
    p.add_argument("--dump-lp", action="store_true")
    p.add_argument("--dump-constraints", action="store_true")
    p.add_argument("--solver-log", action="store_true")
    p.add_argument("--labels", action="store_true")


def _config_from_args(args: argparse.Namespace, variant: str, out_dir: str) -> RunConfig:
    return RunConfig(
        map_path=args.map,
        weights_path=args.weights,
        variant=variant,
        out_dir=out_dir,
        kind=args.kind,
        area_proportional=args.area_proportional,
        engine=args.engine,
        lp_time_limit=args.lp_time_limit,
        ilp_time_limit=args.ilp_time_limit,
        node_limit=args.node_limit,
        frames=args.frames,
        dump_lp=args.dump_lp,
        dump_constraints=args.dump_constraints,
        solver_log=args.solver_log,
        labels=args.labels,
        frc_max_iterations=args.frc_max_iterations,
    )


@contextlib.contextmanager
def _progress_to_stderr():
    """Print the solvers' progress lines (``--solver-log``) on stderr."""
    logger = logging.getLogger("demers")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="demers", description="Stable Demers cartogram toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one variant on one dataset")
    _add_run_args(p_run)

    p_matrix = sub.add_parser("matrix", help="run a variant/dataset grid from a spec file")
    p_matrix.add_argument("--spec", required=True, help="JSON matrix spec")
    p_matrix.add_argument("--out", required=True, help="output directory")
    p_matrix.add_argument("--workers", type=int, default=1)

    p_synth = sub.add_parser("synth", help="generate synthetic grid instances")
    p_synth.add_argument("--grid", type=int, default=5)
    p_synth.add_argument("--rows", type=int, default=None)
    p_synth.add_argument("--seeds", type=int, default=20)
    p_synth.add_argument("--functions", type=int, default=2)
    p_synth.add_argument("--sigma", type=float, default=1.0)
    p_synth.add_argument("--drift", type=float, default=0.25)
    p_synth.add_argument("--jitter", type=float, default=0.0,
                         help="random cell-size variation, 0 for a unit grid")
    p_synth.add_argument("--out", required=True)

    args = parser.parse_args(argv)

    if args.command == "run":
        config = _config_from_args(args, args.variant, args.out)
        with _progress_to_stderr() if args.solver_log else contextlib.nullcontext():
            result = run(config)
        print(f"{config.variant}: {result.status} ({result.wall_time:.2f}s)")
        if result.report:
            r = result.report
            print(
                f"  madj={r.madj:.4f} mrel={r.mrel:.4f} mdis={r.mdis:.4f} "
                f"sdis={r.sdis:.4f} srel={r.srel:.4f}"
            )
        if not result.ok:
            print(f"  {result.status}", file=sys.stderr)
        return result.exit_code

    if args.command == "matrix":
        spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        configs = []
        for ds in spec["datasets"]:
            for variant in spec["variants"]:
                configs.append(
                    RunConfig(
                        map_path=ds["map"],
                        weights_path=ds["weights"],
                        variant=variant,
                        out_dir=str(out / ds["name"] / variant),
                        kind=_weight_kind(ds["kind"]) if "kind" in ds else RunConfig.kind,
                        dataset_name=ds["name"],
                        node_limit=int(spec.get("node_limit", RunConfig.node_limit)),
                    )
                )
        results = run_matrix(configs, workers=args.workers)
        csv_text = matrix_csv(results)
        (out / "combined.csv").write_text(csv_text, encoding="utf-8")
        print(csv_text, end="")
        return 0 if all(r.ok for r in results) else 1

    if args.command == "synth":
        for seed in range(args.seeds):
            map_path, csv_path = write_instance(
                args.out,
                args.grid,
                seed,
                k=args.functions,
                sigma=args.sigma,
                drift=args.drift,
                rows=args.rows,
                jitter=args.jitter,
            )
            print(f"wrote {map_path} {csv_path}")
        return 0

    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
