"""The benchmark's workloads: a fixed corpus of instances and its runs.

Every instance is written by ``demers.synth.write_instance`` from a constant
instance seed (or is one of the two bundled maps), so the program only ever
sees GeoJSON and CSV files. The corpus does not depend on the benchmark
seed: per-instance differences in solve time and layout quality are larger
than any regression bound, so only a fixed corpus lets the five quality
metrics repeat exactly and the times compare across runs. The benchmark
seed orders the runs (see ``run.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

JITTER = 0.3  # cell-size jitter of the ladder grids; the other grids are unit grids

# Force runs stop at this many iterations instead of the library's 100k, so
# a capped run costs seconds, not minutes; capped runs are counted, not hidden.
FRC_MAX_ITERATIONS = 5_000

# Spans every workload fires: ingest, metrics and SVG output.
COMMON_SPANS = frozenset(
    {"load_map", "load_weights", "scale_weights", "compute_epsilon", "evaluate", "render_svg"}
)
LP_SPANS = COMMON_SPANS | {"derive_constraints", "validate_dag", "decode", "all_leaders"}


@dataclass(frozen=True)
class Run:
    """One ``cli.run`` call: an instance plus a variant."""

    label: str
    map_path: str
    weights_path: str
    variant: str
    frc_max_iterations: int = 100_000


@dataclass
class Workload:
    name: str
    runs: list[Run]
    warmup: Run
    expected_spans: frozenset[str]


def _grid(out: Path, cols: int, rows: int, seed: int, k: int, jitter: float = 0.0):
    from demers.synth import write_instance

    return write_instance(out / "instances" / f"k{k}", cols, seed, k=k, rows=rows, jitter=jitter)


def ladder(out: Path) -> Workload:
    """One LP per run on HiGHS, growing in n: 25, 49 and 100 regions."""
    runs = []
    for cols, variant, k in ((5, "TOP-S-SU", 1), (7, "TOP-S-SU", 1), (7, "ORG-W-SU", 2),
                             (10, "TOP-S-SU", 1)):
        m, w = _grid(out, cols, cols, 0, k, JITTER)
        runs.append(Run(f"grid{cols}x{cols}k{k}/{variant}", m, w, variant))
    m, w = _grid(out, 4, 4, 1, 1, JITTER)
    return Workload(
        "ladder", runs, Run("warmup", m, w, "TOP-S-SU"),
        LP_SPANS | {"build_single_lp", "build_multi_lp", "solve_lp", "anchor_to_origins"},
    )


MATRIX_VARIANTS = [
    f"{obj}-{setting}-{stab}"
    for obj in ("TOP", "ORG")
    for setting in ("S", "W")
    for stab in ("SU", "IT")
]


def matrix(out: Path) -> Workload:
    """The desk-scale experiment c10: an 8x6 unit grid at k = 4, eight variants.

    Not in BENCHMARK.json: one pass takes 20 to 30 s, so within the time the
    benchmark may run, each run gets a single sample. Run it by hand with
    ``--seconds 90`` or more.
    """
    m, w = _grid(out, 8, 6, 7, 4)
    runs = [Run(f"grid8x6k4/{v}", m, w, v) for v in MATRIX_VARIANTS]
    wm, ww = _grid(out, 4, 3, 1, 4)
    return Workload(
        "matrix", runs, Run("warmup", wm, ww, "TOP-S-SU"),
        LP_SPANS | {"build_multi_lp", "build_iterative_sequence", "IterativeSequence.problem",
                    "solve_lp", "anchor_to_origins"},
    )


DATASET_VARIANTS = ["TOP-S-SU", "ORG-W-SU", "CNT-W-SU", "CNT-S-SU",
                    "TOP-W-IT", "ORG-S-IT", "CNT-W-IT", "TOP-S-CO"]
EXACT_GRID_VARIANTS = ["TOP-S-SU", "ORG-W-SU", "CNT-W-SU", "CNT-S-SU"]
EXACT_GRIDS = 6


def exact(out: Path) -> Workload:
    """Tiny runs on the bundled simplex and its branch and bound."""
    data = Path(__import__("demers").__file__).parent / "data"
    runs = [
        Run(f"{name}/{v}", str(data / f"{name}.geojson"), str(data / f"{name}_weights.csv"), v)
        for name in ("sample3", "luxembourg")
        for v in DATASET_VARIANTS
    ]
    for j in range(EXACT_GRIDS):
        m, w = _grid(out, 3, 3, j, 1)
        runs += [Run(f"grid3x3s{j}/{v}", m, w, v) for v in EXACT_GRID_VARIANTS]
    wm, ww = _grid(out, 3, 2, 0, 1)
    return Workload(
        "exact", runs, Run("warmup", wm, ww, "CNT-W-SU"),
        LP_SPANS | {"build_single_lp", "build_cnt_ilp", "build_multi_lp",
                    "build_iterative_sequence", "IterativeSequence.problem",
                    "solve_lp", "solve_ilp", "anchor_to_origins"},
    )


FORCE_VARIANTS = ["FRC-O-S", "FRC-T-S"]
FORCE_STRIPS = 2


def force(out: Path) -> Workload:
    """The force baseline on 7x1 strips and one 5x5 grid, k = 2."""
    instances = [_grid(out, 7, 1, j, 2) for j in range(FORCE_STRIPS)]
    instances.append(_grid(out, 5, 5, 0, 2))
    runs = [
        Run(f"{Path(m).stem}/{v}", m, w, v, FRC_MAX_ITERATIONS)
        for m, w in instances
        for v in FORCE_VARIANTS
    ]
    wm, ww = _grid(out, 3, 1, 0, 2)
    return Workload(
        "force", runs, Run("warmup", wm, ww, "FRC-O-S", FRC_MAX_ITERATIONS),
        COMMON_SPANS | {"run_frc"},
    )


WORKLOADS = {"ladder": ladder, "matrix": matrix, "exact": exact, "force": force}
