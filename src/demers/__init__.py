"""Stable Demers cartograms: squares sized by data, laid out by linear programs.

The pipeline: load a map and weight tables (``mapdata``), derive directed
separation constraints (``sepconstraints``), build LP/ILP models
(``lpmodel``), solve them (``simplexsolver``), decode square layouts
(``layout``), route leaders for lost adjacencies (``leaders``), score
quality and stability (``metrics``) and render SVG (``render``). A
force-directed baseline lives in ``forcelayout``; ``cli`` ties everything
into the ``demers`` command.
"""

from .forcelayout import ForceConfig, FrcResult, InitMode, QualityForce, run_frc
from .layout import (
    SquareLayout,
    anchor_to_origins,
    decode,
    interpolate,
    l1_gap,
    validity_violations,
)
from .leaders import Leader, all_leaders, lost_adjacencies, min_leader, two_bend_leader
from .lpmodel import (
    CartogramModel,
    LpProblem,
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
    Region,
    SideLengthTable,
    WeightKind,
    WeightSet,
    compute_epsilon,
    load_map,
    load_weights,
    scale_weights,
)
from .metrics import MetricsReport, evaluate, madj, mdis, mrel, sdis, srel, zone_vector
from .render import render_frames, render_svg
from .sepconstraints import (
    SeparationConstraintSet,
    Setting,
    derive_constraints,
    reduce_transitive,
    validate_dag,
)
from .simplexsolver import SolveStatus, Solution, solve_ilp, solve_lp

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "CartogramModel",
    "ForceConfig",
    "FrcResult",
    "InitMode",
    "Leader",
    "LpProblem",
    "MetricsReport",
    "ModelSpec",
    "ObjectiveKind",
    "QualityForce",
    "Region",
    "SeparationConstraintSet",
    "Setting",
    "SideLengthTable",
    "SolveStatus",
    "Solution",
    "SquareLayout",
    "Stability",
    "WeightKind",
    "WeightSet",
    "all_leaders",
    "anchor_to_origins",
    "build_cnt_ilp",
    "build_iterative_sequence",
    "build_multi_lp",
    "build_single_lp",
    "compute_epsilon",
    "decode",
    "derive_constraints",
    "evaluate",
    "interpolate",
    "l1_gap",
    "load_map",
    "load_weights",
    "lost_adjacencies",
    "madj",
    "mdis",
    "min_leader",
    "mrel",
    "reduce_transitive",
    "render_frames",
    "render_svg",
    "run_frc",
    "scale_weights",
    "sdis",
    "solve_ilp",
    "solve_lp",
    "srel",
    "two_bend_leader",
    "validate_dag",
    "validity_violations",
    "zone_vector",
]
