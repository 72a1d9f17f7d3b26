"""Builders reproduce committed LP files byte for byte.

The files under ``tests/data/`` pin the exact rows, columns, coefficients
and names every builder emits, so a change to how a model is assembled
cannot silently change the model itself. After an intended model change,
regenerate them with ``PYTHONPATH=src python tests/test_lp_golden.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from demers.lpmodel import (
    ModelSpec,
    ObjectiveKind,
    Stability,
    build_cnt_ilp,
    build_iterative_sequence,
    build_multi_lp,
    build_single_lp,
)
from demers.mapdata import (
    WeightKind,
    compute_epsilon,
    load_map,
    load_weights,
    scale_weights,
)
from demers.sepconstraints import Setting, derive_constraints
from demers.synth import grid_map, lognormal_weights

GOLDEN = Path(__file__).parent / "data"
DATA = Path(__file__).parent.parent / "src" / "demers" / "data"

# previous centers for the second iterative step: fixed constants, so the
# file does not depend on how a solver breaks ties at step 0
IT_PREVIOUS = {"A": (1.25, 1.5), "B": (3.5, 0.75), "C": (3.0, 2.75)}


def _sample3():
    g = load_map(DATA / "sample3.geojson")
    weights = load_weights(DATA / "sample3_weights.csv", g, WeightKind.TIME_SERIES)
    table = scale_weights(weights, g)
    return g, table, compute_epsilon(table, g)


def _unit_grid():
    # a unit grid: many centroid pairs on one line, so many zero slopes
    g = grid_map(3)
    table = scale_weights(lognormal_weights(g, k=2, seed=0), g)
    return g, table, compute_epsilon(table, g)


def golden_problems() -> dict:
    """File stem -> LpProblem for every pinned model."""
    g, table, eps = _sample3()
    strong = derive_constraints(g, eps, Setting.STRONG)
    weak = derive_constraints(g, eps, Setting.WEAK)
    out = {
        "sample3_TOP-S": build_single_lp(
            g, table.function_sides(0), strong,
            ModelSpec(ObjectiveKind.TOP, Setting.STRONG),
        ).problem,
        "sample3_ORG-W-SU_k2": build_multi_lp(
            g, table, weak,
            ModelSpec(ObjectiveKind.ORG, Setting.WEAK, Stability.SU),
        ).problem,
        "sample3_CNT-W": build_cnt_ilp(
            g, table.function_sides(0), weak,
            ModelSpec(ObjectiveKind.CNT, Setting.WEAK),
        ).problem,
    }
    seq = build_iterative_sequence(
        g, table, weak, ModelSpec(ObjectiveKind.TOP, Setting.WEAK, Stability.IT)
    )
    out["sample3_TOP-W-IT_step0"] = seq.problem(0, None).problem
    out["sample3_TOP-W-IT_step1"] = seq.problem(1, IT_PREVIOUS).problem

    gg, gtable, geps = _unit_grid()
    gcs = derive_constraints(gg, geps, Setting.STRONG)
    out["grid3_TOP-S-SU_k2"] = build_multi_lp(
        gg, gtable, gcs, ModelSpec(ObjectiveKind.TOP, Setting.STRONG, Stability.SU)
    ).problem
    return out


@pytest.mark.parametrize("stem", sorted(golden_problems()))
def test_builder_reproduces_golden_lp_file(stem):
    expected = (GOLDEN / f"{stem}.lp").read_text(encoding="utf-8")
    assert golden_problems()[stem].to_lp_format() == expected


def test_every_golden_file_is_checked():
    assert {p.stem for p in GOLDEN.glob("*.lp")} == set(golden_problems())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, problem in golden_problems().items():
        (GOLDEN / f"{stem}.lp").write_text(problem.to_lp_format(), encoding="utf-8")
        print(f"wrote {GOLDEN / stem}.lp", file=sys.stderr)
