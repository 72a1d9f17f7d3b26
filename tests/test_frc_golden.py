"""Force layouts reproduce committed files byte for byte.

The files ``tests/data/frc_*.json`` pin what the force baseline computes:
every function's layout JSON, its iteration count and whether it
converged. Any change to the force kernel that moves a single bit of a
centre, or one iteration, fails here. After an intended change to the
force law, regenerate them with ``PYTHONPATH=src python tests/test_frc_golden.py``.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import pytest

from demers.cli import RunConfig, _run_frc_variant, parse_variant
from demers.mapdata import (
    WeightKind,
    compute_epsilon,
    load_map,
    load_weights,
    scale_weights,
)
from demers.synth import grid_map, lognormal_weights

GOLDEN = Path(__file__).parent / "data"
DATA = Path(__file__).parent.parent / "src" / "demers" / "data"

# low enough to keep the 5x5 runs short; some of them hit it, which pins
# the capped path as well as the converged one
MAX_ITERATIONS = 2_000
VARIANTS = ("FRC-O-S", "FRC-T-S")


def _instances() -> dict:
    g = load_map(DATA / "sample3.geojson")
    weights = load_weights(DATA / "sample3_weights.csv", g, WeightKind.TIME_SERIES)
    grid = grid_map(5)
    return {
        "sample3": (g, scale_weights(weights, g)),
        "grid5_k2": (grid, scale_weights(lognormal_weights(grid, k=2, seed=0), grid)),
    }


def golden_documents() -> dict[str, str]:
    """File stem -> JSON text of every pinned force run."""
    out = {}
    for name, (g, table) in _instances().items():
        eps = compute_epsilon(table, g)
        for variant in VARIANTS:
            config = RunConfig(
                map_path="", weights_path="", variant=variant,
                frc_max_iterations=MAX_ITERATIONS,
            )
            stats: list[dict] = []
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # residual overlap at the cap
                layouts, _ = _run_frc_variant(
                    parse_variant(variant), config, g, table, eps, stats
                )
            doc = {
                "layouts": [lay.to_json_dict() for lay in layouts],
                "runs": [
                    {"iterations": s["iterations"], "converged": s["status"] == "converged"}
                    for s in stats
                ],
            }
            out[f"frc_{name}_{variant}"] = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return out


@pytest.fixture(scope="module")
def documents() -> dict[str, str]:
    return golden_documents()


@pytest.mark.parametrize(
    "stem", [f"frc_{n}_{v}" for n in ("sample3", "grid5_k2") for v in VARIANTS]
)
def test_force_layout_matches_golden_file(documents, stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert documents[stem] == expected


def test_every_golden_force_file_is_checked(documents):
    assert {p.stem for p in GOLDEN.glob("frc_*.json")} == set(documents)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, text in golden_documents().items():
        (GOLDEN / f"{stem}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / stem}.json", file=sys.stderr)
