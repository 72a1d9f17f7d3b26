"""LP layouts of the default engine reproduce committed files byte for byte.

The files ``tests/data/lp_layout_*.json`` pin what the non-CNT variants
compute through ``cli.run`` on the instances of the ``exact`` benchmark:
every layout's JSON with its leaders, and the engine, status and pivot
count of every LP the run solves. Every one of those LPs solves on HiGHS,
and its documents came out byte-identical on one OpenBLAS thread and on
two. A change to the solver or the models that moves one pivot, or one bit
of a centre, fails here. After an intended change, regenerate them with
``PYTHONPATH=src python tests/test_lp_layout_golden.py``.

The bundled simplex, the reference LP solver, solves the same runs with
``cli.solve_lp`` swapped for ``solve_lp(engine="simplex")``. Its layouts
must lie within 1e-9 of the map diagonal of the pinned ones, with the same
leader pairs.
"""

from __future__ import annotations

import functools
import json
import sys
import tempfile
from pathlib import Path

import pytest

from demers import cli
from demers.simplexsolver import solve_lp
from demers.synth import write_instance

GOLDEN = Path(__file__).parent / "data"
DATA = Path(__file__).parent.parent / "src" / "demers" / "data"

DATASET_VARIANTS = ("TOP-S-SU", "ORG-W-SU", "TOP-W-IT", "ORG-S-IT", "TOP-S-CO")
GRID_SEEDS = range(6)
GRID_VARIANTS = ("TOP-S-SU", "ORG-W-SU")


def _cases(tmp: Path) -> dict[str, tuple[str, str, str]]:
    """File stem -> (map path, weights path, variant)."""
    cases = {}
    for name in ("sample3", "luxembourg"):
        for v in DATASET_VARIANTS:
            cases[f"lp_layout_{name}_{v}"] = (
                str(DATA / f"{name}.geojson"), str(DATA / f"{name}_weights.csv"), v
            )
    for seed in GRID_SEEDS:
        m, w = write_instance(tmp, 3, seed, k=1, rows=3)
        for v in GRID_VARIANTS:
            cases[f"lp_layout_grid3x3s{seed}_{v}"] = (m, w, v)
    return cases


def run_cases() -> dict[str, cli.RunResult]:
    """File stem -> the pinned LP run through ``cli.run``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for stem, (m, w, v) in _cases(Path(tmp)).items():
            result = cli.run(cli.RunConfig(map_path=m, weights_path=w, variant=v))
            assert result.ok, (stem, result.status)
            out[stem] = result
    return out


def golden_documents() -> dict[str, str]:
    """File stem -> JSON text of every pinned LP run."""
    out = {}
    for stem, result in run_cases().items():
        doc = {
            "layouts": [
                lay.to_json_dict(leaders)
                for lay, leaders in zip(result.layouts, result.leaders_per_layout)
            ],
            "solves": [
                {"engine": s["engine"], "status": s["status"], "iterations": s["iterations"]}
                for s in result.solver_stats
            ],
        }
        out[stem] = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    return out


@pytest.fixture(scope="module")
def documents() -> dict[str, str]:
    return golden_documents()


STEMS = sorted(
    [f"lp_layout_{n}_{v}" for n in ("sample3", "luxembourg") for v in DATASET_VARIANTS]
    + [f"lp_layout_grid3x3s{s}_{v}" for s in GRID_SEEDS for v in GRID_VARIANTS]
)


@pytest.mark.parametrize("stem", STEMS)
def test_lp_layout_matches_golden_file(documents, stem):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert documents[stem] == expected


def test_every_golden_lp_layout_file_is_checked(documents):
    assert {p.stem for p in GOLDEN.glob("lp_layout_*.json")} == set(documents) == set(STEMS)


def test_bundled_simplex_solves_near_the_golden_layouts(monkeypatch):
    monkeypatch.setattr(cli, "solve_lp", functools.partial(solve_lp, engine="simplex"))
    for stem, result in run_cases().items():
        assert {s["engine"] for s in result.solver_stats} == {"simplex"}, stem
        golden = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))["layouts"]
        assert len(result.layouts) == len(golden), stem
        for lay, leaders, want in zip(result.layouts, result.leaders_per_layout, golden):
            tol = 1e-9 * lay.diagonal
            regions = {r["id"]: (r["cx"], r["cy"]) for r in want["regions"]}
            assert set(regions) == set(lay.centers), stem
            for rid, (cx, cy) in regions.items():
                x, y = lay.centers[rid]
                assert abs(x - cx) <= tol and abs(y - cy) <= tol, (stem, rid)
            pairs = [(ld["from"], ld["to"]) for ld in want["leaders"]]
            assert [ld.endpoints for ld in leaders] == pairs, stem


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, text in golden_documents().items():
        (GOLDEN / f"{stem}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / stem}.json", file=sys.stderr)
