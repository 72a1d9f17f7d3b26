"""LP layouts of the bundled simplex reproduce committed files byte for byte.

The files ``tests/data/lp_layout_*.json`` pin what the non-CNT variants
compute on the instances of the ``exact`` benchmark with
``engine="simplex"``: every layout's JSON with its leaders, and the status
and pivot count of every LP the run solves. A change to the simplex that
moves one pivot, or one bit of a centre, fails here. After an intended
change to the solver or the models, regenerate them with
``PYTHONPATH=src python tests/test_lp_layout_golden.py``.

The bundled simplex's pivots and the last bits of its point depend on the
number of OpenBLAS threads: on the grid instances one thread and two differ
in 7 of 12 pivot counts and by up to 3.6e-15 in the centres. So the pinned
runs are made in a child process on one OpenBLAS thread, the count the
benchmark pins, both for the check and for regeneration.

The default ``engine="auto"`` solves these LPs on HiGHS. Its layouts must
lie within 1e-9 of the map diagonal of the pinned ones, with the same
leader pairs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from demers import cli
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


def run_cases(engine: str) -> dict[str, cli.RunResult]:
    """File stem -> the pinned LP run on ``engine``."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for stem, (m, w, v) in _cases(Path(tmp)).items():
            result = cli.run(cli.RunConfig(map_path=m, weights_path=w, variant=v, engine=engine))
            assert result.ok, (stem, result.status)
            out[stem] = result
    return out


def golden_documents() -> dict[str, str]:
    """File stem -> JSON text of every pinned LP run, made in a child
    process on one OpenBLAS thread."""
    src = str(Path(cli.__file__).resolve().parents[1])  # the demers under test
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, "--print"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _documents_here() -> dict[str, str]:
    """``golden_documents`` computed in this process."""
    out = {}
    for stem, result in run_cases("simplex").items():
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


def test_default_engine_solves_on_highs_near_the_golden_layouts():
    for stem, result in run_cases("auto").items():
        assert {s["engine"] for s in result.solver_stats} == {"highs"}, stem
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
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(_documents_here()))
        sys.exit()
    GOLDEN.mkdir(exist_ok=True)
    for stem, text in golden_documents().items():
        (GOLDEN / f"{stem}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / stem}.json", file=sys.stderr)
