"""CNT layouts reproduce committed files.

The files ``tests/data/ilp_*.json`` pin what the CNT variants compute: for
every ILP a run solves, its status, its objective and the value of each
binary, and for every layout of the run, each region's centre. A CNT layout
is the cold LP solve of its incumbent's binaries, so it depends only on the
binaries, never on the path the branch and bound took; node and pivot
counts are therefore not pinned. Status and binaries must match exactly,
centres within 1e-12 and objectives within 1e-12 relative.

After an intended change to the CNT model, regenerate the files with
``PYTHONPATH=src python tests/test_ilp_golden.py``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from demers import cli
from demers.synth import write_instance

GOLDEN = Path(__file__).parent / "data"
DATA = Path(__file__).parent.parent / "src" / "demers" / "data"

TOL = 1e-12
GRID_SEEDS = range(6)
GRID_VARIANTS = ("CNT-W-SU", "CNT-S-SU")


def _cases(tmp: Path) -> dict[str, tuple[str, str, str]]:
    """File stem -> (map path, weights path, variant)."""
    cases = {}
    for name, variants in (("sample3", GRID_VARIANTS), ("luxembourg", ("CNT-W-IT",))):
        for v in variants:
            cases[f"ilp_{name}_{v}"] = (
                str(DATA / f"{name}.geojson"), str(DATA / f"{name}_weights.csv"), v
            )
    for seed in GRID_SEEDS:
        m, w = write_instance(tmp, 3, seed, k=1, rows=3)
        for v in GRID_VARIANTS:
            cases[f"ilp_grid3x3s{seed}_{v}"] = (m, w, v)
    return cases


def golden_records() -> dict[str, dict]:
    """File stem -> record of every pinned CNT run."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for stem, (m, w, v) in _cases(Path(tmp)).items():
            solves = []
            real = cli.solve_ilp

            def record(problem, *args, **kwargs):
                sol = real(problem, *args, **kwargs)
                binaries = [problem.col_names[j] for j, b in enumerate(problem.binary) if b]
                solves.append({
                    "status": sol.status.value,
                    "objective": sol.objective,
                    "binaries": {nm: sol.values[nm] for nm in binaries},
                })
                return sol

            with mock.patch.object(cli, "solve_ilp", record):
                result = cli.run(cli.RunConfig(map_path=m, weights_path=w, variant=v))
            assert result.ok, (stem, result.status)
            out[stem] = {
                "solves": solves,
                "centers": [
                    {rid: list(c) for rid, c in sorted(lay.centers.items())}
                    for lay in result.layouts
                ],
            }
    return out


@pytest.fixture(scope="module")
def records() -> dict[str, dict]:
    return golden_records()


STEMS = sorted(
    [f"ilp_sample3_{v}" for v in GRID_VARIANTS]
    + ["ilp_luxembourg_CNT-W-IT"]
    + [f"ilp_grid3x3s{s}_{v}" for s in GRID_SEEDS for v in GRID_VARIANTS]
)


@pytest.mark.parametrize("stem", STEMS)
def test_cnt_run_matches_golden_file(records, stem):
    expected = json.loads((GOLDEN / f"{stem}.json").read_text(encoding="utf-8"))
    got = records[stem]
    assert len(got["solves"]) == len(expected["solves"]) >= 1
    for g, e in zip(got["solves"], expected["solves"]):
        assert g["status"] == e["status"]
        assert g["binaries"] == e["binaries"]
        assert g["objective"] == pytest.approx(e["objective"], rel=TOL, abs=0.0)
    assert len(got["centers"]) == len(expected["centers"])
    for g, e in zip(got["centers"], expected["centers"]):
        assert g.keys() == e.keys()
        for rid, (x, y) in e.items():
            assert abs(g[rid][0] - x) <= TOL and abs(g[rid][1] - y) <= TOL, rid


def test_every_golden_ilp_file_is_checked(records):
    assert {p.stem for p in GOLDEN.glob("ilp_*.json")} == set(records) == set(STEMS)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem, rec in golden_records().items():
        text = json.dumps(rec, indent=1, sort_keys=True) + "\n"
        (GOLDEN / f"{stem}.json").write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN / stem}.json", file=sys.stderr)
