import dataclasses
import json
from pathlib import Path

import pytest

from demers.cli import (
    RunConfig,
    VariantError,
    main,
    matrix_csv,
    parse_variant,
    run,
    run_matrix,
)
from demers.forcelayout import QualityForce
from demers.lpmodel import ObjectiveKind, Stability
from demers.sepconstraints import Setting


class TestVariantParsing:
    @pytest.mark.parametrize(
        "raw,objective,setting,stability",
        [
            ("TOP-S-SU", ObjectiveKind.TOP, Setting.STRONG, Stability.SU),
            ("CNT-W-IT", ObjectiveKind.CNT, Setting.WEAK, Stability.IT),
            ("ORG-W-CO", ObjectiveKind.ORG, Setting.WEAK, Stability.CO),
            ("TOP-S-CENTRAL", ObjectiveKind.TOP, Setting.STRONG, Stability.CENTRAL),
        ],
    )
    def test_lp_variants(self, raw, objective, setting, stability):
        v = parse_variant(raw)
        assert not v.is_frc
        assert (v.objective, v.setting, v.stability) == (objective, setting, stability)

    @pytest.mark.parametrize(
        "raw,quality,stable",
        [
            ("FRC-O-U", QualityForce.ORIGIN, False),
            ("FRC-T-S", QualityForce.TOPOLOGY, True),
        ],
    )
    def test_frc_variants(self, raw, quality, stable):
        v = parse_variant(raw)
        assert v.is_frc
        assert v.frc_quality is quality
        assert v.frc_stable_init is stable

    @pytest.mark.parametrize("raw", ["TOP-X-SU", "FRC-O-Q", "TOP-SU", "NOPE-W-IT"])
    def test_bad_variants(self, raw):
        with pytest.raises(VariantError):
            parse_variant(raw)


def run_sample(tmp_path, sample3_paths, variant, **kw):
    cfg = RunConfig(
        map_path=str(sample3_paths[0]),
        weights_path=str(sample3_paths[1]),
        variant=variant,
        out_dir=str(tmp_path / variant),
        **kw,
    )
    return run(cfg)


class TestRun:
    def test_top_w_it_on_sample(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "TOP-W-IT")
        assert res.ok
        assert len(res.layouts) == 2
        assert sum(len(ls) for ls in res.leaders_per_layout) == 0
        out = Path(res.config.out_dir)
        for name in (
            "layout_0.json",
            "layout_1.json",
            "cartogram_0.svg",
            "cartogram_1.svg",
            "metrics.json",
            "metrics.csv",
            "manifest.json",
        ):
            assert (out / name).exists(), name
        doc = json.loads((out / "layout_0.json").read_text())
        assert doc["schema_version"] == 1
        assert doc["leaders"] == []

    def test_frc_run_flagged_with_overlap_stats(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "FRC-O-U")
        assert res.status in ("ok", "partial")
        doc = json.loads((Path(res.config.out_dir) / "layout_0.json").read_text())
        assert doc["method"] == "frc"
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert "residual_overlap_area" in manifest["solves"][0]

    def test_cnt_on_k4_reports_one_lost(self, tmp_path, luxembourg_paths):
        cfg = RunConfig(
            map_path=str(luxembourg_paths[0]),
            weights_path=str(luxembourg_paths[1]),
            variant="CNT-W-IT",
            out_dir=str(tmp_path / "cnt"),
        )
        res = run(cfg)
        assert res.ok
        assert res.report.lost_counts == [1]
        assert len(res.leaders_per_layout[0]) == 1

    def test_dump_flags(self, tmp_path, sample3_paths):
        res = run_sample(
            tmp_path, sample3_paths, "TOP-S-SU", dump_lp=True, dump_constraints=True
        )
        out = Path(res.config.out_dir)
        assert (out / "model.lp").exists()
        dot = (out / "constraints.dot").read_text()
        assert dot.startswith("digraph")

    def test_frames_written(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "TOP-W-SU", frames=4)
        frame_dir = Path(res.config.out_dir) / "frames_0_1"
        assert sorted(p.name for p in frame_dir.glob("*.svg")) == [
            f"frame_{i:04d}.svg" for i in range(4)
        ]

    def test_error_becomes_status(self, tmp_path):
        cfg = RunConfig(
            map_path="missing.geojson",
            weights_path="missing.csv",
            variant="TOP-W-IT",
            out_dir=str(tmp_path / "x"),
        )
        res = run(cfg)
        assert res.status.startswith("error:")
        assert res.exit_code == 1


class TestMatrix:
    def test_two_variants_two_rows(self, tmp_path, sample3_paths):
        configs = [
            RunConfig(
                map_path=str(sample3_paths[0]),
                weights_path=str(sample3_paths[1]),
                variant=v,
                out_dir=str(tmp_path / v),
                dataset_name="sample3",
            )
            for v in ("TOP-W-IT", "ORG-W-IT")
        ]
        results = run_matrix(configs)
        csv_text = matrix_csv(results)
        lines = csv_text.strip().splitlines()
        assert lines[0].startswith("dataset,variant,status")
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "ORG-W-IT"  # sorted rows

    def test_failures_recorded_in_csv(self, tmp_path, sample3_paths):
        configs = [
            RunConfig(
                map_path="nope.geojson",
                weights_path="nope.csv",
                variant="TOP-W-IT",
                out_dir=str(tmp_path / "bad"),
                dataset_name="broken",
            )
        ]
        csv_text = matrix_csv(run_matrix(configs))
        assert "error:" in csv_text


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path, sample3_paths):
        out = []
        for tag in ("one", "two"):
            res = run(
                RunConfig(
                    map_path=str(sample3_paths[0]),
                    weights_path=str(sample3_paths[1]),
                    variant="TOP-S-SU",
                    out_dir=str(tmp_path / tag),
                    seed=7,
                )
            )
            assert res.ok
            out.append(Path(res.config.out_dir))
        for name in ("layout_0.json", "layout_1.json", "metrics.csv",
                     "cartogram_0.svg", "cartogram_1.svg"):
            assert (out[0] / name).read_bytes() == (out[1] / name).read_bytes(), name


class TestMain:
    def test_run_subcommand(self, tmp_path, sample3_paths, capsys):
        code = main(
            [
                "run",
                "--map", str(sample3_paths[0]),
                "--weights", str(sample3_paths[1]),
                "--variant", "TOP-W-IT",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        assert "madj=" in capsys.readouterr().out

    def test_synth_subcommand(self, tmp_path, capsys):
        code = main(
            ["synth", "--grid", "3", "--seeds", "2", "--out", str(tmp_path / "synth")]
        )
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "synth").iterdir())
        assert files == [
            "grid3x3_s0.csv", "grid3x3_s0.geojson",
            "grid3x3_s1.csv", "grid3x3_s1.geojson",
        ]

    def test_matrix_subcommand(self, tmp_path, sample3_paths, capsys):
        spec = {
            "datasets": [
                {
                    "name": "sample3",
                    "map": str(sample3_paths[0]),
                    "weights": str(sample3_paths[1]),
                }
            ],
            "variants": ["TOP-W-IT", "FRC-O-U"],
        }
        spec_path = tmp_path / "matrix.json"
        spec_path.write_text(json.dumps(spec))
        code = main(["matrix", "--spec", str(spec_path), "--out", str(tmp_path / "m")])
        assert code == 0
        combined = (tmp_path / "m" / "combined.csv").read_text()
        assert combined.count("sample3") == 2


class TestManifest:
    def test_solves_record_highs_method(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "TOP-S-SU", engine="highs")
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        for solve in manifest["solves"]:
            assert solve["engine"] == "highs"
            assert solve["method"] == "ds"  # far below the interior-point size
            assert solve["crossover_nit"] == 0

    def test_unroutable_counts_recorded(self, tmp_path, sample3_paths, monkeypatch):
        from demers import leaders as leadersmod

        real = leadersmod.all_leaders

        def one_unroutable(layout, cs, map):
            routed, report = real(layout, cs, map)
            failure = ("a", "b", "no leader")
            return routed, dataclasses.replace(
                report, unroutable=report.unroutable + (failure,)
            )

        monkeypatch.setattr(leadersmod, "all_leaders", one_unroutable)
        res = run_sample(tmp_path, sample3_paths, "TOP-W-SU")
        assert res.ok
        assert res.unroutable_per_layout == [1, 1]
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["unroutable_counts"] == [1, 1]

    def test_force_runs_record_no_unroutable(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "FRC-O-U", frc_max_iterations=200)
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["unroutable_counts"] == [0] * len(res.layouts)
