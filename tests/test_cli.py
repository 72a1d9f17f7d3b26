import argparse
import dataclasses
import json
from pathlib import Path

import pytest

from demers.cli import (
    RunConfig,
    RunResult,
    VariantError,
    _add_run_args,
    main,
    matrix_csv,
    parse_variant,
    run,
    run_matrix,
)
from demers.forcelayout import QualityForce
from demers.layout import overlap_area, total_square_area
from demers.lpmodel import ObjectiveKind, Stability
from demers.mapdata import WeightKind
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

    def test_frc_run_flagged_with_overlap_stats(
        self, tmp_path, sample3_paths, luxembourg_paths
    ):
        res = run_sample(tmp_path, sample3_paths, "FRC-O-U")
        assert res.status in ("ok", "partial")
        doc = json.loads((Path(res.config.out_dir) / "layout_0.json").read_text())
        assert doc["method"] == "frc"
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert "residual_overlap_area" in manifest["solves"][0]
        # one iteration on luxembourg leaves overlap above the warning threshold
        capped = RunConfig(
            map_path=str(luxembourg_paths[0]),
            weights_path=str(luxembourg_paths[1]),
            variant="FRC-O-U",
            out_dir=str(tmp_path / "capped"),
            frc_max_iterations=1,
        )
        with pytest.warns(UserWarning, match="residual overlap"):
            res = run(capped)
        manifest = json.loads((Path(capped.out_dir) / "manifest.json").read_text())
        [solve] = manifest["solves"]
        area = overlap_area(res.layouts[0])
        assert solve["residual_overlap_area"] == area
        assert solve["residual_overlap_frac"] == area / total_square_area(res.layouts[0]) > 1e-3

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

    @pytest.mark.parametrize("instance", ["sample3", "grid3x3"])
    def test_dumped_dot_lists_the_derived_pairs(self, tmp_path, sample3_paths, instance):
        # every H pair, then every V pair, each sorted; secondary pairs dashed
        from demers.mapdata import compute_epsilon, load_map, load_weights, scale_weights
        from demers.sepconstraints import derive_constraints
        from demers.synth import write_instance

        if instance == "sample3":
            map_path, csv_path = sample3_paths
        else:
            map_path, csv_path = write_instance(tmp_path / "inst", 3, 0, jitter=0.3)
        res = run(RunConfig(str(map_path), str(csv_path), "TOP-S-SU",
                            out_dir=str(tmp_path / "out"), dump_constraints=True))
        assert res.ok
        g = load_map(map_path)
        table = scale_weights(load_weights(csv_path, g, res.config.kind), g)
        cs = derive_constraints(g, compute_epsilon(table, g), Setting.STRONG)
        want = ["digraph separation {", "  rankdir=LR;"]
        for axis, pairs, color in (("H", cs.H, "blue"), ("V", cs.V, "red")):
            for a, b in sorted(pairs):
                style = "dashed" if (axis, a, b) in cs.secondary else "solid"
                want.append(f'  "{a}" -> "{b}" [label="{axis}", color={color}, style={style}];')
        want.append("}")
        assert bool(cs.secondary) == (instance == "grid3x3")  # sample3 has none
        assert (tmp_path / "out" / "constraints.dot").read_text().splitlines() == want

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

    def test_uncreatable_out_dir_keeps_the_other_runs(self, tmp_path, sample3_paths):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        configs = [
            RunConfig(str(sample3_paths[0]), str(sample3_paths[1]), "TOP-W-IT",
                      out_dir=str(out), dataset_name=name)
            for name, out in (("bad", blocker / "out"), ("good", tmp_path / "good"))
        ]
        bad, good = run_matrix(configs)
        assert bad.status.startswith("error:") and bad.error_stage == "artifacts"
        assert good.ok and (tmp_path / "good" / "manifest.json").exists()

    def test_two_workers_match_one(self, tmp_path, sample3_paths):
        from demers.synth import write_instance

        grid = write_instance(tmp_path / "grid", 4, 0, k=2, rows=3, jitter=0.3)
        runs = [(sample3_paths, v) for v in ("TOP-S-SU", "CNT-W-SU", "ORG-W-IT", "FRC-O-S")]
        runs += [(grid, v) for v in ("TOP-S-SU", "ORG-W-IT")]
        csvs, trees = [], []
        for workers in (1, 2):
            root = tmp_path / f"w{workers}"
            configs = [
                RunConfig(
                    map_path=str(m), weights_path=str(w), variant=v,
                    out_dir=str(root / Path(m).stem / v), dataset_name=Path(m).stem,
                    frc_max_iterations=2_000,
                )
                for (m, w), v in runs
            ]
            results = run_matrix(configs, workers=workers)
            assert [r.config for r in results] == configs
            assert all(r.ok for r in results)
            csvs.append(matrix_csv(results))
            tree = {}
            for path in sorted(root.rglob("*")):
                if path.is_dir():
                    continue
                if path.name == "manifest.json":
                    # everything but the wall times
                    doc = json.loads(path.read_text())
                    del doc["wall_time"], doc["stage_seconds"]
                    for solve in doc["solves"]:
                        solve.pop("wall_time", None)
                    tree[path.relative_to(root)] = doc
                else:
                    tree[path.relative_to(root)] = path.read_bytes()
            trees.append(tree)
        assert csvs[0] == csvs[1]
        assert trees[0].keys() == trees[1].keys()
        for name, content in trees[0].items():
            assert content == trees[1][name], name


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
        res = run_sample(tmp_path, sample3_paths, "TOP-S-SU")
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        for solve in manifest["solves"]:
            assert solve["engine"] == "highs"
            assert solve["method"] == "ds"  # far below the dual-form size
            assert not {"dual_rows", "dual_cols", "folded", "merged", "dual_status"} & solve.keys()
            assert solve["dual_objective"] == pytest.approx(solve["objective"], rel=1e-9)

    @pytest.mark.parametrize("threshold,method", [(0, "dual-form"), (10**9, "ds")])
    def test_solves_record_the_dual_objective(
        self, tmp_path, sample3_paths, monkeypatch, threshold, method
    ):
        # the certificate of every LP: the dual objective beside the
        # objective, for an LP solved as its dual and for one solved as it is
        from demers import simplexsolver as ss

        monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", threshold)
        res = run_sample(tmp_path, sample3_paths, "ORG-W-IT")
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert len(manifest["solves"]) == 2
        for solve in manifest["solves"]:
            assert solve["method"] == method
            assert solve["dual_objective"] == pytest.approx(
                solve["objective"], rel=ss.GAP_TOL, abs=ss.GAP_TOL)

    def test_dual_form_solves_record_the_dual(self, tmp_path):
        # the jittered 10x10 TOP-S-SU LP goes to HiGHS as its dual, with both
        # columns of each of its 4 950 direction pairs folded into bounds
        from demers.synth import write_instance

        map_path, csv_path = write_instance(tmp_path / "grid", 10, 0, k=1, rows=10, jitter=0.3)
        res = run(RunConfig(str(map_path), str(csv_path), "TOP-S-SU", out_dir=str(tmp_path / "o")))
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        [solve] = manifest["solves"]
        assert solve["method"] == "dual-form"
        assert solve["folded"] == 2 * (100 * 99 // 2)
        assert (solve["merged"], solve["dual_status"]) == (0, "optimal")  # TOP has no L1 pairs
        assert solve["dual_rows"] == solve["cols"] - solve["folded"]
        assert solve["dual_cols"] >= solve["rows"]

    def test_dual_form_solves_record_the_merged_pairs(self, tmp_path):
        # the jittered 4x4 ORG-W-SU LP at k = 2 goes to HiGHS as its dual,
        # with each displacement pair (2 axes x 16 regions x 2 blocks) and
        # each coupling pair (2 axes x 16 regions) merged into one row
        from demers import simplexsolver as ss
        from demers.synth import write_instance

        map_path, csv_path = write_instance(tmp_path / "grid", 4, 0, k=2, rows=4, jitter=0.3)
        res = run(RunConfig(str(map_path), str(csv_path), "ORG-W-SU", out_dir=str(tmp_path / "o")))
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        [solve] = manifest["solves"]
        assert solve["rows"] >= ss.HIGHS_DUAL_FORM_MIN_ROWS
        assert solve["method"] == "dual-form"
        assert (solve["merged"], solve["dual_status"]) == (2 * 16 * 2 + 2 * 16, "optimal")
        assert solve["folded"] == 2 * 2 * (16 * 15 // 2)
        assert solve["dual_rows"] == solve["cols"] - solve["folded"] - solve["merged"]

    def test_dual_form_fallback_records_the_dual_status(self, tmp_path, sample3_paths, monkeypatch):
        # a dual that ends unbounded sends the LP to its own solve, which
        # gives the answer; the entry says so
        from demers import simplexsolver as ss

        monkeypatch.setattr(ss, "HIGHS_DUAL_FORM_MIN_ROWS", 0)
        real, runs = ss._run, []

        def first_unbounded(h, highs, time_limit, counts):
            runs.append(highs)
            if len(runs) == 1:
                return ss.Solution(ss.SolveStatus.UNBOUNDED, **counts)
            return real(h, highs, time_limit, counts)

        monkeypatch.setattr(ss, "_run", first_unbounded)
        res = run_sample(tmp_path, sample3_paths, "ORG-W-SU")
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        [solve] = manifest["solves"]
        assert len(runs) == 2
        assert (solve["method"], solve["status"]) == ("dual-form", "optimal")
        assert solve["dual_status"] == "unbounded"
        assert solve["merged"] > 0

    @pytest.mark.parametrize("variant", ["TOP-S-SU", "CNT-W-SU"])
    @pytest.mark.parametrize("engine", ["highs", "simplex"])
    def test_solves_record_engine_reason(
        self, tmp_path, sample3_paths, monkeypatch, variant, engine
    ):
        # which path ran and why: the engine, and on HiGHS the method the
        # LP's rows chose. With the pipeline's LP solver swapped for the
        # bundled simplex, LPs record it; binary programs search on HiGHS
        import functools

        import demers.cli as climod
        from demers import simplexsolver as ss

        if engine == "simplex":
            monkeypatch.setattr(climod, "solve_lp", functools.partial(ss.solve_lp, engine=engine))
        res = run_sample(tmp_path, sample3_paths, variant)
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["solves"]
        for solve in manifest["solves"]:
            assert "engine_reason" not in solve and "refactors" not in solve
            if variant.startswith("CNT"):
                assert solve["engine"] == "highs"
                assert 0 < solve["root_iterations"] <= solve["iterations"]
            else:
                assert solve["engine"] == engine
                assert "root_iterations" not in solve
            if solve["engine"] == "highs":
                # a CNT program's final LP is solved as itself at any size
                large = (solve["rows"] >= ss.HIGHS_DUAL_FORM_MIN_ROWS
                         and not variant.startswith("CNT"))
                assert solve["method"] == ("dual-form" if large else "ds")
            else:
                assert solve["method"] == ""

    @pytest.mark.parametrize("variant", [
        f"CNT-{setting}-{stability}" for setting in "WS" for stability in ("SU", "CO", "IT", "CENTRAL")
    ])
    @pytest.mark.parametrize("dataset", ["sample3", "grid3x3"])
    def test_cnt_solves_record_binaries_set(self, tmp_path, sample3_paths, dataset, variant):
        # a binary at 0 forces its pair's gaps to 0, so the squares touch:
        # only the pairs whose binary is set can be lost
        from demers.synth import write_instance

        if dataset == "sample3":
            paths = sample3_paths
        else:
            paths = write_instance(tmp_path / "grid", 3, 0, k=2, rows=3, jitter=0.3)
        res = run(RunConfig(str(paths[0]), str(paths[1]), variant, out_dir=str(tmp_path / "out")))
        assert res.ok
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["solves"]
        for solve in manifest["solves"]:
            assert 0 <= solve["binaries_set"] <= solve["binaries"]
            assert solve["final_status"] == "optimal"
        assert sum(res.report.lost_counts) <= sum(s["binaries_set"] for s in manifest["solves"])

    def test_cnt_final_lp_without_optimum_is_in_the_manifest(
        self, tmp_path, sample3_paths, monkeypatch
    ):
        # a final LP cut short leaves the incumbent node's point: the solve
        # entry records how the final LP ended, and the run warns
        from demers import simplexsolver as ss

        monkeypatch.setattr(
            ss._HighsNodes, "final",
            lambda self, values, time_limit: ss.Solution(
                ss.SolveStatus.ITERATION_LIMIT, engine="highs", method="ds"),
        )
        with pytest.warns(UserWarning, match="final LP"):
            res = run_sample(tmp_path, sample3_paths, "CNT-W-SU")
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        [solve] = manifest["solves"]
        assert solve["final_status"] == "iteration_limit"
        assert solve["binaries_set"] is not None
        assert len(manifest["warnings"]) == 1 and "final LP" in manifest["warnings"][0]

    def test_lp_solves_record_no_binaries_set(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "TOP-W-IT")
        assert res.ok and all("binaries_set" not in s for s in res.solver_stats)

    @pytest.mark.parametrize("variant", ["TOP-S-SU", "CNT-W-IT"])
    def test_solves_record_model_size(self, tmp_path, sample3_paths, variant, monkeypatch):
        import demers.cli as climod

        # every model the run solves passes _maybe_dump_lp first; count it
        # there from its row and column views
        sizes = []

        def count(config, model, stem):
            p = model.problem
            sizes.append({
                "rows": len(p.constraints),
                "cols": len(p.variables),
                "nnz": sum(len(c.coeffs) for c in p.constraints),
                "binaries": sum(v.binary for v in p.variables),
            })

        monkeypatch.setattr(climod, "_maybe_dump_lp", count)
        res = run_sample(tmp_path, sample3_paths, variant)
        assert res.ok
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        recorded = [
            {k: solve[k] for k in ("rows", "cols", "nnz", "binaries")}
            for solve in manifest["solves"]
        ]
        assert recorded == sizes
        assert len(sizes) == (len(res.layouts) if variant.endswith("IT") else 1)
        assert all(s["rows"] and s["nnz"] for s in sizes)
        assert all(s["binaries"] > 0 for s in sizes) == variant.startswith("CNT")

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

    def test_capped_force_run_records_its_warning(self, tmp_path, luxembourg_paths):
        # one iteration leaves overlap above the warning threshold; the
        # warning is recorded and still reaches a caller that catches it
        cfg = RunConfig(
            map_path=str(luxembourg_paths[0]),
            weights_path=str(luxembourg_paths[1]),
            variant="FRC-O-U",
            out_dir=str(tmp_path / "capped"),
            frc_max_iterations=1,
        )
        with pytest.warns(UserWarning, match="residual overlap") as caught:
            res = run(cfg)
        manifest = json.loads((Path(cfg.out_dir) / "manifest.json").read_text())
        assert manifest["warnings"] == res.warnings == [str(w.message) for w in caught]
        assert len(res.warnings) == 1
        assert "residual overlap area" in res.warnings[0]

    def test_clamped_metric_is_recorded(self, tmp_path, sample3_paths, monkeypatch):
        from demers import metrics

        monkeypatch.setattr(metrics, "_pairwise_zone_change", lambda a, b: 1.5)
        with pytest.warns(UserWarning, match="clamped"):
            res = run_sample(tmp_path, sample3_paths, "TOP-S-SU")
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        # two layouts against the map (mrel), one pair of them (srel)
        assert manifest["warnings"] == res.warnings == [
            "mrel = 1.5 outside [0,1]; clamped"] * 2 + ["srel = 1.5 outside [0,1]; clamped"]

    def test_warnings_stay_with_their_run_on_three_workers(self, tmp_path, luxembourg_paths):
        # more workers than cores, switching threads often: a record shared
        # between runs would hand a capped run's warning to a clean run
        import sys

        configs = [
            RunConfig(map_path=str(luxembourg_paths[0]), weights_path=str(luxembourg_paths[1]),
                      variant=v, out_dir=str(tmp_path / f"{j}{v}"), frc_max_iterations=i)
            for j in range(4)
            for v, i in (("FRC-O-U", 1), ("TOP-S-SU", 100_000))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with pytest.warns(UserWarning, match="residual overlap"):
                results = run_matrix(configs, workers=3)
        finally:
            sys.setswitchinterval(interval)
        assert [len(r.warnings) for r in results] == [1, 0] * 4

    def test_force_runs_record_no_unroutable(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "FRC-O-U", frc_max_iterations=200)
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["unroutable_counts"] == [0] * len(res.layouts)
        assert manifest["unroutable_pairs"] == [[] for _ in res.layouts]

    def test_unroutable_pairs_recorded(self, tmp_path):
        # c stands between a and b, taller than the gap between a's top and
        # b's bottom; a and b touch only where their arms meet, below c. The
        # map is feasible as it stands, so ORG keeps every square at its
        # centroid, and c walls off the corridor of the lost pair (a, b) in
        # both layouts; each is listed with its reason
        def ring(*pts):
            return [[list(p) for p in (*pts, pts[0])]]

        polygons = {
            "a": ring((-4, 0.8), (0, 0.8), (0, 0), (5, 0), (5, 0.2), (1, 0.2), (1, 1), (-4, 1)),
            "b": ring((4, 0.2), (4.2, 0.2), (4.2, 2), (5, 2), (5, 4.8), (4.8, 4.8), (4.8, 3),
                      (4, 3)),
            "c": ring((1.5, 0.5), (3.5, 0.5), (3.5, 2.5), (1.5, 2.5)),
        }
        m, w = tmp_path / "walled.geojson", tmp_path / "walled.csv"
        m.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "properties": {"id": rid},
             "geometry": {"type": "Polygon", "coordinates": rings}}
            for rid, rings in polygons.items()
        ]}))
        w.write_text("region_id,function_name,value\n" + "".join(
            f"{rid},f{i},{v}\n" for i in (0, 1) for rid, v in (("a", 0.4), ("b", 0.4), ("c", 2.55))
        ))
        res = run(RunConfig(map_path=str(m), weights_path=str(w), variant="ORG-W-SU",
                            out_dir=str(tmp_path / "out")))
        assert res.ok
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        pairs = manifest["unroutable_pairs"]
        assert [len(p) for p in pairs] == manifest["unroutable_counts"]
        assert any(pairs)
        assert pairs == [
            [{"from": a, "to": b, "reason": why} for a, b, why in r.unroutable]
            for r in res.routing_per_layout
        ]
        assert all(p["reason"].startswith("corridor for") for ps in pairs for p in ps)
        assert pairs[0] == [{"from": "a", "to": "b",
                             "reason": "corridor for ('a', 'b') is walled off by 'c'"}]


class TestReducedConstraints:
    # k = 1 builds one single-function model, k = 2 a multi-function LP or
    # an iterative sequence: each path decodes against the full set
    @pytest.mark.parametrize("variant,k", [("ORG-S-SU", 1), ("TOP-S-SU", 2), ("CNT-W-IT", 2)])
    def test_layouts_refer_to_full_derived_set(self, tmp_path, variant, k):
        from demers.layout import constraint_set_id
        from demers.mapdata import compute_epsilon, load_map, load_weights, scale_weights
        from demers.sepconstraints import derive_constraints, reduce_transitive
        from demers.synth import write_instance

        map_path, csv_path = write_instance(tmp_path / "inst", 3, 0, k=k)
        res = run(RunConfig(map_path, csv_path, variant, out_dir=str(tmp_path / "out")))
        assert res.ok
        g = load_map(map_path)
        table = scale_weights(load_weights(csv_path, g, res.config.kind), g)
        full = derive_constraints(g, compute_epsilon(table, g), parse_variant(variant).setting)
        kept = reduce_transitive(full)
        assert len(kept.H) + len(kept.V) < len(full.H) + len(full.V)
        for lay in res.layouts:
            ref = lay.constraint_ref
            assert len(ref.H) + len(ref.V) == len(full.H) + len(full.V)
            assert ref == full
        out = Path(res.config.out_dir)
        doc = json.loads((out / "layout_0.json").read_text())
        assert doc["constraint_ref"] == constraint_set_id(full)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["constraints"] == {
            name: {"H": len(s.H), "V": len(s.V), "secondary": len(s.secondary)}
            for name, s in (("derived", full), ("kept", kept))
        }

    def test_force_runs_record_no_constraints(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "FRC-O-U", frc_max_iterations=200)
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["constraints"] is None


class TestFailureReport:
    def test_ingest_failure_keeps_stage_and_traceback(self, tmp_path):
        res = run(RunConfig("missing.geojson", "missing.csv", "TOP-W-IT",
                            out_dir=str(tmp_path / "x")))
        assert res.status.startswith("error:")
        assert res.error_stage == "ingest"
        assert res.traceback.startswith("Traceback")
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["status"] == res.status
        assert manifest["error_stage"] == "ingest"
        assert manifest["traceback"] == res.traceback
        assert manifest["solves"] == []

    def test_uncreatable_out_dir_becomes_status(self, tmp_path, sample3_paths):
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a regular file cannot hold the output directory
        res = run(RunConfig(str(sample3_paths[0]), str(sample3_paths[1]), "TOP-W-IT",
                            out_dir=str(blocker / "out")))
        assert res.status.startswith("error:")
        assert res.exit_code == 1
        assert res.error_stage == "artifacts"
        assert "NotADirectoryError" in res.traceback

    def test_variant_failure_names_variant_stage(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "TOP-X-SU")
        assert res.error_stage == "variant"
        assert "VariantError" in res.traceback

    def test_solve_failure_keeps_the_solves_made(self, tmp_path, sample3_paths, monkeypatch):
        import demers.cli as climod
        from demers.simplexsolver import Solution, SolveStatus

        def infeasible(problem, **kw):
            return Solution(SolveStatus.INFEASIBLE, engine="simplex")

        monkeypatch.setattr(climod, "solve_lp", infeasible)
        res = run_sample(tmp_path, sample3_paths, "TOP-W-IT")
        assert res.status == "error: solver returned infeasible with no point"
        assert res.error_stage == "solve"
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["error_stage"] == "solve"
        assert [s["status"] for s in manifest["solves"]] == ["infeasible"]
        assert manifest["constraints"]["derived"]["H"] >= manifest["constraints"]["kept"]["H"]

    @pytest.mark.parametrize("variant", ["TOP-S-SU", "CNT-W-SU", "FRC-O-S"])
    def test_coincident_centroids(self, tmp_path, variant):
        # a square inside a holed square: the two centroids coincide, so no
        # separation direction exists between them. LP and CNT variants stop
        # while deriving the constraints; the force baseline needs none
        ring = [[0, 0], [3, 0], [3, 3], [0, 3], [0, 0]]
        hole = [[1, 1], [1, 2], [2, 2], [2, 1], [1, 1]]
        features = [
            {"type": "Feature", "id": "a", "properties": {},
             "geometry": {"type": "Polygon", "coordinates": [hole[::-1]]}},
            {"type": "Feature", "id": "b", "properties": {},
             "geometry": {"type": "Polygon", "coordinates": [ring, hole]}},
        ]
        map_path, csv_path = tmp_path / "map.geojson", tmp_path / "w.csv"
        map_path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        csv_path.write_text("region_id,function_name,value\na,f0,1\nb,f0,3\n")
        res = run(RunConfig(str(map_path), str(csv_path), variant, out_dir=str(tmp_path / "o"),
                            frc_max_iterations=200))
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        if variant.startswith("FRC"):
            assert res.ok and manifest["status"] == "ok"
            return
        assert res.status == "error: coincident centroids for 'a' and 'b'"
        assert res.exit_code == 1 and res.error_stage == "constraints"
        assert (manifest["status"], manifest["error_stage"]) == (res.status, "constraints")
        assert manifest["solves"] == []

    def test_ok_run_reports_no_failure(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "TOP-W-IT")
        assert res.ok and res.error_stage is None and res.traceback is None
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["error_stage"] is None and manifest["traceback"] is None


class TestStageSeconds:
    def test_top_run_times_its_stages(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "TOP-S-SU")
        assert res.ok
        for name in ("ingest", "constraints", "model", "solve", "decode",
                     "leaders", "metrics", "artifacts"):
            assert res.stage_seconds[name] > 0.0, name
        assert sum(res.stage_seconds.values()) <= res.wall_time
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["stage_seconds"] == res.stage_seconds

    def test_artifact_writes_are_timed(self, tmp_path, sample3_paths, monkeypatch):
        # the layout, SVG and metrics files are written after the metrics;
        # the artifacts stage and wall_time count them, up to the manifest
        import time

        import demers.cli as climod

        real = climod.render_svg

        def slow(*args, **kw):
            time.sleep(0.05)
            return real(*args, **kw)

        monkeypatch.setattr(climod, "render_svg", slow)
        res = run_sample(tmp_path, sample3_paths, "TOP-S-SU")
        assert res.ok and len(res.layouts) == 2
        assert res.stage_seconds["artifacts"] >= 0.1
        assert sum(res.stage_seconds.values()) <= res.wall_time
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["stage_seconds"] == res.stage_seconds
        assert manifest["wall_time"] == res.wall_time
        assert res.artifacts[-1] == str(Path(res.config.out_dir) / "manifest.json")

    def test_iterative_run_adds_up_its_repeated_stages(self, tmp_path, sample3_paths):
        res = run_sample(tmp_path, sample3_paths, "TOP-W-IT")
        assert len(res.solver_stats) == 2
        assert sum(s["wall_time"] for s in res.solver_stats) <= res.stage_seconds["solve"]

    def test_failure_manifest_times_the_stages_before_it(
        self, tmp_path, sample3_paths, monkeypatch
    ):
        import demers.cli as climod
        from demers.simplexsolver import Solution, SolveStatus

        monkeypatch.setattr(
            climod, "solve_lp", lambda problem, **kw: Solution(SolveStatus.INFEASIBLE)
        )
        res = run_sample(tmp_path, sample3_paths, "TOP-S-SU")
        assert res.error_stage == "solve"
        assert {"ingest", "constraints", "model", "solve"} <= res.stage_seconds.keys()
        assert "leaders" not in res.stage_seconds
        assert sum(res.stage_seconds.values()) <= res.wall_time
        manifest = json.loads((Path(res.config.out_dir) / "manifest.json").read_text())
        assert manifest["stage_seconds"] == res.stage_seconds


class TestRunFlags:
    def test_every_flag_reaches_its_field(self, monkeypatch):
        seen = []

        def capture(config):
            seen.append(config)
            return RunResult(config=config, status="ok")

        monkeypatch.setattr("demers.cli.run", capture)
        required = ["run", "--map", "m.geojson", "--weights", "w.csv",
                    "--variant", "ORG-W-CO", "--out", "o"]
        flags = [
            "--kind", "vectors", "--area-proportional",
            "--node-limit", "17", "--lp-time-limit", "7.5", "--ilp-time-limit", "12",
            "--frc-max-iterations", "3", "--frames", "4", "--dump-lp",
            "--dump-constraints", "--solver-log", "--labels",
        ]
        parser = argparse.ArgumentParser(add_help=False)
        _add_run_args(parser)
        options = {s for a in parser._actions for s in a.option_strings}
        assert options == {a for a in required + flags if a.startswith("--")}
        assert main(required) == 0
        assert main(required + flags) == 0
        default, flagged = seen
        assert default == RunConfig("m.geojson", "w.csv", "ORG-W-CO", out_dir="o")
        assert flagged == RunConfig(
            "m.geojson", "w.csv", "ORG-W-CO", out_dir="o",
            kind=WeightKind.WEIGHT_VECTORS, area_proportional=True,
            node_limit=17, lp_time_limit=7.5, ilp_time_limit=12.0, frc_max_iterations=3,
            frames=4, dump_lp=True, dump_constraints=True, solver_log=True, labels=True,
        )
        # every field a flag sets moved off its default
        unchanged = [f.name for f in dataclasses.fields(RunConfig)
                     if getattr(flagged, f.name) == getattr(default, f.name)]
        assert unchanged == ["map_path", "weights_path", "variant", "out_dir", "dataset_name"]

    def test_engine_flag_is_gone(self, capsys):
        # every run solves on HiGHS; the old flag is an unknown argument
        with pytest.raises(SystemExit) as exc:
            main(["run", "--map", "m.geojson", "--weights", "w.csv",
                  "--variant", "ORG-W-CO", "--out", "o", "--engine", "highs"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --engine highs" in capsys.readouterr().err

    def test_minimal_argv_takes_the_dataclass_defaults(self, tmp_path, monkeypatch):
        # the run flags and the matrix spec read their defaults from
        # RunConfig, so a run without them gets the dataclass's defaults
        seen = []

        def capture(config):
            seen.append(config)
            return RunResult(config=config, status="ok")

        monkeypatch.setattr("demers.cli.run", capture)
        assert main(["run", "--map", "m.geojson", "--weights", "w.csv",
                     "--variant", "ORG-W-CO", "--out", "o"]) == 0
        spec = {"datasets": [{"name": "d", "map": "m.geojson", "weights": "w.csv"}],
                "variants": ["ORG-W-CO"]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        main(["matrix", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "m")])
        from_run, from_matrix = seen
        for field in dataclasses.fields(RunConfig):
            if field.default is dataclasses.MISSING or field.name in ("out_dir", "dataset_name"):
                continue
            assert getattr(from_run, field.name) == field.default, field.name
            assert getattr(from_matrix, field.name) == field.default, field.name

    @pytest.mark.parametrize("kind, expected", [
        ("timeseries", WeightKind.TIME_SERIES), ("vectors", WeightKind.WEIGHT_VECTORS),
    ])
    def test_one_kind_parser_for_run_and_matrix(self, tmp_path, monkeypatch, kind, expected):
        seen = []
        monkeypatch.setattr(
            "demers.cli.run", lambda config: seen.append(config) or RunResult(config, "ok")
        )
        main(["run", "--map", "m", "--weights", "w", "--variant", "TOP-S-SU", "--out", "o",
              "--kind", kind])
        spec = {"datasets": [{"name": "d", "map": "m", "weights": "w", "kind": kind}],
                "variants": ["TOP-S-SU"]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        main(["matrix", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "m")])
        assert [c.kind for c in seen] == [expected, expected]
        with pytest.raises(SystemExit):
            main(["run", "--map", "m", "--weights", "w", "--variant", "TOP-S-SU", "--out", "o",
                  "--kind", "series"])

    def test_limit_flags_reach_the_config(self, tmp_path, sample3_paths, monkeypatch):
        seen = []
        monkeypatch.setattr("demers.cli.run", lambda config: seen.append(config) or run(config))
        argv = [
            "run",
            "--map", str(sample3_paths[0]),
            "--weights", str(sample3_paths[1]),
            "--variant", "FRC-T-S",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        limits = ("--lp-time-limit", "7.5", "--ilp-time-limit", "12", "--frc-max-iterations", "3")
        assert main(argv + list(limits)) == 1  # capped: partial
        default, flagged = seen
        assert (default.lp_time_limit, default.ilp_time_limit, default.frc_max_iterations) == (
            RunConfig.lp_time_limit, RunConfig.ilp_time_limit, RunConfig.frc_max_iterations
        )
        assert (flagged.lp_time_limit, flagged.ilp_time_limit, flagged.frc_max_iterations) == (
            7.5, 12.0, 3
        )
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [s["iterations"] for s in manifest["solves"]] == [3, 3]


class TestSolverLog:
    def test_progress_lines_go_to_stderr(self, tmp_path, sample3_paths, capsys):
        import logging

        argv = [
            "run",
            "--map", str(sample3_paths[0]),
            "--weights", str(sample3_paths[1]),
            "--variant", "CNT-W-SU",
            "--out", str(tmp_path / "out"),
        ]
        assert main(argv + ["--solver-log"]) == 0
        err = capsys.readouterr().err
        assert "[bnb] node=1 depth=0 status=optimal" in err
        assert logging.getLogger("demers").handlers == []
        assert main(argv) == 0
        assert "[bnb]" not in capsys.readouterr().err

    def test_highs_log_goes_to_stderr(self, tmp_path, sample3_paths, capfd):
        # the default engine solves this LP on HiGHS, whose own log must
        # reach stderr through the logger; stdout keeps the summary alone
        argv = [
            "run",
            "--map", str(sample3_paths[0]),
            "--weights", str(sample3_paths[1]),
            "--variant", "TOP-S-SU",
            "--out", str(tmp_path / "out"),
            "--solver-log",
        ]
        assert main(argv) == 0
        out, err = capfd.readouterr()
        lines = out.splitlines()
        assert len(lines) == 2, out
        assert lines[0].startswith("TOP-S-SU: ok") and lines[1].startswith("  madj=")
        assert "Running HiGHS" in err
