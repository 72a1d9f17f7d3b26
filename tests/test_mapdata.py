import json
import math

import pytest

from demers.mapdata import (
    MapDataError,
    WeightKind,
    compute_epsilon,
    load_map,
    load_weights,
    scale_weights,
)
from demers.synth import grid_map, lognormal_weights


def write_geojson(path, features):
    doc = {"type": "FeatureCollection", "features": features}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def feature(rid, rings, gtype="Polygon"):
    return {
        "type": "Feature",
        "properties": {"id": rid},
        "geometry": {"type": gtype, "coordinates": rings},
    }


def unit_square(x, y):
    return [[[x, y], [x + 1, y], [x + 1, y + 1], [x, y + 1], [x, y]]]


class TestLoadMap:
    def test_shared_edge_is_adjacent(self, tmp_path):
        path = write_geojson(
            tmp_path / "m.geojson",
            [feature("a", unit_square(0, 0)), feature("b", unit_square(1, 0))],
        )
        m = load_map(path)
        assert m.edge_list() == [("a", "b")]

    def test_corner_contact_is_not_adjacent(self, tmp_path):
        path = write_geojson(
            tmp_path / "m.geojson",
            [feature("a", unit_square(0, 0)), feature("b", unit_square(1, 1))],
        )
        assert load_map(path).edge_list() == []

    def test_k4_gadget(self, luxembourg_paths):
        m = load_map(luxembourg_paths[0])
        assert len(m.edges) == 6
        assert len(m.regions) == 4

    def test_partial_edge_overlap_counts(self, tmp_path):
        tall = [[[1, 0], [2, 0], [2, 3], [1, 3], [1, 0]]]
        path = write_geojson(
            tmp_path / "m.geojson",
            [feature("a", unit_square(0, 0)), feature("b", tall)],
        )
        assert load_map(path).edge_list() == [("a", "b")]

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_geojson(
            tmp_path / "m.geojson",
            [feature("a", unit_square(0, 0)), feature("a", unit_square(5, 5))],
        )
        with pytest.raises(MapDataError, match="duplicate"):
            load_map(path)

    def test_degenerate_polygon_rejected(self, tmp_path):
        line = [[[0, 0], [1, 0], [2, 0], [0, 0]]]
        path = write_geojson(tmp_path / "m.geojson", [feature("a", line)])
        with pytest.raises(MapDataError, match="degenerate"):
            load_map(path)

    def test_numeric_feature_id_zero(self, tmp_path):
        feat = {**feature("x", unit_square(0, 0)), "id": 0}
        path = write_geojson(tmp_path / "m.geojson", [feat])
        assert load_map(path).region_ids == ["0"]

    @pytest.mark.parametrize(
        "feat,match",
        [
            ({**feature("a", unit_square(0, 0)), "properties": None}, "without id"),
            (feature("a", []), "without rings"),
            (feature("a", [], "MultiPolygon"), "without rings"),
            ({**feature("a", unit_square(0, 0)), "geometry": None}, "unsupported geometry"),
            (feature("a", [[[0, 0], [1], [1, 1]]]), "malformed coordinates"),
        ],
        ids=["null-properties", "empty-polygon", "empty-multipolygon", "null-geometry",
             "short-point"],
    )
    def test_malformed_feature_rejected(self, tmp_path, feat, match):
        path = write_geojson(tmp_path / "m.geojson", [feat])
        with pytest.raises(MapDataError, match=match):
            load_map(path)

    def test_parse_failure(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(MapDataError, match="parse"):
            load_map(path)

    def test_centroid_area_weighted(self, tmp_path):
        rect = [[[0, 0], [4, 0], [4, 2], [0, 2], [0, 0]]]
        path = write_geojson(tmp_path / "m.geojson", [feature("a", rect)])
        m = load_map(path)
        assert m.regions[0].centroid == pytest.approx((2.0, 1.0))

    def test_multipolygon_uses_largest_part(self, tmp_path):
        big = unit_square(0, 0)
        small = [[[10, 10], [10.2, 10], [10.2, 10.2], [10, 10.2], [10, 10]]]
        path = write_geojson(
            tmp_path / "m.geojson", [feature("a", [big, small], "MultiPolygon")]
        )
        m = load_map(path)
        assert m.regions[0].centroid == pytest.approx((0.5, 0.5))

    def test_adjacency_independent_of_feature_order(self, tmp_path):
        feats = [
            feature("a", unit_square(0, 0)),
            feature("b", unit_square(1, 0)),
            feature("c", unit_square(0, 1)),
        ]
        m1 = load_map(write_geojson(tmp_path / "m1.geojson", feats))
        m2 = load_map(write_geojson(tmp_path / "m2.geojson", feats[::-1]))
        assert m1.edges == m2.edges


class TestLoadWeights:
    def write_csv(self, path, rows):
        path.write_text(
            "region_id,function_name,value\n" + "\n".join(rows) + "\n",
            encoding="utf-8",
        )
        return path

    @pytest.fixture()
    def map3(self, tmp_path):
        return load_map(
            write_geojson(
                tmp_path / "m.geojson",
                [
                    feature("a", unit_square(0, 0)),
                    feature("b", unit_square(1, 0)),
                    feature("c", unit_square(2, 0)),
                ],
            )
        )

    def test_complete_table(self, tmp_path, map3):
        rows = [f"{r},{y},{v}" for y in ("y1", "y2") for r, v in
                (("a", 1), ("b", 2), ("c", 3))]
        ws = load_weights(self.write_csv(tmp_path / "w.csv", rows), map3,
                          WeightKind.TIME_SERIES)
        assert ws.k == 2
        assert [name for name, _ in ws.functions] == ["y1", "y2"]
        assert ws.functions[1][1]["c"] == 3.0

    def test_nonpositive_value(self, tmp_path, map3):
        rows = ["a,y1,1", "b,y1,0", "c,y1,2"]
        with pytest.raises(MapDataError, match="nonpositive"):
            load_weights(self.write_csv(tmp_path / "w.csv", rows), map3,
                         WeightKind.TIME_SERIES)

    def test_unknown_region(self, tmp_path, map3):
        rows = ["a,y1,1", "zz,y1,1"]
        with pytest.raises(MapDataError, match="unknown region"):
            load_weights(self.write_csv(tmp_path / "w.csv", rows), map3,
                         WeightKind.TIME_SERIES)

    @pytest.mark.parametrize("short", ["c,y1", "c"])
    def test_short_row_rejected(self, tmp_path, map3, short):
        rows = ["a,y1,1", "b,y1,2", short]
        with pytest.raises(MapDataError, match="line 4 is short"):
            load_weights(self.write_csv(tmp_path / "w.csv", rows), map3,
                         WeightKind.TIME_SERIES)

    def test_missing_cell(self, tmp_path, map3):
        rows = ["a,y1,1", "b,y1,2"]
        with pytest.raises(MapDataError, match="missing"):
            load_weights(self.write_csv(tmp_path / "w.csv", rows), map3,
                         WeightKind.TIME_SERIES)


def two_region_map_diag40(tmp_path):
    # unit squares whose joint bounding box is 24 x 32, diagonal 40
    feats = [feature("a", unit_square(0, 0)), feature("b", unit_square(23, 31))]
    return load_map(write_geojson(tmp_path / "m40.geojson", feats))


class TestScaleWeights:
    def test_time_series_single_global_factor(self, tmp_path):
        m = two_region_map_diag40(tmp_path)
        ws_rows = {"a": 4.0, "b": 2.0}, {"a": 8.0, "b": 1.0}
        from demers.mapdata import WeightSet

        ws = WeightSet(
            functions=[("y1", ws_rows[0]), ("y2", ws_rows[1])],
            kind=WeightKind.TIME_SERIES,
        )
        table = scale_weights(ws, m)
        assert table.diagonal == pytest.approx(40.0)
        assert table.side(0, "a") == pytest.approx(5.0)
        assert table.side(0, "b") == pytest.approx(2.5)
        assert table.side(1, "a") == pytest.approx(10.0)
        assert table.side(1, "b") == pytest.approx(1.25)

    def test_weight_vectors_per_function_factor(self, tmp_path):
        m = two_region_map_diag40(tmp_path)
        from demers.mapdata import WeightSet

        ws = WeightSet(
            functions=[("y1", {"a": 4.0, "b": 2.0}), ("y2", {"a": 8.0, "b": 1.0})],
            kind=WeightKind.WEIGHT_VECTORS,
        )
        table = scale_weights(ws, m)
        assert table.side(0, "a") == pytest.approx(10.0)
        assert table.side(0, "b") == pytest.approx(5.0)
        assert table.side(1, "a") == pytest.approx(10.0)
        assert table.side(1, "b") == pytest.approx(1.25)

    def test_single_region_maps_to_quarter_diagonal(self, tmp_path):
        side = 4.0 / math.sqrt(2.0)
        ring = [[[0, 0], [side, 0], [side, side], [0, side], [0, 0]]]
        m = load_map(write_geojson(tmp_path / "m.geojson", [feature("a", ring)]))
        from demers.mapdata import WeightSet

        ws = WeightSet(functions=[("y", {"a": 123.0})], kind=WeightKind.TIME_SERIES)
        table = scale_weights(ws, m)
        assert table.side(0, "a") == pytest.approx(1.0)

    def test_ratio_preservation_time_series(self):
        g = grid_map(3)
        ws = lognormal_weights(g, k=2, seed=5)
        table = scale_weights(ws, g)
        vals = dict(ws.functions[0][1]), dict(ws.functions[1][1])
        ids = g.region_ids
        r, s = sorted(g.region_ids)[0], sorted(g.region_ids)[-1]
        assert table.side(0, r) / table.side(1, s) == pytest.approx(
            vals[0][r] / vals[1][s]
        )

    def test_area_proportional_uses_sqrt(self, tmp_path):
        m = two_region_map_diag40(tmp_path)
        from demers.mapdata import WeightSet

        ws = WeightSet(
            functions=[("y1", {"a": 4.0, "b": 1.0})], kind=WeightKind.TIME_SERIES
        )
        table = scale_weights(ws, m, area_proportional=True)
        # sides proportional to sqrt of values: ratio 2, max at 10
        assert table.side(0, "a") == pytest.approx(10.0)
        assert table.side(0, "b") == pytest.approx(5.0)


class TestEpsilon:
    def make_table(self, sides, diag):
        from demers.mapdata import SideLengthTable

        return SideLengthTable(
            sides={(0, f"r{i}"): s for i, s in enumerate(sides)}, diagonal=diag
        )

    def make_map_with_diag(self, tmp_path, diag):
        side = diag / math.sqrt(2.0)
        ring = [[[0, 0], [side, 0], [side, side], [0, side], [0, 0]]]
        return load_map(write_geojson(tmp_path / "eps.geojson", [feature("a", ring)]))

    def test_small_side_wins(self, tmp_path):
        m = self.make_map_with_diag(tmp_path, 100.0)
        assert compute_epsilon(self.make_table([0.5, 9.0], 100.0), m) == pytest.approx(0.5)

    def test_diagonal_cap_wins(self, tmp_path):
        m = self.make_map_with_diag(tmp_path, 100.0)
        assert compute_epsilon(self.make_table([8.0, 9.0], 100.0), m) == pytest.approx(5.0)

    def test_tie(self, tmp_path):
        m = self.make_map_with_diag(tmp_path, 100.0)
        assert compute_epsilon(self.make_table([5.0], 100.0), m) == pytest.approx(5.0)

    def test_monotone_in_smallest_side(self, tmp_path):
        m = self.make_map_with_diag(tmp_path, 100.0)
        eps1 = compute_epsilon(self.make_table([4.0, 9.0], 100.0), m)
        eps2 = compute_epsilon(self.make_table([2.0, 9.0], 100.0), m)
        assert eps2 <= eps1
