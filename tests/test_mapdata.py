import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle_mapdata
from demers.mapdata import (
    ADJACENCY_SNAP,
    MapDataError,
    WeightKind,
    compute_epsilon,
    load_map,
    load_weights,
    scale_weights,
)
from demers.synth import grid_geojson, grid_map, lognormal_weights


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


# ---------------------------------------------------------------------------
# the adjacency pass against the per-pair loop it replaced


def box_ring(x0, y0, x1, y1, start=0, reverse=False):
    """A closed rectangle ring from corner ``start``, either orientation."""
    corners = [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]
    corners = corners[start:] + corners[:start]
    if reverse:
        corners.reverse()
    return corners + [corners[0]]


@st.composite
def jittered_grids(draw):
    doc = grid_geojson(draw(st.integers(1, 7)), draw(st.integers(1, 7)),
                       jitter=draw(st.sampled_from([0.0, 0.15, 0.3, 0.9])),
                       seed=draw(st.integers(0, 50)))
    return doc["features"]


@st.composite
def rectangle_partitions(draw):
    """Guillotine partitions of a box: T-junctions, where one long edge
    meets several short ones, and cuts near each other."""
    rects = [(0.0, 0.0, draw(st.floats(0.5, 20.0)), draw(st.floats(0.5, 20.0)))]
    for _ in range(draw(st.integers(0, 14))):
        x0, y0, x1, y1 = rects.pop(draw(st.integers(0, len(rects) - 1)))
        t = draw(st.floats(0.02, 0.98))
        if draw(st.booleans()):
            xm = x0 + t * (x1 - x0)
            rects += [(x0, y0, xm, y1), (xm, y0, x1, y1)]
        else:
            ym = y0 + t * (y1 - y0)
            rects += [(x0, y0, x1, ym), (x0, ym, x1, y1)]
    return [feature(f"p{k}", [box_ring(*r, draw(st.integers(0, 3)), draw(st.booleans()))])
            for k, r in enumerate(rects)]


@st.composite
def slanted_grids(draw):
    """Grids whose shared vertices are moved, so edges are slanted; some
    cells are cut into two triangles, some edges get a midpoint on one
    side only, collinear with the other side's edge up to round-off, and
    some rings repeat a vertex, an edge of length zero."""
    cols, rows = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shift = st.floats(-0.3, 0.3)
    pts = {(i, j): (i + draw(shift), j + draw(shift))
           for i in range(cols + 1) for j in range(rows + 1)}
    feats = []
    for i in range(cols):
        for j in range(rows):
            ring = [pts[i, j], pts[i + 1, j], pts[i + 1, j + 1], pts[i, j + 1]]
            if draw(st.booleans()):
                (x0, y0), (x1, y1) = ring[1], ring[2]
                ring.insert(2, ((x0 + x1) / 2, (y0 + y1) / 2))
            if len(ring) == 4 and draw(st.booleans()):
                a, b, c, d = ring
                halves = [[a, b, c], [a, c, d]] if draw(st.booleans()) else [[a, b, d], [b, c, d]]
                feats += [feature(f"c{i}x{j}{h}", [[list(p) for p in half]])
                          for h, half in zip("ab", halves)]
                continue
            if draw(st.booleans()):
                k = draw(st.integers(0, len(ring) - 1))
                ring.insert(k, ring[k])
            feats.append(feature(f"c{i}x{j}", [[list(p) for p in ring]]))
    return feats


@st.composite
def near_contacts(draw):
    """Unit squares (scaled) that share an edge, a corner or nothing, each
    nudged by a few snapping tolerances: gaps, overlaps and shared lengths
    around the tolerance itself."""
    scale = draw(st.sampled_from([1.0, 3.7, 1e-3, 1e4]))
    nudge = st.floats(-4.0, 4.0).map(lambda k: k * ADJACENCY_SNAP * 3.0 * scale)
    feats = [feature("a", [box_ring(0.0, 0.0, scale, scale)])]
    for k, (cx, cy) in enumerate(draw(st.lists(
            st.sampled_from([(1, 0), (0, 1), (1, 1), (-1, 1), (1, -1), (0, -1)]),
            min_size=1, max_size=4, unique=True))):
        x, y = cx * scale + draw(nudge), cy * scale + draw(nudge)
        w, h = scale + draw(nudge), scale + draw(nudge)
        feats.append(feature(f"n{k}", [box_ring(x, y, x + w, y + h,
                                                draw(st.integers(0, 3)), draw(st.booleans()))]))
    return feats


@st.composite
def holes_and_parts(draw):
    """A frame with a hole, a square that fills the hole or sits inside it,
    and a MultiPolygon whose parts touch the frame, a square or nothing."""
    h = draw(st.floats(0.2, 0.8))
    frame = [box_ring(-2.0, -2.0, 2.0, 2.0), box_ring(-h, -h, h, h, reverse=True)]
    inner = h * draw(st.sampled_from([1.0, 0.5, 1.0 - 1e-12]))
    parts = [[box_ring(2.0, -1.0, 3.0, draw(st.floats(-0.5, 2.0)))],
             [box_ring(10.0, 0.0, 11.0, 1.0)]]
    if draw(st.booleans()):
        parts.append([box_ring(11.0, 0.0, 12.0, 1.0), box_ring(11.2, 0.2, 11.8, 0.8)])
    feats = [feature("frame", frame), feature("hole", [box_ring(-inner, -inner, inner, inner)]),
             feature("multi", parts, "MultiPolygon")]
    if draw(st.booleans()):
        feats.append(feature("east", [box_ring(12.0, 0.0, 13.0, 1.0)]))
    return feats


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(jittered_grids(), rectangle_partitions(), slanted_grids(), near_contacts(),
                 holes_and_parts()).flatmap(st.permutations))
def test_adjacency_matches_the_pair_loop(tmp_path, features):
    path = write_geojson(tmp_path / "m.geojson", features)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a zero-length edge divides nothing by zero
        g = load_map(path)
    assert g.edges == oracle_mapdata.adjacency_edges(g.regions)


@pytest.mark.parametrize("cols", [10, 20])
def test_adjacency_matches_the_pair_loop_on_large_grids(tmp_path, cols):
    doc = grid_geojson(cols, cols, jitter=0.3, seed=0)
    g = load_map(write_geojson(tmp_path / "m.geojson", doc["features"]))
    assert g.edges == oracle_mapdata.adjacency_edges(g.regions)
    assert len(g.edges) == 2 * cols * (cols - 1)


def test_adjacency_matches_the_pair_loop_on_bundled_maps(sample3_paths, luxembourg_paths):
    for path, _ in (sample3_paths, luxembourg_paths):
        g = load_map(path)
        assert g.edges == oracle_mapdata.adjacency_edges(g.regions)


def test_adjacency_takes_edge_pairs_in_chunks(tmp_path, monkeypatch):
    # a chunk smaller than the edge pairs of one region pair: the chunks
    # still find every edge
    import demers.mapdata as md

    doc = grid_geojson(4, 3, jitter=0.3, seed=2)
    path = write_geojson(tmp_path / "m.geojson", doc["features"])
    whole = load_map(path).edges
    monkeypatch.setattr(md, "EDGE_PAIR_CHUNK", 5)
    assert load_map(path).edges == whole == oracle_mapdata.adjacency_edges(load_map(path).regions)


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
