import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import square_map
from demers.layout import SquareLayout
from demers.metrics import (
    _pairwise_zone_change,
    _zone_tensor,
    evaluate,
    madj,
    mdis,
    mrel,
    sdis,
    srel,
    zone_vector,
)

N, NE, E, SE, S, SW, W, NW = range(8)


def layout_of(squares, diagonal=20.0):
    return SquareLayout(
        centers={rid: (x, y) for rid, (x, y, _) in squares.items()},
        sides={rid: s for rid, (_, _, s) in squares.items()},
        diagonal=diagonal,
    )


class TestZoneVector:
    def test_entirely_ne(self):
        zv = zone_vector((0, 0, 2, 2), (3, 3, 4, 4))
        assert zv[NE] == pytest.approx(1.0)
        assert sum(zv) == pytest.approx(1.0)

    def test_straddle_n_and_ne(self):
        zv = zone_vector((0, 0, 2, 2), (1, 3, 3, 4))
        assert zv[N] == pytest.approx(0.5)
        assert zv[NE] == pytest.approx(0.5)

    def test_full_center_overlap_uniform(self):
        zv = zone_vector((0, 0, 2, 2), (0, 0, 2, 2))
        assert zv == tuple([0.125] * 8)

    def test_partial_center_overlap_renormalized(self):
        # other sticks out east by half its area
        zv = zone_vector((0, 0, 2, 2), (1, 0.5, 3, 1.5))
        assert zv[E] == pytest.approx(1.0)

    def test_zero_area_rejected(self):
        with pytest.raises(ValueError):
            zone_vector((0, 0, 0, 2), (1, 1, 2, 2))

    def test_scale_invariance(self):
        a, b = (0, 0, 2, 3), (1, 4, 5, 6)
        s = 7.5
        scaled = tuple(v * s for v in a), tuple(v * s for v in b)
        assert zone_vector(a, b) == pytest.approx(zone_vector(*scaled))


class TestMadj:
    def test_half_lost(self):
        squares = {"a": (0, 0, 2.0), "b": (2, 0, 2.0), "c": (9, 0, 2.0)}
        g = square_map(squares, {("a", "b"), ("b", "c")})
        lay = layout_of(squares)
        assert madj([lay], g) == pytest.approx(0.5)

    def test_all_realized(self):
        squares = {"a": (0, 0, 2.0), "b": (2, 0, 2.0)}
        g = square_map(squares, {("a", "b")})
        assert madj([layout_of(squares)], g) == 0.0

    def test_no_edges_defined_as_zero(self):
        squares = {"a": (0, 0, 2.0)}
        g = square_map(squares, set())
        assert madj([layout_of(squares)], g) == 0.0


class TestRelativePosition:
    def test_identical_layouts_srel_zero(self):
        squares = {"a": (0, 0, 2.0), "b": (5, 1, 1.0)}
        lay = layout_of(squares)
        assert srel(lay, lay) == 0.0

    def test_ne_to_e_move_scores_one(self):
        a = layout_of({"r": (0, 0, 2.0), "s": (4, 4, 2.0)})
        b = layout_of({"r": (0, 0, 2.0), "s": (4, 0, 2.0)})
        assert srel(a, b) == pytest.approx(1.0)

    def test_srel_translation_invariant(self):
        rng = random.Random(0)
        squares = {
            f"r{i}": (rng.uniform(0, 9), rng.uniform(0, 9), rng.uniform(0.5, 2))
            for i in range(5)
        }
        other = {
            rid: (x + rng.uniform(-2, 2), y + rng.uniform(-2, 2), s)
            for rid, (x, y, s) in squares.items()
        }
        a, b = layout_of(squares), layout_of(other)
        val = srel(a, b)
        assert srel(a.translated(13, -7), b.translated(13, -7)) == pytest.approx(val)

    def test_pair_value_depends_on_region_order(self):
        # the per-pair change is directional; averaging runs over ordered pairs
        a_r, a_s = (1.59, 2.87, 5.52, 7.22), (7.35, 1.36, 11.04, 6.22)
        b_r, b_s = (0.46, 5.41, 4.85, 7.78), (2.01, 4.77, 4.77, 6.47)
        fwd = _zone_change(zone_vector(a_r, a_s), zone_vector(b_r, b_s))
        rev = _zone_change(zone_vector(a_s, a_r), zone_vector(b_s, b_r))
        assert abs(fwd - rev) > 0.05

    def test_mrel_uses_map_boxes(self):
        squares = {"a": (0, 0, 2.0), "b": (5, 0, 2.0)}
        g = square_map(squares, set())
        same = layout_of(squares)
        assert mrel([same], g) == pytest.approx(0.0, abs=1e-12)
        flipped = layout_of({"a": (0, 5, 2.0), "b": (0, 0, 2.0)})
        assert mrel([flipped], g) > 0.5


class TestDisplacement:
    def test_mdis_zero_at_origins(self):
        squares = {"a": (0, 0, 2.0), "b": (5, 0, 2.0)}
        g = square_map(squares, set())
        assert mdis([layout_of(squares)], g) == 0.0

    def test_mdis_half_for_half_perimeter_move(self):
        squares = {"a": (0, 0, 4.0)}
        g = square_map(squares, set())
        x0, y0, x1, y1 = g.bbox()
        half = ((x1 - x0) + (y1 - y0)) / 2
        lay = layout_of({"a": (half, 0, 4.0)})
        assert mdis([lay], g) == pytest.approx(0.5)

    def test_sdis_identical_zero(self):
        lay = layout_of({"a": (0, 0, 2.0), "b": (5, 1, 1.0)})
        assert sdis(lay, lay) == 0.0

    def test_sdis_euclidean_over_tuple(self):
        a = layout_of({"r": (0.0, 0.0, 5.0)})
        b = layout_of({"r": (3.0, 4.0, 5.0)})
        # normalizer: bounding box width + height = 10 for both layouts
        assert sdis(a, b) == pytest.approx(0.5)

    def test_sdis_counts_size_change(self):
        a = layout_of({"r": (0.0, 0.0, 5.0)})
        b = layout_of({"r": (0.0, 0.0, 4.0)})
        assert sdis(a, b) > 0.0


class TestBoundsAndReport:
    @pytest.mark.parametrize("seed", range(10))
    def test_all_metrics_within_unit_interval(self, seed):
        rng = random.Random(seed)
        squares = {
            f"r{i}": (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0.5, 3))
            for i in range(6)
        }
        ids = sorted(squares)
        g = square_map(squares, {(ids[0], ids[1]), (ids[1], ids[2])})
        lays = []
        for _ in range(2):
            moved = {
                rid: (x + rng.uniform(-3, 3), y + rng.uniform(-3, 3), s)
                for rid, (x, y, s) in squares.items()
            }
            lays.append(layout_of(moved))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # clamping would warn
            report = evaluate(lays, g)
        for val in (report.madj, report.mrel, report.mdis, report.sdis, report.srel):
            assert 0.0 <= val <= 1.0

    def test_report_shapes_and_pairing(self):
        rng = random.Random(1)
        squares = {
            f"r{i}": (rng.uniform(0, 8), rng.uniform(0, 8), rng.uniform(0.5, 2))
            for i in range(4)
        }
        g = square_map(squares, set())
        lays = [layout_of(squares) for _ in range(3)]
        report = evaluate(lays, g)
        assert len(report.madj_per_layout) == 3
        assert len(report.sdis_per_pair) == 2  # successive pairs
        assert report.sdis == 0.0
        assert report.srel == 0.0
        doc = report.to_json_dict()
        assert doc["schema_version"] == 1
        assert set(doc) >= {"madj", "mrel", "mdis", "sdis", "srel", "lost_counts"}


def _zone_change(zv_a, zv_b):
    """Reference: the zone-vector change of one ordered pair."""
    return 0.5 * sum(abs(a - b) for a, b in zip(zv_a, zv_b))


def pairwise_change_by_loop(rects_a, rects_b):
    """Reference: the mean zone-vector change, one scalar call per ordered pair."""
    ids = sorted(rects_a)
    changes = [
        _zone_change(zone_vector(rects_a[r], rects_a[s]), zone_vector(rects_b[r], rects_b[s]))
        for r in ids for s in ids if r != s
    ]
    return sum(changes) / len(changes)


@st.composite
def rect_lists(draw, n):
    """n rectangles on a coarse grid, with copies, nested and touching ones."""
    coord = st.integers(0, 16).map(lambda v: v / 4)
    size = st.integers(1, 12).map(lambda v: v / 4)
    rects = []
    for _ in range(n):
        kind = draw(st.sampled_from(["free", "copy", "nested", "touching"]))
        if not rects or kind == "free":
            x0, y0 = draw(coord), draw(coord)
            rects.append((x0, y0, x0 + draw(size), y0 + draw(size)))
            continue
        x0, y0, x1, y1 = draw(st.sampled_from(rects))
        if kind == "copy":
            rects.append((x0, y0, x1, y1))
        elif kind == "nested":
            f = draw(st.sampled_from([0.0, 0.25]))
            rects.append((x0 + f * (x1 - x0), y0 + f * (y1 - y0), x1, y1 - f * (y1 - y0)))
        else:
            rects.append((x1, y0, x1 + draw(size), y1))
    return rects


@st.composite
def layout_pairs(draw):
    n = draw(st.integers(2, 30))
    ids = [f"r{i:02d}" for i in range(n)]
    return dict(zip(ids, draw(rect_lists(n)))), dict(zip(ids, draw(rect_lists(n))))


@settings(max_examples=150, deadline=None)
@given(layout_pairs())
def test_vectorized_zone_change_matches_scalar_loop(pair):
    # the same float operations in the same order, so the results are equal
    rects_a, rects_b = pair
    assert _pairwise_zone_change(rects_a, rects_b) == pairwise_change_by_loop(rects_a, rects_b)
    ids = sorted(rects_a)
    tensor = _zone_tensor(np.array([rects_a[r] for r in ids]))
    for i, r in enumerate(ids):
        for j, s in enumerate(ids):
            assert tuple(tensor[i, j].tolist()) == zone_vector(rects_a[r], rects_a[s])


def test_zone_tensor_rejects_degenerate_rectangles():
    with pytest.raises(ValueError, match="positive area"):
        _pairwise_zone_change({"a": (0, 0, 1, 1), "b": (2, 2, 2, 3)},
                              {"a": (0, 0, 1, 1), "b": (2, 2, 3, 3)})
