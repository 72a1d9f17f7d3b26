import re

import pytest

from conftest import square_map
from demers.layout import SquareLayout, decode
from demers.leaders import min_leader
from demers.lpmodel import ModelSpec, build_single_lp
from demers.render import render_frames, render_svg
from demers.sepconstraints import Setting, derive_constraints
from demers.simplexsolver import solve_lp


def solved_layout(seed_sides):
    squares = {"A": (0, 0, 4.0), "B": (10, 2, 2.0), "C": (1, 9, 2.0)}
    g = square_map(squares, {("A", "B"), ("A", "C")})
    cs = derive_constraints(g, 0.5, Setting.WEAK)
    model = build_single_lp(g, seed_sides, cs, ModelSpec())
    return decode(solve_lp(model.problem), model)[0]


@pytest.fixture()
def abc_layout():
    return solved_layout({"A": 4.0, "B": 2.0, "C": 2.0})


class TestRenderSvg:
    def test_basic_document(self, abc_layout):
        svg = render_svg(abc_layout)
        assert svg.startswith('<?xml version="1.0"')
        assert svg.count("<rect") == 3
        assert "<polyline" not in svg
        assert svg.rstrip().endswith("</svg>")

    def test_byte_identical_for_identical_input(self, abc_layout):
        assert render_svg(abc_layout, labels=True) == render_svg(abc_layout, labels=True)

    def test_leaders_rendered_red(self):
        squares = {"a": (0.0, 0.0, 4.0), "b": (8.0, 0.0, 2.0)}
        g = square_map(squares, {("a", "b")})
        cs = derive_constraints(g, 0.4, Setting.WEAK)
        lay = SquareLayout(
            centers={"a": (0, 0), "b": (8, 0)},
            sides={"a": 4.0, "b": 2.0},
            constraint_ref=cs,
            diagonal=12.0,
        )
        ld = min_leader(lay, cs, "a", "b")
        svg = render_svg(lay, [ld])
        assert svg.count("<polyline") == 1
        assert "#d62728" in svg

    def test_geometry_matches_layout(self, abc_layout):
        svg = render_svg(abc_layout)
        widths = sorted(
            float(m) for m in re.findall(r'<rect[^>]* width="([0-9.]+)"', svg)
        )
        assert widths == pytest.approx(sorted(abc_layout.sides.values()), abs=1e-6)

    def test_layout_without_a_diagonal_draws_by_its_squares(self, abc_layout):
        # the fallback validity_violations uses: the squares' bounding box
        loaded = SquareLayout(dict(abc_layout.centers), dict(abc_layout.sides))
        sized = SquareLayout(dict(abc_layout.centers), dict(abc_layout.sides),
                             diagonal=loaded.reference_diagonal())
        x0, y0, x1, y1 = abc_layout.bbox()
        assert loaded.reference_diagonal() == ((x1 - x0) ** 2 + (y1 - y0) ** 2) ** 0.5
        assert render_svg(loaded) == render_svg(sized)

    def test_labels_toggle(self, abc_layout):
        assert "<text" not in render_svg(abc_layout)
        assert "<text" in render_svg(abc_layout, labels=True)


class TestRenderFrames:
    def test_two_frames_are_endpoints(self, abc_layout):
        other = solved_layout({"A": 4.0, "B": 3.0, "C": 2.5})
        frames = render_frames(abc_layout, other, 2)
        assert frames[0] == render_svg(abc_layout)
        assert frames[-1] == render_svg(other)

    def test_identical_layouts_identical_frames(self, abc_layout):
        frames = render_frames(abc_layout, abc_layout, 5)
        assert len(set(frames)) == 1

    def test_ten_valid_frames(self, abc_layout):
        other = solved_layout({"A": 4.0, "B": 3.0, "C": 2.5})
        frames = render_frames(abc_layout, other, 10)
        assert len(frames) == 10
        assert len(set(frames)) == 10  # geometry actually moves

    def test_frame_count_validation(self, abc_layout):
        with pytest.raises(ValueError, match="two frames"):
            render_frames(abc_layout, abc_layout, 1)
