"""Property tests on solved k = 2 sequences of random jittered grids.

Each instance runs the library path ``cli.run`` takes: derive the full
constraint set, build one coupled program from its transitive reduction,
solve it on the default engine, and decode against the full set. TOP and ORG
sequences are LPs on grids of up to 4x4; CNT sequences are binary programs,
solved by ``solve_ilp``, on grids of at most 6 regions, where a search takes
well under a second. Every layout's metrics, interpolation frames and
leaders are checked.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leader_crossings, polyline_monotone
from demers.layout import decode, interpolate, l1_gap, validity_violations
from demers.leaders import LOST_TOL, all_leaders, lost_adjacencies
from demers.lpmodel import ModelSpec, ObjectiveKind, Stability, build_multi_lp
from demers.mapdata import compute_epsilon, scale_weights
from demers.metrics import evaluate
from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
from demers.simplexsolver import solve_ilp, solve_lp
from demers.synth import grid_map, lognormal_weights


@st.composite
def solved_sequences(draw, cnt=False):
    if cnt:
        cols, rows = draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    else:
        cols, rows = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    g = grid_map(cols, rows, jitter=draw(st.floats(0.05, 0.4)), seed=seed)
    ws = lognormal_weights(g, k=2, seed=seed, sigma=draw(st.floats(0.5, 2.0)))
    table = scale_weights(ws, g)
    setting = draw(st.sampled_from(list(Setting)))
    cs = derive_constraints(g, compute_epsilon(table, g), setting)
    kinds = [ObjectiveKind.CNT] if cnt else [ObjectiveKind.TOP, ObjectiveKind.ORG]
    spec = ModelSpec(
        draw(st.sampled_from(kinds)),
        setting,
        draw(st.sampled_from([Stability.CO, Stability.SU, Stability.CENTRAL])),
    )
    model = build_multi_lp(g, table, reduce_transitive(cs), spec)
    sol = solve_ilp(model.problem) if cnt else solve_lp(model.problem)
    assert sol.optimal, sol.status
    return g, cs, decode(sol, model, constraint_ref=cs)


def assert_metrics_unclamped(instance):
    g, _, layouts = instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clamped metric warns
        report = evaluate(layouts, g)
    values = [report.madj, report.mrel, report.mdis, report.sdis, report.srel]
    values += report.madj_per_layout + report.mrel_per_layout
    values += report.mdis_per_layout + report.sdis_per_pair + report.srel_per_pair
    assert all(0.0 <= v <= 1.0 for v in values), values


def assert_frames_valid(instance, t):
    _, _, (a, b) = instance
    for frame_t in [*np.linspace(0.0, 1.0, 9), t]:
        assert validity_violations(interpolate(a, b, float(frame_t))) == []


def assert_leaders_route_lost_adjacencies(instance):
    """Each lost adjacency is routed or reported unroutable, once; a routed
    leader is monotone, crosses no square and is as long as its L1 gap."""
    g, cs, layouts = instance
    for lay in layouts:
        routed, report = all_leaders(lay, cs, g)
        pairs = [ld.endpoints for ld in routed] + [(a, b) for a, b, _ in report.unroutable]
        assert sorted(pairs) == sorted(lost_adjacencies(lay, g))
        assert report.routed == len(routed)
        tol = LOST_TOL * lay.reference_diagonal()
        for ld in routed:
            assert abs(ld.length - l1_gap(lay, *ld.endpoints)) <= tol, ld.endpoints
            assert leader_crossings(ld, lay) == [], ld.endpoints
            assert polyline_monotone(ld.polyline), ld.endpoints


@settings(max_examples=30, deadline=None)
@given(solved_sequences())
def test_metrics_stay_in_unit_interval_without_clamping(instance):
    assert_metrics_unclamped(instance)


@settings(max_examples=30, deadline=None)
@given(solved_sequences(), st.floats(0.0, 1.0))
def test_every_interpolation_frame_is_valid(instance, t):
    assert_frames_valid(instance, t)


@settings(max_examples=30, deadline=None)
@given(solved_sequences())
def test_leaders_route_every_lost_adjacency(instance):
    assert_leaders_route_lost_adjacencies(instance)


@settings(max_examples=30, deadline=None)
@given(solved_sequences(cnt=True))
def test_cnt_metrics_stay_in_unit_interval_without_clamping(instance):
    assert_metrics_unclamped(instance)


@settings(max_examples=30, deadline=None)
@given(solved_sequences(cnt=True), st.floats(0.0, 1.0))
def test_every_cnt_interpolation_frame_is_valid(instance, t):
    assert_frames_valid(instance, t)


@settings(max_examples=30, deadline=None)
@given(solved_sequences(cnt=True))
def test_cnt_leaders_route_every_lost_adjacency(instance):
    assert_leaders_route_lost_adjacencies(instance)
