"""Property tests on LP-solved k = 2 sequences of random jittered grids.

Each instance runs the library path ``cli.run`` takes: derive the full
constraint set, build one coupled LP from its transitive reduction, solve,
and decode against the full set.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from demers.layout import decode, interpolate, validity_violations
from demers.lpmodel import ModelSpec, ObjectiveKind, Stability, build_multi_lp
from demers.mapdata import compute_epsilon, scale_weights
from demers.metrics import evaluate
from demers.sepconstraints import Setting, derive_constraints, reduce_transitive
from demers.simplexsolver import solve_lp
from demers.synth import grid_map, lognormal_weights


@st.composite
def solved_sequences(draw):
    cols, rows = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    seed = draw(st.integers(0, 10_000))
    g = grid_map(cols, rows, jitter=draw(st.floats(0.05, 0.4)), seed=seed)
    ws = lognormal_weights(g, k=2, seed=seed, sigma=draw(st.floats(0.5, 2.0)))
    table = scale_weights(ws, g)
    setting = draw(st.sampled_from(list(Setting)))
    cs = derive_constraints(g, compute_epsilon(table, g), setting)
    spec = ModelSpec(
        draw(st.sampled_from([ObjectiveKind.TOP, ObjectiveKind.ORG])),
        setting,
        draw(st.sampled_from([Stability.CO, Stability.SU, Stability.CENTRAL])),
    )
    model = build_multi_lp(g, table, reduce_transitive(cs), spec)
    return g, decode(solve_lp(model.problem), model, constraint_ref=cs)


@settings(max_examples=30, deadline=None)
@given(solved_sequences())
def test_metrics_stay_in_unit_interval_without_clamping(instance):
    g, layouts = instance
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clamped metric warns
        report = evaluate(layouts, g)
    values = [report.madj, report.mrel, report.mdis, report.sdis, report.srel]
    values += report.madj_per_layout + report.mrel_per_layout
    values += report.mdis_per_layout + report.sdis_per_pair + report.srel_per_pair
    assert all(0.0 <= v <= 1.0 for v in values), values


@settings(max_examples=30, deadline=None)
@given(solved_sequences(), st.floats(0.0, 1.0))
def test_every_interpolation_frame_is_valid(instance, t):
    _, (a, b) = instance
    for frame_t in [*np.linspace(0.0, 1.0, 9), t]:
        assert validity_violations(interpolate(a, b, float(frame_t))) == []
