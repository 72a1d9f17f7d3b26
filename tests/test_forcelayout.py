import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import square_map
from demers.forcelayout import (
    DISJOINTNESS_SCALE,
    OVER_RELAX,
    ForceConfig,
    InitMode,
    QualityForce,
    _ForceField,
    _pair_jitter,
    run_frc,
)
from demers.layout import total_square_area
from demers.mapdata import compute_epsilon, scale_weights
from demers.synth import grid_map, lognormal_weights


def pair_map(gap_edges=True):
    squares = {"a": (0.0, 0.0, 2.0), "b": (1.0, 0.0, 2.0)}
    edges = {("a", "b")} if gap_edges else set()
    return square_map(squares, edges), {"a": 2.0, "b": 2.0}


class TestForceLaw:
    def test_overlap_force_magnitude_and_direction(self):
        g, sides = pair_map()
        cfg = ForceConfig(epsilon=0.5)
        field = _ForceField(g, sides, cfg)
        pos = np.array([[0.0, 0.0], [1.0, 0.0]])
        f = field.sweep(pos.T).raw.T
        # adjacent pair: m = 2, Chebyshev distance 1, magnitude (1/2)^2 each
        expect = DISJOINTNESS_SCALE * 0.25
        assert f[0, 0] == pytest.approx(-expect)  # a pushed left
        assert f[1, 0] == pytest.approx(expect - (0.0))  # b pushed right, origin pull 0 at start? no
        # action equals reaction for the disjointness part
        assert f[0, 0] + f[1, 0] == pytest.approx(
            (field.origins[0, 0] - 0.0) / field.origin_diag
            + (field.origins[1, 0] - 1.0) / field.origin_diag
        )

    def test_disjoint_pair_has_no_push(self):
        squares = {"a": (0.0, 0.0, 2.0), "b": (5.0, 0.0, 2.0)}
        g = square_map(squares, set())
        cfg = ForceConfig(epsilon=0.5, quality_variant=QualityForce.TOPOLOGY)
        field = _ForceField(g, {"a": 2.0, "b": 2.0}, cfg)
        f = field.sweep(np.array([[0.0, 0.0], [5.0, 0.0]]).T).raw.T
        assert np.allclose(f, 0.0)  # not adjacent: no pull either

    def test_topology_pull_zero_at_touching(self):
        g, sides = pair_map()
        cfg = ForceConfig(epsilon=0.5, quality_variant=QualityForce.TOPOLOGY)
        field = _ForceField(g, sides, cfg)
        f = field.sweep(np.array([[0.0, 0.0], [2.0, 0.0]]).T).raw.T  # exactly touching
        assert np.allclose(f, 0.0)

    def test_topology_pull_toward_far_neighbor(self):
        g, sides = pair_map()
        cfg = ForceConfig(epsilon=0.5, quality_variant=QualityForce.TOPOLOGY)
        field = _ForceField(g, sides, cfg)
        f = field.sweep(np.array([[0.0, 0.0], [6.0, 0.0]]).T).raw.T
        assert f[0, 0] == pytest.approx((6.0 - 2.0) / 2.0)  # (cheb - m)/m toward b
        assert f[1, 0] == pytest.approx(-2.0)

    def test_disjointness_antisymmetry(self):
        rng = np.random.default_rng(0)
        squares = {
            f"r{i}": (float(x), float(y), float(s))
            for i, (x, y, s) in enumerate(
                zip(rng.uniform(0, 4, 5), rng.uniform(0, 4, 5), rng.uniform(1, 3, 5))
            )
        }
        g = square_map(squares, set())
        cfg = ForceConfig(epsilon=0.3)
        field = _ForceField(g, {r: squares[r][2] for r in squares}, cfg)
        pos = field.origins.copy()
        d = pos[:, None, :] - pos[None, :, :]
        dist = np.hypot(d[..., 0], d[..., 1])
        cheb = np.maximum(np.abs(d[..., 0]), np.abs(d[..., 1]))
        np.fill_diagonal(cheb, np.inf)
        unit = np.zeros_like(d)
        nz = dist > 0
        unit[nz] = d[nz] / dist[nz][:, None]
        overlap = cheb < field.m
        mag = np.zeros_like(cheb)
        mag[overlap] = ((field.m[overlap] - cheb[overlap]) / field.m[overlap]) ** 2
        pairwise = unit * mag[..., None]
        assert np.allclose(pairwise, -np.swapaxes(pairwise, 0, 1))

    def test_force_continuity_near_contact(self):
        g, sides = pair_map()
        cfg = ForceConfig(epsilon=0.5)
        field = _ForceField(g, sides, cfg)
        just_in = field.sweep(np.array([[0.0, 0.0], [2.0 - 1e-9, 0.0]]).T).raw.T
        just_out = field.sweep(np.array([[0.0, 0.0], [2.0 + 1e-9, 0.0]]).T).raw.T
        assert abs(just_in[1, 0] - just_out[1, 0]) < 1e-3

    def test_global_rescale_caps_at_min_side(self):
        g, sides = pair_map()
        cfg = ForceConfig(epsilon=0.5)
        field = _ForceField(g, sides, cfg)
        f = field.rescale(field.sweep(np.array([[0.0, 0.0], [0.5, 0.0]]).T).raw.T)
        norms = np.hypot(f[:, 0], f[:, 1])
        assert norms.max() <= field.min_side + 1e-12

    def test_coincident_centers_deterministic_jitter(self):
        squares = {"a": (0.0, 0.0, 2.0), "b": (0.0, 0.0, 2.0)}
        regions = square_map(squares, set())
        # coincident centroids break constraint derivation, not forces
        cfg = ForceConfig(epsilon=0.1)
        field = _ForceField(regions, {"a": 2.0, "b": 2.0}, cfg)
        pos = np.zeros((2, 2))
        f1 = field.sweep(pos.T).raw.T
        f2 = field.sweep(pos.T).raw.T
        assert np.allclose(f1, f2)
        assert np.allclose(f1[0], -f1[1])
        assert np.hypot(*f1[0]) > 0


class TestRunFrc:
    def test_single_region_returns_origin(self):
        g = square_map({"a": (3.0, 4.0, 2.0)}, set())
        res = run_frc(g, {"a": 2.0}, ForceConfig(epsilon=0.1))
        assert res.converged
        assert res.layout.centers["a"] == (3.0, 4.0)

    def test_two_overlapping_squares_separate(self):
        squares = {"a": (0.0, 0.0, 2.0), "b": (1.0, 0.0, 2.0)}
        g = square_map(squares, set())
        res = run_frc(g, {"a": 2.0, "b": 2.0}, ForceConfig(epsilon=0.2))
        assert res.converged
        assert res.residual_overlap_area <= 1e-3 * total_square_area(res.layout)

    def test_previous_layout_is_a_fixed_point(self):
        g = grid_map(7, 1)
        ws = lognormal_weights(g, k=1, seed=0, sigma=1.2)
        table = scale_weights(ws, g)
        eps = compute_epsilon(table, g)
        first = run_frc(g, table.function_sides(0), ForceConfig(epsilon=eps))
        assert first.converged
        again = run_frc(
            g,
            table.function_sides(0),
            ForceConfig(epsilon=eps, init=InitMode.PREVIOUS_LAYOUT),
            previous=first.layout,
        )
        assert again.converged
        assert again.iterations == 1
        for rid in first.layout.centers:
            assert again.layout.centers[rid] == first.layout.centers[rid]

    def test_previous_required_for_stable_init(self):
        g = square_map({"a": (0.0, 0.0, 2.0)}, set())
        with pytest.raises(ValueError, match="previous"):
            run_frc(g, {"a": 2.0}, ForceConfig(init=InitMode.PREVIOUS_LAYOUT))

    def test_nonconvergence_is_flagged_not_raised(self):
        g = grid_map(3)
        sides = {rid: 2.0 for rid in g.region_ids}  # everything overlaps
        cfg = ForceConfig(epsilon=0.2, max_iterations=2)
        with pytest.warns(UserWarning, match="residual overlap"):
            res = run_frc(g, sides, cfg)
        assert not res.converged
        assert res.iterations == 2
        total = total_square_area(res.layout)
        assert res.residual_overlap_frac == res.residual_overlap_area / total > 1e-3

    def test_overlap_fraction_below_the_warning_threshold(self, recwarn):
        squares = {"a": (0.0, 0.0, 2.0), "b": (1.0, 0.0, 2.0)}
        g = square_map(squares, set())
        res = run_frc(g, {"a": 2.0, "b": 2.0}, ForceConfig(epsilon=0.2))
        assert res.residual_overlap_frac <= 1e-3
        assert not [w for w in recwarn if "residual overlap" in str(w.message)]

    @pytest.mark.parametrize("variant", [QualityForce.ORIGIN, QualityForce.TOPOLOGY])
    def test_path_instances_converge(self, variant):
        for seed in range(3):
            g = grid_map(7, 1)
            ws = lognormal_weights(g, k=1, seed=seed, sigma=1.2)
            table = scale_weights(ws, g)
            eps = compute_epsilon(table, g)
            res = run_frc(
                g, table.function_sides(0), ForceConfig(quality_variant=variant, epsilon=eps)
            )
            assert res.converged, (variant, seed, res.max_force)
            assert res.layout.method == "frc"


# ---------------------------------------------------------------------------
# the fused force kernel against the two-pass evaluation it replaced


def reference_forces(field, pos):
    """Raw forces as the two-pass kernel computed them, for (n, 2) centres."""
    n = pos.shape[0]
    jitter = np.zeros((n, n, 2))
    for i, a in enumerate(field.ids):
        for j, b in enumerate(field.ids):
            if i != j:
                jitter[i, j] = _pair_jitter(a, b)
    d = pos[:, None, :] - pos[None, :, :]  # d[i,j] = r_i - r_j
    dist = np.hypot(d[..., 0], d[..., 1])
    cheb = np.maximum(np.abs(d[..., 0]), np.abs(d[..., 1]))
    np.fill_diagonal(cheb, np.inf)

    unit = np.zeros_like(d)
    nz = dist > 0
    unit[nz] = d[nz] / dist[nz][:, None]
    coincident = ~nz
    np.fill_diagonal(coincident, False)
    unit[coincident] = jitter[coincident]

    overlap = cheb < field.m
    mag_d = np.zeros((n, n))
    mag_d[overlap] = ((field.m[overlap] - cheb[overlap]) / field.m[overlap]) ** 2
    f = DISJOINTNESS_SCALE * (unit * mag_d[..., None]).sum(axis=1)

    if field.cfg.quality_variant is QualityForce.ORIGIN:
        if field.origin_diag > 0:
            f += (field.origins - pos) / field.origin_diag
    else:
        mag_q = np.zeros((n, n))
        apart = field.adj & ~overlap & np.isfinite(cheb)
        mag_q[apart] = (cheb[apart] - field.m[apart]) / field.m[apart]
        pull = (-unit * mag_q[..., None]).sum(axis=1)
        deg = np.maximum(field.adj.sum(axis=1), 1)
        f += pull / deg[:, None]
    return f


def reference_rescale(field, f):
    norms = np.hypot(f[:, 0], f[:, 1])
    peak = float(norms.max()) if norms.size else 0.0
    if peak > field.min_side:
        return f * (field.min_side / peak)
    return f


def reference_damped_displacement(field, pos, raw, clamped, omega):
    d = pos[:, None, :] - pos[None, :, :]
    adx = np.abs(d[..., 0])
    ady = np.abs(d[..., 1])
    cheb = np.maximum(adx, ady)
    np.fill_diagonal(cheb, np.inf)
    pen = np.maximum(field.m - cheb, 0.0)
    kc = 4.0 * DISJOINTNESS_SCALE * pen / (field.m * field.m)
    kx = np.where(adx >= ady, kc, 0.0).sum(axis=1)
    ky = np.where(ady > adx, kc, 0.0).sum(axis=1)
    if field.cfg.quality_variant is QualityForce.ORIGIN:
        kq = 1.0 / field.origin_diag if field.origin_diag > 0 else 0.0
    else:
        deg = np.maximum(field.adj.sum(axis=1), 1)
        kq = 2.0 * (field.adj / field.m).sum(axis=1) / deg
    kx = kx + kq
    ky = ky + kq
    sx = np.sign(clamped[:, 0]) * np.minimum(
        np.abs(clamped[:, 0]), omega * np.abs(raw[:, 0]) / np.maximum(kx, 1e-12)
    )
    sy = np.sign(clamped[:, 1]) * np.minimum(
        np.abs(clamped[:, 1]), omega * np.abs(raw[:, 1]) / np.maximum(ky, 1e-12)
    )
    return np.stack([sx, sy], axis=1)


@st.composite
def force_cases(draw):
    """A square map and centres with coincident, touching and nested pairs.

    On the dyadic grid every coordinate, side and gap is a multiple of 1/8,
    so a centre placed one separation distance away touches exactly.
    """
    n = draw(st.integers(2, 30))
    # a small span crowds many squares onto each other, so each region's
    # force sums many nonzero pair terms and their order shows in the bits
    span = draw(st.sampled_from([1, 4]))
    dyadic = draw(st.booleans())
    if dyadic:
        coord = st.integers(0, 8 * span).map(lambda v: v / 8)
        side = st.integers(1, 16).map(lambda v: v / 8)
        epsilon = draw(st.sampled_from([0.0, 0.125, 0.25]))
    else:
        coord = st.floats(0.0, float(span))
        side = st.floats(0.05, 3.0)
        epsilon = draw(st.sampled_from([0.0, 0.0625]) | st.floats(1e-3, 0.5))
    point = st.tuples(coord, coord)
    sides = draw(st.lists(side, min_size=n, max_size=n))
    origins = draw(st.lists(point, min_size=n, max_size=n))
    pos = draw(st.lists(point, min_size=n, max_size=n))
    ids = [f"r{i:02d}" for i in range(n)]
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    edges = draw(st.sets(edge, max_size=2 * n))
    index = st.integers(0, n - 1)
    for kind, i, j in draw(st.lists(
        st.tuples(st.sampled_from(["coincide", "touch", "nest"]), index, index),
        max_size=n,
    )):
        if i == j:
            continue
        (x, y), (si, sj) = pos[i], (sides[i], sides[j])
        if kind == "coincide":
            pos[j] = (x, y)
        elif kind == "touch":
            gap = 0.0 if (i, j) in edges or (j, i) in edges else epsilon
            sep = (si + sj) / 2 + gap
            pos[j] = (x + sep, y) if draw(st.booleans()) else (x, y - sep)
        else:
            pos[j] = (x + (si - sj) / 4, y - (si - sj) / 4)
    cfg = ForceConfig(
        quality_variant=draw(st.sampled_from(list(QualityForce))),
        epsilon=epsilon,
    )
    squares = {rid: (*origins[i], sides[i]) for i, rid in enumerate(ids)}
    g = square_map(squares, {(ids[a], ids[b]) for a, b in edges})
    return g, dict(zip(ids, sides)), cfg, np.array(pos)


@settings(max_examples=300, deadline=None)
@given(force_cases())
def test_sweep_matches_two_pass_kernel(case):
    g, sides, cfg, pos = case
    field = _ForceField(g, sides, cfg)
    raw = reference_forces(field, pos)
    clamped = reference_rescale(field, raw)
    move = reference_damped_displacement(field, pos, raw, clamped, OVER_RELAX)
    step = field.sweep(pos.T)
    assert np.array_equal(step.raw.T, raw)
    assert np.array_equal(step.clamped.T, clamped)
    assert np.array_equal(step.move.T, move)
    assert np.array_equal(field.sweep(pos.T).raw.T, raw)
