"""Force-directed square placement baseline.

Squares repel pairwise while overlapping (quadratic in the normalized
Chebyshev penetration) and are attracted either to their map origins or to
their topological neighbors. Forces are rescaled globally each step so no
square can jump over another. ``run_frc`` caps each region's step per axis
by a local stiffness (Newton) estimate, so contacts settle instead of
bouncing, and applies all steps synchronously. Separation constraints play
no role here, so the result may keep slight overlaps. ``ForceConfig`` holds
what a run chooses (quality force, initialization, gap, iteration cap); the
force law itself is fixed by the module constants ``DISJOINTNESS_SCALE``,
``CONVERGENCE_THRESHOLD`` and ``OVER_RELAX``.

Each iteration is one pass over the n x n pair arrays (``_ForceField.sweep``):
the raw force, the clamped force and the stiffness-sized step all come from
the same differences, distances and penetrations, and every pair quantity
that does not move with the squares is computed once per layout. The sums
keep the term order of the straightforward per-pair evaluation (see
``sweep``), so layouts are reproducible to the bit.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .layout import SquareLayout, overlap_area, total_square_area
from .mapdata import AdjacencyGraph


class QualityForce(Enum):
    ORIGIN = "origin"
    TOPOLOGY = "topology"


class InitMode(Enum):
    MAP_ORIGINS = "map_origins"
    PREVIOUS_LAYOUT = "previous_layout"


# Force-law constants. DISJOINTNESS_SCALE weighs the overlap penalty
# against the quality force; a run converges once the largest clamped force
# falls under CONVERGENCE_THRESHOLD times the smallest side; OVER_RELAX
# scales the stiffness-sized step (see ``ForceConfig``).
DISJOINTNESS_SCALE = 50_000.0
CONVERGENCE_THRESHOLD = 1e-5
OVER_RELAX = 1.7


@dataclass(frozen=True)
class ForceConfig:
    """Quality force, initialization, gap and iteration cap of one force run.

    ``run_frc`` keeps the forces untouched but sizes each applied
    displacement per region and axis from a local stiffness estimate
    (contact penalty slope plus quality-force slope), scaled by
    ``OVER_RELAX``. The raw update rule overshoots around contact
    equilibria because the disjointness penalty is extremely stiff, which
    leaves the iteration bouncing instead of settling; stiffness-sized steps
    restore convergence to ``CONVERGENCE_THRESHOLD``.
    """

    quality_variant: QualityForce = QualityForce.ORIGIN
    init: InitMode = InitMode.MAP_ORIGINS
    epsilon: float = 0.0
    max_iterations: int = 100_000

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max iterations must be at least 1")


@dataclass
class FrcResult:
    layout: SquareLayout
    converged: bool
    iterations: int
    max_force: float
    residual_overlap_area: float
    residual_overlap_frac: float  # residual area over total square area


def _pair_jitter(a: str, b: str) -> tuple[float, float]:
    """Deterministic unit vector for coincident centers, antisymmetric in the pair."""
    lo, hi = sorted((a, b))
    angle = 2.0 * math.pi * (zlib.crc32(f"{lo}|{hi}".encode()) / 2**32)
    ux, uy = math.cos(angle), math.sin(angle)
    if (a, b) != (lo, hi):
        ux, uy = -ux, -uy
    return ux, uy


class _Sweep(NamedTuple):
    """One iteration's forces and step, each a (2, n) array of x and y planes."""

    raw: np.ndarray  # force before the global rescale
    clamped: np.ndarray  # force after it
    move: np.ndarray  # displacement the iteration applies


class _ForceField:
    """Vectorized force evaluation over all region pairs.

    Everything that does not depend on the positions (separation distances,
    their squares, the diagonal mask, degrees, quality-force stiffness) is
    computed once here from the map's cached views, so an iteration is one
    ``sweep``.
    """

    def __init__(
        self,
        map: AdjacencyGraph,
        sides: dict[str, float],
        cfg: ForceConfig,
    ) -> None:
        self.ids = map.sorted_ids
        self.cfg = cfg
        n = len(self.ids)
        s = np.array([sides[r] for r in self.ids])
        self.sides = s
        self.min_side = float(np.min(s))
        self.adj = adj = map.adjacency_mask
        gap = np.where(adj | np.eye(n, dtype=bool), 0.0, cfg.epsilon)
        self.m = (s[:, None] + s[None, :]) / 2.0 + gap
        self.m2 = self.m * self.m
        # added to the Chebyshev distances and the Euclidean norms, so no
        # square pushes or pulls itself
        self.diag_inf = np.zeros((n, n))
        np.fill_diagonal(self.diag_inf, np.inf)
        self.origins = map.centroid_array
        ox0, oy0 = self.origins.min(axis=0)
        ox1, oy1 = self.origins.max(axis=0)
        self.origin_diag = math.hypot(ox1 - ox0, oy1 - oy0)
        self.four_scale = 4.0 * DISJOINTNESS_SCALE
        self.deg = np.maximum(adj.sum(axis=1), 1)
        if cfg.quality_variant is QualityForce.ORIGIN:
            self.kq = 1.0 / self.origin_diag if self.origin_diag > 0 else 0.0
        else:
            self.kq = 2.0 * (adj / self.m).sum(axis=1) / self.deg

    def sweep(self, pos: np.ndarray) -> _Sweep:
        """Forces and step for centres ``pos``, a (2, n) array, in one pairwise pass.

        Every pair quantity is built once, on x and y planes stacked in
        (2, n, n) arrays. The force sums run along the first pair axis:
        ``u[:, j, i] = -u[:, i, j]`` and the magnitudes are symmetric, so
        ``-(u * mag).sum(axis=1)`` adds region i's pair terms one after
        another, in the same order and with the same rounding as a
        sequential sum over j. A sum along the contiguous last axis would
        use pairwise summation and change the last bits of the layout. The
        stiffness sums take symmetric terms and stay on the last axis.
        """
        cfg = self.cfg
        # a C-ordered pos makes every pair array C-ordered, which fixes the
        # order the sums below add their terms in
        pos = np.ascontiguousarray(pos)
        d = pos[:, :, None] - pos[:, None, :]  # d[:, i, j] = r_i - r_j
        ad = np.abs(d)
        cheb = np.maximum(ad[0], ad[1]) + self.diag_inf
        dist = np.hypot(d[0], d[1]) + self.diag_inf
        if not dist.all():
            coincident = dist == 0.0
            unit = d / np.where(coincident, 1.0, dist)
            for i, j in zip(*np.nonzero(coincident)):
                unit[:, i, j] = _pair_jitter(self.ids[i], self.ids[j])
        else:
            unit = d / dist
        pen = np.maximum(self.m - cheb, 0.0)  # > 0 exactly where squares overlap
        raw = (unit * np.square(pen / self.m)).sum(axis=1)
        raw *= -DISJOINTNESS_SCALE

        if cfg.quality_variant is QualityForce.ORIGIN:
            if self.origin_diag > 0:
                # unit direction times |o - r| / diag collapses to (o - r) / diag
                raw += (self.origins.T - pos) / self.origin_diag
        else:
            apart = self.adj & (pen == 0.0)  # the map has no self-loops
            mag_q = np.where(apart, (cheb - self.m) / self.m, 0.0)
            # unit[:, j, i] = -unit[:, i, j] points from i toward j: a pull
            raw += (unit * mag_q).sum(axis=1) / self.deg

        clamped = self.rescale(raw.T).T
        # Per-axis displacement bounded by a local stiffness (Newton) step.
        # Contact stiffness acts along each overlapping pair's dominant
        # axis; the quality force adds its own slope. The applied step per
        # axis is the smaller of the clamped force and the stiffness-sized
        # step, so soft modes move at full speed while contacts relax
        # instead of bouncing.
        kc = self.four_scale * pen / self.m2
        kc_x = np.where(ad[0] >= ad[1], kc, 0.0)
        k = np.empty_like(pos)
        kc_x.sum(axis=1, out=k[0])
        (kc - kc_x).sum(axis=1, out=k[1])  # the pairs with ad[1] > ad[0]
        k += self.kq
        newton = OVER_RELAX * np.abs(raw) / np.maximum(k, 1e-12)
        move = np.sign(clamped) * np.minimum(np.abs(clamped), newton)
        return _Sweep(raw, clamped, move)

    def rescale(self, f: np.ndarray) -> np.ndarray:
        norms = np.hypot(f[:, 0], f[:, 1])
        peak = float(norms.max()) if norms.size else 0.0
        if peak > self.min_side:
            return f * (self.min_side / peak)
        return f


def run_frc(
    map: AdjacencyGraph,
    sides: dict[str, float],
    cfg: ForceConfig,
    previous: SquareLayout | None = None,
) -> FrcResult:
    """Iterate force steps until the largest force falls under the threshold.

    Initialization is either the map origins or the previous layout's centers
    (for stability across weight functions). Non-convergence within the
    iteration cap returns the last state flagged, never raises.
    """
    if cfg.init is InitMode.PREVIOUS_LAYOUT and previous is None:
        raise ValueError("previous layout required for stable initialization")
    field = _ForceField(map, sides, cfg)
    if cfg.init is InitMode.PREVIOUS_LAYOUT:
        pos = np.array([previous.centers[r] for r in field.ids]).T
    else:
        pos = field.origins.T.copy()

    limit = CONVERGENCE_THRESHOLD * field.min_side
    converged = False
    max_force = 0.0
    iterations = 0
    if len(field.ids) == 1:
        converged = True
    else:
        for iterations in range(1, cfg.max_iterations + 1):
            step = field.sweep(pos)
            max_force = float(np.hypot(step.clamped[0], step.clamped[1]).max())
            if max_force < limit:
                converged = True
                break
            pos = pos + step.move

    layout = SquareLayout(
        centers={r: (float(pos[0, i]), float(pos[1, i])) for i, r in enumerate(field.ids)},
        sides={r: float(s) for r, s in zip(field.ids, field.sides)},
        function_index=0,
        constraint_ref=None,
        diagonal=map.diagonal(),
        method="frc",
    )
    residual = overlap_area(layout)
    total = total_square_area(layout)
    frac = residual / total if total > 0 else 0.0
    if total > 0 and residual > 1e-3 * total:
        warnings.warn(f"force layout kept {frac:.2%} residual overlap area", stacklevel=2)
    return FrcResult(
        layout=layout,
        converged=converged,
        iterations=iterations,
        max_force=max_force,
        residual_overlap_area=residual,
        residual_overlap_frac=frac,
    )
