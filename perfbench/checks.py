"""Output checks made on every measured run.

A run that fails any of them counts as failed. The geometric checks are
written apart from the library's own validation where that is cheap, so a
bug shared by the program and its self-check still shows.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# the tolerances the acceptance tests use, relative to the layout diagonal
OVERLAP_TOL = 1e-6
LEADER_TOL = 1e-9


def _overlapping_pairs(layout) -> int:
    """Pairs of squares whose open interiors overlap beyond round-off."""
    ids = sorted(layout.centers)
    c = np.array([layout.centers[r] for r in ids], dtype=float)
    s = np.array([layout.sides[r] for r in ids], dtype=float)
    tol = OVERLAP_TOL * (layout.diagonal or 1.0)
    w = (s[:, None] + s[None, :]) / 2.0 - tol
    dx = np.abs(c[:, None, 0] - c[None, :, 0])
    dy = np.abs(c[:, None, 1] - c[None, :, 1])
    hit = (dx < w) & (dy < w)
    return int(np.triu(hit, k=1).sum())


def check_result(result) -> list[str]:
    """Problems with one ``RunResult``; empty when the run passes."""
    from demers.layout import l1_gap, validity_violations

    if result.status.startswith("error"):
        return [result.status]
    problems = []
    for lay, leaders in zip(result.layouts, result.leaders_per_layout):
        i = lay.function_index
        if lay.constraint_ref is not None:
            bad = validity_violations(lay)
            if bad:
                problems.append(f"layout {i}: {len(bad)} validity violations, first {bad[0]}")
            n = _overlapping_pairs(lay)
            if n:
                problems.append(f"layout {i}: {n} overlapping square pairs")
        for ld in leaders:
            gap = l1_gap(lay, *ld.endpoints)
            if abs(ld.length - gap) > LEADER_TOL * lay.diagonal:
                problems.append(
                    f"layout {i}: leader {ld.endpoints} length {ld.length} != gap {gap}"
                )
    rep = result.report
    values = (rep.madj_per_layout + rep.mrel_per_layout + rep.mdis_per_layout
              + rep.sdis_per_pair + rep.srel_per_pair)
    if not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
        problems.append(f"metric outside [0, 1]: {rep.to_json_dict()}")
    return problems


def fingerprint(result) -> str:
    """Hash of the layout JSON documents the run writes, leaders included."""
    h = hashlib.sha256()
    for lay, leaders in zip(result.layouts, result.leaders_per_layout):
        h.update(lay.to_json(leaders).encode("utf-8"))
    return h.hexdigest()[:16]
