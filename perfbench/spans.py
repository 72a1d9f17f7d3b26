"""Spans around the public calls that ``demers.cli.run`` makes.

The traced runs replace, for the duration of one run, the functions
``cli.run`` calls with wrappers that record a span (name, start, end,
parent) and keep the call's arguments and result. Counts are read from
those after the run ends, so counting costs no time inside any span.

The wrappers sit on the names ``cli.run`` looks up: the names imported into
``demers.cli``, ``demers.leaders.all_leaders``, ``demers.metrics.evaluate``
and ``IterativeSequence.problem``. If one of them disappears, installing the
wrappers fails instead of letting a layer read zero.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable


class CoverageError(RuntimeError):
    """A wrapped name is gone, or an expected span never fired."""


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    args: tuple = ()
    result: Any = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one run, kept in memory; index 0 is the run itself."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, args: tuple = ()):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        s = Span(name, time.perf_counter(), parent=parent, args=args)
        self.spans.append(s)
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def self_time(self, idx: int) -> float:
        s = self.spans[idx]
        return s.duration - sum(self.spans[c].duration for c in s.children)

    def to_json(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent}
            for s in self.spans
        ]


# ---------------------------------------------------------------------------
# what each wrapped call counts


def _problem_size(problem) -> dict[str, int]:
    return {
        "rows": len(problem.constraints),
        "cols": len(problem.variables),
        "nnz": sum(len(c.coeffs) for c in problem.constraints),
        "binaries": problem.num_binaries,
    }


def _count_map(span: Span) -> dict:
    g = span.result
    return {"mapdata.regions": len(g.regions), "mapdata.adjacencies": len(g.edges)}


def _count_constraints(span: Span) -> dict:
    cs = span.result
    return {"sepconstraints.pairs": len(cs.H) + len(cs.V),
            "sepconstraints.secondary": len(cs.secondary)}


def _count_model(span: Span) -> dict:
    size = _problem_size(span.result.problem)
    return {f"lpmodel.{k}": v for k, v in size.items()}


def _count_solve(span: Span) -> dict:
    sol = span.result
    out = {
        "simplexsolver.solves": 1,
        "simplexsolver.highs_solves": int(sol.engine == "highs"),
        "simplexsolver.iterations": sol.iterations,
        "simplexsolver.nodes": sol.nodes,
        "simplexsolver.limit_hits": int(sol.status.value in ("node_limit", "iteration_limit")),
    }
    if sol.nodes:
        out["simplexsolver.node_solve_s"] = span.duration
    return out


def _count_leaders(span: Span) -> dict:
    _, report = span.result
    unroutable = len(report.unroutable)
    return {"leaders.routed": report.routed, "leaders.unroutable": unroutable,
            "leaders.lost": report.routed + unroutable}


def _count_svg(span: Span) -> dict:
    docs = span.result if isinstance(span.result, list) else [span.result]
    return {"render.svg_bytes": sum(len(d.encode("utf-8")) for d in docs)}


def _count_frc(span: Span) -> dict:
    res = span.result
    return {"forcelayout.iterations": res.iterations,
            "forcelayout.capped": int(not res.converged)}


@dataclass(frozen=True)
class Target:
    owner: str  # "cli", "leaders", "metrics" or "IterativeSequence"
    name: str
    time_metric: str
    count: Callable[[Span], dict] | None = None


TARGETS = [
    Target("cli", "load_map", "mapdata.load_s", _count_map),
    Target("cli", "load_weights", "mapdata.load_s"),
    Target("cli", "scale_weights", "mapdata.load_s"),
    Target("cli", "compute_epsilon", "mapdata.load_s"),
    Target("cli", "derive_constraints", "sepconstraints.derive_s", _count_constraints),
    Target("cli", "validate_dag", "sepconstraints.validate_s"),
    Target("cli", "reduce_transitive", "sepconstraints.reduce_s"),
    Target("cli", "build_single_lp", "lpmodel.build_s", _count_model),
    Target("cli", "build_cnt_ilp", "lpmodel.build_s", _count_model),
    Target("cli", "build_multi_lp", "lpmodel.build_s", _count_model),
    Target("cli", "build_iterative_sequence", "lpmodel.build_s"),
    Target("IterativeSequence", "problem", "lpmodel.build_s", _count_model),
    Target("cli", "solve_lp", "simplexsolver.solve_s", _count_solve),
    Target("cli", "solve_ilp", "simplexsolver.solve_s", _count_solve),
    Target("cli", "decode", "layout.decode_s"),
    Target("cli", "anchor_to_origins", "layout.anchor_s"),
    Target("leaders", "all_leaders", "leaders.route_s", _count_leaders),
    Target("metrics", "evaluate", "metrics.evaluate_s"),
    Target("cli", "render_svg", "render.svg_s", _count_svg),
    Target("cli", "render_frames", "render.svg_s", _count_svg),
    Target("cli", "run_frc", "forcelayout.run_s", _count_frc),
]


def span_name(t: Target) -> str:
    return f"{t.owner}.{t.name}" if t.owner == "IterativeSequence" else t.name


SPAN_NAMES = {span_name(t): t for t in TARGETS}


def _owners() -> dict[str, Any]:
    from demers import cli, leaders, lpmodel, metrics

    return {"cli": cli, "leaders": leaders, "metrics": metrics,
            "IterativeSequence": lpmodel.IterativeSequence}


def check_targets() -> None:
    """Fail when a wrapped name no longer exists where ``cli.run`` looks it up."""
    owners = _owners()
    missing = [
        span_name(t) for t in TARGETS if not callable(getattr(owners[t.owner], t.name, None))
    ]
    if missing:
        raise CoverageError(
            f"wrapped names missing from the program: {', '.join(missing)}; "
            "update perfbench/spans.py so every layer keeps a span"
        )


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with rec.span(name, args) as s:
            s.result = fn(*args, **kwargs)
        return s.result

    return wrapper


@contextmanager
def installed(rec: Recorder):
    """Wrap every target for the duration of the block, then restore it."""
    check_targets()
    owners = _owners()
    saved = []
    try:
        for t in TARGETS:
            owner = owners[t.owner]
            original = getattr(owner, t.name)
            saved.append((owner, t.name, original))
            setattr(owner, t.name, _wrap(rec, span_name(t), original))
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# per-layer values of one run


def run_profile(rec: Recorder) -> dict[str, float]:
    """Additive per-layer values of one traced run (self times and counts)."""
    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    add("cli.self_s", rec.self_time(0))
    for idx, s in enumerate(rec.spans[1:], start=1):
        t = SPAN_NAMES[s.name]
        add(t.time_metric, rec.self_time(idx))
        if t.count is not None and s.result is not None:
            for key, value in t.count(s).items():
                add(key, value)
    return out


def solve_records(rec: Recorder) -> list[dict]:
    """Deterministic counters of every solve in the run, in call order."""
    out = []
    for s in rec.spans:
        if s.name in ("solve_lp", "solve_ilp") and s.result is not None:
            sol = s.result
            out.append({
                **_problem_size(s.args[0]),
                "engine": sol.engine,
                "status": sol.status.value,
                "iterations": sol.iterations,
                "nodes": sol.nodes,
            })
    return out


def fired(rec: Recorder) -> set[str]:
    return {s.name for s in rec.spans[1:]}
