#!/usr/bin/env python3
"""Pipeline benchmark for the stable-Demers toolkit.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload exact --smoke

Run from the root of a checkout. Three fresh processes, one after another,
each measure the workload for a third of the window as a closed loop: a
single caller makes sequential ``demers.cli.run`` calls, no worker pool, one
BLAS thread. Set-up (imports, instance generation, one untimed warm-up run)
is timed in separate processes and kept out of the measured window. Times are reported in reference seconds: wall seconds scaled by the
host's speed at the time, as a fixed kernel gauges it (``hostspeed.py``). With
``--trace 0`` the runs are untimed by anything but the caller and the
end-to-end metrics are printed; with ``--trace 1`` every run is made twice,
untraced and traced, and the per-layer metrics are printed. The last line
of standard output is one JSON object; a record of every run, the spans and
the environment goes to ``perfbench/work/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

SETUP_SAMPLES = 5
# The window is split over this many fresh processes, one after another. The
# same run's median differed by up to 14% between fresh processes while the
# host-speed gauge stayed flat, so one process per window kept that
# difference in every result.
CHILDREN = 3
HARD_STOP_S = 120.0  # no new run starts this long after measuring began
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
THREAD_VARS = BLAS_VARS + ("DEMERS_THREADS",)
CALLER_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}

# One BLAS/OpenMP thread, set before numpy loads (set-up processes inherit
# it). OpenBLAS's helper threads spin while they wait; on a small shared host
# they fight the caller for cores, which made the tiny solves both slower and
# far noisier. The layouts are the same either way.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

END_TO_END = {
    "wall_s": "s", "run_p50_s": "s", "run_p75_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
    "madj": "ratio", "mrel": "ratio", "mdis": "ratio", "sdis": "ratio", "srel": "ratio",
}
PER_LAYER = {
    "simplexsolver.solve_s": "s", "simplexsolver.solves": "count",
    "simplexsolver.highs_solves": "count", "simplexsolver.iterations": "count",
    "simplexsolver.nodes": "count", "simplexsolver.limit_hits": "count",
    "simplexsolver.ms_per_node": "ms",
    "lpmodel.build_s": "s", "lpmodel.rows": "count", "lpmodel.cols": "count",
    "lpmodel.nnz": "count", "lpmodel.binaries": "count",
    "sepconstraints.derive_s": "s", "sepconstraints.validate_s": "s",
    "sepconstraints.reduce_s": "s", "sepconstraints.pairs": "count",
    "sepconstraints.secondary": "count",
    "layout.decode_s": "s", "layout.anchor_s": "s",
    "leaders.route_s": "s", "leaders.lost": "count", "leaders.routed": "count",
    "leaders.unroutable": "count", "leaders.routed_frac": "ratio",
    "metrics.evaluate_s": "s", "metrics.clamped": "count",
    "render.svg_s": "s", "render.svg_bytes": "bytes",
    "cli.self_s": "s", "cli.artifact_bytes": "bytes", "cli.partial_runs": "count",
    "mapdata.load_s": "s", "mapdata.regions": "count", "mapdata.adjacencies": "count",
    "forcelayout.run_s": "s", "forcelayout.iterations": "count",
    "forcelayout.us_per_iteration": "us", "forcelayout.capped": "count",
    "trace.overhead_frac": "ratio",
}


class ProgramMissing(RuntimeError):
    pass


def load_program() -> None:
    """Import ``demers`` from this checkout's ``src``, never from elsewhere."""
    pkg = ROOT / "src" / "demers"
    if not (pkg / "__init__.py").is_file():
        raise ProgramMissing(f"no program to measure: {pkg.relative_to(ROOT)} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    import demers

    if Path(demers.__file__).resolve().parent != pkg.resolve():
        raise ProgramMissing(f"imported demers from {demers.__file__}, not from {pkg}")


# ---------------------------------------------------------------------------
# one run


@dataclass
class Outcome:
    seconds: float
    status: str
    problems: list[str]
    fingerprint: str
    report: object
    clamped: int
    capped: int
    solves: list[dict]
    profile: dict[str, float] = field(default_factory=dict)
    fired: set[str] = field(default_factory=set)
    spans: list[dict] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    kernel: float = 0.0  # host-speed kernel time around the run (hostspeed.py)

    @property
    def ref_seconds(self) -> float:
        """The run's wall time in reference seconds."""
        return self.seconds * hostspeed.scale(self.kernel)


def execute(run, work: Path, traced: bool) -> Outcome:
    import checks
    import spans
    from demers import cli

    cfg = cli.RunConfig(
        map_path=run.map_path,
        weights_path=run.weights_path,
        variant=run.variant,
        out_dir=str(work / "out" / run.label.replace("/", "_")),
        frc_max_iterations=run.frc_max_iterations,
    )
    rec = spans.Recorder()
    gc.collect()  # the last run's garbage is not this run's cost
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if traced:
            with spans.installed(rec), rec.span("run"):
                result = cli.run(cfg)
            seconds = rec.spans[0].duration
        else:
            t0 = time.perf_counter()
            result = cli.run(cfg)
            seconds = time.perf_counter() - t0
    clamped = sum("clamped" in str(w.message) for w in caught)
    capped = sum(s.get("status") == "iteration_cap" for s in result.solver_stats)
    out = Outcome(
        seconds=seconds,
        status=result.status,
        problems=checks.check_result(result),
        fingerprint=checks.fingerprint(result),
        report=result.report,
        clamped=clamped,
        capped=capped,
        solves=[{k: v for k, v in s.items() if k != "wall_time"} for s in result.solver_stats],
    )
    if traced:
        out.profile = spans.run_profile(rec)
        out.profile["metrics.clamped"] = clamped
        out.profile["cli.partial_runs"] = int(result.status == "partial")
        out.profile["cli.artifact_bytes"] = sum(os.path.getsize(p) for p in result.artifacts)
        out.solves = spans.solve_records(rec)
        out.fired = spans.fired(rec)
        out.spans = rec.to_json()
    return out


# ---------------------------------------------------------------------------
# set-up


def set_up(workload: str, work: Path):
    """Imports, instance generation and one untimed warm-up run."""
    from demers import cli  # noqa: F401 - the import is part of set-up
    from workloads import WORKLOADS

    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[workload](work)
    for problem in execute(wl.warmup, work, traced=False).problems:
        print(f"perfbench: warm-up check failed: {problem}", file=sys.stderr)
    return wl


def time_setups(workload: str, seed: int, n: int) -> list[float]:
    """Reference seconds of ``n`` fresh processes that only set up, one after another."""
    intervals = []
    gauge = hostspeed.Gauge()
    for i in range(n):
        work = WORK / f"{workload}-s{seed}-setup{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-only", str(work)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)
        intervals.append((t0, time.perf_counter()))
        gauge.probe()
        shutil.rmtree(work, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return [(end - start) * hostspeed.scale(gauge.around(start, end)) for start, end in intervals]


# ---------------------------------------------------------------------------
# measuring


def measure(wl, work: Path, seconds: float, trace: bool, seed: int):
    """Cycle through the workload's runs, in a seeded order, until the time is up.

    Every run gets at least one sample (one per mode when tracing). After
    that, a run is skipped when its last duration says it would end past the
    deadline, and measuring stops when every run is skipped. The host-speed
    kernel runs between samples, at most every ``hostspeed.PROBE_EVERY_S``,
    and each sample keeps the kernel time around it (``Gauge.around``).
    """
    modes = (False, True) if trace else (False,)
    samples = {r.label: {m: [] for m in modes} for r in wl.runs}
    rng = random.Random(seed)
    start = time.perf_counter()
    deadline = start + seconds
    gauge = hostspeed.Gauge()
    while True:
        ran = False
        for r in rng.sample(wl.runs, len(wl.runs)):
            s = samples[r.label]
            if s[modes[-1]]:
                now = time.perf_counter()
                estimate = sum(s[m][-1].seconds for m in modes)
                if now + estimate > deadline or now - start > HARD_STOP_S:
                    continue
            ran = True
            for m in modes:
                started = time.perf_counter()
                o = execute(r, work, traced=m)
                o.started, o.ended = started, time.perf_counter()
                if gauge.due():
                    gauge.probe()
                ref = (s[False] or [o])[0]
                if o.fingerprint != ref.fingerprint:
                    o.problems.append(
                        f"layout fingerprint {o.fingerprint} differs from {ref.fingerprint}"
                    )
                s[m].append(o)
        if not ran:
            gauge.probe()
            for s in samples.values():
                for o in (o for mode in s.values() for o in mode):
                    o.kernel = gauge.around(o.started, o.ended)
            return samples, gauge


def _typical(wl, samples, traced: bool) -> list[Outcome]:
    """Each run's median sample by reference seconds (the lower one of an
    even count), in workload order."""
    out = []
    for r in wl.runs:
        ranked = sorted(samples[r.label][traced], key=lambda o: o.ref_seconds)
        out.append(ranked[(len(ranked) - 1) // 2])
    return out


def _run_seconds(wl, samples, traced: bool) -> list[float]:
    """Each run's median reference seconds over its samples, in workload order."""
    return [statistics.median(o.ref_seconds for o in samples[r.label][traced])
            for r in wl.runs]


def _p50_p75(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[1], q[2]


def end_to_end(wl, samples, setup_times: list[float]) -> dict[str, float]:
    per_run = _run_seconds(wl, samples, traced=False)
    p50, p75 = _p50_p75(per_run)
    firsts = [samples[r.label][False][0] for r in wl.runs]
    reports = [o.report for o in firsts if o.report is not None]
    paired = [rep for rep in reports if rep.sdis_per_pair]
    outcomes = [o for r in wl.runs for o in samples[r.label][False]]

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    return {
        "wall_s": sum(per_run),
        "run_p50_s": p50,
        "run_p75_s": p75,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "ok_frac": sum(not o.problems for o in outcomes) / len(outcomes),
        "madj": mean(rep.madj for rep in reports),
        "mrel": mean(rep.mrel for rep in reports),
        "mdis": mean(rep.mdis for rep in reports),
        "sdis": mean(rep.sdis for rep in paired),
        "srel": mean(rep.srel for rep in paired),
    }


def per_layer(wl, samples) -> dict[str, float]:
    """The profile of each run's median traced sample, summed over the workload.

    Times (the keys ending in ``_s``) are in reference seconds.
    """
    totals: dict[str, float] = {}
    for o in _typical(wl, samples, traced=True):
        factor = hostspeed.scale(o.kernel)
        for key, value in o.profile.items():
            value = value * factor if key.endswith("_s") else value
            totals[key] = totals.get(key, 0.0) + value
    out = {key: totals.get(key, 0.0) for key in PER_LAYER}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["simplexsolver.ms_per_node"] = 1e3 * ratio(
        totals.get("simplexsolver.node_solve_s", 0.0), out["simplexsolver.nodes"])
    out["forcelayout.us_per_iteration"] = 1e6 * ratio(
        out["forcelayout.run_s"], out["forcelayout.iterations"])
    out["leaders.routed_frac"] = ratio(out["leaders.routed"], out["leaders.lost"])
    untraced = sum(_run_seconds(wl, samples, traced=False))
    traced = sum(_run_seconds(wl, samples, traced=True))
    out["trace.overhead_frac"] = (traced - untraced) / untraced
    return out


def check_coverage(wl, samples) -> None:
    import spans

    fired = set().union(*(o.fired for r in wl.runs for o in samples[r.label][True]))
    missing = sorted(wl.expected_spans - fired)
    if missing:
        raise spans.CoverageError(
            f"expected spans never fired on {wl.name}: {', '.join(missing)}"
        )


# ---------------------------------------------------------------------------
# reporting


def env_stamp(args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": commit,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "caller_threads": CALLER_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def write_record(path: Path, env: dict, wl, samples, probes, setup_times, metrics) -> None:
    runs = []
    traced = any(True in s for s in samples.values())
    typical = dict(zip((r.label for r in wl.runs), _typical(wl, samples, True))) if traced else {}
    for r in wl.runs:
        s = samples[r.label]
        first = s[False][0]
        entry = {
            "label": r.label,
            "variant": r.variant,
            "status": first.status,
            "fingerprint": first.fingerprint,
            "seconds": [o.seconds for o in s[False]],
            "kernel_seconds": [o.kernel for o in s[False]],
            "intervals": [[o.started, o.ended] for o in s[False]],
            "problems": sorted({p for mode in s.values() for o in mode for p in o.problems}),
            "metrics": first.report.to_json_dict() if first.report else None,
            "ledger": {"clamped": first.clamped, "capped": first.capped,
                       "partial": int(first.status == "partial")},
            "solves": first.solves,
        }
        if True in s:
            best = typical[r.label]
            entry.update(traced_seconds=[o.seconds for o in s[True]],
                         traced_kernel_seconds=[o.kernel for o in s[True]], solves=best.solves,
                         profile=best.profile, spans=best.spans)
        runs.append(entry)
    doc = {"env": env, "setup_seconds": setup_times, "metrics": metrics, "runs": runs,
           "probes": probes}
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["ladder", "matrix", "exact", "force"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one run of the workload's first instance, one set-up sample")
    p.add_argument("--setup-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    p.add_argument("--measure-only", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_child(args) -> int:
    """Set up and measure in this process; pickle what was measured."""
    import spans

    work = Path(args.measure_only)
    wl = set_up(args.workload, work)
    if args.smoke:
        wl.runs = wl.runs[:1]
    try:
        samples, gauge = measure(wl, work, args.seconds, bool(args.trace), args.seed)
    except spans.CoverageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    probes = [[t, k, *parts] for t, k, parts in zip(gauge.times, gauge.kernels, gauge.parts)]
    with open(work / "samples.pickle", "wb") as f:
        pickle.dump((wl, samples, probes), f)
    return 0


def measure_in_children(args, work: Path, seconds: float, n: int):
    """Split the window over ``n`` fresh processes and merge their samples.

    A run whose first untraced layout differs between processes fails the
    fingerprint check like a repeat within one process does.
    """
    import spans

    shutil.rmtree(work, ignore_errors=True)
    wl, samples, probes = None, None, []
    for i in range(n):
        child = work / f"child{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed * n + i), "--seconds", str(seconds / n),
               "--trace", str(args.trace), "--measure-only", str(child)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=150)
        sys.stderr.write(proc.stderr)
        if proc.returncode == 3:
            raise spans.CoverageError("a measuring process found a coverage gap")
        if proc.returncode != 0:
            raise RuntimeError(f"measuring process {i} failed")
        with open(child / "samples.pickle", "rb") as f:
            child_wl, child_samples, child_probes = pickle.load(f)
        probes += child_probes
        if samples is None:
            wl, samples = child_wl, child_samples
            continue
        for label, modes in child_samples.items():
            ref = samples[label][False][0].fingerprint
            for m, outcomes in modes.items():
                for o in outcomes:
                    if o.fingerprint != ref:
                        o.problems.append(f"layout fingerprint {o.fingerprint} differs from {ref}")
                samples[label][m] += outcomes
    return wl, samples, probes


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        set_up(args.workload, Path(args.setup_only))
        return 0
    if args.measure_only:
        return measure_child(args)

    import spans

    os.environ.pop("DEMERS_THREADS", None)  # no worker pool; caller_threads keeps its value
    env = env_stamp(args)
    print(f"perfbench env: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    setup_times = time_setups(args.workload, args.seed, 1 if args.smoke else SETUP_SAMPLES)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    seconds = 0.0 if args.smoke else args.seconds
    try:
        wl, samples, probes = measure_in_children(args, work, seconds,
                                                  1 if args.smoke else CHILDREN)
        if args.trace and not args.smoke:
            check_coverage(wl, samples)
    except spans.CoverageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    if args.trace:
        metrics = per_layer(wl, samples)
        units = PER_LAYER
    else:
        metrics = end_to_end(wl, samples, setup_times)
        units = END_TO_END
    outcomes = [o for s in samples.values() for mode in s.values() for o in mode]
    failed = sum(bool(o.problems) for o in outcomes)
    write_record(work.with_suffix(".json"), env, wl, samples, probes, setup_times, metrics)
    for o in outcomes:
        for p in o.problems:
            print(f"perfbench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
