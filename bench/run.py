"""Run one benchmark workload of liesublat and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
its `src/` directory.  The last line of standard output is one JSON
object with the keys `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics of a
traced run with `--trace 1`.  See bench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

_T0 = time.perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

#: spans whose self time is reported, as `<name>.self_s`
SELF_TIMES = (
    "catalog.enumerate_structures", "linalg.rref", "linalg.batch_rref",
    "lie.structural_flags", "lie.is_ideal", "lie.core",
    "lattice.build", "lattice.tables", "lattice.maximal_subalgebras",
    "lattice.lazy_queries", "lattice.cache_write", "lattice.cache_read",
    "predicates.modular_inventory", "predicates.sm_inventory",
    "predicates.quasi_ideal_inventory", "predicates.ideal_inventory",
    "predicates.line_flags", "predicates.is_modular_star", "predicates.is_quasi_ideal",
    "predicates.gen15", "harness.analysis",
    "harness.stage.strong_flags", "harness.stage.atom_scalars", "harness.stage.core_free_sm",
    "harness.stage.local_lemma", "harness.stage.modular_star_checks",
    "harness.suite_checks", "cli.analyze", "cli.lattice",
)
#: spans whose call count is reported, as `<name>.calls`
CALLS = (
    "linalg.rref", "linalg.batch_rref", "lie.is_ideal", "lie.core", "lattice.lazy_queries",
    "predicates.is_modular_star", "predicates.is_quasi_ideal", "harness.analysis",
)
#: counters recorded at span ends, with their units
COUNTS = (
    ("catalog.enumerate_structures.tensors", "count"),
    ("linalg.batch_rref.matrices", "count"),
    ("lattice.build.candidates", "count"),
    ("lattice.build.nodes", "count"),
    ("lattice.tables.bytes", "B"),
    ("lattice.cache.bytes", "B"),
)
#: work done once per run, in the set-up, rather than in every round
SETUP_SPANS = ("catalog.enumerate_structures",)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _parse(argv):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args, WORKLOADS[args.workload]


def _rounds(workload, budget: float, probe: bool, check) -> list:
    """Whole rounds while the next one is expected to end within the budget;
    (seconds, seconds at the reference speed, round, verdict, peak RSS in MB
    before the check) per round.  `check` judges each round as soon as it
    ends, outside its timing, and the round's outputs are then dropped, so
    memory does not grow with the number of rounds.  With `probe`, a
    speed.Probe samples the machine's speed during each round."""
    from speed import Probe

    done = []
    spent = 0.0
    while True:
        speed = Probe()
        t = time.perf_counter()
        if probe:
            with speed:
                r = workload.run_round()
        else:
            r = workload.run_round()
        dt = time.perf_counter() - t
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdict = check(r)
        r.data = None
        done.append((dt, speed.scale(dt), r, verdict, rss_mb))
        spent += dt
        if spent + dt > budget:
            return done


def _layer_metrics(tracer, wall: list, baseline_s: float, first_span: int) -> dict:
    """Per-layer metrics per traced round (set-up spans: per run), from the
    traced rounds' measured times and the untraced round's."""
    from spans import tail

    n = len(wall)

    def per_round(name, value):
        return value if name.startswith(SETUP_SPANS) else value / n

    out = {}
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = _metric(per_round(name, tracer.self_s.get(name, 0.0)), "s")
    for name in CALLS:
        out[f"{name}.calls"] = _metric(per_round(name, tracer.calls.get(name, 0)), "count")
    for name, unit in COUNTS:
        out[name] = _metric(per_round(name, tracer.counts.get(name, 0)), unit)
    build_s = tracer.self_s.get("lattice.build", 0.0)
    out["lattice.build.candidates_per_s"] = _metric(
        tracer.counts.get("lattice.build.candidates", 0) / build_s if build_s else 0.0, "1/s")
    samples = [d * 1e3 for d in tracer.durations.get("harness.analysis", [])]
    p50, tail_ms, pct = tail(samples)
    out["harness.analysis.p50_ms"] = _metric(p50, "ms")
    out["harness.analysis.tail_ms"] = _metric(tail_ms, "ms")
    out["harness.analysis.tail_pct"] = _metric(pct, "%")
    out["harness.analysis.samples"] = _metric(len(samples), "count")
    out["trace.overhead_s"] = _metric(statistics.median(wall) - baseline_s, "s")
    out["trace.unattributed_s"] = _metric((sum(wall) - tracer.top_level_s(first_span)) / n, "s")
    return out


def main(argv=None) -> int:
    # one BLAS thread, set before numpy loads, so the process is single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]
    try:
        import liesublat  # noqa: F401
    except ImportError as err:
        print(f"cannot import liesublat from {ROOT}/src: {err}", file=sys.stderr)
        return 2
    args, factory = _parse(argv)
    from spans import Tracer

    workdir = os.path.join(OUT_DIR, f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)      # left by a killed run with this pid
    os.makedirs(workdir)
    os.environ["LIESUBLAT_CACHE_DIR"] = workdir
    tracer = Tracer()
    try:
        workload = factory(args.seed, tracer, workdir)
        setup_s = time.perf_counter() - _T0

        def check(r):
            with tracer.paused():
                return workload.check(r)

        if args.trace:
            baseline = _rounds(workload, 0.0, False, check)
            baseline_s = baseline[0][0]
            first_span = len(tracer.start)
            tracer.install()
            try:
                traced = _rounds(workload, max(0.0, args.seconds - baseline_s), False, check)
            finally:
                tracer.uninstall()
            rounds = baseline + traced
        else:
            rounds = _rounds(workload, float(args.seconds), True, check)
        print(f"{len(rounds)} rounds of {[round(dt, 3) for dt, *_ in rounds]} s, "
              f"at the reference speed {[round(s, 3) for _, s, *_ in rounds]} s", file=sys.stderr)

        attempted = sum(r.ops for _, _, r, _, _ in rounds)
        failed = sum(len(v.failed) for _, _, _, v, _ in rounds)
        for line in [line for _, _, _, v, _ in rounds for line in v.reasons][:20]:
            print(f"check failed: {line}", file=sys.stderr)

        if args.trace:
            metrics = _layer_metrics(tracer, [dt for dt, *_ in traced], baseline_s, first_span)
            tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.npz"))
        else:
            # round times at the reference speed of the machine (speed.py)
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "wall_s": _metric(statistics.median(s for _, s, *_ in rounds), "s"),
                "nodes_per_s": _metric(statistics.median(r.nodes / s for _, s, r, _, _ in rounds), "nodes/s"),
                # the first round's: every round does the same work, and the
                # checks' memory stays out
                "peak_rss_mb": _metric(rounds[0][4], "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
