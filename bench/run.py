"""schmidt-cone benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload frame-grid --seed 1 --seconds 30 --trace 0

The workloads are frame-grid, oracle-suites and query; bench/DESIGN.md says
why, and what each metric measures.  The seed fixes every input; the run
length fixes how many steps run, so the same arguments always do the same
work.

With ``--trace 0`` the last line of stdout is the result with every
end-to-end metric of BENCHMARK.json.  With ``--trace 1`` the same work runs
traced and the result carries every per-layer metric; a quarter of the steps
also runs untraced, to state the tracing overhead.  The lines before the
result give a readable table and a JSON report with sample counts, exact
counts, failures and machine facts.

Exits with 2, printing no result, when the checkout lacks src/schmidt_cone or
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("frame-grid", "oracle-suites", "query")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_facts(workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workers": workers,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
    }


def _pct(xs, q: float) -> float:
    import numpy as np

    return float(np.percentile(xs, q))


def end_to_end(samples: dict) -> tuple[dict, dict]:
    """End-to-end metric values and the sample count behind each."""
    import workloads

    rss_kb = {who: resource.getrusage(getattr(resource, f"RUSAGE_{who.upper()}")).ru_maxrss
              for who in ("self", "children")}
    grid, query = samples["grid"], samples["query"]
    suites = list(samples["suites"]["pass_seconds"].values())

    def mix_p75(kind, key, **size):
        return workloads.mix_percentile(kind, query[key], query[key + "_cell"], 75, **size)

    values = {
        "setup_s": statistics.median(samples["setup"]["setup_s"]),
        "peak_rss_mb": max(rss_kb.values()) / 1024,
        "frame_grid_pts_per_s": sum(grid["points"]) / sum(grid["seconds"]),
        "suites_s": statistics.median(suites),
        "float_query_us_p75": mix_p75("request", "float") * 1e6,
        "float_query_us_p95": _pct(query["float"], 95) * 1e6,
        "exact_query_us_p75": mix_p75("request", "exact") * 1e6,
        "exact_query_us_p95": _pct(query["exact"], 95) * 1e6,
        "grid_margin_ns_per_pt": mix_p75("grid", "grid", size=lambda cell: cell[-1]) * 1e9,
        "region_emit_ms_p75": mix_p75("emit", "emit") * 1e3,
        "cli_call_ms_p75": mix_p75("cli", "cli") * 1e3,
        "cli_cold_ms_p75": _pct(samples["cold"]["seconds"], 75) * 1e3,
    }
    counts = {
        "setup_s": len(samples["setup"]["setup_s"]),
        "frame_grid_pts_per_s": {"grid_agreement_calls": len(grid["seconds"]),
                                 "points": sum(grid["points"])},
        "suites_s": len(suites),
        "float_query_us": len(query["float"]),
        "exact_query_us": len(query["exact"]),
        "grid_margin_ns_per_pt": {"calls": len(query["grid"]),
                                  "points": sum(cell[-1] for cell in query["grid_cell"])},
        "region_emit_ms_p75": len(query["emit"]),
        "cli_call_ms_p75": len(query["cli"]),
        "cli_cold_ms_p75": len(samples["cold"]["seconds"]),
        "peak_rss_kb": rss_kb,
        # reported, not gated (DESIGN.md): a median of the run's samples jumps
        # with the share of the machine's fast spells in the run, and p99
        # swings twice as much as p95
        "pooled": {**{f"{mode}_query_us_p{q}": _pct(query[mode], q) * 1e6
                      for mode in ("float", "exact") for q in (50, 75, 99)},
                   "cli_cold_ms_p50": statistics.median(samples["cold"]["seconds"]) * 1e3},
    }
    return values, counts


def per_layer(totals: dict, samples: dict, names: list[str]) -> dict:
    """Per-layer values from the traced run's totals; absent spans read 0."""
    values = {name: totals.get(name, 0.0) for name in names}
    busy = totals.get("oracles.grid_task.s", 0.0)
    pool = totals.get("oracles.pool.s", 0.0)
    counts = samples["grid"]["counts"]
    values.update({
        "oracles.points_checked": counts["points_checked"],
        "oracles.interior_points": counts["interior_points"],
        "oracles.assembly_self_s": totals.get("oracles.grid_task.self_s", 0.0),
        "oracles.pool.busy_s": busy,
        "oracles.pool.idle_s": max(0.0, pool - busy) if pool else 0.0,
        "cli.self_s": totals.get("cli.main.self_s", 0.0),
        "cli.import_s": statistics.median(samples["setup"]["cli_import_s"]),
    })
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "schmidt_cone" / "__init__.py").is_file() or not spec_path.is_file():
        sys.stderr.write(f"error: {ROOT} is not a schmidt-cone checkout (src/schmidt_cone, BENCHMARK.json)\n")
        return 2
    spec = json.loads(spec_path.read_text())
    # before numpy is first imported, here and in every child process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))

    import schmidt_cone
    import tracing
    import workloads

    if Path(schmidt_cone.__file__).resolve().parent != SRC / "schmidt_cone":
        sys.stderr.write(f"error: imported schmidt_cone from {schmidt_cone.__file__}\n")
        return 2

    workers = min(2, len(os.sched_getaffinity(0)))
    ctx = workloads.prepare(ROOT, workers)
    steps = workloads.schedule(args.workload, args.seconds)
    tally = workloads.Tally()
    samples, wall = {}, {}

    def run(part, quiet=nullcontext, into=samples, wall_into=wall) -> float:
        ctx.quiet = quiet
        t0 = time.perf_counter()
        workloads.run_steps(ctx, args.seed, part, tally, into, wall_into)
        return time.perf_counter() - t0

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "reps": workloads.plan(args.workload, args.seconds)}
    try:
        if not args.trace:
            workloads.warm_up()
            run(steps)
            values, report["samples"] = end_to_end(samples)
            section = "end_to_end"
        else:
            # Warm-up is traced, so the conic fits of set-up are counted.  The
            # second quarter of the steps runs again untraced right after its
            # traced run; the two walls give the tracing overhead.
            tracer = tracing.Tracer()
            with tracer:
                workloads.warm_up()
            lo, hi = len(steps) // 4, len(steps) // 2
            with tracer:
                run(steps[:lo], tracer.paused)
                traced_s = run(steps[lo:hi], tracer.paused)
            untraced_s = run(steps[lo:hi], into={}, wall_into={})
            with tracer:
                run(steps[hi:], tracer.paused)
            section = "per_layer"
            values = per_layer(tracer.totals, samples, [m["name"] for m in spec[section]])
            values["trace.overhead_ratio"] = traced_s / untraced_s
            values["trace.spans"] = tracer.spans
            report["overhead_slice"] = {"steps": hi - lo, "traced_s": traced_s,
                                        "untraced_s": untraced_s}
            # 0 on a correct program, so a report figure and not a metric
            cholesky = {k: tracer.totals.get(f"numpy.linalg.cholesky.{k}", 0)
                        for k in ("calls", "failures")}
            report["cholesky_fallback"] = {**cholesky, "ratio": cholesky["failures"]
                                           / max(1, cholesky["calls"])}
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
    report.update(wall_s=wall, counts=samples["grid"]["counts"])
    report.update(attempted=tally.attempted, failed=tally.failed,
                  failed_share=tally.failed / max(1, tally.attempted), failures=tally.notes,
                  machine=machine_facts(workers))
    metrics = {}
    for m in spec[section]:
        v = values[m["name"]]
        metrics[m["name"]] = {"value": int(v) if m["unit"] == "count" else float(v), "unit": m["unit"]}
        print(f"{m['name']:<44} {metrics[m['name']]['value']:>16.6g} {m['unit']}")
    print(f"{'failed_share':<44} {report['failed_share']:>16.6g} share "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
