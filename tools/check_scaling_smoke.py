#!/usr/bin/env python3
"""CI gate over the streamed scaling smoke (bench_sim_engine BM_Scaling*).

Usage:
    check_scaling_smoke.py <scaling-json> [--rss-ceiling-mb <mb>]
        [--max-growth <factor>] [--max-allocs-per-job <n>]

<scaling-json> is google-benchmark JSON from e.g.

    bench_sim_engine \
        '--benchmark_filter=Scaling(EventEngine|StepEngine|Bounds)Streamed/(10000|100000)/' \
        --benchmark_out=<file> --benchmark_out_format=json

Covers the engine curves (BM_Scaling{Event,Step}EngineStreamed) and the
streamed lower-bound pass (BM_ScalingBoundsStreamed), which holds O(1)
state and must therefore satisfy the same budgets with even more headroom.

Asserts, per curve, over every streamed point found:

  1. peak RSS stays under an absolute ceiling (default 192 MB — an order of
     magnitude above the ~5 MB a healthy streamed run needs at any decade,
     but far below what retaining per-job state across 10^5 jobs costs);
  2. peak RSS at the largest decade is at most --max-growth (default 4x)
     the smallest decade's — the O(live jobs) claim in miniature;
  3. allocations per job stay under --max-allocs-per-job (default 16,
     mirroring the in-bench budget; a healthy run reads ~7.0 event engine,
     ~7.5 step engine, 6.0 bounds — the directly built parallel-for DAG's
     six arrays plus arena map churn): any per-slice allocation shows up
     here as decade-proportional growth;
  4. no benchmark reported an error (the bench itself aborts points that
     blow its allocation budget or lose jobs).

Exits non-zero with a per-violation message; prints the measured curve
either way.  Stdlib only.
"""
import json
import re
import sys

_NAME = re.compile(
    r"^BM_Scaling(EventEngine|StepEngine|Bounds)Streamed/(\d+)"
    r"(?:/iterations:\d+)?$")


def main(argv):
    args = list(argv[1:])
    rss_ceiling_mb = 192.0
    max_growth = 4.0
    max_allocs = 16.0
    if "--rss-ceiling-mb" in args:
        i = args.index("--rss-ceiling-mb")
        rss_ceiling_mb = float(args[i + 1])
        del args[i:i + 2]
    if "--max-growth" in args:
        i = args.index("--max-growth")
        max_growth = float(args[i + 1])
        del args[i:i + 2]
    if "--max-allocs-per-job" in args:
        i = args.index("--max-allocs-per-job")
        max_allocs = float(args[i + 1])
        del args[i:i + 2]
    if len(args) != 1:
        sys.exit(__doc__)

    with open(args[0]) as f:
        report = json.load(f)

    curves = {}  # engine -> {jobs: bench}
    for bench in report.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        m = _NAME.match(bench["name"])
        if m is None:
            continue
        curves.setdefault(m.group(1), {})[int(m.group(2))] = bench

    if not curves:
        sys.exit("check_scaling_smoke.py: no BM_Scaling*Streamed "
                 f"benchmarks in {args[0]}")

    failures = []
    for engine, points in sorted(curves.items()):
        for jobs, bench in sorted(points.items()):
            rss_mb = bench.get("peak_rss_bytes", 0) / (1024.0 * 1024.0)
            allocs = bench.get("allocs_per_job")
            live = bench.get("peak_live_jobs")
            print(f"{engine} streamed, {jobs:>9,} jobs: "
                  f"peak RSS {rss_mb:7.1f} MB, "
                  f"allocs/job {allocs if allocs is not None else '?'}, "
                  f"peak live {live if live is not None else '?'}")
            if bench.get("error_occurred"):
                failures.append(
                    f"{engine}/{jobs}: bench reported error: "
                    f"{bench.get('error_message', 'unknown')}")
            if rss_mb > rss_ceiling_mb:
                failures.append(
                    f"{engine}/{jobs}: peak RSS {rss_mb:.1f} MB exceeds "
                    f"ceiling {rss_ceiling_mb:.1f} MB — streamed run is "
                    "retaining per-job state")
            if allocs is not None and allocs > max_allocs:
                failures.append(
                    f"{engine}/{jobs}: {allocs:.1f} allocs/job exceeds "
                    f"budget {max_allocs:.1f} — steady-state allocation "
                    "leak")
        if len(points) >= 2:
            decades = sorted(points)
            lo = points[decades[0]].get("peak_rss_bytes")
            hi = points[decades[-1]].get("peak_rss_bytes")
            if lo and hi and hi / lo > max_growth:
                failures.append(
                    f"{engine}: peak RSS grew {hi / lo:.1f}x from "
                    f"{decades[0]:,} to {decades[-1]:,} jobs (limit "
                    f"{max_growth:.1f}x) — resident state is not "
                    "O(live jobs)")

    if failures:
        for f_ in failures:
            print(f"check_scaling_smoke.py: FAIL: {f_}", file=sys.stderr)
        return 1
    print("check_scaling_smoke.py: OK — streamed scaling within the "
          "O(live jobs) budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
