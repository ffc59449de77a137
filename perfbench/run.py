#!/usr/bin/env python3
"""pjsched's repository benchmark.

Builds the perfbench binary (a package of its own: perfbench/CMakeLists.txt
compiles ../src in Release) and runs one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are BENCHMARK.json's end-to-end metrics; with --trace 1 its per-layer ones.
A per-layer metric of a layer the workload does not exercise reads 0.

    python3 perfbench/run.py --all [--seed N] [--seconds S]
        every workload in BENCHMARK.json, untraced and traced, one table;
        writes .bench_out/results.json with provenance.
    python3 perfbench/run.py --smoke
        every workload briefly, both modes; fails unless every metric is
        present with its unit and every output check passes.

Run from the repository root.  Build files go to $CARGO_TARGET_DIR (default
.bench_build), sockets and spans to .bench_out.  See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

DEFAULT_SEED = 1
# Never used while tuning the benchmark; recheck later claims on it.
HELDOUT_SEED = 2016

# Per-layer metrics each pipeline reports; the others read 0 there.
LAYERS = {"sim": ("workload.", "core.", "sim.", "sched.", "trace."),
          "daemon": ("loadgen.", "service.", "runtime.", "trace.")}

SMOKE_SECONDS = 1
SMOKE_SCALE = 0.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


def load_spec():
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root (no BENCHMARK.json here)")
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no pjsched sources (src/CMakeLists.txt) to build")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", "perfbench", "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=850)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def invoke(binary, mode, workload, seed, seconds, trace, scale, spans=None):
    cmd = [binary, mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scale", str(scale)]
    if spans:
        cmd += ["--spans-out", spans]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=seconds + 150)
    if r.returncode != 0 or not r.stdout.strip():
        log(r.stderr[-4000:])
        fail("benchmark binary failed (%d): %s"
             % (r.returncode, " ".join(cmd)))
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_workload(spec, binary, workload, seed, seconds, trace, scale):
    """One benchmark run; returns (result, checks, texts)."""
    spans = os.path.join(".bench_out", "spans-%s.tsv" % workload)
    out = invoke(binary, "measure", workload, seed, seconds, trace, scale,
                spans if trace else None)
    checks = dict(out["checks"])
    texts = dict(out["text"])
    pipeline = texts["pipeline"]
    if pipeline == "sim":
        # The materialized reference runs in its own process, after the
        # measured one: its memory and time stay out of every metric.
        ref = invoke(binary, "reference", workload, seed, seconds, False,
                    scale)
        same = ref["text"]["fingerprint"] == texts["fingerprint"]
        checks["matches_materialized"] = {
            "ok": same,
            "detail": "" if same else "reference " +
            ref["text"]["fingerprint"]}

    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in names:
        name = m["name"]
        if name in out["metrics"]:
            value = out["metrics"][name]
        elif trace and not name.startswith(LAYERS[pipeline]):
            value = 0.0
        else:
            checks["metric_present." + name] = {"ok": False,
                                                "detail": "missing"}
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}
    correct = all(c["ok"] for c in checks.values())
    result = {"correct": correct, "attempted": max(1, out["attempted"]),
              "failed": out["failed"], "metrics": metrics}
    return result, checks, texts


def commit():
    # Only this checkout's own repository: git would otherwise search the
    # parent directories.
    if not os.path.exists(".git"):
        return "unknown (not a git checkout)"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def provenance(texts, seed):
    return {"nproc": texts.get("nproc"), "build_type": texts.get("build_type"),
            "compiler": texts.get("compiler"), "seed": seed,
            "heldout_seed": HELDOUT_SEED, "commit": commit()}


def print_run(workload, trace, result, checks, texts, seed):
    prov = provenance(texts, seed)
    print("== %s  trace=%d  seed=%d" % (workload, trace, seed))
    print("provenance: " + json.dumps(prov))
    if prov["build_type"] != "Release":
        print("WARNING: build type %s is not Release" % prov["build_type"])
    for name, m in result["metrics"].items():
        print("  %-30s %16.6g %s" % (name, m["value"], m["unit"]))
    for name, c in checks.items():
        print("  check %-30s %s %s" % (name, "PASS" if c["ok"] else "FAIL",
                                       c["detail"]))
    for key in ("reps", "lag_p99_ms", "warning"):
        if key in texts:
            print("  %s: %s" % (key, texts[key]))


def smoke(spec, binary):
    ok = True
    names = [w["name"] for w in spec["workloads"]]
    for workload in names:
        for trace in (0, 1):
            result, checks, texts = run_workload(
                spec, binary, workload, DEFAULT_SEED, SMOKE_SECONDS, trace,
                SMOKE_SCALE)
            print_run(workload, trace, result, checks, texts, DEFAULT_SEED)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    print("SMOKE FAIL: %s missing %s" % (workload, m["name"]))
                    ok = False
            if not result["correct"]:
                print("SMOKE FAIL: %s trace=%d checks" % (workload, trace))
                ok = False
    print("smoke: %s" % ("PASS" if ok else "FAIL"))
    return ok


def run_all(spec, binary, seed, seconds):
    results = {}
    texts = {}
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, checks, texts = run_workload(spec, binary, w["name"], seed,
                                                 seconds, trace, 1.0)
            print_run(w["name"], trace, result, checks, texts, seed)
            results["%s/trace=%d" % (w["name"], trace)] = {
                "result": result, "checks": checks}
    out = {"provenance": provenance(texts, seed), "runs": results}
    with open(os.path.join(".bench_out", "results.json"), "w") as f:
        json.dump(out, f, indent=1)
    print("wrote .bench_out/results.json")
    return all(r["result"]["correct"] for r in results.values())


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    binary = build()
    os.makedirs(".bench_out", exist_ok=True)
    if args.smoke:
        sys.exit(0 if smoke(spec, binary) else 1)
    if args.all:
        sys.exit(0 if run_all(spec, binary, args.seed, seconds) else 1)
    if not args.workload:
        p.error("--workload, --all or --smoke is required")
    result, checks, texts = run_workload(spec, binary, args.workload,
                                         args.seed, seconds, args.trace, 1.0)
    print_run(args.workload, args.trace, result, checks, texts, args.seed)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
