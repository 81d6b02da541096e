#!/usr/bin/env python3
"""Runs one perfbench workload by name and seed and prints its metrics.

    python3 perfbench/run.py --workload hot_object --seed 7 --seconds 35 --trace 0

Builds the driver (perfbench/driver, unchecked Release) on first use, then
runs trials of the workload in fresh processes until --seconds have been
spent, and pools them:

* Trial i runs with sub-seed seed*1000+i+1. Every simulated-time metric
  (latencies, message counts, failures) is pooled over the first K
  trials, so one seed always reproduces it exactly.
* Trials continue while the slowest one so far still fits in --seconds.
  Wall-clock metrics are medians over all of them.

--trace 0 prints the end-to-end metrics of BENCHMARK.json from untraced
trials. --trace 1 runs each sub-seed untraced and then traced, and prints
the per-layer metrics: counters from the untraced trials, span self times
and propagation latencies from the traced ones. The first traced trial's
spans stay on disk as Chrome trace_event JSON under <build dir>/traces/.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The process exits non-zero, without that
line, if the driver cannot be built or reports from a checked build.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics as M  # noqa: E402  (perfbench/metrics.py)

# Trials pooled for the simulated-time metrics, and the per-trial limit.
TRIALS = {"many_objects": 4, "hot_object": 5, "churn": 6}
TRIAL_TIMEOUT_S = 150
# The whole run, builds aside, must end well inside the 180 s limit.
RUN_DEADLINE_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(root, base)
    return os.path.join(base, "perfbench")


def build(root, out):
    """Configures and builds the driver; returns the binary path."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src", "globe"))):
        fail("library sources not found next to perfbench/")
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "a") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                fail(f"cmake configure failed (see {log_path})")
        rc = subprocess.call(
            ["cmake", "--build", out, "--target", "globe_perf", "-j", jobs],
            stdout=log, stderr=subprocess.STDOUT)
        if rc != 0:
            fail(f"build failed (see {log_path})")
    return os.path.join(out, "globe_perf")


def git_sha(root):
    try:
        return subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def run_trial(binary, workload, sub_seed, size, trace_path=None):
    cmd = [binary, "--workload", workload, "--seed", str(sub_seed),
           "--size", size]
    if trace_path:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver timed out on {workload} seed {sub_seed}")
    if proc.returncode != 0:
        fail(f"driver failed on {workload} seed {sub_seed}: "
             f"{proc.stderr.strip()[-500:]}")
    trial = json.loads(proc.stdout.strip().splitlines()[-1])
    if trial["build"]["globe_checked"]:
        fail("driver was built with GLOBE_CHECKED=ON; refusing to report",
             code=3)
    return trial


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=M.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smoke-test sizes (not comparable)")
    args = ap.parse_args(argv)

    start = time.monotonic()
    root = os.path.dirname(HERE)
    out = build_dir(root)
    binary = build(root, out)
    os.makedirs(os.path.join(out, "traces"), exist_ok=True)
    os.makedirs(os.path.join(out, "results"), exist_ok=True)

    k = TRIALS[args.workload]
    traced = args.trace == 1
    untraced_trials = []
    traced_trials = []
    trace_file = os.path.join(out, "traces",
                              f"{args.workload}-seed{args.seed}.trace.json")
    scratch_trace = trace_file + ".tmp"

    # Trial i uses sub-seed sub_seed(seed, i). The first k always run;
    # more run while the slowest trial so far still fits in --seconds.
    measure_start = time.monotonic()
    slowest = 0.0
    i = 0
    while i < k or (
            time.monotonic() - measure_start + slowest <= args.seconds and
            time.monotonic() - start + slowest <= RUN_DEADLINE_S):
        t0 = time.monotonic()
        s = M.sub_seed(args.seed, i)
        untraced_trials.append(run_trial(binary, args.workload, s, args.size))
        if traced:
            # The first traced trial's spans stay on disk for inspection.
            path = trace_file if i == 0 else scratch_trace
            ttrial = run_trial(binary, args.workload, s, args.size, path)
            ttrial["spans_self_us"] = M.self_times(path)
            traced_trials.append(ttrial)
        slowest = max(slowest, time.monotonic() - t0)
        i += 1
    if os.path.exists(scratch_trace):
        os.remove(scratch_trace)

    firsts = untraced_trials[:k]
    problems = []
    for t in untraced_trials + traced_trials:
        problems.extend(f"sub-seed {t['seed']}: {v}" for v in t["violations"])
    problems.extend(M.workload_checks(args.workload, firsts))

    if traced:
        values = M.per_layer(untraced_trials, traced_trials, firsts)
    else:
        values, notes = M.end_to_end(untraced_trials, firsts)
        problems.extend(notes)

    attempted = sum(t["ops"]["attempted"] for t in firsts)
    failed = sum(t["ops"]["failed"] for t in firsts)
    units = M.units(traced)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    provenance = {
        "git_sha": git_sha(root),
        "source_digest": M.source_digest(root),
        "compiler": firsts[0]["build"]["compiler"],
        "flags": firsts[0]["build"]["flags"],
        "build_type": firsts[0]["build"]["build_type"],
        "globe_checked": firsts[0]["build"]["globe_checked"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "workload": args.workload,
        "seed": args.seed,
        "pooled_sub_seeds": [t["seed"] for t in firsts],
        "trials": len(untraced_trials),
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "wall_s": round(time.monotonic() - start, 3),
    }
    details = {
        "provenance": provenance,
        "problems": problems,
        "samples": M.sample_report(firsts) if not traced else {},
        "trace_file": trace_file if traced else None,
        "trial_walls": [t["wall"] for t in untraced_trials],
        "traced_walls": [t["wall"] for t in traced_trials],
        "result": result,
    }
    details_path = os.path.join(
        out, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(details_path, "w") as f:
        json.dump(details, f, indent=1)

    for line in M.render_table(result, details):
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
