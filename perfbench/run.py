#!/usr/bin/env python3
"""Host-cost benchmark of the neu10 simulator.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet_dc --seed 1 --seconds 10 --trace 0

Builds perfbench/ (the simulator library plus the benchmark binary) into
$CARGO_TARGET_DIR, default .bench_build, on first use; generates the
workload's scenario files from the seed; then either

  --trace 0  times the workload end to end: setup_s (median time of one
             load + expansion of the scenarios, timed between the timed
             passes' sub-runs), sim_req_per_s
             (completed requests of one pass of runScenario + outcomeJson
             over the sum of each sub-run's fastest time across the timed
             passes) and peak_rss_mb, checking every run's output. Both
             times are scaled to a host-speed reference (README, Noise);
  --trace 1  runs the per-layer probe (perfbench/src/probe.cc) and
             reports the per_layer metrics of BENCHMARK.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Workloads, seeds and the metric map are
described in perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def child_env():
    # The scenario layer reads NEU10_* overrides; the benchmark's
    # programs must see only the generated scenario files.
    return {k: v for k, v in os.environ.items() if not k.startswith("NEU10_")}


def build():
    """Configure once, then (re)build; return the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if rc != 0:
            fail(f"build step {' '.join(cmd[:3])} exited {rc}")
    return os.path.join(build_dir, "perfbench"), os.path.join(build_dir, "work")


def run_child(cmd):
    """Run a perfbench mode; return (info lines, parsed last line)."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           env=child_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{cmd[1:3]} timed out")
    lines = p.stdout.splitlines()
    if p.returncode != 0 or not lines:
        fail(f"{' '.join(cmd[1:5])} exited {p.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload '{args.workload}'")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    exe, work = build()
    os.makedirs(work, exist_ok=True)
    base = ["--workload", args.workload, "--seed", str(args.seed), "--dir", work]
    if subprocess.run([exe, "--mode", "generate", *base], env=child_env(),
                      timeout=CHILD_TIMEOUT_S).returncode != 0:
        fail("scenario generation failed")

    if args.trace:
        info, res = run_child([exe, "--mode", "traced", *base])
        metrics = {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        info, res = run_child([exe, "--mode", "timed", *base,
                               "--seconds", str(args.seconds)])
        rates = [c / w for c, w in zip(res["pass_completed"], res["pass_wall_s"])]
        # Every pass simulates the same requests (the checks prove it);
        # other work on the host can only slow a sub-run down.
        # A sub-run that failed on every pass has no time: report 0.
        best = res["best_wall_s"]
        values = {"sim_req_per_s": res["pass_completed"][0] / best if best else 0.0,
                  "setup_s": res["setup_s"],
                  "peak_rss_mb": res["peak_rss_kb"] / 1024.0}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
        raw = res["raw_best_wall_s"]
        info.append(f"{args.workload}: {len(rates)} timed passes, as measured: "
                    f"req/s min {min(rates):.1f} median {statistics.median(rates):.1f} "
                    f"max {max(rates):.1f}, fastest sub-runs "
                    f"{res['pass_completed'][0] / raw if raw else 0.0:.1f}; "
                    f"set-up median {res['raw_setup_s']:.6g} s")

    attempted, failed = res["attempted"], res["failed"]
    if args.seed == spec["default_seed"]:
        # The recorded simulated fields only hold for the default seed;
        # other seeds keep conservation and in-process repeatability.
        expected = spec["workloads"][args.workload]["expected"]
        if res["fingerprint"] != expected:
            print(f"perfbench: simulated fields {res['fingerprint']} differ "
                  f"from the recorded {expected}", file=sys.stderr)
            failed = attempted
    for line in info:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
