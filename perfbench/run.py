#!/usr/bin/env python3
"""Builds and runs the projection-flow benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and compiles
perfbench/ (which builds the libraries from src/) into $CARGO_TARGET_DIR,
or .bench_build when that is unset; later calls only re-check the build.
Build output goes to stderr, so the last line of stdout is the result
object printed by the benchmark program.  That object is marked incorrect
when its metrics are not exactly the ones BENCHMARK.json lists for the mode
(end_to_end untraced, per_layer traced), with the same units.  Exits
non-zero, without a result, when the sources are missing or the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("c432-flow", "rand500-atpg", "service-mixed")


def build(bench_dir, build_dir):
    cmd = ["cmake", "-S", bench_dir, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        cmd += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (cmd, ["cmake", "--build", build_dir, "--target",
                       "perfbench_flow", "-j", jobs]):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(step))


def check_metrics(result, trace):
    """Returns why the result's metric names or units differ from
    BENCHMARK.json, or None."""
    spec_path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             os.pardir, "BENCHMARK.json")
    with open(spec_path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got == want:
        return None
    return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
           "unit changed %s" % (
               sorted(set(want) - set(got)), sorted(set(got) - set(want)),
               sorted(k for k in set(want) & set(got) if want[k] != got[k]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(bench_dir, build_dir)
    exe = os.path.join(build_dir, "perfbench_flow")
    # The DLPROJ_* knobs (threads, engine, deadlines, lint, analysis) would
    # change what a workload runs; the benchmark fixes all of them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DLPROJ_")}
    proc = subprocess.run([exe, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--work-dir", build_dir],
                          env=env, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit(proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    why = check_metrics(result, args.trace)
    if why:
        print("perfbench: " + why, file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))


if __name__ == "__main__":
    main()
