#!/usr/bin/env python3
"""Runs one workload of the repository's benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload bay --seed 1 --seconds 18 --trace 0

Run it from the root of a source tree. It builds perfbench/ together with the
stsm libraries it links into .bench_build/ (Release) and pins the thread
count. It then runs stbench twice, once per part of the workload (train,
then serve), each in its own process so that each part's peak RSS is its
own, relays their output and prints the merged result: the metrics of both
parts, with setup_s the sum of the two parts' set-up times. The last line of
standard output is that JSON result; the exit code is non-zero when the
build fails, a part prints no result, or any output check fails. Traced runs
(--trace 1) also write a Chrome trace-event file and a per-layer summary per
part into .bench_build/out/.

--record FILE appends {"workload", "seed", "trace", "result"} as one JSON
line to FILE, which is what compare.py reads.
"""

import argparse
import json
import os
import subprocess
import sys

# Intra-op pool size, fixed so that runs on hosts with different core counts
# stay comparable; serving adds 4 shard workers and up to 4 load threads.
THREADS = "2"
# Two malloc arenas instead of one per thread: with the default, peak RSS
# swung 178-235 MB between runs of the city workload; with two, +-3%.
ARENAS = "2"
PARTS = ("train", "serve")


def source_dir_of(cache_path):
    with open(cache_path) as cache:
        for line in cache:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build(root, here):
    build_dir = os.path.join(root, ".bench_build", "cmake")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache) and source_dir_of(cache) != here:
        # A build tree configured for another checkout: start over.
        subprocess.call(["rm", "-rf", build_dir])
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", here, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    log_path = os.path.join(root, ".bench_build", "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                return None
    return os.path.join(build_dir, "stbench")


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_part(binary, args, part, env, root):
    """Runs one part and relays its output; returns (exit code, result)."""
    cmd = [binary, "--workload", args.workload, "--part", part,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    relayed = lines[:-1] if isinstance(result, dict) else lines
    sys.stdout.write("".join(line + "\n" for line in relayed))
    sys.stdout.flush()
    return proc.returncode, result if isinstance(result, dict) else None


def merge(results):
    """One result for the workload: both parts' counts and metrics."""
    metrics = {}
    for result in results:
        for name, metric in result["metrics"].items():
            if name in metrics:
                # Only set-up is measured in both parts.
                assert name == "setup_s", name
                metric = {"value": metrics[name]["value"] + metric["value"],
                          "unit": metric["unit"]}
            metrics[name] = metric
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this file")
    args = parser.parse_args()

    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        print("run.py: run from the root of the stsm source tree "
              "(CMakeLists.txt and src/ not found here)", file=sys.stderr)
        return 2

    binary = build(root, here)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ, STSM_NUM_THREADS=THREADS, MALLOC_ARENA_MAX=ARENAS,
               STBENCH_GIT_COMMIT=git_commit(root))
    code, results = 0, []
    for part in PARTS:
        part_code, result = run_part(binary, args, part, env, root)
        if result is None:
            print(f"run.py: the {part} part printed no result "
                  f"(exit code {part_code})", file=sys.stderr)
            return part_code or 1
        code = code or part_code
        results.append(result)
    merged = merge(results)
    if args.record:
        with open(args.record, "a") as record:
            record.write(json.dumps({"workload": args.workload,
                                     "seed": args.seed, "trace": args.trace,
                                     "result": merged}) + "\n")
    print(json.dumps(merged))
    return code


if __name__ == "__main__":
    sys.exit(main())
