#!/usr/bin/env python3
"""Checks that the committed result artefacts are what the code writes.

Usage: check_artifacts.py [--build-dir DIR] [--jobs N] [--update]
                          [BENCH ...]

Runs every deterministic result bench (the paper tables and figures) at
the default fast scale, each in its own temporary directory, and
byte-compares every file it writes that has a committed copy at the
repository root. `table5_runtime.csv` measures wall time, so its bench is
not run; the other files a bench writes without a committed copy (the
city-scale timing tables of Tables 6/7, profiles) are ignored. When every
bench ran, each committed `*.csv` and `*.svg` at the root must also have
been written by one of them, so a file no bench produces any more fails
too.

Naming benches (e.g. `table9_ring`) runs only those. --update copies the
written files over the committed ones instead of failing on a difference
(`git diff` then shows what moved). The benches read STSM_NUM_THREADS from the environment; their results do not
depend on it. The committed files come from a gcc Release build with the
SIMD kernels on (the CI leg that runs this check).

Exit status 0 when every compared file matches; 1 with a list of the
differing, missing and unproduced files otherwise. Stdlib only.
"""

import argparse
import concurrent.futures
import filecmp
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# The deterministic result benches, by the suffix of their binary name.
BENCHES = [
    "table2_datasets",
    "table4_overall",
    "table6_sensors",
    "table7_density",
    "table8_simgain",
    "table9_ring",
    "table10_trans",
    "table11_distance",
    "fig5_maps",
    "fig8_unobserved_ratio",
    "fig9_topk",
    "fig10_epsilon",
    "ablation_design",
    "ext_multiregion",
]

# Committed artefacts that measure time rather than results.
TIMED = {"table5_runtime.csv"}


def committed_artifacts():
    return {path.name for pattern in ("*.csv", "*.svg")
            for path in ROOT.glob(pattern)} - TIMED


def run_bench(binary, out_dir):
    """Runs one bench in `out_dir`; returns (seconds, log tail or None)."""
    env = dict(os.environ, STSM_BENCH_SCALE="fast")
    env.pop("STSM_PROFILE", None)
    start = time.monotonic()
    proc = subprocess.run([str(binary)], cwd=out_dir, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, check=False)
    seconds = time.monotonic() - start
    if proc.returncode != 0:
        return seconds, proc.stdout[-2000:]
    return seconds, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benches", nargs="*", metavar="BENCH",
                        help="run only these benches")
    parser.add_argument("--build-dir", default=str(ROOT / "build"))
    parser.add_argument("--jobs", type=int, default=1,
                        help="benches run at once (default 1)")
    parser.add_argument("--update", action="store_true",
                        help="copy written files over the committed ones")
    args = parser.parse_args()

    unknown = sorted(set(args.benches) - set(BENCHES))
    if unknown:
        parser.error(f"not a deterministic result bench: {unknown}")
    benches = args.benches or BENCHES
    bench_dir = pathlib.Path(args.build_dir) / "bench"
    binaries = {name: bench_dir / f"bench_{name}" for name in benches}
    missing = [str(path) for path in binaries.values() if not path.is_file()]
    if missing:
        print(f"FAIL: bench binaries not built: {missing}", file=sys.stderr)
        return 1

    scratch = tempfile.TemporaryDirectory(prefix="stsm_artifacts_")
    out_dirs = {name: pathlib.Path(scratch.name) / name for name in benches}
    for out_dir in out_dirs.values():
        out_dir.mkdir()

    failures = []
    with concurrent.futures.ThreadPoolExecutor(max(1, args.jobs)) as pool:
        futures = {pool.submit(run_bench, binaries[name], out_dirs[name]):
                   name for name in benches}
        for future in concurrent.futures.as_completed(futures):
            name = futures[future]
            seconds, error = future.result()
            print(f"[{name}] {seconds:.1f} s", flush=True)
            if error is not None:
                failures.append(f"bench_{name} failed:\n{error}")

    committed = committed_artifacts()
    produced = set()
    for name in benches:
        for written in sorted(out_dirs[name].iterdir()):
            if written.name not in committed:
                continue
            produced.add(written.name)
            target = ROOT / written.name
            if filecmp.cmp(written, target, shallow=False):
                print(f"  same     {written.name}")
            elif args.update:
                shutil.copyfile(written, target)
                print(f"  updated  {written.name}")
            else:
                print(f"  DIFFERS  {written.name}")
                failures.append(f"{written.name} differs from bench_{name}'s "
                                f"output")
    if not args.benches:
        for name in sorted(committed - produced):
            failures.append(f"{name} is committed but no bench wrote it")

    scratch.cleanup()
    if failures:
        print("FAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"OK: {len(produced)} committed artefacts match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
