#!/usr/bin/env python3
"""Validates BufferPool counters in a profile JSON emitted by the bench harness.

Usage: check_pool_stats.py [--smoke-baseline] [--baselines FILE]
                           <profile.json>
       check_pool_stats.py --micro [--baselines FILE] <benchmark.json>

With --smoke-baseline, additionally asserts that pool.acquire stays below
the checked-in smoke-bench ceiling (zero-copy views must allocate strictly
less than the copying tensor core did). The ceiling lives in
bench/baselines.json — next to the benches that produce the numbers, not
hardcoded here — and failures report the observed-vs-expected delta.

With --micro, the argument is instead a google-benchmark JSON report from
bench_micro_substrate (--benchmark_format=json). Each entry in the
baselines "micro" section names a fast/slow benchmark pair and a speedup
floor: real_time(slow) / real_time(fast) must be >= min_speedup. Pairs
marked simd_only are skipped when the report's custom context says the
scalar kernel table ran (stsm_simd != "on") — e.g. an STSM_SIMD=off lane
or a non-AVX2 host — since pinning scalar dispatch on both sides makes the
SIMD-vs-scalar ratio meaningless there.

Asserts that the pool counters are present (the tensor core actually routed
its allocations through the BufferPool) and that no buffer leaked: every
buffer that entered circulation (acquired from the pool or adopted via
Tensor::FromVector) was released back by the time the profile was written.
When the profile carries the sparse substrate's counters, additionally
asserts sparse.csr_create == sparse.csr_destroy — no CSR matrix may outlive
the run.

Exit status 0 on success; 1 with a diagnostic on failure. Stdlib only.
"""

import json
import pathlib
import sys

REQUIRED = ["pool.acquire", "pool.hit", "pool.miss", "pool.adopt",
            "pool.release", "pool.bytes_requested", "pool.bytes_reused"]

DEFAULT_BASELINES = (pathlib.Path(__file__).resolve().parent.parent /
                     "bench" / "baselines.json")


def load_baseline(path, scale, counter):
    """Returns the ceiling for `counter` at `scale`, or exits loudly — a
    missing baseline file or key means the check silently stops checking,
    which is exactly the failure mode this file exists to prevent."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            baselines = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"FAIL: cannot load baselines from {path}: {error}",
              file=sys.stderr)
        sys.exit(1)
    try:
        return int(baselines[scale][counter]["max"])
    except (KeyError, TypeError, ValueError):
        print(f"FAIL: {path} has no usable entry for "
              f"[{scale!r}][{counter!r}]['max']", file=sys.stderr)
        sys.exit(1)


def load_micro_baselines(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            baselines = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        print(f"FAIL: cannot load baselines from {path}: {error}",
              file=sys.stderr)
        sys.exit(1)
    micro = baselines.get("micro")
    if not isinstance(micro, dict) or not micro:
        print(f"FAIL: {path} has no usable 'micro' section", file=sys.stderr)
        sys.exit(1)
    return micro


def check_micro(path, micro):
    """Asserts every fast/slow speedup pair in the baselines 'micro' section
    against a google-benchmark JSON report."""
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)

    simd_on = report.get("context", {}).get("stsm_simd") == "on"
    times = {b["name"]: float(b["real_time"])
             for b in report.get("benchmarks", [])
             if b.get("run_type", "iteration") == "iteration"}

    status = 0
    checked = skipped = 0
    for name, spec in sorted(micro.items()):
        if spec.get("simd_only", False) and not simd_on:
            print(f"SKIP: {name}: scalar kernel table was active "
                  "(stsm_simd != 'on'), SIMD-vs-scalar pair not meaningful")
            skipped += 1
            continue
        fast, slow = spec["fast"], spec["slow"]
        missing = [b for b in (fast, slow) if b not in times]
        if missing:
            print(f"FAIL: {name}: benchmark(s) {', '.join(missing)} absent "
                  f"from {path} — was bench_micro_substrate run with a "
                  "filter that excluded them?", file=sys.stderr)
            status = 1
            continue
        floor = float(spec["min_speedup"])
        speedup = times[slow] / times[fast]
        checked += 1
        if speedup < floor:
            print(f"FAIL: {name}: {slow} / {fast} = {speedup:.2f}x, below "
                  f"the checked-in floor {floor:.2f}x — the vectorized path "
                  "regressed or silently fell back", file=sys.stderr)
            status = 1
        else:
            print(f"OK: {name}: {slow} / {fast} = {speedup:.2f}x "
                  f"(floor {floor:.2f}x)")
    if status == 0:
        print(f"OK: {path}: {checked} speedup pair(s) checked, "
              f"{skipped} skipped")
    return status


def check_pool(path, baseline=None):
    with open(path, "r", encoding="utf-8") as f:
        profile = json.load(f)

    # Counter entries reuse the timer record shape: `total_ns` carries the
    # accumulated counter value, `count` the number of increment calls.
    counters = {c["name"]: c["total_ns"] for c in profile.get("counters", [])}

    missing = [name for name in REQUIRED if name not in counters]
    if missing:
        print(f"FAIL: {path} is missing pool counters: {', '.join(missing)}",
              file=sys.stderr)
        print(f"counters present: {sorted(counters)}", file=sys.stderr)
        return 1

    acquires = counters["pool.acquire"]
    adopts = counters["pool.adopt"]
    releases = counters["pool.release"]
    hits = counters["pool.hit"]
    misses = counters["pool.miss"]

    if acquires <= 0:
        print("FAIL: pool.acquire is 0 — tensor allocations are not going "
              "through the BufferPool", file=sys.stderr)
        return 1
    if hits + misses != acquires:
        print(f"FAIL: pool.hit ({hits}) + pool.miss ({misses}) != "
              f"pool.acquire ({acquires})", file=sys.stderr)
        return 1

    leaked = acquires + adopts - releases
    if leaked != 0:
        print(f"FAIL: {leaked} net leaked buffer(s): pool.acquire "
              f"({acquires}) + pool.adopt ({adopts}) != pool.release "
              f"({releases})", file=sys.stderr)
        return 1

    # When the run built CSR sparse matrices, every one of them must have
    # been torn down (all three pooled arrays released) by snapshot time —
    # a dangling SparseCsr handle is the sparse substrate's leak shape.
    created = counters.get("sparse.csr_create", 0)
    destroyed = counters.get("sparse.csr_destroy", 0)
    if created != destroyed:
        print(f"FAIL: sparse.csr_create ({created}) != sparse.csr_destroy "
              f"({destroyed}) — {created - destroyed} CSR matrix(es) still "
              "alive when the profile was written", file=sys.stderr)
        return 1

    if baseline is not None and acquires >= baseline:
        print(f"FAIL: pool.acquire ({acquires}) did not stay below the "
              f"checked-in ceiling ({baseline}): observed - expected = "
              f"+{acquires - baseline} acquires "
              f"({(acquires - baseline) / baseline:+.2%}) — zero-copy "
              "Transpose/Slice views should keep materializing copies out "
              "of this workload", file=sys.stderr)
        return 1

    reuse = hits / acquires
    against = (f", {baseline - acquires} below baseline {baseline}"
               if baseline is not None else "")
    print(f"OK: {path}: {acquires} acquires ({hits} hits, {reuse:.1%} reuse), "
          f"{adopts} adopts, {releases} releases, 0 leaked{against}")
    return 0


def main(argv):
    args = list(argv[1:])
    baselines_path = DEFAULT_BASELINES
    if "--baselines" in args:
        at = args.index("--baselines")
        args.pop(at)
        baselines_path = pathlib.Path(args.pop(at))
    if "--micro" in args:
        args.remove("--micro")
        if len(args) != 1:
            print(f"usage: {argv[0]} --micro [--baselines FILE] "
                  "<benchmark.json>", file=sys.stderr)
            return 1
        return check_micro(args[0], load_micro_baselines(baselines_path))
    baseline = None
    if "--smoke-baseline" in args:
        args.remove("--smoke-baseline")
        baseline = load_baseline(baselines_path, "smoke", "pool.acquire")
    if len(args) != 1:
        print(f"usage: {argv[0]} [--smoke-baseline] [--baselines FILE] "
              "<profile.json>", file=sys.stderr)
        return 1
    return check_pool(args[0], baseline=baseline)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
