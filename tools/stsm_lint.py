#!/usr/bin/env python3
"""Project-specific invariant linter for the stsm tree.

Checks rules that generic static analysis (clang-tidy, -Wthread-safety)
cannot know because they encode *this* codebase's contracts:

  serve-nograd       src/serve/ must never build autograd state: no call to
                     Backward()/EnsureGrad()/GradView()/set_requires_grad(),
                     and any serve translation unit that runs a model
                     Forward() must take autograd::NoGradGuard somewhere in
                     the file (served forwards build zero graph — PR 4's
                     NodesCreated()/GradAllocations() counters assert it at
                     runtime; this catches it at review time).

  ops-strided-pair   every kernel in src/tensor/ops.cc that branches on
                     is_contiguous() for a fast path must also contain a
                     generic strided path (index tables / Contiguous()
                     compaction / explicit strides) in the same function.
                     A contiguous-only kernel silently computes garbage on
                     the zero-copy views introduced in PR 5.

  pool-include       "tensor/pool.h" is an implementation detail of the
                     tensor substrate. Outside src/tensor/ only the pool's
                     own tests may include it; everything else goes through
                     the public surface (storage.h's RecordPoolProfCounters,
                     prof counters, STSM_POOL env knobs).

  prof-scope-unique  every STSM_PROF_SCOPE string literal is globally
                     unique. Two scopes sharing a name merge into one timer
                     and make per-op attribution (bench_table5_runtime's
                     matmul/transpose breakdown) silently wrong. Scopes
                     named by a variable (ops.cc's per-node fwd/bwd names)
                     are out of scope for this textual check.

  mutex-guarded      every Mutex data member (trailing-underscore member
                     naming) must have at least one STSM_GUARDED_BY /
                     STSM_PT_GUARDED_BY annotation naming it in the same
                     file. A mutex that guards nothing the analysis can see
                     is a mutex -Werror=thread-safety silently ignores —
                     exactly how an unprotected-member race slips in.
                     Function-local mutexes (no trailing underscore) are out
                     of scope.

  sparse-kernel-oracle  every `*Kernel` function at namespace level in
                     src/tensor/sparse.cc has a `*Oracle` twin in the same
                     file. The oracle is the dense-reference implementation
                     with the identical skip-zero ascending accumulation
                     order; the sparse differential tests require bitwise
                     equality against it, so a kernel without its oracle is
                     a kernel the tests cannot pin down.

  bf16-serve-only    the kBf16 dtype may appear in src/ only inside the
                     layers that implement or configure the reduced-
                     precision serving path (src/tensor/, nn/precision.*,
                     nn/serialize.cc, src/serve/, core/config.h). Anywhere
                     else — training, masking, graph construction — a
                     bf16 tensor means rounded gradients or corrupted
                     paper metrics; the runtime autograd checks catch it
                     late, this catches it at review time.

  tests-no-tmp       no literal "/tmp/ path in tests/. gtest_discover_tests
                     runs every test case as its own process and ctest -j
                     runs them at once, so a fixed path is shared between
                     concurrent tests (one truncates a checkpoint another
                     is loading). Tests take a fresh per-test directory
                     from tests/testing/temp_dir.h instead.

Usage: stsm_lint.py [repo_root]

Exit status 0 when clean, 1 with one line per finding otherwise. Stdlib
only; wired into CI next to check_pool_stats.py.
"""

import pathlib
import re
import sys

# ---- shared helpers ---------------------------------------------------------


def strip_comments(text):
    """Removes // and /* */ comments (string literals are not parsed; the
    patterns this linter greps for do not occur inside project strings)."""
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    text = re.sub(r"//[^\n]*", "", text)
    return text


def read(path):
    return path.read_text(encoding="utf-8")


# ---- serve-nograd -----------------------------------------------------------

FORBIDDEN_IN_SERVE = [
    (r"\bBackward\s*\(", "calls Backward()"),
    (r"\bEnsureGrad\s*\(", "allocates gradient storage"),
    (r"\bGradView\s*\(", "wraps a gradient buffer"),
    (r"\bset_requires_grad\s*\(", "marks a tensor as requiring grad"),
    (r"\bZeroGrad\s*\(", "touches gradient state"),
]


def check_serve_nograd(root, findings):
    # rglob: the rule covers nested serve layers (serve/net/, ...) too.
    for path in sorted((root / "src" / "serve").rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        text = strip_comments(read(path))
        rel = path.relative_to(root)
        for pattern, why in FORBIDDEN_IN_SERVE:
            for match in re.finditer(pattern, text):
                line = text[: match.start()].count("\n") + 1
                findings.append(
                    f"{rel}:{line}: [serve-nograd] {why} — serve code paths "
                    "must not construct autograd state")
        # A serve TU that runs the model must pin NoGradGuard.
        if re.search(r"(->|\.)Forward\s*\(", text) and \
                "NoGradGuard" not in text:
            findings.append(
                f"{rel}: [serve-nograd] calls Forward() but never takes "
                "autograd::NoGradGuard — served forwards must build no "
                "graph")


# ---- ops-strided-pair -------------------------------------------------------

# Evidence of a generic (non-contiguous) path inside the same function.
STRIDED_MARKERS = (
    "BuildPhysTable", "PhysAt", "BuildIndexTable", "BinaryLayout",
    "Contiguous(", "PhysicalIndex", "strides", "table",
)


NAMESPACE_OPEN = re.compile(r"^\s*(inline\s+)?namespace\b[^{]*\{\s*$")
NAMESPACE_CLOSE = re.compile(r"^\}\s*$|^\}\s*//\s*namespace")


def toplevel_functions(text):
    """Yields (name_line, body) for each namespace-level brace-balanced
    block (function, class, or struct definition).

    AST-lite: relies on the tree's clang-format layout (opening brace on the
    signature line, closing brace back at the margin, namespace braces on
    their own `namespace x {` / `}  // namespace x` lines, which are treated
    as transparent). Good enough to attribute an is_contiguous() branch to
    its kernel.
    """
    lines = text.split("\n")
    depth = 0
    start = None
    for i, line in enumerate(lines):
        if start is None and (NAMESPACE_OPEN.match(line) or
                              NAMESPACE_CLOSE.match(line)):
            continue  # Namespace braces do not open a block.
        opens = line.count("{")
        closes = line.count("}")
        if depth == 0 and opens > closes:
            start = i
        depth += opens - closes
        if depth == 0 and start is not None:
            yield start + 1, "\n".join(lines[start:i + 1])
            start = None


def check_ops_strided_pairing(root, findings):
    path = root / "src" / "tensor" / "ops.cc"
    text = strip_comments(read(path))
    rel = path.relative_to(root)
    for line, body in toplevel_functions(text):
        if "is_contiguous()" not in body:
            continue
        if not any(marker in body for marker in STRIDED_MARKERS):
            findings.append(
                f"{rel}:{line}: [ops-strided-pair] kernel branches on "
                "is_contiguous() but has no strided fallback (expected one "
                f"of: {', '.join(STRIDED_MARKERS)})")


# ---- pool-include -----------------------------------------------------------

POOL_INCLUDE = re.compile(r"#include\s+\"tensor/pool\.h\"")
# The pool's own tests assert free-list/recycling internals.
POOL_TEST_ALLOWLIST = {
    "tests/tensor/storage_pool_test.cc",
    "tests/tensor/strided_view_test.cc",
    # Asserts CSR buffers (values/indices) return to the pool on destruction.
    "tests/tensor/sparse_test.cc",
    # Asserts a served CSR session returns every buffer to the pool.
    "tests/serve/net_test.cc",
}


def check_pool_include(root, findings):
    for sub in ("src", "tests", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel.startswith("src/tensor/") or rel in POOL_TEST_ALLOWLIST:
                continue
            text = strip_comments(read(path))
            match = POOL_INCLUDE.search(text)
            if match:
                line = text[: match.start()].count("\n") + 1
                findings.append(
                    f"{rel}:{line}: [pool-include] tensor/pool.h is "
                    "internal to src/tensor/ — use RecordPoolProfCounters() "
                    "(tensor/storage.h) or the pool.* prof counters instead")


# ---- prof-scope-unique ------------------------------------------------------

PROF_SCOPE = re.compile(r"STSM_PROF_SCOPE\s*\(\s*\"([^\"]+)\"\s*\)")


def check_prof_scope_unique(root, findings):
    seen = {}
    for sub in ("src", "bench", "examples"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            text = strip_comments(read(path))
            rel = path.relative_to(root).as_posix()
            for match in PROF_SCOPE.finditer(text):
                name = match.group(1)
                line = text[: match.start()].count("\n") + 1
                where = f"{rel}:{line}"
                if name in seen:
                    findings.append(
                        f"{where}: [prof-scope-unique] STSM_PROF_SCOPE "
                        f"name \"{name}\" already used at {seen[name]} — "
                        "shared names merge into one timer and corrupt "
                        "per-op attribution")
                else:
                    seen[name] = where


# ---- mutex-guarded ----------------------------------------------------------

MUTEX_MEMBER = re.compile(r"\b(?:mutable\s+)?Mutex\s+(\w*_)\s*;")


def check_mutex_guarded(root, findings):
    for sub in ("src", "bench"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp"):
                continue
            if path.name == "thread_annotations.h":
                continue  # Defines the annotation macros themselves.
            text = strip_comments(read(path))
            rel = path.relative_to(root).as_posix()
            for match in MUTEX_MEMBER.finditer(text):
                name = match.group(1)
                if (f"STSM_GUARDED_BY({name})" in text or
                        f"STSM_PT_GUARDED_BY({name})" in text):
                    continue
                line = text[: match.start()].count("\n") + 1
                findings.append(
                    f"{rel}:{line}: [mutex-guarded] Mutex member {name} has "
                    f"no STSM_GUARDED_BY({name}) data member in this file — "
                    "annotate what it protects so -Werror=thread-safety can "
                    "check the locking")


# ---- sparse-kernel-oracle ---------------------------------------------------


def check_sparse_kernel_oracle(root, findings):
    path = root / "src" / "tensor" / "sparse.cc"
    if not path.is_file():
        return
    text = strip_comments(read(path))
    rel = path.relative_to(root)
    # Collect namespace-level `<prefix>Kernel(` / `<prefix>Oracle(`
    # definitions by signature line (the brace-balanced block's first line).
    names = {"Kernel": {}, "Oracle": {}}
    for line, body in toplevel_functions(text):
        signature = body.split("{", 1)[0]
        match = re.search(r"\b(\w+?)(Kernel|Oracle)\s*\(", signature)
        if match:
            names[match.group(2)].setdefault(match.group(1), line)
    for prefix, line in sorted(names["Kernel"].items()):
        if prefix not in names["Oracle"]:
            findings.append(
                f"{rel}:{line}: [sparse-kernel-oracle] {prefix}Kernel has "
                f"no {prefix}Oracle dense-reference twin — the sparse "
                "differential tests require a bitwise-identical oracle for "
                "every SpMM kernel")


# ---- bf16-serve-only --------------------------------------------------------

BF16_TOKEN = re.compile(r"\bDType\s*::\s*kBf16\b")
# Layers that legitimately implement or configure reduced-precision serving.
BF16_ALLOW_PREFIXES = ("src/tensor/", "src/serve/", "src/nn/precision.")
BF16_ALLOW_FILES = {"src/nn/serialize.cc", "src/core/config.h"}


def check_bf16_serve_only(root, findings):
    for path in sorted((root / "src").rglob("*")):
        if path.suffix not in (".h", ".cc", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel.startswith(BF16_ALLOW_PREFIXES) or rel in BF16_ALLOW_FILES:
            continue
        text = strip_comments(read(path))
        for match in BF16_TOKEN.finditer(text):
            line = text[: match.start()].count("\n") + 1
            findings.append(
                f"{rel}:{line}: [bf16-serve-only] DType::kBf16 outside the "
                "serving/no-grad layers — bf16 construction is confined to "
                "src/tensor/, src/serve/, nn/precision.*, nn/serialize.cc "
                "and core/config.h; training stays fp32 bit-for-bit")


# ---- tests-no-tmp -----------------------------------------------------------

TMP_LITERAL = re.compile(r'"/tmp/')


def check_tests_no_tmp(root, findings):
    base = root / "tests"
    if not base.is_dir():
        return
    for path in sorted(base.rglob("*")):
        if path.suffix not in (".h", ".cc", ".cpp"):
            continue
        rel = path.relative_to(root).as_posix()
        text = strip_comments(read(path))
        for match in TMP_LITERAL.finditer(text):
            line = text[: match.start()].count("\n") + 1
            findings.append(
                f"{rel}:{line}: [tests-no-tmp] literal \"/tmp/ path in a "
                "test — concurrent ctest processes share it; use "
                "ScopedTempDir (tests/testing/temp_dir.h)")


# ---- driver -----------------------------------------------------------------


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else \
        pathlib.Path(__file__).resolve().parent.parent
    findings = []
    check_serve_nograd(root, findings)
    check_ops_strided_pairing(root, findings)
    check_pool_include(root, findings)
    check_prof_scope_unique(root, findings)
    check_mutex_guarded(root, findings)
    check_sparse_kernel_oracle(root, findings)
    check_bf16_serve_only(root, findings)
    check_tests_no_tmp(root, findings)
    for finding in findings:
        print(finding, file=sys.stderr)
    if findings:
        print(f"stsm_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("stsm_lint: OK (serve-nograd, ops-strided-pair, pool-include, "
          "prof-scope-unique, mutex-guarded, sparse-kernel-oracle, "
          "bf16-serve-only, tests-no-tmp)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
