#!/usr/bin/env python3
"""subspar_lint: fast file-level invariants the compiler cannot see.

The clang -Wthread-safety build proves lock discipline; this linter proves
the project-level rules that no compiler flag covers. It runs in a few
milliseconds over the whole tree and is wired as the `subspar_lint` tier-1
ctest (plus a `subspar_lint_fixtures` selftest that asserts every rule still
fires on the known-bad snippets under tests/lint_fixtures/).

Rules (scope: src/** and include/** unless noted):

  naked-sync       std:: mutex/lock/condition_variable types may appear only
                   in src/util/sync.hpp, whose annotated wrappers are the
                   project's sole synchronization primitives. A naked
                   primitive is invisible to the thread-safety analysis.
  nondeterminism   No ambient-entropy or wall-clock seeding in library code:
                   rand()/srand, std::random_device, std::mt19937 (use
                   util/rng.hpp's seeded Rng), time(nullptr)-style seeds.
                   Extraction results are bit-reproducible by contract; every
                   random stream must be derived from a request-carried seed.
  unordered-hash   Files that touch the FNV-1a content hash (Fnv1a /
                   util/hash.hpp) must not use std::unordered_* containers:
                   their iteration order is implementation-defined, and an
                   unordered walk feeding the hash would silently break the
                   cache key's cross-process stability.
  fast-math        No -ffast-math style pragmas or FP-contraction overrides
                   anywhere in library code: the kernels pin bit-exact
                   results across thread counts (FMA contraction alone broke
                   this once — see linalg/sparse.cpp history).
  raw-simd         SIMD intrinsics headers, GCC vector extensions
                   (vector_size), and vector builtins may appear only in the
                   kernel-backend family (src/linalg/backend*). Everything
                   else reaches vectorized code through linalg/backend.hpp's
                   KernelOps dispatch, so one CPUID gate governs every
                   ISA-specific instruction.
  layering         Lower-layer modules (util, linalg, transform, geometry,
                   substrate, wavelet, lowrank, circuit) must not include
                   api/ internals or the api-layer public headers
                   (subspar/service.hpp, subspar/cache.hpp, subspar/subspar.hpp);
                   of subspar/* they may include only subspar/status.hpp (the
                   leaf error vocabulary). core/ implements the pipeline and
                   may additionally use subspar/* EXCEPT service/cache/umbrella.
  public-header    include/subspar/ must stay self-contained: it re-exports
                   lower-layer module headers and other subspar/* headers,
                   never src/api/ internals.

Suppression policy: append `subspar-lint: allow(<rule>)` in a comment on the
offending line, with a written reason next to it. Suppressions are expected
to be rare and reviewed like NOLINT (see docs/ARCHITECTURE.md).

Usage:
  tools/subspar_lint.py --root <repo root>          # lint the tree
  tools/subspar_lint.py --selftest <fixtures dir>   # prove rules fire
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SYNC_HEADER = Path("src/util/sync.hpp")

NAKED_SYNC = re.compile(
    r"std::(?:recursive_|timed_|recursive_timed_|shared_timed_)?mutex\b"
    r"|std::shared_mutex\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
)

NONDETERMINISM = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand(): unseeded C PRNG"),
    (re.compile(r"std::random_device\b"), "std::random_device: ambient entropy"),
    (re.compile(r"std::mt19937(?:_64)?\b"),
     "std::mt19937: use util/rng.hpp's seeded Rng"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"),
     "time(nullptr): wall-clock seeding"),
]

UNORDERED = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\b")
FNV_MARKER = re.compile(r"\bFnv1a\b")

FAST_MATH = [
    (re.compile(r"ffast-math|fast_math|fast-math"), "-ffast-math"),
    (re.compile(r"#\s*pragma\s+STDC\s+FP_CONTRACT\s+ON"), "FP_CONTRACT ON"),
    (re.compile(r"#\s*pragma\s+(?:clang\s+fp|float_control|fp_contract)"),
     "floating-point contraction/model pragma"),
    (re.compile(r"#\s*pragma\s+GCC\s+optimize"), "#pragma GCC optimize"),
]

RAW_SIMD = [
    (re.compile(r"#\s*include\s*<(?:immintrin|x86intrin|xmmintrin|emmintrin|"
                r"smmintrin|tmmintrin|nmmintrin|wmmintrin|avxintrin|"
                r"arm_neon|arm_sve)\.h>"),
     "SIMD intrinsics header"),
    (re.compile(r"\bvector_size\b"), "GCC vector_size extension"),
    (re.compile(r"\b_mm(?:256|512)?_\w+"), "x86 SIMD intrinsic"),
    (re.compile(r"\bfloat(?:32|64)x\d+_t\b|\bv(?:ld|st)1q?_f(?:32|64)\b"),
     "NEON intrinsic"),
    (re.compile(r"__builtin_(?:shufflevector|convertvector|assoc_barrier)\b"),
     "vector builtin"),
]

LOWER_LAYERS = ("util", "linalg", "transform", "geometry", "substrate",
                "wavelet", "lowrank", "circuit")
API_LAYER_PUBLIC = ("subspar/service.hpp", "subspar/cache.hpp",
                    "subspar/subspar.hpp")

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)
ALLOW_RE = re.compile(r"subspar-lint:\s*allow\(([a-z-]+)\)")

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
LINE_COMMENT = re.compile(r"//[^\n]*")
STRING_LIT = re.compile(r'"(?:[^"\\\n]|\\.)*"')


class Violation:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _blank(match: re.Match) -> str:
    return re.sub(r"[^\n]", " ", match.group(0))


def strip_comments(text: str) -> str:
    """Blank out comments, preserving line numbers (and string literals —
    #include targets are lexically strings and must survive this pass)."""
    return LINE_COMMENT.sub(_blank, BLOCK_COMMENT.sub(_blank, text))


def strip_noncode(text: str) -> str:
    """Blank out comments and string literals, preserving line numbers."""
    return STRING_LIT.sub(_blank, strip_comments(text))


def line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def allowed_lines(raw: str, rule: str) -> set[int]:
    """Line numbers carrying a `subspar-lint: allow(<rule>)` suppression."""
    out = set()
    for i, line in enumerate(raw.splitlines(), start=1):
        m = ALLOW_RE.search(line)
        if m and m.group(1) == rule:
            out.add(i)
    return out


def scan_file(root: Path, path: Path) -> list[Violation]:
    rel = path.relative_to(root)
    raw = path.read_text(encoding="utf-8", errors="replace")
    headers = strip_comments(raw)  # keeps the "..." include targets
    code = strip_noncode(raw)
    violations: list[Violation] = []

    def report(rule: str, pos: int, message: str) -> None:
        line = line_of(code, pos)
        if line not in allowed_lines(raw, rule):
            violations.append(Violation(rel, line, rule, message))

    # --- naked-sync -------------------------------------------------------
    if rel != SYNC_HEADER:
        for m in NAKED_SYNC.finditer(code):
            report("naked-sync", m.start(),
                   f"naked '{m.group(0)}' — use the annotated wrappers in "
                   "util/sync.hpp (Mutex/SharedMutex/MutexLock/...)")

    # --- nondeterminism ---------------------------------------------------
    for pattern, what in NONDETERMINISM:
        for m in pattern.finditer(code):
            report("nondeterminism", m.start(),
                   f"{what}; all randomness must flow from a request-carried "
                   "seed (util/rng.hpp)")

    # --- unordered-hash ---------------------------------------------------
    includes = INCLUDE_RE.findall(headers)
    touches_hash = bool(FNV_MARKER.search(code)) or "util/hash.hpp" in includes
    if touches_hash:
        for m in UNORDERED.finditer(code):
            report("unordered-hash", m.start(),
                   f"'{m.group(0)}' in a file using the FNV-1a content hash: "
                   "unordered iteration order is implementation-defined and "
                   "must never feed a cache key")

    # --- fast-math --------------------------------------------------------
    for pattern, what in FAST_MATH:
        for m in pattern.finditer(code):
            report("fast-math", m.start(),
                   f"{what} in bit-exact library code: kernels must stay "
                   "bit-identical across thread counts and builds")

    # --- raw-simd ---------------------------------------------------------
    parts = rel.parts
    backend_tu = (len(parts) >= 3 and parts[0] == "src" and
                  parts[1] == "linalg" and parts[2].startswith("backend"))
    if not backend_tu:
        for pattern, what in RAW_SIMD:
            for m in pattern.finditer(code):
                report("raw-simd", m.start(),
                       f"{what} outside the kernel backend: vectorized code "
                       "goes through linalg/backend.hpp's KernelOps dispatch "
                       "(src/linalg/backend*)")

    # --- layering / public-header ----------------------------------------
    for m in INCLUDE_RE.finditer(headers):
        header = m.group(1)
        if parts[0] == "src" and len(parts) > 1 and parts[1] != "api":
            layer = parts[1]
            if header.startswith("api/"):
                report("layering", m.start(),
                       f"src/{layer}/ must not include api/ internals "
                       f"('{header}'): api sits above every other module")
            elif layer in LOWER_LAYERS and header.startswith("subspar/") \
                    and header != "subspar/status.hpp":
                report("layering", m.start(),
                       f"src/{layer}/ must not include '{header}': lower "
                       "layers may use only subspar/status.hpp of the public "
                       "surface")
            elif layer == "core" and header in API_LAYER_PUBLIC:
                report("layering", m.start(),
                       f"src/core/ must not include '{header}': the pipeline "
                       "sits below the api layer (registry/cache/service)")
        if parts[0] == "include":
            if header.startswith("api/"):
                report("public-header", m.start(),
                       f"include/subspar/ must stay self-contained; "
                       f"'{header}' reaches into src/api/ internals")

    return violations


def lint_tree(root: Path) -> list[Violation]:
    violations: list[Violation] = []
    files = []
    for sub in ("src", "include"):
        base = root / sub
        if base.is_dir():
            files += (sorted(base.rglob("*.hpp")) + sorted(base.rglob("*.cpp"))
                      + sorted(base.rglob("*.inl")))
    if not files:
        raise SystemExit(f"subspar_lint: no sources under {root}/src,include")
    for path in files:
        violations += scan_file(root, path)
    return violations


def selftest(fixtures: Path) -> int:
    """Every fixture dir named `<rule>__<case>` must trip exactly that rule;
    a `clean__*` fixture must produce zero violations."""
    failures = 0
    cases = sorted(p for p in fixtures.iterdir() if p.is_dir())
    if not cases:
        print(f"subspar_lint --selftest: no fixtures under {fixtures}")
        return 1
    for case in cases:
        expected = case.name.split("__", 1)[0]
        got = lint_tree(case)
        rules = {v.rule for v in got}
        if expected == "clean":
            if got:
                failures += 1
                print(f"FAIL {case.name}: expected no violations, got:")
                for v in got:
                    print(f"  {v}")
            else:
                print(f"ok   {case.name}: clean as expected")
        elif expected not in rules:
            failures += 1
            print(f"FAIL {case.name}: expected rule '{expected}' to fire; "
                  f"got {sorted(rules) or 'nothing'}")
        else:
            print(f"ok   {case.name}: '{expected}' fired "
                  f"({sum(v.rule == expected for v in got)} finding(s))")
    if failures:
        print(f"subspar_lint --selftest: {failures}/{len(cases)} fixtures FAILED")
        return 1
    print(f"subspar_lint --selftest: {len(cases)} fixtures OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, help="repository root to lint")
    parser.add_argument("--selftest", type=Path, metavar="FIXTURES",
                        help="run the rule selftest over a fixtures directory")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args.selftest)
    if not args.root:
        parser.error("pass --root <repo root> or --selftest <fixtures dir>")
    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"subspar_lint: {len(violations)} violation(s)")
        return 1
    print("subspar_lint: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
