#!/usr/bin/env python3
"""End-to-end benchmark of subspar (README.md in this directory).

Builds the library and the benchmark driver from this checkout (Release,
into $CARGO_TARGET_DIR or .bench_build), runs one workload and prints the
result as the last line of standard output:

    python3 perfbench/run.py --workload surface-lr-1k --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 prints
its per-layer metrics, from a traced run at 2 threads plus one traced pass
at 1 thread (the single-threaded baseline of the speed-ups). The exit code is
0 only when every operation succeeded and every output passed the
correctness gate.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("surface-lr-1k", "fd-rbk-256", "noise-sweep-1k")
THREADS = 2  # every workload runs at SUBSPAR_THREADS=2
RUN_LIMIT_S = 170.0  # a run (after the build) must end within 180 s
# Layer times whose 1 -> 2 thread speed-up the traced run reports, as
# speedup.<layer> = (time at 1 thread) / (time at 2 threads).
SPEEDUP_LAYERS = (
    "bench.extract_s",
    "lowrank.row_basis_s",
    "lowrank.fine_to_coarse_s",
    "lowrank.gw_fill_s",
    "core.threshold_s",
    "wavelet.basis_s",
    "wavelet.combine_extract_s",
    "substrate.busy_s",
    "core.apply.vector_us",
)


def log(*args):
    print("perfbench:", *args, file=sys.stderr, flush=True)


def speedup_name(layer):
    for suffix in ("_s", "_us"):
        if layer.endswith(suffix):
            layer = layer[: -len(suffix)]
    return "speedup." + layer


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError("no subspar source tree next to perfbench/")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_driver", "-j", jobs],
        check=True, stdout=sys.stderr, timeout=880)
    return out / "perfbench_driver"


def source_digest():
    """sha256 over the library sources and the benchmark: identifies the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("include", "src", BENCH_DIR.name):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_driver(driver, args, threads, deadline):
    """Runs one driver process and returns its parsed JSON line."""
    env = dict(os.environ, SUBSPAR_THREADS=str(threads))
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([str(driver)] + [str(a) for a in args], env=env,
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"driver exited with {proc.returncode} and no output")
    out = json.loads(lines[-1])
    if out["threads"] != threads:
        raise RuntimeError(f"driver ran at {out['threads']} threads, not {threads}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    try:
        driver = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log("build failed:", e)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", opts.workload, "--seed", opts.seed, "--seconds", opts.seconds]
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    stem = f"{opts.workload}-seed{opts.seed}"

    try:
        if not opts.trace:
            runs = [run_driver(driver, common + ["--mode", "timed"], THREADS, deadline)]
            metrics = runs[0]["metrics"]
        else:
            runs = [run_driver(driver, common + [
                "--mode", "traced", "--overhead", "1",
                "--trace-out", traces / f"{stem}-t{THREADS}.jsonl"], THREADS, deadline)]
            runs.append(run_driver(driver, common + [
                "--mode", "traced", "--overhead", "0",
                "--trace-out", traces / f"{stem}-t1.jsonl"], 1, deadline))
            metrics = dict(runs[0]["metrics"])
            single = runs[1]["metrics"]
            for layer in SPEEDUP_LAYERS:
                two = metrics.get(layer, 0.0)
                metrics[speedup_name(layer)] = single.get(layer, 0.0) / two if two > 0 else 0.0
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log("run failed:", e)
        return 1

    attempted = sum(int(r["attempted"]) for r in runs)
    failed = sum(int(r["failed"]) for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    if opts.trace and runs[0]["info"]["model_checksum"] != runs[1]["info"]["model_checksum"]:
        failed += 1
        errors.append("model differs between 1 and 2 threads")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        failed += 1
        errors.append("metrics missing: " + ", ".join(missing))
    for e in errors:
        log("FAILED:", e)

    context = {
        "workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
        "trace": opts.trace, "backend": runs[0]["backend"], "SUBSPAR_THREADS": THREADS,
        "nproc": os.cpu_count(), "build_type": runs[0]["build_type"],
        "compiler": runs[0]["compiler"], "git_commit": git_commit(),
        "source_digest": source_digest(), "n": runs[0]["n"], "info": runs[0]["info"],
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]}
                    for m in wanted},
    }
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{stem}-trace{opts.trace}.json").write_text(
        json.dumps({"context": context, "result": result, "errors": errors}, indent=1) + "\n")
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
