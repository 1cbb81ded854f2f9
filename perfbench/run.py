#!/usr/bin/env python3
"""End-to-end benchmark of the cost-model serving stack.

Builds perfbench/ (and the library under src/) in Release, runs one workload
for a fixed time, checks its outputs and prints a table followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload predict_unique --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one row each

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs a
separate traced pass and reports the per-layer metrics, writing its spans to
<build dir>/traces/. The build directory is $CARGO_TARGET_DIR (default
.bench_build) under the repository root.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ["predict_unique", "predict_batch_hot", "search_cold", "finetune_cycle"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures (Release) and builds the benchmark; returns the binary or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return None
    binary = bdir / "perfbench"
    return binary if binary.exists() else None


def revision():
    """The git commit when available, else a digest of the library and benchmark sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cc", ".py", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, bdir, workload, seed, seconds, trace, rev):
    """Runs one workload; returns (stdout lines, parsed result or None)."""
    work = bdir / "runs" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", str(work), "--revision", rev]
    if trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return [], None
    shutil.rmtree(work, ignore_errors=True)
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with code {proc.returncode}")
        return lines, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not a JSON result")
        return lines, None
    if set(result) != {"correct", "attempted", "failed", "metrics"} or \
            list(result["metrics"]) != expected_metrics(trace):
        log(f"{workload}: result does not carry the metrics BENCHMARK.json lists")
        return lines, None
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "BENCHMARK.json").exists() or not (ROOT / "src").is_dir():
        log("run from a checkout of the repository (BENCHMARK.json and src/ are required)")
        return 2

    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    bdir = build_dir()
    binary = build(bdir)
    if binary is None:
        return 2
    rev = revision()

    if args.workload != "all":
        lines, result = run_workload(binary, bdir, args.workload, args.seed, args.seconds,
                                     bool(args.trace), rev)
        if result is None:
            for line in lines:
                print(line, file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        return 0

    # Every workload in turn, then one row per workload with every metric
    # its table printed.
    rows, ok = [], True
    for workload in WORKLOADS:
        lines, result = run_workload(binary, bdir, workload, args.seed, args.seconds,
                                     bool(args.trace), rev)
        print("\n".join(lines[:-1]), flush=True)
        ok = ok and result is not None and result["correct"]
        table = [line.split() for line in lines if line.startswith("  ")]
        rows.append((workload, result, [t for t in table if len(t) == 3]))
    print()
    for workload, result, table in rows:
        if result is None:
            print(f"{workload:<18} FAILED")
            continue
        cells = "  ".join(f"{name}={value} {unit}" for name, value, unit in table)
        print(f"{workload:<18} correct={result['correct']}  {cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
