#!/usr/bin/env python3
"""Pipeline benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout. The first call configures and
builds the psv library and the benchmark binary into .bench_build/
(RelWithDebInfo); later calls only rebuild what changed. The binary's last
stdout line, one JSON object with the keys correct/attempted/failed/metrics,
is checked against BENCHMARK.json and printed as this script's last line.

Each run also leaves, under .bench_build/: records/<run>.json (seed, nproc,
build type, source id, input shares and every metric) and, for traced runs,
spans/<run>.jsonl (one span per line).

--smoke runs every workload at reduced size, untraced and traced, with the
same known-answer checks, and exits non-zero if any run is incorrect.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "psv_perfbench")
WORKLOADS = ("pump_edit", "pump_synth", "quickstart_service")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then build the binary; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("perfbench: no source tree at", ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    compile_ = ["cmake", "--build", BUILD, "--target", "psv_perfbench", "-j", "4"]
    return subprocess.run(compile_, stdout=sys.stderr, cwd=ROOT).returncode == 0


def source_id():
    """Content digest of everything the benchmark builds and reads, plus the
    git commit when the checkout is a repository."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", os.path.join("perfbench", "src"),
                os.path.join("perfbench", "models"), os.path.join("perfbench", "CMakeLists.txt")):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    ident = "src-" + digest.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True)
        if commit.returncode == 0:
            ident += "@" + commit.stdout.strip()
    return ident


def run_benchmark(workload, seed, seconds, trace, smoke=False):
    """Run one benchmark process; returns (exit code, parsed result or None)."""
    name = f"{workload}-s{seed}-t{trace}" + ("-smoke" if smoke else "")
    for sub in ("records", "spans"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--models", os.path.join(HERE, "models"),
           "--work", os.path.join(BUILD, "work", f"{name}-{os.getpid()}"),
           "--record", os.path.join(BUILD, "records", name + ".json"),
           "--source-id", source_id()]
    if trace:
        cmd += ["--spans", os.path.join(BUILD, "spans", name + ".jsonl")]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench:", name, "timed out")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode or 1, None
    return 0, json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def valid(result, trace):
    """The result line has exactly the expected keys and BENCHMARK.json's metric names."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return False
    return sorted(result["metrics"]) == sorted(expected_metrics(trace))


def smoke():
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_benchmark(workload, 1, 1, trace, smoke=True)
            passed = (code == 0 and result is not None and valid(result, trace)
                      and result["correct"] and result["failed"] == 0
                      and result["attempted"] >= 1)
            log(f"smoke {workload} trace={trace}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("perfbench: build failed")
        return 1
    if args.smoke:
        return smoke()
    code, result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    if code != 0 or result is None:
        log("perfbench: run failed")
        return code or 1
    if not valid(result, args.trace):
        log("perfbench: result does not match BENCHMARK.json")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
