#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench_bin from the enclosing source tree into
.bench_build/perfbench, runs the harness self-tests, then runs the
workload in fresh processes: two set-up probes plus the measured run
(untraced), or one traced run. Prints the run's own report lines and,
last, one JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are BENCHMARK.json's end_to_end
list, with --trace 1 its per_layer list.

Exit status: 0 when every output checked out, 1 on a wrong output or a
broken invariant, 2 on bad usage, 3 when the build or a run failed (no
result is printed then).
"""
import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("tfm-shflbw-offline", "resnet50-auto-offline", "serve-open")
# Extra fresh processes that only stand the workload up; setup_s is the
# median over them and the measured run.
SETUP_PROBES = 2
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sh(cmd, timeout):
    """Runs cmd with its output on stderr; raises BenchError on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{cmd[0]}: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no shflbw source tree at {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        sh(["cmake", "-S", str(HERE), "-B", str(BUILD),
            "-DCMAKE_BUILD_TYPE=Release", *gen], timeout=300)
    sh(["cmake", "--build", str(BUILD), "--parallel", "4", "--target",
        "perfbench_bin", "perfbench_selftest"], timeout=840)
    sh([str(BUILD / "perfbench_selftest"), "--gtest_brief=1"], timeout=60)


def run_bin(args, timeout):
    """Runs perfbench_bin; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([str(BUILD / "perfbench_bin"), *args],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"perfbench_bin: {e}") from e
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        raise BenchError(f"perfbench_bin {' '.join(args)} exited "
                         f"{proc.returncode}")
    return proc.returncode, lines


def measure(a, names):
    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = []
    if not a.trace:
        for _ in range(SETUP_PROBES):
            _, lines = run_bin(["--mode", "setup", *common], timeout=60)
            setups.append(json.loads(lines[-1])["setup_s"])
    trace_out = BUILD / f"trace-{a.workload}-{a.seed}.json"
    code, lines = run_bin(["--mode", "run", *common, "--seconds",
                           str(a.seconds), "--trace", str(int(a.trace)),
                           "--trace-out", str(trace_out)],
                          timeout=RUN_TIMEOUT_S)
    for line in lines[:-1]:
        print(line)
    res = json.loads(lines[-1])
    metrics = res["metrics"]
    if not a.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
        print(f"setup_s over {len(setups)} fresh processes: "
              + ", ".join(f"{s:.4f}" for s in setups))
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"run reported no {', '.join(missing)}")
    if a.trace:
        print(f"spans written to {trace_out}")
    return code, {
        "correct": bool(res["correct"]) and code == 0,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in
                 spec["per_layer" if a.trace else "end_to_end"]]
        build()
        code, result = measure(a, names)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 3
    print(json.dumps(result), flush=True)
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
