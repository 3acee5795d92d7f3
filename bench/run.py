"""Exact-arithmetic benchmark for tensorgap: one workload per invocation.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: certificates, classification, or "all" (each in turn).
The package is imported from src/ beside this directory.  Each measurement
runs in its own fresh interpreter (bench/measure.py).  The untraced run
prints the end-to-end metrics, with times at a reference machine speed (see
measure.py); set-up time is the median of five interpreters, four of which
only set up.  The traced run prints the per-layer metrics and writes its
spans under .bench_work/spans/.  Every output is checked; the last stdout
line is one JSON object.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("certificates", "classification")
SETUPS = 5
# A measurement runs for --seconds plus its set-up, the pass it is in when
# time runs out, and (traced) one slow traced pass; this margin covers those.
CHILD_MARGIN_S = 120

UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
}


def clock() -> float:
    """System-wide monotonic time, comparable with measure.py's clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "seed": seed,
    }


def child(workload: str, seed: int, seconds: float, *extra: str) -> tuple[float, dict]:
    """Run measure.py once; (seconds from spawn to its first timed op at the
    reference speed, result)."""
    workdir = os.path.join(WORK, f"run-{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), workload, "--seed", str(seed),
           "--seconds", str(seconds), "--workdir", workdir, *extra]
    timeout = seconds + CHILD_MARGIN_S
    try:
        spawned = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{workload} did not finish within {timeout:g} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} measurement exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return (result["ready"] - spawned) * result["setup_scale"], result


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup, result = child(workload, seed, seconds)
    setups = [setup] + [child(workload, seed, seconds, "--setup-only")[0] for _ in range(SETUPS - 1)]
    values = {
        "ops_per_s": result["ops_per_s"],
        "op_p50_ms": result["op_p50_ms"],
        "op_tail_ms": result["op_tail_ms"],
        "setup_s": statistics.median(setups),
        "ok_share": 1 - result["failed"] / result["attempted"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    print(f"[{workload}] {result['passes']} passes of {result['ops_per_pass']} ops, "
          f"{result['samples']} latency samples; tail = p{result['tail_percentile']}")
    shares = ", ".join(f"{k} {v:.0%}" for k, v in result["kind_share"].items())
    print(f"[{workload}] time share by operation kind: {shares}")
    print(f"[{workload}] set-up runs (s, at reference speed): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"[{workload}] machine speed {result['speed']:.3f} x reference over "
          f"{result['calibrations']} calibrations; unscaled: "
          + ", ".join(f"{k} {v:.6g}" for k, v in result["unscaled"].items() if k != "tail_percentile"))
    for name, value in values.items():
        print(f"[{workload}] {name} = {value:.6g} {UNITS[name]}")
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()}
    return report(workload, result, metrics)


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    spans = os.path.join(WORK, "spans", f"{workload}-seed{seed}.jsonl")
    _, result = child(workload, seed, seconds, "--trace", spans)
    for name, (value, unit) in result["per_layer"].items():
        print(f"[{workload}] {name} = {value:.6g} {unit}")
    print(f"[{workload}] spans written to {os.path.relpath(spans, ROOT)}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["per_layer"].items()}
    return report(workload, result, metrics)


def report(workload: str, result: dict, metrics: dict) -> dict:
    failed = result["failed"]
    print(f"[{workload}] attempted {result['attempted']}, failed {failed} "
          f"(failed_share {failed / result['attempted']:.6g}), "
          f"unexpected {result['unexpected_failures']}")
    for reason, n in result["reasons"].items():
        print(f"[{workload}]   {n} x {reason}")
    print(f"[{workload}] output sha256 {result['digest']}")
    return {
        "correct": result["unexpected_failures"] == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tensorgap exact-arithmetic benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tensorgap", "__init__.py")):
        print(f"error: no tensorgap sources under {ROOT}/src", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment(args.seed)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    measure = per_layer if args.trace else end_to_end
    try:
        results = [measure(name, args.seed, args.seconds) for name in names]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
