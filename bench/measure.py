"""Set up one workload in a fresh interpreter, measure it, check every output.

Started by run.py, once per measurement; not meant to be run by hand.  The
last line on stdout is one JSON object.  Operations run as a closed loop: one
client, one thread, the next operation only after the previous one returned.
The operation list is fixed by the seed and repeated in whole passes.

Timings are reported at a reference machine speed.  Between operations, at
least every CALIBRATE_EVERY_S of operation time, a fixed piece of pure-Python
work (`reference`, no tensorgap code) is timed; each latency is scaled by
REFERENCE_S over the median of the reference times around it.  A shared
processor whose speed changes from one second to the next slows both alike,
so the scaled figures follow the program, not the machine.  The unscaled
figures are reported beside them.

  python3 bench/measure.py WORKLOAD --seed N --seconds S --workdir DIR
                           [--setup-only | --trace SPANS_FILE]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))  # the package under test, from source

import tracing  # noqa: E402
import workloads  # noqa: E402

# The tail percentile is the highest one with ten samples beyond it in a run
# of this many passes, so that it does not move with the number of passes a
# faster or slower build fits into the same seconds.  Runs make at least this
# many passes.
MIN_PASSES = 4

# The nominal time of one `reference` call (its median on a 2.1 GHz Xeon
# vCPU, Python 3.11), the longest stretch of operation time between two
# calibrations, and how many calibrations on each side of an operation its
# scale comes from.
REFERENCE_S = 0.004
CALIBRATE_EVERY_S = 0.1
WINDOW = 5
SETUP_CALIBRATIONS = 7


def clock() -> float:
    """System-wide monotonic time, comparable with run.py's clock."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _Num:
    """A tiny immutable number with dunder arithmetic, like a field Scalar."""

    __slots__ = ("v", "p")

    def __init__(self, v, p=None):
        self.v = v % p if p else v
        self.p = p

    def __add__(self, other):
        return _Num(self.v + other.v, self.p)

    def __mul__(self, other):
        return _Num(self.v * other.v, self.p)

    def __sub__(self, other):
        return _Num(self.v - other.v, self.p)


def reference() -> int:
    """Fixed pure-Python work of the kinds tensorgap does: arithmetic on small
    rational and modular scalars behind dunder methods, then many short-lived
    small objects in lists and a dict with tuple keys.  It never changes, so
    its time measures the machine's current speed."""
    acc = _Num(Fraction(0))
    row = [_Num(Fraction(i, i % 5 + 1)) for i in range(12)]
    for i in range(12):
        for x in row:
            acc = acc + x * _Num(Fraction(i % 7 - 3, i % 4 + 1))
        residues = [_Num(i * j, 7) for j in range(24)]
        for a, b in zip(residues, residues[1:]):
            acc = acc + _Num((a * b - a).v)
    table = {}
    for i in range(1700):
        table[(i, i % 13)] = [_Num(i, 7), _Num(i + 1, 7)]
    return len(table) + acc.v.denominator


def reference_time() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class Measurement:
    """Latencies, failures and outputs of the passes made so far."""

    def __init__(self, ops):
        self.ops = ops
        self.latencies: list[float] = []
        self.kind_time: Counter = Counter()
        self.pass_ends: list[int] = []  # latencies recorded by the end of each pass
        # (latencies recorded before it, reference seconds)
        self.calibrations: list[tuple[int, float]] = []
        self._since_calibration = 0.0
        self.failed = 0
        self.reasons: Counter = Counter()
        self.outputs: list = [None] * len(ops)  # of the first pass
        self.digest = hashlib.sha256()
        self._verdicts: dict = {}

    def calibrate(self) -> None:
        self.calibrations.append((len(self.latencies), reference_time()))
        self._since_calibration = 0.0

    def one_pass(self, tracer=None) -> None:
        if not self.calibrations:
            self.calibrate()
        for i, op in enumerate(self.ops):
            span = None
            if tracer is not None:
                tracer.on = True
                span = tracer.open(f"op.{op.kind}")
            t0 = time.perf_counter()
            try:
                result, error = op.call(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, exc
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.on = False
            self.latencies.append(elapsed)
            self.kind_time[op.kind] += elapsed
            self._judge(i, op, result, error)
            self._since_calibration += elapsed
            if self._since_calibration >= CALIBRATE_EVERY_S:
                self.calibrate()
        if self._since_calibration > 0:
            self.calibrate()
        self.pass_ends.append(len(self.latencies))

    def _judge(self, i, op, result, error) -> None:
        if error is None:
            output = op.output(result)
        else:
            output = f"raised {type(error).__name__}: {error}".encode()
        reasons = self._verdicts.get((i, output))
        if reasons is None:
            if error is not None:
                reasons = [f"{op.kind} raised {type(error).__name__}"]
            else:
                try:
                    reasons = op.check(output)
                except Exception as exc:  # an unreadable output is a failure
                    reasons = [f"{op.kind} output failed its check: {type(exc).__name__}: {exc}"]
            self._verdicts[(i, output)] = reasons
        if self.outputs[i] is None:
            self.outputs[i] = output
            self.digest.update(len(output).to_bytes(8, "big") + output)
        elif self.outputs[i] != output:
            reasons = reasons + [f"{op.kind} output differs between passes"]
        if reasons:
            self.failed += 1
            self.reasons.update(reasons)

    def run_for(self, seconds: float, min_passes: int) -> None:
        start = time.perf_counter()
        while len(self.pass_ends) < min_passes or time.perf_counter() - start < seconds:
            self.one_pass()

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self) -> list:
        """Each latency at the reference speed: scaled by REFERENCE_S over the
        median of the WINDOW calibrations before it and the WINDOW after."""
        refs = [r for _, r in self.calibrations]
        scaled, c = [], 0
        for j, latency in enumerate(self.latencies):
            while c + 1 < len(refs) and self.calibrations[c + 1][0] <= j:
                c += 1
            window = refs[max(0, c - WINDOW + 1):c + WINDOW + 1]
            scaled.append(latency * REFERENCE_S / statistics.median(window))
        return scaled

    def pass_rates(self, latencies) -> list:
        """Per pass, operations per second of operation time."""
        starts = [0] + self.pass_ends[:-1]
        return [(end - start) / math.fsum(latencies[start:end])
                for start, end in zip(starts, self.pass_ends)]

    def speed(self) -> float:
        """The machine's speed relative to the reference: 1 is nominal."""
        return REFERENCE_S / statistics.median(r for _, r in self.calibrations)

    def unexpected_failures(self) -> int:
        return sum(n for reason, n in self.reasons.items() if reason != workloads.KNOWN_DEFECT)

    def timings(self, latencies) -> dict:
        n_min = len(self.ops) * MIN_PASSES
        q = math.floor(1000 * (1 - 10 / n_min)) / 10
        ordered = sorted(latencies)
        return {
            "ops_per_s": statistics.median(self.pass_rates(latencies)),
            "op_p50_ms": statistics.median(ordered) * 1000,
            "op_tail_ms": ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] * 1000,
            "tail_percentile": q,
        }

    def summary(self) -> dict:
        return {
            **self.timings(self.scaled_latencies()),
            "unscaled": self.timings(self.latencies),
            "speed": self.speed(),
            "calibrations": len(self.calibrations),
            "samples": len(self.latencies),
            "passes": len(self.pass_ends),
            "ops_per_pass": len(self.ops),
            "attempted": self.attempted,
            "failed": self.failed,
            "unexpected_failures": self.unexpected_failures(),
            "reasons": dict(self.reasons.most_common(10)),
            "digest": self.digest.hexdigest(),
            "kind_share": {k: v / sum(self.kind_time.values()) for k, v in self.kind_time.items()},
        }


def traced_run(ops, seconds: float, spans_path: str) -> dict:
    """Untraced passes for half the time, then exactly one traced pass."""
    untraced = Measurement(ops)
    untraced.run_for(seconds / 2, 1)
    traced = Measurement(ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced.one_pass(tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    agreements = sum(
        1 for op, out in zip(ops, traced.outputs)
        if op.kind == "order4-gate" and workloads.gate_agrees(out)
    )
    metrics = tracing.layer_metrics(tracer, agreements)
    metrics["trace.overhead_ratio"] = (
        statistics.median(untraced.pass_rates(untraced.scaled_latencies()))
        / traced.pass_rates(traced.scaled_latencies())[0], "ratio")
    return {
        "per_layer": metrics,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "unexpected_failures": untraced.unexpected_failures() + traced.unexpected_failures(),
        "reasons": dict((untraced.reasons + traced.reasons).most_common(10)),
        "digest": traced.digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", metavar="SPANS_FILE")
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed, args.workdir)
    ready = clock()
    # The machine's speed just after set-up, to scale the set-up time with.
    setup_scale = REFERENCE_S / statistics.median(reference_time() for _ in range(SETUP_CALIBRATIONS))
    if args.setup_only:
        result = {}
    elif args.trace:
        result = traced_run(ops, args.seconds, args.trace)
    else:
        m = Measurement(ops)
        m.run_for(args.seconds, MIN_PASSES)
        result = m.summary()
    result["ready"] = ready
    result["setup_scale"] = setup_scale
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
