"""Self-tests for the benchmark's correctness checks.

Runs each workload's operations on a few tiny inputs and requires every
genuine output to pass its check, then plants wrong answers (a tampered
certificate that was accepted, a flipped class, a flipped gate answer, ...)
and requires each check to flag them.  Exits 1 if any expectation fails.

  python3 bench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import tempfile
from collections import Counter
from dataclasses import replace

import measure  # first: it puts the package sources on the path
import workloads
from tensorgap import census, degeneration, ranks
from tensorgap.classify import Orbit222, TrichotomyClass
from tensorgap.fields import QQ
from tensorgap.tensors import unit_tensor


class Expectations:
    def __init__(self):
        self.failures = 0

    def passes(self, what: str, reasons: list) -> None:
        self._report(not reasons, f"accepted: {what}", reasons)

    def flags(self, what: str, reasons: list) -> None:
        self._report(bool(reasons), f"flagged: {what}", reasons)

    def _report(self, ok: bool, what: str, reasons: list) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}" + (f" -> {reasons[0]}" if reasons else ""))
        self.failures += not ok


def one_pass(ops):
    """Run the operations once through the benchmark's own loop."""
    m = measure.Measurement(ops)
    m.one_pass()
    return m


def certify(expect, workdir):
    t = unit_tensor(3, 2, QQ)
    op = workloads.certify_op(t, 1, workdir, 0)
    m = one_pass([op])
    data = m.outputs[0]
    expect.passes("make-w-cert on I_{3,2}", workloads.check_certificate(data, t))
    doc = json.loads(data)
    doc["target"]["entries"].append([[0, 0, 0], "1"])
    expect.flags("certificate whose target is not W_3",
                 workloads.check_certificate(json.dumps(doc).encode(), t))
    other = unit_tensor(3, 2, QQ).scale(QQ.from_int(2))
    expect.flags("certificate of another source", workloads.check_certificate(data, other))
    expect.flags("make-w-cert that exited 1", workloads.check_certificate(b"exit 1: no", t))


def verify(expect, workdir):
    cert = degeneration.construct_w_degeneration(unit_tensor(3, 2, QQ), seed=1)
    ops = workloads.verify_ops(cert, workdir, 0)
    m = one_pass(ops)
    expect.passes("verify-cert on a valid and three tampered copies", list(m.reasons))
    valid, mismatch = m.outputs[0], m.outputs[1]
    expect.flags("tampered certificate that was accepted",
                 workloads.check_verdict(valid, "constant-term-mismatch"))
    expect.flags("rejection with the wrong condition",
                 workloads.check_verdict(mismatch, "negative-valuation"))
    expect.flags("valid certificate that was rejected", workloads.check_verdict(mismatch, None))


def classify(expect, workdir):
    rng = random.Random(5)
    cases = [(p, workloads.planted_tensor(rng, p, (2, 2, 2))) for p in workloads.PLANTED]
    ops = [workloads.classify_op(t, p, 7, workdir, n) for n, (p, t) in enumerate(cases)]
    m = one_pass(ops)
    expect.passes("classify on each planted class", list(m.reasons))
    (w_class, w), (unit_class, unit) = cases[0], cases[1]
    report = json.loads(m.outputs[0])
    report["trichotomy"] = TrichotomyClass.RESTRICTS_TO_UNIT2.value
    expect.flags("W image reported as unit class",
                 workloads.check_report(json.dumps(report).encode(), w, w_class))
    expect.flags("W image checked as a rank-one tensor",
                 workloads.check_report(m.outputs[0], w, TrichotomyClass.FLATTENING_RANK_ONE))
    report = json.loads(m.outputs[1])
    entries = report["unit-witness"][0]["entries"]
    entries[0] = str(int(entries[0].split("/")[0]) + 1)
    expect.flags("unit witness that does not restrict to I_{3,2}",
                 workloads.check_report(json.dumps(report).encode(), unit, unit_class))
    report = json.loads(m.outputs[1])
    report["trichotomy"] = TrichotomyClass.W_ISOMORPHIC.value
    expect.flags("unit-class tensor reported as w-isomorphic",
                 workloads.check_report(json.dumps(report).encode(), unit, unit_class))


def finite_field(expect, workdir):
    m = one_pass([workloads.census_op(workdir)])
    tsv = m.outputs[0]
    expect.passes("F_2 census (its 12 twisted unit-class rows have subrank 1)", list(m.reasons))
    lines = tsv.decode().splitlines(keepends=True)
    split = next(i for i, line in enumerate(lines)
                 if "\tunit-class\t" in line and line.split("\t")[4] == "2")
    fields = lines[split].split("\t")
    fields[4] = "1"
    lines[split] = "\t".join(fields)
    expect.flags("census row whose subrank was flipped",
                 workloads.check_census("".join(lines).encode()))

    t = census.tensor_from_id(3**4 + 1, 3)  # (e_0 + e_1) x e_0 x e_0, of rank one
    m = one_pass([workloads.f3_row_op(t)])
    expect.passes("F_3 row", list(m.reasons))
    label, subrank, cay = m.outputs[0].decode().split("\t")
    flipped = f"{label}\t{3 - int(subrank)}\t{cay}".encode()
    expect.flags("F_3 row whose subrank was flipped", workloads.check_f3_row(flipped, t))
    strata = Counter(workloads.f3_stratum(census.tensor_from_id(i, 3)) for i in range(1, 3**8))
    expect.passes("F_3 census strata behind the row quota",
                  [] if strata == workloads.F3_CENSUS else [str(dict(strata))])
    unit = next(census.tensor_from_id(i, 3) for i in range(3**8)
                if workloads.f3_stratum(census.tensor_from_id(i, 3)) == "unit-split")
    expect.flags("unit-class row with subrank 1",
                 workloads.check_f3_row(f"{Orbit222.UNIT_CLASS.value}\t1\t1".encode(), unit))

    ops = [workloads.gate_op(code) for code in range(1, 64)]
    m = one_pass(ops)
    expect.passes("order-4 gates agreeing with the signature oracle", list(m.reasons))
    gate, ranks_text = m.outputs[0].decode().split("\t")
    expect.flags("flipped gate answer",
                 workloads.check_gate(f"{1 - int(gate)}\t{ranks_text}".encode(), 1))
    shares = {sum(c in workloads.CRITERION6_MISSES for c in workloads.order4_codes(random.Random(seed)))
              for seed in range(1, 6)}
    expect.passes("20 criterion-6 tensors among the 2000 gates of every seed",
                  [] if shares == {20} else [str(shares)])
    defect = min(workloads.CRITERION6_MISSES)
    m = one_pass([workloads.gate_op(defect)])
    expect.flags(f"criterion-6 gate miss on tensor {defect}", list(m.reasons))
    expect.passes("criterion-6 gate miss counted as failed but not unexpected",
                  [] if m.failed == 1 and m.unexpected_failures() == 0 else ["miscounted"])
    code = next(c for c in range(1, 2**16) if c not in workloads.CRITERION6_MISSES
                and ranks.pr_at_least_two(workloads.order4_tensor(c), seed=c))
    op = workloads.gate_op(code)
    missed = replace(op, call=lambda: (False, op.call()[1]))
    m = one_pass([missed])
    expect.flags(f"gate miss on tensor {code}, outside the criterion-6 list", list(m.reasons))
    expect.passes("gate miss outside the list counted as unexpected",
                  [] if m.failed == 1 and m.unexpected_failures() == 1 else ["miscounted"])


def loop(expect):
    """The loop itself: raised errors and outputs that change between passes
    are failures, and only the known defect is an expected one."""
    calls = iter(range(10))
    ops = [
        workloads.Op("raises", lambda: 1 / 0, bytes, lambda data: []),
        workloads.Op("drifts", lambda: next(calls), lambda r: str(r).encode(), lambda data: []),
        workloads.Op("defect", lambda: None, lambda r: b"", lambda data: [workloads.KNOWN_DEFECT]),
    ]
    m = measure.Measurement(ops)
    m.one_pass()
    m.one_pass()
    expect.flags("operation that raises", [r for r in m.reasons if "raised" in r])
    expect.flags("output that differs between passes", [r for r in m.reasons if "differs" in r])
    counts = (m.failed, m.unexpected_failures())
    expect.passes("failure counts (5 failed, 3 unexpected)", [] if counts == (5, 3) else [str(counts)])
    m.calibrations = [(position, 2 * measure.REFERENCE_S) for position, _ in m.calibrations]
    halved = all(abs(s - t / 2) <= 1e-12 for s, t in zip(m.scaled_latencies(), m.latencies))
    expect.passes("latencies at half the reference speed scaled to half",
                  [] if halved and len(m.calibrations) >= 2 else ["not halved"])


def main() -> int:
    work = os.path.join(measure.ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=work)
    expect = Expectations()
    try:
        for case in (certify, verify, classify, finite_field):
            print(f"-- {case.__name__}")
            case(expect, workdir)
        print("-- measurement loop")
        loop(expect)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{expect.failures} expectation(s) failed" if expect.failures else "all checks behave")
    return 1 if expect.failures else 0


if __name__ == "__main__":
    sys.exit(main())
