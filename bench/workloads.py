"""The benchmark workloads: seeded inputs, their operations, and the checks
that decide whether an operation's output is correct.

Two workloads split the package where its arithmetic splits:
`certificates` builds and checks W-degeneration certificates over K(eps)
(`make-w-cert`, `verify-cert`); `classification` stays in Q and F_p
(`classify`, the F_2 census, F_3 census rows, order-4 F_2 partition-rank
gates).  Neither runs the other's arithmetic.

Every input is generated here from the workload seed and written to the work
directory during set-up; the library only sees those inputs.  Where the CLI
has a subcommand for an operation, the operation is `tensorgap.cli.main` with
the arguments a user would type; otherwise it is the library calls the CLI
would make.  Library functions are always looked up through their module at
call time, so the traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, replace
from math import prod
from typing import Callable

from tensorgap import census, classify, cli, degeneration, ranks
from tensorgap import io as tgio
from tensorgap.classify import Orbit222, TrichotomyClass
from tensorgap.fields import GF, QQ
from tensorgap.linalg import Matrix
from tensorgap.tensors import Tensor, restrict, unit_tensor, w_tensor

# The one failure the seed is known to produce: on 648 order-4 F_2 tensors
# the recursive gate answers "no" although no flattening has rank one
# (acceptance criterion 6).  A miss on one of those tensors is counted as a
# failure like any other, but it does not make a run incorrect; a miss on any
# other tensor does.  The list is fixed data (see criterion6.py).
KNOWN_DEFECT = "gate-misses-partition-rank-2 (criterion 6)"
CRITERION6_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "criterion6_misses.txt")
with open(CRITERION6_FILE, encoding="utf-8") as _fh:
    CRITERION6_MISSES = frozenset(int(line) for line in _fh if not line.startswith("#"))

# certificates: the unit ladder I_{k,2} and random tensors per shape; each is
# certified, and its certificate and three tampered copies are verified.  The
# cost of a random input varies with its entries, so most are (3,3,3)
# tensors, whose cost varies least.  The tail percentile falls on the slowest
# of the k = 5 rung and the four order-4 tensors, below k = 6 and order 5.
LADDER = (3, 4, 5, 6)
CERT_SHAPES = (((3, 3, 3), 13), ((6, 6, 6), 1), ((2, 2, 2, 2), 1), ((3, 3, 3, 3), 3), ((2, 2, 2, 2, 2), 1))
CERT_BOUND = 2

# classification: every planted class on every shape, four times.
CLASSIFY_SHAPES = ((2, 2, 2), (3, 3, 3), (4, 4, 4), (5, 5, 5), (2, 4, 5), (5, 3, 2)) * 4
GENERIC = "generic"
PLANTED = (TrichotomyClass.W_ISOMORPHIC, TrichotomyClass.RESTRICTS_TO_UNIT2,
           TrichotomyClass.FLATTENING_RANK_ONE, GENERIC)

# ... then one F_2 census, F_3 rows and order-4 F_2 gates.  The F_3 rows
# follow the F_3 census: its 6560 nonzero tensors by stratum (f3_stratum;
# the rank-one count is (3^2 - 1)^3 / (3 - 1)^2), and one row per
# F3_TENSORS_PER_ROW of them, rounded, so 42 rows.
F3_CENSUS = {"unit-split": 3456, "unit-twisted": 864, "w-class": 1536, "pencil": 576, "rank-one": 128}
F3_TENSORS_PER_ROW = 160
ORDER4_COUNT = 2000


@dataclass(frozen=True)
class Op:
    """One operation: `call` is timed; `output` turns its result into bytes
    after the clock stops, and `check` lists what is wrong with those bytes."""

    kind: str
    call: Callable[[], object]
    output: Callable[[object], bytes]
    check: Callable[[bytes], list]


def build(name: str, seed: int, workdir: str) -> list:
    """The fixed operation list of one workload for one seed."""
    rng = random.Random(seed)
    if name == "certificates":
        inputs = certify_inputs(rng)
        return _certify_ops(inputs, workdir) + _verify_ops(inputs, workdir)
    if name == "classification":
        return _classify_ops(rng, workdir) + _finite_field_ops(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")


# -- helpers -------------------------------------------------------------------


def _cli(argv):
    """Run the CLI in-process; the exit code and what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _take_file(path: str) -> bytes:
    """Read and remove an output file, so a later pass cannot see a stale one."""
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def _cli_file_output(path):
    def output(result):
        code, printed = result
        if code != 0:
            return f"exit {code}: {printed}".encode()
        return _take_file(path)

    return output


def _rational_tensor(rng, dims, bound):
    return Tensor(QQ, dims, [QQ.from_int(rng.randint(-bound, bound)) for _ in range(prod(dims))])


def _pr2_rational_tensor(rng, dims, bound):
    """A random tensor over Q of partition rank at least two."""
    while True:
        t = _rational_tensor(rng, dims, bound)
        if not t.is_zero() and ranks.has_rank_one_flattening(t) is None:
            return t


def _injection(rng, rows, bound=4):
    """A rows x 2 integer matrix of rank 2."""
    while True:
        e = [rng.randint(-bound, bound) for _ in range(2 * rows)]
        if any(e[2 * i] * e[2 * j + 1] != e[2 * i + 1] * e[2 * j]
               for i in range(rows) for j in range(i + 1, rows)):
            return Matrix(QQ, rows, 2, [QQ.from_int(x) for x in e])


def _nonzero_ints(rng, n, bound):
    while True:
        v = [rng.randint(-bound, bound) for _ in range(n)]
        if any(v):
            return v


def _save_tensor(t, workdir, name):
    path = os.path.join(workdir, name)
    tgio.save_tensor(t, path)
    return path


# -- certify ---------------------------------------------------------------------


def certify_inputs(rng):
    """The unit ladder, then random tensors of partition rank >= 2, each with
    the seed its certificate is built with."""
    tensors = [unit_tensor(k, 2, QQ) for k in LADDER]
    for dims, count in CERT_SHAPES:
        tensors.extend(_pr2_rational_tensor(rng, dims, CERT_BOUND) for _ in range(count))
    return [(t, rng.randrange(2**31)) for t in tensors]


def check_certificate(data: bytes, source: Tensor) -> list:
    """A saved certificate reloads, verifies, targets W_k and keeps its source."""
    if data.startswith(b"exit "):
        return [f"make-w-cert failed: {data[:200]!r}"]
    cert = tgio.certificate_from_document(json.loads(data))
    reasons = []
    result = degeneration.verify_certificate(cert)
    if not result:
        reasons.append(f"saved certificate rejected: {result.condition}")
    k = source.order
    if cert.target != w_tensor(k, (2,) * k, QQ):
        reasons.append("target is not the W-tensor")
    if cert.source != source:
        reasons.append("source differs from the input")
    return reasons


def certify_op(t: Tensor, seed: int, workdir: str, n: int) -> Op:
    src = _save_tensor(t, workdir, f"certify-{n}.json")
    out = os.path.join(workdir, f"certify-{n}.cert.json")
    return Op(
        kind="make-w-cert",
        call=lambda: _cli(["make-w-cert", src, "--seed", str(seed), "--out", out]),
        output=_cli_file_output(out),
        check=lambda data: check_certificate(data, t),
    )


def _certify_ops(inputs, workdir):
    return [certify_op(t, seed, workdir, n) for n, (t, seed) in enumerate(inputs)]


# -- verify ----------------------------------------------------------------------


def tampered_copies(cert):
    """Three broken copies of a valid certificate, with the condition each
    must be rejected with."""
    ring = cert.curves[0].ring
    target = list(cert.target.entries)
    target[0] = target[0] + 1  # the W-tensor's corner entry is zero
    mismatch = replace(cert, target=Tensor(cert.target.ring, cert.target.dims, target))
    pole = replace(cert, curves=(cert.curves[0].scale(ring.eps(-1)),) + cert.curves[1:])
    c0 = cert.curves[0]
    entries = list(c0.entries)
    entries[c0.cols:2 * c0.cols] = [ring.zero()] * c0.cols
    singular = replace(cert, curves=(Matrix(ring, c0.rows, c0.cols, entries),) + cert.curves[1:])
    return [
        (mismatch, "constant-term-mismatch"),
        (pole, "negative-valuation"),
        (singular, "singular-curve"),
    ]


def check_verdict(data: bytes, expected) -> list:
    """verify-cert accepted exactly the valid documents and rejected each
    tampered one with its own condition."""
    code, _, printed = data.decode().partition("\n")
    if expected is None:
        return [] if code == "0" else [f"valid certificate not accepted: {printed.strip()}"]
    if code != "1":
        return [f"expected rejection ({expected}), got exit {code}"]
    if not printed.startswith(f"certificate rejected: {expected} ("):
        return [f"expected {expected}, got {printed.strip()}"]
    return []


def verify_ops(cert, workdir: str, n: int) -> list:
    """verify-cert on a valid certificate and on each of its tampered copies."""
    ops = []
    for m, (doc, expected) in enumerate([(cert, None)] + tampered_copies(cert)):
        path = os.path.join(workdir, f"verify-{n}-{m}.cert.json")
        tgio.save_certificate(doc, path)
        ops.append(Op(
            kind="verify-cert",
            call=lambda path=path: _cli(["verify-cert", path]),
            output=lambda result: f"{result[0]}\n{result[1]}".encode(),
            check=lambda data, expected=expected: check_verdict(data, expected),
        ))
    return ops


def _verify_ops(inputs, workdir):
    """verify-cert on the certificates of the certify inputs, built here."""
    ops = []
    for n, (t, seed) in enumerate(inputs):
        ops += verify_ops(degeneration.construct_w_degeneration(t, seed=seed), workdir, n)
    return ops


# -- classify --------------------------------------------------------------------


def planted_tensor(rng, planted, dims):
    """An order-3 tensor over Q whose trichotomy class is known by construction."""
    if planted is TrichotomyClass.W_ISOMORPHIC:
        return restrict(w_tensor(3, (2, 2, 2), QQ), tuple(_injection(rng, d) for d in dims))
    if planted is TrichotomyClass.RESTRICTS_TO_UNIT2:
        return restrict(unit_tensor(3, 2, QQ), tuple(_injection(rng, d) for d in dims))
    if planted is TrichotomyClass.FLATTENING_RANK_ONE:
        u = _nonzero_ints(rng, dims[0], 3)
        m = _nonzero_ints(rng, dims[1] * dims[2], 3)
        return Tensor(QQ, dims, [QQ.from_int(a * b) for a in u for b in m])
    # Generic: no rank-one flattening, and either a nonzero hyperdeterminant
    # (2x2x2) or a multilinear rank above 2, so the class is the unit class.
    while True:
        t = _pr2_rational_tensor(rng, dims, 5)
        if dims == (2, 2, 2):
            if classify.cayley_hyperdet(t):
                return t
        elif not classify.multilinear_rank_le_2(t):
            return t


def _parse_maps(doc):
    return tuple(
        Matrix(QQ, m["rows"], m["cols"], [QQ.parse(e) for e in m["entries"]]) for m in doc
    )


def check_report(data: bytes, t: Tensor, planted) -> list:
    """The planted class comes back, a unit witness restricts the tensor to
    I_{3,2}, and the class agrees with the deterministic gates."""
    if data.startswith(b"exit "):
        return [f"classify failed: {data[:200]!r}"]
    report = json.loads(data)
    label = report["trichotomy"]
    expected = (TrichotomyClass.RESTRICTS_TO_UNIT2 if planted == GENERIC else planted).value
    reasons = []
    if label != expected:
        reasons.append(f"planted {expected}, reported {label}")
    if "unit-witness" in report and restrict(t, _parse_maps(report["unit-witness"])) != unit_tensor(3, 2, QQ):
        reasons.append("unit witness does not restrict the tensor to I_{3,2}")
    rank_one = ranks.has_rank_one_flattening(t) is not None
    if (label == TrichotomyClass.FLATTENING_RANK_ONE.value) != rank_one:
        reasons.append(f"{label} disagrees with the rank-one flattening gate ({rank_one})")
    if label == TrichotomyClass.W_ISOMORPHIC.value and not classify.multilinear_rank_le_2(t):
        reasons.append("w-isomorphic although a multilinear rank exceeds 2")
    return reasons


def classify_op(t: Tensor, planted, seed: int, workdir: str, n: int) -> Op:
    src = _save_tensor(t, workdir, f"classify-{n}.json")
    out = os.path.join(workdir, f"classify-{n}.report.json")
    return Op(
        kind="classify",
        call=lambda: _cli(["classify", src, "--seed", str(seed), "--out", out]),
        output=_cli_file_output(out),
        check=lambda data: check_report(data, t, planted),
    )


def _classify_ops(rng, workdir):
    ops = []
    for dims in CLASSIFY_SHAPES:
        for planted in PLANTED:
            t = planted_tensor(rng, planted, dims)
            ops.append(classify_op(t, planted, rng.randrange(2**31), workdir, len(ops)))
    return ops


# -- finite-field ----------------------------------------------------------------


def subrank_consistent(t: Tensor, label: str, subrank: int) -> bool:
    """Brute-force subrank 2 exactly for unit-class tensors whose pencil has a
    ground-field witness (twisted unit-class tensors have subrank 1)."""
    split = label == Orbit222.UNIT_CLASS.value and classify.unit_restriction_witness(t) is not None
    return (subrank == 2) == split


def check_census(data: bytes) -> list:
    if data.startswith(b"exit "):
        return [f"census failed: {data[:200]!r}"]
    rows = [line.split("\t") for line in data.decode().splitlines() if not line.startswith("#")]
    if [int(r[0]) for r in rows] != list(range(2**8)):
        return [f"census has {len(rows)} rows, not ids 0..255 in order"]
    bad = [r[0] for r in rows
           if r[1] != Orbit222.ZERO.value
           and not subrank_consistent(census.tensor_from_id(int(r[0]), 2), r[1], int(r[4]))]
    return [f"census rows with inconsistent subrank: {bad}"] if bad else []


def f3_row(t: Tensor):
    """The calls one census row makes."""
    return classify.classify_222(t), ranks.subrank_bruteforce(t, 2), classify.cayley_hyperdet(t)


def check_f3_row(data: bytes, t: Tensor) -> list:
    label, subrank, _ = data.decode().split("\t")
    if subrank_consistent(t, label, int(subrank)):
        return []
    return [f"F_3 row {census.tensor_to_id(t)}: subrank {subrank} with label {label}"]


def gate_answers(t: Tensor, seed: int):
    """The recursive partition-rank gate and the signature oracle."""
    return ranks.pr_at_least_two(t, seed=seed), ranks.rank_signature(t)


def gate_agrees(data: bytes) -> bool:
    """The gate's answer is the signature oracle's (pR >= 2 exactly when no
    flattening has rank one)."""
    gate, ranks_text = data.decode().split("\t")
    return (gate == "1") == all(int(r) >= 2 for r in ranks_text.split(","))


def check_gate(data: bytes, code: int) -> list:
    if gate_agrees(data):
        return []
    if data.startswith(b"1"):
        return ["gate claims partition rank 2 beside a rank-one flattening"]
    if code in CRITERION6_MISSES:
        return [KNOWN_DEFECT]
    return [f"gate misses partition rank 2 on tensor {code}, outside the criterion-6 list"]


def f3_stratum(t: Tensor) -> str:
    label = classify.classify_222(t)
    if label is Orbit222.UNIT_CLASS:
        return "unit-split" if classify.unit_restriction_witness(t) is not None else "unit-twisted"
    if label in (Orbit222.PENCIL_1X2, Orbit222.PENCIL_2X1, Orbit222.PENCIL_2X2_SPLIT):
        return "pencil"
    return label.value


def order4_tensor(code: int) -> Tensor:
    """The F_2 tensor of shape (2,2,2,2) whose flat entries are the bits of code."""
    f2 = GF(2)
    return Tensor(f2, (2, 2, 2, 2), [f2.from_int((code >> i) & 1) for i in range(16)])


def census_op(workdir: str) -> Op:
    out = os.path.join(workdir, "census-f2.tsv")
    return Op(
        kind="census",
        call=lambda: _cli(["census", "--p", "2", "--out", out]),
        output=_cli_file_output(out),
        check=check_census,
    )


def f3_row_op(t: Tensor) -> Op:
    return Op(
        kind="f3-row",
        call=lambda: f3_row(t),
        output=lambda r: f"{r[0].value}\t{2 if r[1] else 1}\t{r[2].text()}".encode(),
        check=lambda data: check_f3_row(data, t),
    )


def gate_op(code: int) -> Op:
    t = order4_tensor(code)
    return Op(
        kind="order4-gate",
        call=lambda: gate_answers(t, code),
        output=lambda r: f"{int(r[0])}\t{','.join(str(v) for _, v in r[1].items())}".encode(),
        check=lambda data: check_gate(data, code),
    )


def order4_codes(rng) -> list:
    """ORDER4_COUNT nonzero order-4 F_2 tensors, drawn uniformly from two
    strata: the criterion-6 tensors in their share of all 65,535 (648 of
    them, so 20 of 2000), and the rest.  The sample does not avoid the known
    gate defect, and every seed meets it equally often, so the failed share
    does not move with how many passes each seed fits into a run."""
    defect = round(ORDER4_COUNT * len(CRITERION6_MISSES) / (2**16 - 1))
    codes = rng.sample(sorted(CRITERION6_MISSES), defect)
    while len(codes) < ORDER4_COUNT:
        code = rng.randrange(1, 2**16)
        if code not in CRITERION6_MISSES:
            codes.append(code)
    return codes


def _finite_field_ops(rng, workdir):
    # F_3 rows drawn per stratum in the census's proportions: an exhaustive
    # "no" row costs about eight times a "yes" row, so a fixed mix also keeps
    # the work per pass steady.
    wanted = {s: round(n / F3_TENSORS_PER_ROW) for s, n in F3_CENSUS.items()}
    rows = []
    while any(wanted.values()):
        t = census.tensor_from_id(rng.randrange(3**8), 3)
        stratum = f3_stratum(t)
        if wanted.get(stratum):
            wanted[stratum] -= 1
            rows.append(f3_row_op(t))
    gates = [gate_op(code) for code in order4_codes(rng)]
    mixed = rows + gates
    rng.shuffle(mixed)
    return [census_op(workdir)] + mixed
