"""Acceptance suite: one test per criterion, run with `pytest tests/test_acceptance.py -v`.

Each criterion prints a PASS line on success (visible with -s); a failure
message states exactly which sub-assertion broke and on which instances.
Criteria 3 and 6 are checked over F_2 itself, where fields are small:
criterion 3 asserts what the closure-level orbit labels mean over F_2 (a
unit-class tensor restricts onto the unit tensor over F_2 exactly when its
determinant pencil has a rational zero, and over F_4 always), and criterion
6 asserts that the partition-rank gate, which rechecks a ground-field "no"
over a large enough extension, agrees with the signature oracle everywhere.
"""

import itertools
import random

import pytest

from tensorgap.census import census_222, tensor_from_id, tensor_to_id
from tensorgap.classify import (
    AsymptoticClass,
    Orbit222,
    TrichotomyClass,
    cayley_hyperdet,
    gap_constant,
    multilinear_rank_le_2,
    trichotomy,
    unit_restriction_witness,
)
from tensorgap.degeneration import (
    construct_w_degeneration,
    scaling_map_tuple,
    stab_shear,
    unit_to_w_certificate,
    verify_certificate,
)
from tensorgap.fields import GF, QQ
from tensorgap.linalg import Matrix, mat_det
from tensorgap.ranks import (
    has_rank_one_flattening,
    pr_at_least_two,
    rank_signature,
)
from tensorgap.ratfunc import EpsField
from tensorgap.tensors import (
    Tensor,
    lift_tensor,
    pad,
    restrict,
    unit_tensor,
    w_tensor,
)
from conftest import all_fp_tensors, random_rational_tensor

F2 = GF(2)
F4 = GF(2, 2)


def _random_invertible(rng, n=2, bound=4):
    while True:
        m = Matrix(QQ, n, n, [QQ.from_int(rng.randint(-bound, bound)) for _ in range(n * n)])
        if mat_det(m):
            return m


def _random_injection(rng, rows, bound=4):
    from tensorgap.linalg import mat_rank

    while True:
        m = Matrix(QQ, rows, 2, [QQ.from_int(rng.randint(-bound, bound)) for _ in range(rows * 2)])
        if mat_rank(m) == 2:
            return m


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_1_constants():
    """Printed gap constants match to 1e-5; both closed forms agree to 1e-12."""
    assert gap_constant(2)[1] == 2.0
    for k, printed in ((3, 1.88988), (4, 1.75477), (5, 1.64938)):
        assert abs(gap_constant(k)[1] - printed) <= 1e-5, k
    # gap_constant itself asserts the two formulas agree to 1e-12
    for k in range(2, 65):
        gap_constant(k)
    print("CRITERION 1 PASS: constants")


# -- criterion 2 ----------------------------------------------------------------


def test_criterion_2_hyperdeterminant():
    """Cay(W3) = 0 and Cay(I32) = 1 exactly; vanishing is invariant under
    200 seeded random invertible restrictions of each."""
    w3 = w_tensor(3, (2, 2, 2), QQ)
    i32 = unit_tensor(3, 2, QQ)
    assert not cayley_hyperdet(w3)
    assert cayley_hyperdet(i32).value == 1
    rng = random.Random(20_202)
    for _ in range(200):
        g = tuple(_random_invertible(rng) for _ in range(3))
        assert not cayley_hyperdet(restrict(w3, g))
        h = tuple(_random_invertible(rng) for _ in range(3))
        assert cayley_hyperdet(restrict(i32, h))
    print("CRITERION 2 PASS: hyperdeterminant")


# -- criterion 3 ----------------------------------------------------------------


def _pencil_has_rational_zero(t):
    """Whether det(l*X0 + m*X1) vanishes at a point (l : m) of P^1(F_2), where
    X0, X1 are the first-factor slices of a 2x2x2 F_2 tensor."""
    x0 = [t[0, j, k].value for j in (0, 1) for k in (0, 1)]
    x1 = [t[1, j, k].value for j in (0, 1) for k in (0, 1)]
    for lam, mu in ((1, 0), (0, 1), (1, 1)):
        a, b, c, d = ((lam * u + mu * v) % 2 for u, v in zip(x0, x1))
        if (a * d - b * c) % 2 == 0:
            return True
    return False


def _split_unit_orbit():
    """Ids of the GL_2(F_2)^3-orbit of I_{3,2}, and the order of its stabilizer."""
    gl2 = [
        m
        for m in (Matrix(F2, 2, 2, [F2.from_int(b) for b in bits])
                  for bits in itertools.product((0, 1), repeat=4))
        if mat_det(m)
    ]
    i32 = unit_tensor(3, 2, F2)
    orbit, stabilizer = set(), 0
    for g in itertools.product(gl2, repeat=3):
        image = restrict(i32, g)
        orbit.add(tensor_to_id(image))
        stabilizer += image == i32
    return orbit, stabilizer


def test_criterion_3_f2_census():
    """All 256 tensors partition into the seven labels with one zero row;
    every W-class member has subrank 1.  The unit class is closure-level: a
    member has F_2-subrank 2 exactly when its determinant pencil has an
    F_2-rational zero, and then unit_restriction_witness verifies over F_2;
    the subrank-2 members are the orbit of I_{3,2} (216/2, the stabilizer is
    the simultaneous swap), so exactly 120 - 108 = 12 have subrank 1, and
    each of those restricts onto I_{3,2} over F_4 through a verified witness."""
    rows = census_222(2)
    assert len(rows) == 256
    counts = {}
    for r in rows:
        counts[r.label] = counts.get(r.label, 0) + 1
    assert set(counts) == set(Orbit222), "some orbit label missing from the census"
    assert counts[Orbit222.ZERO] == 1
    assert sum(counts.values()) == 256

    w_bad = [r.tensor_id for r in rows if r.label is Orbit222.W_CLASS and r.subrank != 1]
    assert not w_bad, f"W-class rows with subrank != 1: {w_bad}"

    unit_rows = [r for r in rows if r.label is Orbit222.UNIT_CLASS]
    pencil_bad, witness_bad = [], []
    for r in unit_rows:
        t = tensor_from_id(r.tensor_id, 2)
        rational = _pencil_has_rational_zero(t)
        if (r.subrank == 2) != rational:
            pencil_bad.append(r.tensor_id)
        maps = unit_restriction_witness(t)
        if (maps is not None) != rational or (
            maps is not None and restrict(t, maps) != unit_tensor(3, 2, F2)
        ):
            witness_bad.append(r.tensor_id)
    assert not pencil_bad, (
        f"unit-class rows whose brute-force subrank disagrees with the F_2 "
        f"pencil roots: {pencil_bad}"
    )
    assert not witness_bad, f"unit-class rows with a wrong F_2 unit witness: {witness_bad}"

    orbit, stabilizer = _split_unit_orbit()
    assert stabilizer == 2, f"stabilizer of I_(3,2) in GL_2(F_2)^3 has order {stabilizer}"
    assert len(orbit) == 216 // stabilizer == 108
    split = {r.tensor_id for r in unit_rows if r.subrank == 2}
    assert split == orbit, (
        f"subrank-2 unit rows differ from the orbit of I_(3,2): "
        f"{sorted(split ^ orbit)[:8]}"
    )
    twisted = [r.tensor_id for r in unit_rows if r.subrank == 1]
    assert len(unit_rows) - len(orbit) == len(twisted) == 12, (len(unit_rows), len(twisted))

    f4_bad = []
    for tensor_id in twisted:
        lifted = lift_tensor(tensor_from_id(tensor_id, 2), F4)
        maps = unit_restriction_witness(lifted)
        if (
            maps is None
            or not all(mat_det(g) for g in maps)
            or restrict(lifted, maps) != unit_tensor(3, 2, F4)
        ):
            f4_bad.append(tensor_id)
    assert not f4_bad, f"twisted unit-class rows without a verified F_4 witness: {f4_bad}"
    print("CRITERION 3 PASS: F2 census")


# -- criterion 4 ----------------------------------------------------------------


def _check_gate_agreement(t, expected, seed):
    report = trichotomy(t, seed=seed)
    assert report.trichotomy is expected, (expected, report.trichotomy)
    det_rank_one = has_rank_one_flattening(t) is not None
    assert (report.trichotomy is TrichotomyClass.FLATTENING_RANK_ONE) == det_rank_one
    if report.trichotomy is TrichotomyClass.W_ISOMORPHIC:
        assert multilinear_rank_le_2(t)
        assert len(report.cayley_samples) == 8
        assert all(not v for _, v in report.cayley_samples)
        assert report.confidence.kind == "randomized" and report.confidence.trials == 8
        assert report.asymptotic_class is AsymptoticClass.C3
    elif report.trichotomy is TrichotomyClass.RESTRICTS_TO_UNIT2:
        assert any(v for _, v in report.cayley_samples)
        assert report.confidence.kind == "deterministic"
        assert report.asymptotic_class is AsymptoticClass.AT_LEAST_TWO
    else:
        assert report.asymptotic_class is AsymptoticClass.ONE


def test_criterion_4_trichotomy():
    """Padded W3 -> W-isomorphic with constant c3; padded I32 -> unit class
    with a verifying witness; a slice-degenerate tensor -> rank-one class;
    deterministic and randomized gates agree on 100 seeded tensors per class."""
    w3p = pad(w_tensor(3, (2, 2, 2), QQ), (5, 4, 3))
    report = trichotomy(w3p, seed=41)
    assert report.trichotomy is TrichotomyClass.W_ISOMORPHIC
    assert abs(report.constant.decimal - gap_constant(3)[1]) < 1e-12

    i32p = pad(unit_tensor(3, 2, QQ), (5, 4, 3))
    report = trichotomy(i32p, seed=43)
    assert report.trichotomy is TrichotomyClass.RESTRICTS_TO_UNIT2
    assert report.unit_witness is not None
    assert restrict(i32p, report.unit_witness) == unit_tensor(3, 2, QQ)

    rng = random.Random(44)
    m = Tensor.from_dict(QQ, (4, 3), {(0, 0): 1, (1, 1): 2, (2, 2): 1})
    e1_tensor = Tensor.zeros(QQ, (3, 4, 3))
    entries = list(e1_tensor.entries)
    for (j, k), _ in ((idx, None) for idx in itertools.product(range(4), range(3))):
        entries[e1_tensor.flat_index((0, j, k))] = m[j, k]
    e1m = Tensor(QQ, (3, 4, 3), entries)
    report = trichotomy(e1m, seed=45)
    assert report.trichotomy is TrichotomyClass.FLATTENING_RANK_ONE

    # 100 seeded tensors per class, randomized gates vs deterministic gates
    for i in range(100):
        dims = tuple(rng.randint(2, 4) for _ in range(3))
        # rank-one class: u (x) M
        u = [QQ.from_int(rng.randint(-3, 3)) for _ in range(dims[0])]
        if not any(u):
            u[0] = QQ.one()
        mat = [QQ.from_int(rng.randint(-3, 3)) for _ in range(dims[1] * dims[2])]
        if not any(mat):
            mat[0] = QQ.one()
        t = Tensor(
            QQ,
            dims,
            [u[i0] * mat[i1 * dims[2] + i2]
             for i0 in range(dims[0]) for i1 in range(dims[1]) for i2 in range(dims[2])],
        )
        _check_gate_agreement(t, TrichotomyClass.FLATTENING_RANK_ONE, seed=4600 + i)

        # W class: injective images of W3
        maps = tuple(_random_injection(rng, d) for d in dims)
        t = restrict(w_tensor(3, (2, 2, 2), QQ), tuple(m for m in maps))
        _check_gate_agreement(t, TrichotomyClass.W_ISOMORPHIC, seed=4700 + i)

        # unit class: injective images of I32
        maps = tuple(_random_injection(rng, d) for d in dims)
        t = restrict(unit_tensor(3, 2, QQ), tuple(m for m in maps))
        _check_gate_agreement(t, TrichotomyClass.RESTRICTS_TO_UNIT2, seed=4800 + i)
    print("CRITERION 4 PASS: trichotomy classifier")


# -- criterion 5 ----------------------------------------------------------------


@pytest.fixture(scope="module")
def produced_certificates():
    """Certificates produced by the builders; reused by criterion 7."""
    certs = [unit_to_w_certificate(k) for k in (2, 3, 4, 5)]
    certs.append(construct_w_degeneration(unit_tensor(3, 2, QQ), seed=50))

    rng = random.Random(505)
    made = 0
    while made < 50:
        t = random_rational_tensor((3, 3, 3), rng)
        if t.is_zero() or has_rank_one_flattening(t) is not None:
            continue
        certs.append(construct_w_degeneration(t, seed=5100 + made))
        made += 1
    made = 0
    while made < 10:
        t = random_rational_tensor((2, 2, 2, 2), rng, bound=3)
        if t.is_zero() or has_rank_one_flattening(t) is not None:
            continue
        certs.append(construct_w_degeneration(t, seed=5200 + made))
        made += 1
    return certs


def test_criterion_5_certificates(produced_certificates):
    """unit-to-W certificates accept for k = 2..5 with zero tolerance; the
    builder succeeds and verifies on I32, 50 random 3x3x3 tensors with all
    flattening ranks >= 2, and 10 random 2x2x2x2 tensors with no rank-one
    flattening (the order-4 inductive path)."""
    assert len(produced_certificates) == 4 + 1 + 50 + 10
    for n, cert in enumerate(produced_certificates):
        result = verify_certificate(cert)
        assert result.accepted, (n, result.condition, result.detail)
    print("CRITERION 5 PASS: certificates")


# -- criterion 6 ----------------------------------------------------------------


def test_criterion_6_partition_rank_gate_equivalence():
    """Over every nonzero F_2 tensor of shapes (2,2,2) and (2,2,2,2) the
    recursive gate must agree with the rank-signature oracle on all splits."""
    mismatches_3 = []
    for code, t in all_fp_tensors((2, 2, 2), 2):
        if t.is_zero():
            continue
        recursive = pr_at_least_two(t, seed=code)
        oracle = all(r >= 2 for _, r in rank_signature(t).items())
        if recursive != oracle:
            mismatches_3.append(code)
    assert not mismatches_3, f"order-3 mismatches: {mismatches_3}"

    mismatches_4 = []
    for code, t in all_fp_tensors((2, 2, 2, 2), 2):
        if t.is_zero():
            continue
        recursive = pr_at_least_two(t, seed=code)
        oracle = all(r >= 2 for _, r in rank_signature(t).items())
        if recursive != oracle:
            mismatches_4.append(code)
    assert not mismatches_4, (
        f"{len(mismatches_4)} order-4 mismatches (first ids {mismatches_4[:8]}).  "
        f"The recursive characterization of partition rank >= 2 is exact on a "
        f"grid of more than D = 2 * (2^(k-2) - 1) values per coordinate "
        f"(Combinatorial Nullstellensatz on the product of one nonvanishing "
        f"2x2 minor per split of an image element, a form of degree D), and "
        f"the gate rechecks every F_2 \"no\" over F_8 for k = 4.  A mismatch "
        f"is therefore a defect in the gate: a wrong rank over the extension, "
        f"a grid that skips values, or a missing recheck."
    )
    print("CRITERION 6 PASS: partition-rank gate equivalence")


# -- criterion 7 ----------------------------------------------------------------


def test_criterion_7_monotonicity(produced_certificates):
    """1000 seeded (tensor, map-tuple) pairs: componentwise flattening ranks
    never increase under restriction; every produced certificate has target
    signature dominated by its (compressed) source signature."""
    rng = random.Random(707)
    violations = 0
    for n in range(1000):
        order = 3 if n % 4 else 4
        dims = tuple(rng.randint(2, 4) for _ in range(order)) if order == 3 else (2, 2, 2, 2)
        t = random_rational_tensor(dims, rng, bound=3)
        maps = tuple(
            Matrix(
                QQ,
                rows,
                d,
                [QQ.from_int(rng.randint(-3, 3)) for _ in range(rows * d)],
            )
            for d, rows in ((d, rng.randint(1, d)) for d in dims)
        )
        restricted = restrict(t, maps)
        if not rank_signature(t).dominates(rank_signature(restricted)):
            violations += 1
    assert violations == 0

    for cert in produced_certificates:
        source_sig = rank_signature(cert.compressed_source())
        target_sig = rank_signature(cert.target)
        assert source_sig.dominates(target_sig)
    print("CRITERION 7 PASS: monotonicity and semicontinuity")


# -- criterion 8 ----------------------------------------------------------------


def test_criterion_8_stabilizers():
    """100 seeded zero-sum shears fix W_k exactly for k = 3..5; the assembled
    scaling curve obeys the eps^(k * weight) law on every basis tensor for
    k = 3, 4."""
    rng = random.Random(808)
    for k in (3, 4, 5):
        wk = w_tensor(k, (2,) * k, QQ)
        for _ in range(100):
            s = [rng.randint(-8, 8) for _ in range(k - 1)]
            s.append(-sum(s))
            shear = stab_shear([QQ.from_int(x) for x in s])
            assert restrict(wk, shear) == wk

    eps_field = EpsField(QQ)
    for k in (3, 4):
        curves = scaling_map_tuple(k, QQ)
        for idx in itertools.product((0, 1), repeat=k):
            basis = Tensor.from_dict(QQ, (2,) * k, {idx: 1})
            expanded = restrict(lift_tensor(basis, eps_field), curves)
            finite = [e.valuation() for e in expanded.entries if e]
            assert finite == [k * sum(idx)], (k, idx, finite)
    print("CRITERION 8 PASS: stabilizer suite")
