import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorgap import classify
from tensorgap.classify import (
    AsymptoticClass,
    ClassificationReport,
    Confidence,
    _coordinate_core,
    _det2,
    _pencil,
    _pencil_rank_one_points,
    Orbit222,
    TrichotomyClass,
    cayley_hyperdet,
    classify_222,
    gap_constant,
    multilinear_rank_le_2,
    trichotomy,
    unit_restriction_witness,
)
from tensorgap.cli import _report_json
from tensorgap.errors import (
    ClassificationInconsistencyError,
    DimensionMismatchError,
    SearchBudgetError,
    TensorGapError,
    ZeroTensorError,
)
from tensorgap.fields import GF, QQ
from tensorgap.linalg import Matrix, mat_det, mat_rank
from tensorgap.ratfunc import EpsField
from tensorgap.ranks import generic_compress, rank_signature
from tensorgap.tensors import (
    Tensor,
    compose_maps,
    flatten,
    lift_tensor,
    pad,
    restrict,
    unit_tensor,
    w_tensor,
)
from conftest import all_fp_tensors, random_rational_tensor

F2 = GF(2)


def _random_invertible(field, n, rng, bound=4):
    while True:
        if field.p is None:
            m = Matrix(field, n, n, [field.from_int(rng.randint(-bound, bound)) for _ in range(n * n)])
        else:
            m = Matrix(field, n, n, [field.from_int(rng.randrange(field.p)) for _ in range(n * n)])
        if mat_det(m):
            return m


def _random_injection(field, n, rng, bound=4):
    """A random n x 2 matrix of rank 2."""
    while True:
        if field.p is None:
            m = Matrix(field, n, 2, [field.from_int(rng.randint(-bound, bound)) for _ in range(2 * n)])
        else:
            m = Matrix(field, n, 2, [field.from_int(rng.randrange(field.p)) for _ in range(2 * n)])
        if mat_rank(m) == 2:
            return m


def test_cayley_values():
    assert cayley_hyperdet(unit_tensor(3, 2, QQ)).value == 1
    assert not cayley_hyperdet(w_tensor(3, (2, 2, 2), QQ))
    assert not cayley_hyperdet(Tensor.zeros(QQ, (2, 2, 2)))
    with pytest.raises(DimensionMismatchError):
        cayley_hyperdet(Tensor.zeros(QQ, (2, 2, 3)))
    over_eps = Tensor.zeros(EpsField(QQ), (2, 2, 2))
    for refused in (cayley_hyperdet, unit_restriction_witness):
        with pytest.raises(DimensionMismatchError, match="Q or F_q"):
            refused(over_eps)


# Reference: the 12 monomials of the degree-4 Cayley hyperdeterminant,
# (coefficient, entry indices), evaluated with boxed scalar arithmetic.
_CAYLEY_TERMS = (
    (1, ((0, 1, 1), (0, 1, 1), (1, 0, 0), (1, 0, 0))),
    (-2, ((0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1))),
    (1, ((0, 1, 0), (0, 1, 0), (1, 0, 1), (1, 0, 1))),
    (-2, ((0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0))),
    (-2, ((0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0))),
    (4, ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))),
    (1, ((0, 0, 1), (0, 0, 1), (1, 1, 0), (1, 1, 0))),
    (4, ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))),
    (-2, ((0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1))),
    (-2, ((0, 0, 0), (0, 1, 0), (1, 0, 1), (1, 1, 1))),
    (-2, ((0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1))),
    (1, ((0, 0, 0), (0, 0, 0), (1, 1, 1), (1, 1, 1))),
)


def _monomial_cayley(t):
    total = t.ring.zero()
    for coeff, idxs in _CAYLEY_TERMS:
        term = t.ring.from_int(coeff)
        for idx in idxs:
            term = term * t[idx]
        total = total + term
    return total


@pytest.mark.parametrize("p", [2, 3])
def test_cayley_matches_monomial_table_on_all_fp_tensors(p):
    for code, t in all_fp_tensors((2, 2, 2), p):
        assert cayley_hyperdet(t) == _monomial_cayley(t), (p, code)


def test_cayley_matches_monomial_table_on_seeded_tensors():
    rng = random.Random(20)
    for field in (GF(2, 2), GF(3, 2)):
        for _ in range(400):
            t = Tensor(field, (2, 2, 2), [field.element(rng.randrange(field.q)) for _ in range(8)])
            assert cayley_hyperdet(t) == _monomial_cayley(t), (field.name, t.entries)
    for _ in range(400):
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)]
        t = Tensor(QQ, (2, 2, 2), [QQ.from_fraction(v) for v in values])
        assert cayley_hyperdet(t) == _monomial_cayley(t), values


def test_cayley_equals_pencil_discriminant():
    # Independent oracle: Cay(T) equals the discriminant of the binary
    # quadratic det(l*X0 + m*X1) built from the first-factor slices.
    rng = random.Random(4242)
    for _ in range(200):
        t = random_rational_tensor((2, 2, 2), rng, bound=7)
        slices = flatten(t, [0])
        x0, x1 = (Matrix(QQ, 2, 2, slices.row(i)) for i in (0, 1))
        d0, d1 = mat_det(x0), mat_det(x1)
        ds = mat_det(Matrix(QQ, 2, 2, [a + b for a, b in zip(x0.entries, x1.entries)]))
        mixed = ds - d0 - d1
        assert cayley_hyperdet(t) == mixed * mixed - QQ.from_int(4) * d0 * d1


def test_classify_222_representatives():
    assert classify_222(Tensor.zeros(QQ, (2, 2, 2))) is Orbit222.ZERO
    e = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1})
    assert classify_222(e) is Orbit222.RANK_ONE
    c = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})
    assert classify_222(c) is Orbit222.PENCIL_1X2
    d = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1})
    assert classify_222(d) is Orbit222.PENCIL_2X1
    e2 = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1, (1, 1, 0): 1})
    assert classify_222(e2) is Orbit222.PENCIL_2X2_SPLIT
    assert classify_222(w_tensor(3, (2, 2, 2), QQ)) is Orbit222.W_CLASS
    assert classify_222(unit_tensor(3, 2, QQ)) is Orbit222.UNIT_CLASS


def test_classify_222_invariant_under_invertible_restrictions():
    rng = random.Random(11)
    for t in (w_tensor(3, (2, 2, 2), QQ), unit_tensor(3, 2, QQ)):
        label = classify_222(t)
        for _ in range(25):
            g = tuple(_random_invertible(QQ, 2, rng) for _ in range(3))
            assert classify_222(restrict(t, g)) is label
    # also over F_5 for a pencil representative
    f5 = GF(5)
    t = Tensor.from_dict(f5, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})
    for _ in range(25):
        g = tuple(_random_invertible(f5, 2, rng) for _ in range(3))
        assert classify_222(restrict(t, g)) is Orbit222.PENCIL_1X2


def test_f2_census_partition_counts():
    counts = {}
    for _, t in all_fp_tensors((2, 2, 2), 2):
        label = classify_222(t)
        counts[label] = counts.get(label, 0) + 1
    assert counts[Orbit222.ZERO] == 1
    assert counts[Orbit222.RANK_ONE] == 27
    assert counts[Orbit222.PENCIL_1X2] == 18
    assert counts[Orbit222.PENCIL_2X1] == 18
    assert counts[Orbit222.PENCIL_2X2_SPLIT] == 18
    assert counts[Orbit222.W_CLASS] == 54
    assert counts[Orbit222.UNIT_CLASS] == 120
    assert sum(counts.values()) == 256


def test_w_class_members_have_full_signature_and_zero_cayley():
    from tensorgap.tensors import flatten

    for _, t in all_fp_tensors((2, 2, 2), 2):
        if classify_222(t) is Orbit222.W_CLASS:
            assert not cayley_hyperdet(t)
            assert all(mat_rank(flatten(t, [a])) == 2 for a in range(3))


def test_multilinear_rank_gate():
    w3p = pad(w_tensor(3, (2, 2, 2), QQ), (3, 3, 3))
    assert multilinear_rank_le_2(w3p)
    assert not multilinear_rank_le_2(unit_tensor(3, 3, QQ))
    assert multilinear_rank_le_2(unit_tensor(3, 2, QQ))


def test_unit_restriction_witness_on_transformed_units():
    rng = random.Random(77)
    for _ in range(20):
        g = tuple(_random_invertible(QQ, 2, rng) for _ in range(3))
        t = restrict(unit_tensor(3, 2, QQ), g)
        maps = unit_restriction_witness(t)
        assert maps is not None
        assert restrict(t, maps) == unit_tensor(3, 2, QQ)


def test_unit_restriction_witness_with_singular_first_slice():
    # pencil root at (1 : 0): det of the first slice vanishes
    g = Matrix.from_rows(QQ, [[0, 1], [1, 1]])
    ident = Matrix.identity(QQ, 2)
    t = restrict(unit_tensor(3, 2, QQ), (g, ident, ident))
    assert not mat_det(Matrix(QQ, 2, 2, flatten(t, [0]).row(0)))
    maps = unit_restriction_witness(t)
    assert maps is not None
    assert restrict(t, maps) == unit_tensor(3, 2, QQ)


def test_unit_restriction_witness_over_f3():
    f3 = GF(3)
    rng = random.Random(13)
    found = 0
    while found < 5:
        g = tuple(_random_invertible(f3, 2, rng) for _ in range(3))
        t = restrict(unit_tensor(3, 2, f3), g)
        maps = unit_restriction_witness(t)
        assert maps is not None
        assert restrict(t, maps) == unit_tensor(3, 2, f3)
        found += 1


def test_trichotomy_flags_twisted_form_over_f2():
    t = Tensor.from_dict(
        F2, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    )
    report = trichotomy(t, seed=3)
    assert report.trichotomy is TrichotomyClass.RESTRICTS_TO_UNIT2
    assert report.unit_witness is None
    assert "closure" in report.unit_witness_note


def test_unit_restriction_witness_twisted_form_over_f2():
    # slices I and [[0,1],[1,1]]: the determinant pencil is irreducible over
    # F_2, so the tensor is a twisted unit form without a rational witness.
    t = Tensor.from_dict(
        F2, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    )
    assert classify_222(t) is Orbit222.UNIT_CLASS
    assert unit_restriction_witness(t) is None


def test_unit_restriction_witness_twisted_form_over_f4():
    # The same twisted form: over F_4 its determinant pencil splits, and the
    # pencil roots are found among all four field elements.
    f4 = GF(2, 2)
    t = Tensor.from_dict(
        F2, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 1}
    )
    lifted = lift_tensor(t, f4)
    assert classify_222(lifted) is Orbit222.UNIT_CLASS
    maps = unit_restriction_witness(lifted)
    assert maps is not None
    assert all(mat_det(g) for g in maps)
    assert restrict(lifted, maps) == unit_tensor(3, 2, f4)


def _enumerated_pencil_points(field, a0, a1):
    """Reference: every element u of F_q tried as (1 : u) in code order, then (0 : 1)."""
    add, mul = field.add, field.mul
    det0, det1 = _det2(field, a0), _det2(field, a1)
    mixed = field.sub(field.sub(_det2(field, [add(x, y) for x, y in zip(a0, a1)]), det0), det1)
    points = [
        (1, u) for u in range(field.q) if not add(add(det0, mul(mixed, u)), mul(det1, mul(u, u)))
    ]
    return points if det1 else points + [(0, 1)]


def test_pencil_points_match_enumeration():
    rng = random.Random(29)
    for field in (GF(3), GF(5), GF(7), GF(3, 2), GF(5, 2)):
        for _ in range(500):
            a0 = [rng.randrange(field.q) for _ in range(4)]
            a1 = [rng.randrange(field.q) for _ in range(4)]
            expected = _enumerated_pencil_points(field, a0, a1)
            pencil = _pencil(field, a0 + a1)
            if len(expected) == field.q + 1:  # the determinant vanishes identically
                with pytest.raises(ValueError):
                    _pencil_rank_one_points(field, pencil)
            else:
                assert _pencil_rank_one_points(field, pencil) == expected, (field.name, a0, a1)


@pytest.mark.parametrize("p", [2**61 - 1, 998244353])
def test_unit_restriction_witness_over_large_primes(p):
    # square roots, not enumeration: 998244353 - 1 has 2-adic order 23
    field = GF(p)
    g = Matrix.from_rows(field, [[1, 2], [3, 5]])
    t = restrict(unit_tensor(3, 2, field), (g, g, g))
    start = time.perf_counter()
    maps = unit_restriction_witness(t)
    assert time.perf_counter() - start < 1.0
    assert maps is not None
    assert restrict(t, maps) == unit_tensor(3, 2, field)


def test_trichotomy_examples():
    w3p = pad(w_tensor(3, (2, 2, 2), QQ), (5, 4, 3))
    report = trichotomy(w3p, seed=3)
    assert report.trichotomy is TrichotomyClass.W_ISOMORPHIC
    assert report.asymptotic_class is AsymptoticClass.C3
    assert abs(report.constant.decimal - 1.88988) < 1e-5
    assert report.confidence.kind == "randomized" and report.confidence.trials == 8
    assert len(report.cayley_samples) == 8
    assert all(not v for _, v in report.cayley_samples)

    i32p = pad(unit_tensor(3, 2, QQ), (5, 4, 3))
    report = trichotomy(i32p, seed=5)
    assert report.trichotomy is TrichotomyClass.RESTRICTS_TO_UNIT2
    assert report.unit_witness is not None
    assert restrict(i32p, report.unit_witness) == unit_tensor(3, 2, QQ)
    assert report.confidence.kind == "deterministic"

    rank_one = Tensor.from_dict(QQ, (3, 3, 3), {(0, 0, 0): 1, (0, 1, 1): 1, (0, 2, 2): 1})
    report = trichotomy(rank_one, seed=7)
    assert report.trichotomy is TrichotomyClass.FLATTENING_RANK_ONE
    assert report.rank_one_witness == frozenset([0])


def test_trichotomy_rejects_zero():
    with pytest.raises(ZeroTensorError):
        trichotomy(Tensor.zeros(QQ, (2, 2, 2)), seed=1)


def test_gap_class_mapping():
    w3 = w_tensor(3, (2, 2, 2), QQ)
    report = trichotomy(w3, seed=1)
    assert report.asymptotic_class is AsymptoticClass.C3
    assert abs(report.constant.decimal - 1.8898815748) < 1e-9
    report = trichotomy(unit_tensor(3, 2, QQ), seed=1)
    assert report.asymptotic_class is AsymptoticClass.AT_LEAST_TWO
    assert report.constant.lower_bound_only
    rank_one = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1})
    report = trichotomy(rank_one, seed=1)
    assert report.asymptotic_class is AsymptoticClass.ONE and report.constant.decimal == 1.0


def test_gap_constant_values():
    assert gap_constant(2)[1] == 2.0
    assert abs(gap_constant(3)[1] - 1.88988) < 1e-5
    assert abs(gap_constant(4)[1] - 1.75477) < 1e-5
    assert abs(gap_constant(5)[1] - 1.64938) < 1e-5
    with pytest.raises(ValueError):
        gap_constant(1)


def test_gap_constant_refuses_k_past_the_float_range():
    # both closed forms are floats, so a k past the largest float is a usage error
    assert gap_constant(2**1023)[1] == 1.0
    for k in (2**1024 - 1, 10**400):
        with pytest.raises(ValueError, match="largest float"):
            gap_constant(k)


def test_gap_constant_monotone_decreasing():
    values = [gap_constant(k)[1] for k in range(2, 65)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v > 1 for v in values)
    assert values[1] < 2  # c_3 sits strictly inside the (1, 2) gap


# -- the W verdict from the coordinate core ------------------------------------


def _reference_trichotomy(t, seed):
    """Every verdict past the rank-one gate from 8 seeded compressions to
    2x2x2, the W verdict when all their hyperdeterminants vanish."""
    signature = rank_signature(t)
    if any(r <= 1 for r in signature.ranks.values()):
        return ClassificationReport(TrichotomyClass.FLATTENING_RANK_ONE, signature, ())
    samples = []
    rng = random.Random(seed)
    for _ in range(8):
        trial_seed = rng.randrange(2**63)
        maps, compressed = generic_compress(t, trial_seed)
        cay = cayley_hyperdet(compressed)
        samples.append((trial_seed, cay))
        if cay:
            cube_maps = unit_restriction_witness(compressed)
            witness = None if cube_maps is None else compose_maps(cube_maps, maps)
            return ClassificationReport(
                TrichotomyClass.RESTRICTS_TO_UNIT2, signature, tuple(samples), witness
            )
    if not multilinear_rank_le_2(t):
        raise ClassificationInconsistencyError("all samples vanished at multilinear rank 3")
    return ClassificationReport(TrichotomyClass.W_ISOMORPHIC, signature, tuple(samples))


def _planted_order3_cases():
    """W_3 and I_{3,2} over Q, F_3 and F_5 embedded by random injections into
    dims 2..4, each also with a random rank-one term added (multilinear rank 3
    on every axis of dimension above 2, generically)."""
    rng = random.Random(1919)
    for field in (QQ, GF(3), GF(5)):
        draw = (lambda: rng.randint(-3, 3)) if field.p is None else (lambda: rng.randrange(field.p))
        for base in (w_tensor(3, (2, 2, 2), field), unit_tensor(3, 2, field)):
            for _ in range(6):
                dims = tuple(rng.randint(2, 4) for _ in range(3))
                t = restrict(base, tuple(_random_injection(field, d, rng) for d in dims))
                u, v, w = ([draw() for _ in range(d)] for d in dims)
                term = Tensor(field, dims, [field.from_int(a * b * c) for a in u for b in v for c in w])
                yield t
                if not (t + term).is_zero():
                    yield t + term


def test_trichotomy_matches_reference_trial_loop():
    seen = {}
    rng = random.Random(77)
    for t in _planted_order3_cases():
        for seed in (0, *(rng.randrange(2**31) for _ in range(3))):
            try:
                expected = _reference_trichotomy(t, seed)
            except TensorGapError:
                continue
            got = trichotomy(t, seed=seed)
            assert json.dumps(_report_json(got)) == json.dumps(_report_json(expected)), (
                t.ring.name, t.dims, seed,
            )
            le2 = multilinear_rank_le_2(t)
            seen[got.trichotomy, le2] = seen.get((got.trichotomy, le2), 0) + 1
    assert seen[TrichotomyClass.W_ISOMORPHIC, True] >= 50
    assert seen[TrichotomyClass.RESTRICTS_TO_UNIT2, True] >= 50
    assert seen[TrichotomyClass.RESTRICTS_TO_UNIT2, False] >= 50


def test_w_verdict_computes_no_compression(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("generic_compress was called")

    monkeypatch.setattr(classify, "generic_compress", refuse)
    rng = random.Random(5)
    w3 = w_tensor(3, (2, 2, 2), QQ)
    planted = restrict(w3, tuple(_random_injection(QQ, d, rng) for d in (4, 3, 4)))
    for t, seed in ((pad(w3, (5, 4, 3)), 3), (planted, 11)):
        report = trichotomy(t, seed=seed)
        assert report.trichotomy is TrichotomyClass.W_ISOMORPHIC
        assert report.confidence == Confidence.randomized(8)
        draws = random.Random(seed)
        assert report.cayley_samples == tuple((draws.randrange(2**63), QQ.zero()) for _ in range(8))


@pytest.mark.parametrize("tensor_id", [1044, 1758, 8226])
def test_w_verdict_where_f2_compression_runs_out(tensor_id):
    # F_2 2x3x3, flat entry i = bit i of the id: at seed 0 a compression
    # exhausts its attempts, so the trial loop raised before a W verdict.
    t = Tensor(F2, (2, 3, 3), [F2.from_int((tensor_id >> i) & 1) for i in range(18)])
    with pytest.raises(SearchBudgetError):
        _reference_trichotomy(t, 0)
    assert multilinear_rank_le_2(t)
    assert classify_222(_coordinate_core(t)[1]) is Orbit222.W_CLASS
    assert trichotomy(t, seed=0).trichotomy is TrichotomyClass.W_ISOMORPHIC


@st.composite
def _rank_two_tensors(draw):
    """A 2x2x2 tensor of flattening ranks (2, 2, 2) over Q or F_3, embedded
    by random injections into dims 2..4, and a compression seed."""
    field = draw(st.sampled_from([QQ, GF(3)]))
    values = st.integers(-3, 3) if field.p is None else st.integers(0, 2)
    core = Tensor(field, (2, 2, 2), [field.from_int(draw(values)) for _ in range(8)])
    assume(all(r == 2 for r in rank_signature(core).ranks.values()))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dims = [draw(st.integers(2, 4)) for _ in range(3)]
    maps = tuple(_random_injection(field, d, rng) for d in dims)
    return restrict(core, maps), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None)
@given(_rank_two_tensors())
def test_coordinate_core_is_isomorphic(case):
    t, seed = case
    coords, core = _coordinate_core(t)
    for a, (i, j) in enumerate(coords):
        m = flatten(t, [a])
        assert mat_rank(Matrix._from_raw(t.ring, 2, m.cols, m.row(i) + m.row(j))) == 2
    assert all(r == 2 for r in rank_signature(core).ranks.values())
    _, compressed = generic_compress(t, seed)
    assert bool(cayley_hyperdet(core)) == bool(cayley_hyperdet(compressed))
