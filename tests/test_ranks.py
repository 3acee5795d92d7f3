import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorgap import census, ranks
from tensorgap.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    SearchSpaceTooLargeError,
    ZeroTensorError,
)
from tensorgap.fields import GF, QQ
from tensorgap.linalg import Matrix, _echelon, mat_rank
from tensorgap.ranks import (
    canonical_subsets,
    generic_compress,
    has_rank_one_flattening,
    pr_at_least_two,
    rank_signature,
    restricts_to_bruteforce,
    subrank_bruteforce,
)
from tensorgap.ratfunc import EpsField
from tensorgap.tensors import (
    Tensor,
    _strides,
    as_matrix,
    flatten,
    identity_maps,
    kronecker,
    lift_tensor,
    pad,
    restrict,
    unit_tensor,
    w_tensor,
)
from conftest import all_fp_tensors, random_rational_tensor

F2 = GF(2)


def test_canonical_subset_counts():
    for k in (2, 3, 4, 5):
        assert len(canonical_subsets(k)) == 2 ** (k - 1) - 1


def test_rank_signature_examples():
    w3 = w_tensor(3, (2, 2, 2), QQ)
    assert [r for _, r in rank_signature(w3).items()] == [2, 2, 2]
    i32 = unit_tensor(3, 2, QQ)
    assert [r for _, r in rank_signature(i32).items()] == [2, 2, 2]
    rank_one = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1})
    assert [r for _, r in rank_signature(rank_one).items()] == [1, 1, 1]


def test_rank_signature_lookup_uses_complement():
    t = random_rational_tensor((2, 2, 2, 2), random.Random(5))
    sig = rank_signature(t)
    assert sig.rank([0]) == sig.rank([1, 2, 3])
    assert sig.rank([0, 1]) == sig.rank([2, 3])


def test_has_rank_one_flattening_examples():
    t = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})
    assert has_rank_one_flattening(t) == frozenset([0])
    assert has_rank_one_flattening(w_tensor(3, (2, 2, 2), QQ)) is None
    m = Tensor.from_dict(QQ, (2, 3), {(0, 1): 1})
    assert has_rank_one_flattening(m) == frozenset([0])
    with pytest.raises(ZeroTensorError):
        has_rank_one_flattening(Tensor.zeros(QQ, (2, 2)))
    # K(eps) has no field division: refused like rank_signature's mat_rank,
    # rank-one input included
    with pytest.raises(FieldMismatchError, match="works over Q or a finite field"):
        has_rank_one_flattening(lift_tensor(t, EpsField(QQ)))


@st.composite
def _gate_tensors(draw):
    """Tensors of order 1 to 5 over Q (fractional entries), F_2, F_3 and F_4:
    dense, sparse, or planted u (x) M across a random split of the axes."""
    field = draw(st.sampled_from([QQ, F2, GF(3), GF(2, 2)]))
    if field.p is None:
        value = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3]))
    else:
        value = st.integers(0, field.q - 1).map(lambda code: field.element(code).value)
    order = draw(st.integers(1, 5))
    dims = tuple(draw(st.integers(1, 3 if order <= 3 else 2)) for _ in range(order))
    kind = draw(st.sampled_from(["dense", "sparse", "planted"]))
    size = math.prod(dims)
    if kind == "dense":
        entries = draw(st.lists(value, min_size=size, max_size=size))
    elif kind == "sparse":
        support = draw(st.dictionaries(st.integers(0, size - 1), value, max_size=3))
        entries = [support.get(f, field._raw(0)) for f in range(size)]
    else:
        axes = draw(st.sets(st.integers(0, order - 1), min_size=1, max_size=max(1, order - 1)))
        rest = [a for a in range(order) if a not in axes]
        u, m = (
            draw(st.lists(value, min_size=n, max_size=n))
            for n in (math.prod(dims[a] for a in axes), math.prod(dims[a] for a in rest))
        )
        entries = []
        for idx in itertools.product(*(range(d) for d in dims)):
            i = j = 0
            for a in range(order):
                if a in axes:
                    i = i * dims[a] + idx[a]
                else:
                    j = j * dims[a] + idx[a]
            entries.append(field.mul(u[i], m[j]) if rest else u[i])
    return Tensor._from_raw(field, dims, entries)


@settings(max_examples=300, deadline=None)
@given(_gate_tensors())
def test_rank_one_gate_matches_exact_flattening_ranks(t):
    # The gate's proportionality test against elimination: the first
    # canonical subset whose flattening has exact rank <= 1, or None.
    if t.is_zero():
        with pytest.raises(ZeroTensorError):
            has_rank_one_flattening(t)
    elif t.order == 1:
        with pytest.raises(DimensionMismatchError):
            has_rank_one_flattening(t)
    else:
        ranks_ = rank_signature(t).ranks
        expected = next((axes for axes in canonical_subsets(t.order) if ranks_[axes] <= 1), None)
        assert has_rank_one_flattening(t) == expected


def test_pr_at_least_two_examples():
    assert pr_at_least_two(w_tensor(3, (2, 2, 2), QQ), seed=1)
    assert pr_at_least_two(w_tensor(4, (2, 2, 2, 2), QQ), seed=1)
    assert pr_at_least_two(unit_tensor(3, 2, QQ), seed=1)
    # rank-one middle flattening: e1 x e1 x e1 + e2 x e1 x e2
    t = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1})
    assert not pr_at_least_two(t, seed=1)
    assert not pr_at_least_two(Tensor.zeros(QQ, (2, 2, 2)), seed=1)
    # order 2 is plain matrix rank
    assert pr_at_least_two(unit_tensor(2, 2, QQ), seed=1)
    assert not pr_at_least_two(Tensor.from_dict(QQ, (2, 2), {(0, 0): 1}), seed=1)


def _axis_last(t, axis):
    return t.permute_axes([a for a in range(t.order) if a != axis] + [axis])


def test_pr_gate_axis_choice_immaterial_f2_order3():
    for _, t in all_fp_tensors((2, 2, 2), 2):
        if t.is_zero():
            continue
        results = {pr_at_least_two(_axis_last(t, a), seed=3) for a in range(3)}
        assert len(results) == 1


def test_pr_gate_axis_choice_immaterial_rational():
    rng = random.Random(7)
    for _ in range(25):
        t = random_rational_tensor((2, 2, 2), rng, bound=2)
        if t.is_zero():
            continue
        results = {pr_at_least_two(_axis_last(t, a), seed=11) for a in range(3)}
        assert len(results) == 1


def test_pr_gate_matches_signature_gate_over_q():
    rng = random.Random(99)
    for _ in range(40):
        t = random_rational_tensor((2, 2, 2), rng, bound=3)
        if t.is_zero():
            continue
        assert pr_at_least_two(t, seed=5) == (has_rank_one_flattening(t) is None)


def test_pr_gate_exhaustive_f2_order3():
    for _, t in all_fp_tensors((2, 2, 2), 2):
        if t.is_zero():
            continue
        assert pr_at_least_two(t, seed=1) == (has_rank_one_flattening(t) is None)


def test_pr_gate_exhaustive_f3_order3():
    # q = 3 > D = 2: the grid is the whole field and no "no" is lifted
    for _, t in all_fp_tensors((2, 2, 2), 3):
        if t.is_zero():
            continue
        assert pr_at_least_two(t) == (has_rank_one_flattening(t) is None)


def _planted_rank_one_flattening(field, dims, rng):
    """u (x) v across a random split of the axes: some flattening has rank <= 1."""
    order = len(dims)
    axes = rng.sample(range(order), rng.randrange(1, order))
    u = {idx: rng.randrange(field.p) for idx in itertools.product(*(range(dims[a]) for a in axes))}
    rest = [a for a in range(order) if a not in axes]
    v = {idx: rng.randrange(field.p) for idx in itertools.product(*(range(dims[a]) for a in rest))}
    entries = {}
    for idx in itertools.product(*(range(d) for d in dims)):
        value = u[tuple(idx[a] for a in axes)] * v[tuple(idx[a] for a in rest)] % field.p
        if value:
            entries[idx] = value
    return Tensor.from_dict(field, dims, entries)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("dims", [(3, 3, 3), (4, 4, 4), (2, 2, 2, 2)])
def test_pr_gate_matches_signature_gate_seeded_fp(monkeypatch, p, dims):
    # F_5 lifts an order-4 "no" to F_25; F_7 > D = 6 decides it on the ground
    field = GF(p)
    rng = random.Random(p * 100 + len(dims) * 10 + dims[0])
    size = math.prod(dims)
    cases = []
    for _ in range(4):
        cases.append(Tensor(field, dims, [field.from_int(rng.randrange(p)) for _ in range(size)]))
        no = _planted_rank_one_flattening(field, dims, rng)
        cases.append(no)
        cases.append(no + _planted_rank_one_flattening(field, dims, rng))
    cases = [t for t in cases if not t.is_zero()]
    expected = [has_rank_one_flattening(t) is None for t in cases]
    assert True in expected and False in expected
    lifts = _gate_without_oracle(monkeypatch)
    assert [pr_at_least_two(t) for t in cases] == expected
    assert bool(lifts) == (p == 5 and len(dims) == 4)


def _order4_f2(entries):
    return Tensor.from_dict(F2, (2, 2, 2, 2), {idx: 1 for idx in entries})


def _gate_without_oracle(monkeypatch):
    """Count lifts, and fail if the gate consults the signature oracle."""
    import tensorgap.ranks as ranks

    lifts = []
    real_lift = ranks.lift_tensor

    def counting_lift(t, ring):
        lifts.append(ring)
        return real_lift(t, ring)

    def oracle(*args, **kwargs):
        raise AssertionError("the partition-rank gate consulted the signature oracle")

    monkeypatch.setattr(ranks, "lift_tensor", counting_lift)
    monkeypatch.setattr(ranks, "rank_signature", oracle)
    monkeypatch.setattr(ranks, "has_rank_one_flattening", oracle)
    return lifts


def _count_combines(monkeypatch, limit=None):
    """Record the field of each image point the gate builds; past `limit`
    points, fail."""
    import tensorgap.ranks as ranks

    fields = []
    real_combine = ranks._combine_slices

    def counting_combine(ring, basis, coeffs):
        fields.append(ring)
        if limit is not None and len(fields) > limit:
            raise AssertionError(f"the partition-rank gate built more than {limit} image points")
        return real_combine(ring, basis, coeffs)

    monkeypatch.setattr(ranks, "_combine_slices", counting_combine)
    return fields


def test_pr_gate_true_no_reaches_f8_lift_and_stays_no(monkeypatch):
    # e_0 (x) W_3: the axis-0 flattening has rank one, so pR = 1, but the last
    # flattening has rank 2, so the F_2 pass enumerates and the "no" is
    # rechecked over F_8.
    t = _order4_f2([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert has_rank_one_flattening(t) == frozenset([0])
    lifts = _gate_without_oracle(monkeypatch)
    combines = _count_combines(monkeypatch)
    assert pr_at_least_two(t, seed=0) is False
    assert lifts == [GF(2, 3)]
    # F_8 pass: 7 chart points (1, g) and the point (0, 1) at order 4, then the
    # 4 points (1, g), (0, 1), g < 3, below each of the 7 chart points (the
    # slice at (0, 1) has a rank-one last flattening and stops there).
    assert combines.count(GF(2, 3)) == 8 + 7 * 4


def test_pr_gate_finds_f8_witness_for_criterion_6_tensor(monkeypatch):
    # Entries (0,0,1,0), (0,0,1,1), (0,1,0,1), (1,0,0,0): every flattening
    # has rank >= 2, yet every F_2-rational point of the last slice image has
    # partition rank one; the F_8 pass finds a witness.
    t = _order4_f2([(0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 0)])
    assert all(r >= 2 for _, r in rank_signature(t).items())
    lifts = _gate_without_oracle(monkeypatch)
    assert pr_at_least_two(t, seed=300) is True
    assert lifts == [GF(2, 3)]


def test_pr_gate_yes_over_ground_field_needs_no_lift(monkeypatch):
    lifts = _gate_without_oracle(monkeypatch)
    assert pr_at_least_two(w_tensor(4, (2, 2, 2, 2), F2), seed=1)
    assert pr_at_least_two(unit_tensor(3, 2, GF(3)), seed=1)
    assert lifts == []


def test_pr_gate_no_over_large_prime_has_bounded_cost(monkeypatch):
    # e_0 (x) I_3 over F_1009: the axis-0 flattening has rank one, the last
    # has rank 3.  The grid is 0, 1, 2 per coordinate whatever q is, so the
    # "no" costs 9 + 3 + 1 points of P^2, not all of P^2(F_1009).
    f = GF(1009)
    t = Tensor.from_dict(f, (3, 3, 3), {(0, i, i): 1 for i in range(3)})
    assert has_rank_one_flattening(t) == frozenset([0])
    assert rank_signature(t).rank([2]) == 3
    combines = _count_combines(monkeypatch, limit=100)
    assert pr_at_least_two(t) is False
    assert len(combines) <= 13


@pytest.mark.parametrize(
    "no, yes",
    [
        # over Q, where the image used to be sampled
        (
            Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 1}),
            w_tensor(3, (2, 2, 2), QQ),
        ),
        # over F_5 with a slice image of dimension 4
        (
            Tensor.from_dict(GF(5), (2, 4, 4), {(0, i, i): i + 1 for i in range(4)}),
            unit_tensor(3, 4, GF(5)),
        ),
    ],
    ids=["Q", "F5-dim4"],
)
def test_pr_gate_never_consults_oracle(monkeypatch, no, yes):
    assert has_rank_one_flattening(no) is not None
    assert has_rank_one_flattening(yes) is None
    assert rank_signature(no).rank([2]) == rank_signature(yes).rank([2])
    lifts = _gate_without_oracle(monkeypatch)
    assert pr_at_least_two(no) is False
    assert pr_at_least_two(yes) is True
    assert lifts == []


def test_pr_gate_witness_field_sizes():
    from tensorgap.ranks import _witness_field

    assert _witness_field(F2, 3) == GF(2, 2)
    assert _witness_field(F2, 4) == GF(2, 3)
    assert _witness_field(GF(3), 4) == GF(3, 2)
    assert _witness_field(GF(3), 3) is None
    assert _witness_field(GF(7), 4) is None
    assert _witness_field(QQ, 5) is None
    assert _witness_field(F2, 2) is None
    # order 18 needs more than 2^16 elements, past the largest extension field
    with pytest.raises(SearchSpaceTooLargeError, match="order 18"):
        _witness_field(F2, 18)
    # over F_4 an order-4 "yes" stands, but a "no" is not rechecked further
    f4 = GF(2, 2)
    assert _witness_field(f4, 3) is None
    assert pr_at_least_two(lift_tensor(w_tensor(4, (2, 2, 2, 2), F2), f4), seed=1)
    e1_w3 = _order4_f2([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(FieldMismatchError):
        pr_at_least_two(lift_tensor(e1_w3, f4), seed=1)


# -- reference: the gate as a recursion over Tensor and Matrix objects ---------


def _reference_gate(t, axis, visits):
    """pr_at_least_two as a recursion that flattens each image point and
    multiplies slice matrices, appending (field, coefficients) per point."""
    if t.is_zero():
        return False
    if _reference_recurse(t, axis, visits):
        return True
    big = ranks._witness_field(t.ring, t.order)
    return big is not None and _reference_recurse(lift_tensor(t, big), axis, visits)


def _reference_recurse(t, axis, visits):
    if t.order == 2:
        return mat_rank(as_matrix(t)) >= 2
    p_axis = t.order - 1 if axis is None else axis
    m = flatten(t, [p_axis])
    pivots, _ = _echelon(t.ring, m.transpose().to_rows(), m.rows)
    basis = Matrix._from_raw(t.ring, len(pivots), m.cols, [e for i in pivots for e in m.row(i)])
    if basis.rows < 2:
        return False
    slice_dims = t.dims[:p_axis] + t.dims[p_axis + 1 :]
    n = ranks._witness_degree(t.order) + 1
    if t.ring.p is not None:
        n = min(n, t.ring.q)
    for coeffs in ranks._projective_points(n, basis.rows):
        if t.ring.p is None:
            coeffs = [Fraction(c) for c in coeffs]
        visits.append((t.ring, tuple(coeffs)))
        row = Matrix._from_raw(t.ring, 1, basis.rows, coeffs)
        image = Tensor._from_raw(t.ring, slice_dims, (row * basis).entries)
        if _reference_recurse(image, None, visits):
            return True
    return False


def _oracle_inputs():
    """Nonzero F_3 2x2x2 tensors, F_2 order-4 tensors (F_8 rechecks among
    them), and seeded Q and F_5 tensors, with and without a planted rank-one
    flattening."""
    cases = [t for _, t in all_fp_tensors((2, 2, 2), 3) if not t.is_zero()]
    cases += [
        _order4_f2([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]),
        _order4_f2([(0, 0, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 0)]),
        w_tensor(4, (2, 2, 2, 2), F2),
    ]
    rng = random.Random(16)
    for code in rng.sample(range(1, 2**16), 48):
        cases.append(Tensor(F2, (2, 2, 2, 2), [code >> i & 1 for i in range(16)]))
    f5 = GF(5)
    for dims in [(2, 3, 2), (3, 2, 2, 2), (2, 4, 4)]:
        for _ in range(3):
            cases.append(random_rational_tensor(dims, rng, bound=3))
            cases.append(Tensor(f5, dims, [rng.randrange(5) for _ in range(math.prod(dims))]))
            planted = _planted_rank_one_flattening(f5, dims, rng)
            cases.append(planted)
            cases.append(planted + _planted_rank_one_flattening(f5, dims, rng))
            cases.append(Tensor(QQ, dims, planted.entries))
    return [t for t in cases if not t.is_zero()]


def test_pr_gate_matches_tensor_matrix_reference(monkeypatch):
    visits = []
    real_combine = ranks._combine_slices

    def recording_combine(ring, basis, coeffs):
        visits.append((ring, tuple(coeffs)))
        return real_combine(ring, basis, coeffs)

    monkeypatch.setattr(ranks, "_combine_slices", recording_combine)
    answers = set()
    lifted = 0
    for t in _oracle_inputs():
        for axis in (None, *range(t.order)):
            visits.clear()
            answer = pr_at_least_two(t if axis is None else _axis_last(t, axis))
            expected = []
            assert answer == _reference_gate(t, axis, expected), (t, axis)
            assert visits == expected, (t, axis)
            answers.add(answer)
            lifted += any(ring is not t.ring for ring, _ in visits)
    assert answers == {True, False} and lifted > 0


def test_generic_compress_w3_padded():
    from tensorgap.classify import Orbit222, classify_222

    t = pad(w_tensor(3, (2, 2, 2), QQ), (4, 4, 4))
    maps, compressed = generic_compress(t, seed=21)
    assert compressed.dims == (2, 2, 2)
    assert classify_222(compressed) is Orbit222.W_CLASS
    assert restrict(t, maps) == compressed


def test_generic_compress_unit_padded_has_nonzero_cayley():
    from tensorgap.classify import cayley_hyperdet

    t = pad(unit_tensor(3, 2, QQ), (3, 3, 3))
    _, compressed = generic_compress(t, seed=22)
    assert cayley_hyperdet(compressed)


def test_generic_compress_identity_on_cube():
    w4 = w_tensor(4, (2, 2, 2, 2), QQ)
    maps, compressed = generic_compress(w4, seed=1)
    assert compressed == w4
    assert maps == identity_maps(w4)


def test_generic_compress_rejects_low_rank_cube():
    t = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1})
    with pytest.raises(ValueError):
        generic_compress(t, seed=1)


def test_generic_compress_budget_error_reports_attempts(monkeypatch):
    from tensorgap.errors import SearchBudgetError

    t = pad(w_tensor(3, (2, 2, 2), QQ), (3, 3, 3))
    monkeypatch.setattr(ranks, "DEFAULT_COMPRESS_BUDGET", 0)
    with pytest.raises(SearchBudgetError) as info:
        generic_compress(t, seed=1)
    assert info.value.attempts == 0


def test_generic_compress_doubles_bound_after_eight_failures(monkeypatch):
    # Over Q the sampling bound starts at 8 and doubles after every 8 failed draws.
    draws = []
    real_restrict, real_gate = ranks.restrict, ranks.has_rank_one_flattening

    def recording_restrict(t, maps):
        draws.append([x for m in maps for x in m.entries])
        return real_restrict(t, maps)

    def refuse_first_eight(t):
        return frozenset([0]) if len(draws) <= 8 else real_gate(t)

    monkeypatch.setattr(ranks, "restrict", recording_restrict)
    monkeypatch.setattr(ranks, "has_rank_one_flattening", refuse_first_eight)
    generic_compress(pad(w_tensor(3, (2, 2, 2), QQ), (4, 3, 3)), seed=0)
    assert len(draws) == 9
    assert all(-8 <= x <= 8 for draw in draws[:8] for x in draw)
    assert all(-16 <= x <= 16 for x in draws[8])
    assert any(abs(x) > 8 for x in draws[8])


def test_subrank_bruteforce_examples():
    i32 = unit_tensor(3, 2, F2)
    assert subrank_bruteforce(i32, 2)
    assert not subrank_bruteforce(w_tensor(3, (2, 2, 2), F2), 2)
    assert subrank_bruteforce(w_tensor(3, (2, 2, 2), F2), 1)
    assert not subrank_bruteforce(Tensor.zeros(F2, (2, 2, 2)), 1)
    # r beyond the minimal dimension is impossible
    assert not subrank_bruteforce(i32, 3)


def test_subrank_bruteforce_monotone_in_r():
    i32_f3 = unit_tensor(3, 2, GF(3))
    assert subrank_bruteforce(i32_f3, 2)
    assert subrank_bruteforce(i32_f3, 1)
    i33 = unit_tensor(3, 3, F2)
    assert subrank_bruteforce(i33, 3)
    assert subrank_bruteforce(i33, 2)


def test_subrank_search_space_guard():
    big = unit_tensor(3, 4, F2)
    with pytest.raises(SearchSpaceTooLargeError):  # 2730^3 ordered triples > 2^30
        subrank_bruteforce(big, 3)


def test_subrank_ceiling_counts_searched_tuples():
    # p^(sum m_j n_j) = 3^21 exceeds the ceiling, but the first factor has
    # only two nonzero covectors, so no triple of them exists to search.
    f3 = GF(3)
    rng = random.Random(7)
    for _ in range(5):
        t = Tensor(f3, (1, 2, 2, 2), [f3.from_int(rng.randrange(3)) for _ in range(8)])
        assert subrank_bruteforce(t, 3) is False
    assert subrank_bruteforce(unit_tensor(3, 2, f3), 2, ceiling=56**3)
    with pytest.raises(SearchSpaceTooLargeError):
        subrank_bruteforce(unit_tensor(3, 2, f3), 2, ceiling=56**3 - 1)


def test_subrank_supermultiplicative_spot_checks():
    i32 = unit_tensor(3, 2, F2)
    w3 = w_tensor(3, (2, 2, 2), F2)
    one = unit_tensor(3, 1, F2)
    # Q(I x 1) >= Q(I) * Q(1) = 2
    assert subrank_bruteforce(kronecker(i32, one), 2)
    # Q(I32 x W3) >= 2 * 1 = 2  (4x4x4, within the ceiling)
    assert subrank_bruteforce(kronecker(i32, w3), 2)
    # Q(W3 x W3) >= 1
    assert subrank_bruteforce(kronecker(w3, w3), 1)


def test_restricts_to_bruteforce_examples():
    i32 = unit_tensor(3, 2, F2)
    w3 = w_tensor(3, (2, 2, 2), F2)
    assert restricts_to_bruteforce(i32, w3) is None
    zero = Tensor.zeros(F2, (2, 2, 2))
    maps = restricts_to_bruteforce(w3, zero)
    assert maps is not None and restrict(w3, maps) == zero
    corner = Tensor.from_dict(F2, (2, 2, 2), {(0, 0, 0): 1})
    maps = restricts_to_bruteforce(w3, corner)
    assert maps is not None
    assert restrict(w3, maps) == corner


def test_restricts_to_bruteforce_first_witness_is_stable():
    # The witness is the first match in code order; this one was recorded
    # before the search loop was shared with subrank_bruteforce.
    f3 = GF(3)
    w3 = w_tensor(3, (2, 2, 2), f3)
    s = Tensor.from_dict(f3, (2, 2, 1), {(0, 1, 0): 1, (1, 0, 0): 2})
    maps = restricts_to_bruteforce(w3, s)
    assert [[f3.text(e) for e in m.entries] for m in maps] == [
        ["1", "0", "0", "1"],
        ["1", "0", "0", "2"],
        ["2", "0"],
    ]
    assert restrict(w3, maps) == s


# -- the brute-force search against the naive loop ------------------------------


def _naive_first_match(t, conditions, row_counts, per_factor):
    """The search loop as it was before the last factor was picked by
    bitmask: every full map tuple in product order, tested condition by
    condition.  The callers check the search space before either loop."""
    table, shape = ranks._covector_table(t)
    strides = _strides(tuple(shape))

    k = t.order
    conditions = sorted(conditions, key=lambda c: -c[1])  # check the nonzero ones first
    for assignment in itertools.product(*per_factor):
        ok = True
        for jdx, target in conditions:
            flat = 0
            for a in range(k):
                flat += assignment[a][jdx[a]] * strides[a]
            if table[flat] != target:
                ok = False
                break
        if ok:
            return assignment
    return None


class _Scans(list):
    """Last-factor code tuples that count how often they are scanned."""

    count = 0

    def __iter__(self):
        self.count += 1
        return super().__iter__()


def _candidate_prefixes(t, conditions, row_counts, per_factor, match):
    """How many prefixes, up to the one of the match, leave every last-factor
    row at least one covector meeting that row's conditions."""
    table, shape = ranks._covector_table(t)
    strides = _strides(tuple(shape))

    def meets(prefix, row, c):
        for jdx, target in conditions:
            if jdx[-1] == row:
                flat = c + sum(codes[j] * s for codes, j, s in zip(prefix, jdx, strides))
                if table[flat] != target:
                    return False
        return True

    count = 0
    for prefix in itertools.product(*per_factor[:-1]):
        if all(any(meets(prefix, row, c) for c in range(shape[-1])) for row in range(row_counts[-1])):
            count += 1
        if match is not None and match[:-1] == prefix:
            break
    return count


def _naive_and_bitmask(fn, *args):
    """fn(*args) with the naive loop and with ranks._first_match, which must
    scan the last factor exactly once per candidate prefix."""
    with mock.patch.object(ranks, "_first_match", _naive_first_match):
        expected = fn(*args)
    first_match = ranks._first_match
    scans = []

    def counted(t, conditions, row_counts, per_factor):
        per_factor = [list(codes) for codes in per_factor]
        per_factor[-1] = _Scans(per_factor[-1])
        match = first_match(t, conditions, row_counts, per_factor)
        scans.append((per_factor[-1].count, _candidate_prefixes(t, conditions, row_counts, per_factor, match)))
        return match

    with mock.patch.object(ranks, "_first_match", counted):
        got = fn(*args)
    for done, candidates in scans:
        assert done == candidates
    return expected, got


# Naive-loop tuples a drawn case may cost; F_3 2x2x2 "no" rows (56^3) are
# checked separately.
_NAIVE_BUDGET = 4096


@st.composite
def _fp_tensors(draw):
    p = draw(st.sampled_from([2, 3]))
    dims = tuple(draw(st.lists(st.integers(1, 2), min_size=1, max_size=4)))
    field = GF(p)
    entries = draw(st.lists(st.integers(0, p - 1), min_size=math.prod(dims), max_size=math.prod(dims)))
    return Tensor(field, dims, [field.from_int(v) for v in entries])


@st.composite
def _restriction_cases(draw):
    t = draw(_fp_tensors())
    p = t.ring.p
    m = [draw(st.integers(1, 2)) for _ in t.dims]
    for j in range(t.order):  # shrink target rows until the naive loop is affordable
        if p ** sum(mj * n for mj, n in zip(m, t.dims)) <= _NAIVE_BUDGET:
            break
        m[j] = 1
    kind = draw(st.sampled_from(["random", "zero", "zero-last-row"]))
    dims = tuple(m)
    values = [draw(st.integers(0, p - 1)) for _ in range(math.prod(dims))]
    s = Tensor(t.ring, dims, [t.ring.from_int(v) for v in values])
    if kind == "zero":
        s = Tensor.zeros(t.ring, dims)
    elif kind == "zero-last-row":
        row = draw(st.integers(0, dims[-1] - 1))
        s = Tensor(
            t.ring,
            dims,
            [t.ring.zero() if s.multi_index(f)[-1] == row else e for f, e in enumerate(s.entries)],
        )
    return t, s


@st.composite
def _subrank_cases(draw, budget=_NAIVE_BUDGET, prefixes_only=False):
    """A tensor and a threshold r, lowered until the ordered tuples of distinct
    nonzero codes fit the budget: over every factor, or over all but the last
    when only the prefixes the search walks are counted."""
    t = draw(_fp_tensors())
    r = draw(st.integers(1, 3))
    p = t.ring.p
    counted = t.dims[:-1] if prefixes_only else t.dims
    while r > 1 and math.prod(math.perm(p**n - 1, r) for n in counted) > budget:
        r -= 1
    return t, r


@settings(max_examples=120, deadline=None)
@given(_restriction_cases())
def test_restricts_to_bruteforce_matches_naive_loop(case):
    t, s = case
    expected, got = _naive_and_bitmask(restricts_to_bruteforce, t, s)
    assert got == expected
    if got is not None:
        assert restrict(t, got) == s


@settings(max_examples=120, deadline=None)
@given(_subrank_cases())
@example((Tensor(GF(3), (1,), [GF(3).one()]), 2))
@example((Tensor(GF(2), (2,), [GF(2).one(), GF(2).zero()]), 3))
def test_subrank_bruteforce_matches_naive_loop(case):
    t, r = case
    expected, got = _naive_and_bitmask(subrank_bruteforce, t, r)
    assert got is expected


def test_subrank_bruteforce_matches_naive_loop_on_f3_no_rows():
    # Exhausting F_3 2x2x2 costs the naive loop 56^3 tuples, so only two rows:
    # W_3, and a unit-class tensor whose pencil det = x^2 + y^2 has no root.
    f3 = GF(3)
    twisted = Tensor.from_dict(
        f3, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 2, (1, 1, 0): 1}
    )
    for t in (w_tensor(3, (2, 2, 2), f3), twisted):
        assert _naive_and_bitmask(subrank_bruteforce, t, 2) == (False, False)


# -- the search up to the symmetries of <r> against the full search -------------


def _full_search_subrank(t, r):
    """subrank_bruteforce over the unreduced lists: every ordered r-tuple of
    distinct nonzero codes on every factor, as before the search was cut
    down to one map tuple per orbit of the stabilizer of <r>."""
    first_match = ranks._first_match

    def full(t, conditions, row_counts, per_factor):
        p = t.ring.p
        per_factor = [list(itertools.permutations(range(1, p**n), r)) for n in t.dims]
        return first_match(t, conditions, row_counts, per_factor)

    with mock.patch.object(ranks, "_first_match", full):
        return subrank_bruteforce(t, r)


def _searched_list_sizes(t, r):
    """The length of each factor's list that subrank_bruteforce searches."""
    first_match = ranks._first_match
    sizes = []

    def counted(t, conditions, row_counts, per_factor):
        sizes.append(tuple(len(codes) for codes in per_factor))
        return first_match(t, conditions, row_counts, per_factor)

    with mock.patch.object(ranks, "_first_match", counted):
        subrank_bruteforce(t, r)
    return sizes


def test_reduced_subrank_search_matches_full_search_f2_exhaustive():
    for code, t in all_fp_tensors((2, 2, 2), 2):
        assert subrank_bruteforce(t, 2) is _full_search_subrank(t, 2), code


def test_reduced_subrank_search_matches_full_search_f3():
    leaders = sorted(set(census._orbit_leaders(3)))
    assert len(leaders) == 8
    sample = random.Random(5).sample(range(3**8), 200)
    for tensor_id in leaders + sample:
        t = census.tensor_from_id(tensor_id, 3)
        assert subrank_bruteforce(t, 2) is _full_search_subrank(t, 2), tensor_id


def test_subrank_bruteforce_exhausts_f5():
    f5 = GF(5)
    for t, expected in ((w_tensor(3, (2, 2, 2), f5), False), (unit_tensor(3, 2, f5), True)):
        assert subrank_bruteforce(t, 2) is expected
        assert _full_search_subrank(t, 2) is expected


@settings(max_examples=150, deadline=None)
@given(_subrank_cases(budget=56**2, prefixes_only=True))
def test_reduced_subrank_search_matches_full_search_drawn(case):
    t, r = case
    assert subrank_bruteforce(t, r) is _full_search_subrank(t, r)


def test_subrank_search_lists_are_cut_by_the_unit_stabilizer():
    # factor 0: increasing monic codes; middle factors: ordered monic codes;
    # last factor: every ordered tuple of distinct nonzero codes
    for p, sizes in ((2, (3, 6, 6)), (3, (6, 12, 56)), (5, (15, 30, 552))):
        assert _searched_list_sizes(unit_tensor(3, 2, GF(p)), 2) == [sizes]
    # an order-1 tensor's only factor is also its last: increasing nonzero codes
    f3 = GF(3)
    vector = Tensor(f3, (2,), [f3.one(), f3.zero()])
    assert _searched_list_sizes(vector, 2) == [(28,)]


def test_subrank_without_r_non_proportional_rows_skips_the_table():
    # 2 nonzero covectors on the dimension-1 factor, but no 2 non-proportional
    t = Tensor.from_dict(GF(3), (1, 3, 3), {(0, 0, 0): 1, (0, 1, 1): 1})
    with mock.patch.object(ranks, "_covector_table", wraps=ranks._covector_table) as table:
        assert not subrank_bruteforce(t, 2)
    table.assert_not_called()
    assert not _full_search_subrank(t, 2)


def test_restriction_preserves_pr_gate():
    # monotonicity at the rank-one boundary: when a brute-force witness
    # T -> S exists and pr(S) >= 2, then pr(T) >= 2
    rng = random.Random(321)
    checked = 0
    while checked < 25:
        t = Tensor(F2, (2, 2, 2), [F2.from_int(rng.randrange(2)) for _ in range(8)])
        maps = tuple(
            Matrix(F2, 2, 2, [F2.from_int(rng.randrange(2)) for _ in range(4)])
            for _ in range(3)
        )
        s = restrict(t, maps)
        witness = restricts_to_bruteforce(t, s)
        assert witness is not None
        assert restrict(t, witness) == s
        if pr_at_least_two(s, seed=checked):
            assert pr_at_least_two(t, seed=checked)
        checked += 1


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_restriction_monotone_on_signatures(seed):
    rng = random.Random(seed)
    t = random_rational_tensor((3, 2, 3), rng, bound=3)
    maps = tuple(
        Matrix(QQ, d, d, [QQ.from_int(rng.randint(-2, 2)) for _ in range(d * d)])
        for d in t.dims
    )
    restricted = restrict(t, maps)
    assert rank_signature(t).dominates(rank_signature(restricted))
