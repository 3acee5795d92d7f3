import itertools
import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tensorgap import ranks
from tensorgap.errors import (
    FieldMismatchError,
    SearchSpaceTooLargeError,
    ZeroTensorError,
)
from tensorgap.fields import GF, QQ
from tensorgap.linalg import Matrix
from tensorgap.ranks import (
    canonical_subsets,
    generic_compress,
    has_rank_one_flattening,
    pr_at_least_two,
    rank_signature,
    restricts_to_bruteforce,
    subrank_bruteforce,
)
from tensorgap.tensors import (
    Tensor,
    _strides,
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


def test_pr_gate_axis_choice_immaterial_f2_order3():
    for _, t in all_fp_tensors((2, 2, 2), 2):
        if t.is_zero():
            continue
        results = {pr_at_least_two(t, seed=3, axis=a) for a in range(3)}
        assert len(results) == 1


def test_pr_gate_axis_choice_immaterial_rational():
    rng = random.Random(7)
    for _ in range(25):
        t = random_rational_tensor((2, 2, 2), rng, bound=2)
        if t.is_zero():
            continue
        results = {pr_at_least_two(t, seed=11, axis=a) for a in range(3)}
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


def test_pr_gate_true_no_reaches_f8_lift_and_stays_no(monkeypatch):
    # e_0 (x) W_3: the axis-0 flattening has rank one, so pR = 1, but the last
    # flattening has rank 2, so the F_2 pass enumerates and the "no" is
    # rechecked over F_8.
    t = _order4_f2([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert has_rank_one_flattening(t) == frozenset([0])
    lifts = _gate_without_oracle(monkeypatch)
    assert pr_at_least_two(t, seed=0) is False
    assert lifts == [GF(2, 3)]


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


def test_pr_gate_witness_field_sizes():
    from tensorgap.ranks import _witness_field

    assert _witness_field(F2, 3) == GF(2, 2)
    assert _witness_field(F2, 4) == GF(2, 3)
    assert _witness_field(GF(3), 4) == GF(3, 2)
    assert _witness_field(GF(3), 3) is None
    assert _witness_field(GF(7), 4) is None
    assert _witness_field(QQ, 5) is None
    assert _witness_field(F2, 2) is None
    # over F_4 an order-4 "yes" stands, but a "no" is not rechecked further
    f4 = GF(2, 2)
    assert _witness_field(f4, 3) is None
    assert pr_at_least_two(lift_tensor(w_tensor(4, (2, 2, 2, 2), F2), f4), seed=1)
    e1_w3 = _order4_f2([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    with pytest.raises(FieldMismatchError):
        pr_at_least_two(lift_tensor(e1_w3, f4), seed=1)


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


def test_generic_compress_budget_error_reports_attempts():
    from tensorgap.errors import SearchBudgetError

    t = pad(w_tensor(3, (2, 2, 2), QQ), (3, 3, 3))
    with pytest.raises(SearchBudgetError) as info:
        generic_compress(t, seed=1, budget=0)
    assert info.value.attempts == 0


def test_pr_gate_inconclusive_when_budget_and_fallback_disagree():
    from tensorgap.errors import InconclusiveGenericityError

    # zero budget kills the sampling; the deterministic fallback then sees no
    # rank-one flattening and must refuse rather than answer False
    with pytest.raises(InconclusiveGenericityError):
        pr_at_least_two(w_tensor(3, (2, 2, 2), QQ), seed=1, budget=0)


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
    assert [[e.text() for e in m.entries] for m in maps] == [
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
def _subrank_cases(draw):
    t = draw(_fp_tensors())
    r = draw(st.integers(1, 3))
    p = t.ring.p
    while r > 1 and math.prod(math.perm(p**n - 1, r) for n in t.dims) > _NAIVE_BUDGET:
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


def test_subrank_bruteforce_exhausts_f5():
    f5 = GF(5)
    assert not subrank_bruteforce(w_tensor(3, (2, 2, 2), f5), 2)
    assert subrank_bruteforce(unit_tensor(3, 2, f5), 2)


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
