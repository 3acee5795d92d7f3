import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with pytest.raises(SearchSpaceTooLargeError):
        subrank_bruteforce(big, 3)


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
