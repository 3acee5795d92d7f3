import hashlib
import itertools
import random

import pytest

from tensorgap.census import (
    CensusRow,
    _orbit_leaders,
    census_222,
    census_summary,
    tensor_from_id,
    tensor_to_id,
    write_census,
)
from tensorgap.classify import Orbit222, classify_222, unit_restriction_witness
from tensorgap.errors import DimensionMismatchError, SearchSpaceTooLargeError
from tensorgap.fields import GF
from tensorgap.linalg import Matrix
from tensorgap.ranks import subrank_bruteforce
from tensorgap.tensors import Tensor, restrict
from conftest import all_fp_tensors


def test_id_round_trip():
    for tensor_id in (0, 1, 107, 255):
        t = tensor_from_id(tensor_id, 2)
        assert tensor_to_id(t) == tensor_id
    t = tensor_from_id(6560, 3)
    assert tensor_to_id(t) == 6560


def test_tensor_to_id_refuses_other_shapes():
    # flat position 2 of a 2x2x3 tensor would encode as id 4, i.e. e_(0,1,0)
    f2 = GF(2)
    for t in (
        Tensor.from_dict(f2, (2, 2, 3), {(0, 0, 2): 1}),
        Tensor.from_dict(f2, (2, 2), {(1, 1): 1}),
        Tensor.from_dict(f2, (2, 2, 2, 2), {(0, 0, 0, 1): 1}),
    ):
        with pytest.raises(DimensionMismatchError):
            tensor_to_id(t)


def test_census_f2_counts():
    rows = census_222(2)
    assert len(rows) == 256
    summary = census_summary(rows)
    assert summary["label-counts"] == {
        "pencil-1x2": 18,
        "pencil-2x1": 18,
        "pencil-2x2-split": 18,
        "rank-one": 27,
        "unit-class": 120,
        "w-class": 54,
        "zero": 1,
    }
    # every W-class tensor has brute-force subrank exactly 1
    assert all(r.subrank == 1 for r in rows if r.label is Orbit222.W_CLASS)
    # the unit class splits over the ground field: 108 tensors restrict to the
    # unit tensor over F_2 itself, 12 have an irreducible determinant pencil
    # and reach it only over F_4
    assert summary["unit-class-subrank-2"] == 108
    assert summary["unit-class-subrank-1"] == 12
    # gap classes follow the labels
    for r in rows:
        expected = {
            Orbit222.ZERO: "zero",
            Orbit222.RANK_ONE: "1",
            Orbit222.PENCIL_1X2: "1",
            Orbit222.PENCIL_2X1: "1",
            Orbit222.PENCIL_2X2_SPLIT: "1",
            Orbit222.W_CLASS: "c3",
            Orbit222.UNIT_CLASS: "at-least-2",
        }[r.label]
        assert r.gap_class == expected


def test_rank_one_count_against_independent_enumeration():
    # independent oracle: enumerate all triples of nonzero F_2 vectors and
    # collect the distinct rank-one tensors they span
    f2 = GF(2)
    seen = set()
    vectors = [(0, 1), (1, 0), (1, 1)]
    for u, v, w in itertools.product(vectors, repeat=3):
        entries = tuple(
            (u[i] * v[j] * w[k]) % 2
            for i in range(2)
            for j in range(2)
            for k in range(2)
        )
        seen.add(entries)
    rows = census_222(2)
    rank_one_count = sum(1 for r in rows if r.label is Orbit222.RANK_ONE)
    assert rank_one_count == len(seen) == 27


def test_census_label_multiset_invariant_under_axis_permutation():
    rows = census_222(2)
    by_id = {r.tensor_id: r.label for r in rows}
    for perm in itertools.permutations(range(3)):
        counts = {}
        for code, t in all_fp_tensors((2, 2, 2), 2):
            label = by_id[tensor_to_id(t.permute_axes(perm))]
            counts[label] = counts.get(label, 0) + 1
        base = {}
        for label in by_id.values():
            base[label] = base.get(label, 0) + 1
        assert counts == base


def test_f3_subrank_two_exactly_on_split_unit_class_sample():
    # a seeded sample of F_3 census ids: brute-force subrank 2 exactly when
    # the tensor is unit class with a ground-field witness (twisted forms of
    # the unit tensor have subrank 1)
    for tensor_id in random.Random(3).sample(range(1, 3**8), 300):
        t = tensor_from_id(tensor_id, 3)
        split = classify_222(t) is Orbit222.UNIT_CLASS and unit_restriction_witness(t) is not None
        assert subrank_bruteforce(t, 2) == split, tensor_id


CENSUS_F3_SHA256 = "f6a4e4f7a5b3297baf64abb1c3153d23f346374bf24d20230a5851b835bf92c5"


def test_census_f3_output_is_pinned(tmp_path):
    rows = census_222(3)
    out = tmp_path / "census-f3.tsv"
    write_census(rows, census_summary(rows), out, 3)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CENSUS_F3_SHA256


def test_census_f2_subrank_matches_per_row_bruteforce():
    # the per-row oracle the orbit shortcut must reproduce
    for row in census_222(2):
        t = tensor_from_id(row.tensor_id, 2)
        expected = 0 if t.is_zero() else 2 if subrank_bruteforce(t, 2) else 1
        assert row.subrank == expected, row.tensor_id


ORBIT_SIZES = {
    2: [1, 12, 18, 18, 18, 27, 54, 108],
    3: [1, 128, 192, 192, 192, 864, 1536, 3456],
}


@pytest.mark.parametrize("p", [2, 3])
def test_orbit_leaders(p):
    leaders = _orbit_leaders(p)
    orbits = {}
    for tensor_id, leader in enumerate(leaders):
        orbits.setdefault(leader, []).append(tensor_id)
    assert all(min(ids) == leader for leader, ids in orbits.items())
    sizes = sorted(len(ids) for ids in orbits.values())
    assert sizes == ORBIT_SIZES[p]
    gl_order = (p**2 - 1) * (p**2 - p)
    assert all(gl_order**3 % size == 0 for size in sizes)
    # closed under GL_2(F_p)^3, checked with seeded maps outside the generator set
    field = GF(p)
    gl2 = [
        Matrix._from_raw(field, 2, 2, e)
        for e in itertools.product(range(p), repeat=4)
        if (e[0] * e[3] - e[1] * e[2]) % p
    ]
    rng = random.Random(p)
    for tensor_id, leader in enumerate(leaders):
        maps = [rng.choice(gl2) for _ in range(3)]
        image = tensor_to_id(restrict(tensor_from_id(tensor_id, p), maps))
        assert leaders[image] == leader, tensor_id


def test_census_guard():
    with pytest.raises(SearchSpaceTooLargeError):
        census_222(5)
    for p in (0, 1):
        with pytest.raises(ValueError, match="modulus"):
            census_222(p)


def test_census_row_tsv_format():
    row = CensusRow(
        tensor_id=3,
        label=Orbit222.RANK_ONE,
        ranks=(1, 1, 1),
        cayley="0",
        subrank=1,
        gap_class="1",
    )
    assert row.tsv() == "3\trank-one\t1,1,1\t0\t1\t1"
