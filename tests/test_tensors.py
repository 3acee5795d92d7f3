import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgap.errors import DimensionMismatchError, FieldMismatchError
from tensorgap.fields import GF, QQ, Scalar
from tensorgap.linalg import Matrix, mat_det, mat_rank, mat_solve
from tensorgap.ratfunc import EpsField, RatFunc
from tensorgap.tensors import (
    Tensor,
    as_matrix,
    compose_maps,
    flatten,
    identity_maps,
    kronecker,
    lift_tensor,
    mode_apply,
    pad,
    restrict,
    unit_tensor,
    w_tensor,
)
from conftest import random_rational_tensor


def test_unit_tensor_examples():
    assert as_matrix(unit_tensor(2, 2, QQ)) == Matrix.identity(QQ, 2)
    t = unit_tensor(3, 2, QQ)
    assert t[0, 0, 0].value == 1 and t[1, 1, 1].value == 1
    assert sum(1 for e in t.entries if e) == 2
    tiny = unit_tensor(3, 1, GF(2))
    assert tiny.dims == (1, 1, 1) and tiny[0, 0, 0].value == 1
    with pytest.raises(ValueError):
        unit_tensor(1, 2, QQ)


def test_w_tensor_examples():
    w3 = w_tensor(3, (2, 2, 2), QQ)
    support = {w3.multi_index(f) for f, e in enumerate(w3.entries) if e}
    assert support == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    w2 = w_tensor(2, (2, 2), QQ)
    assert mat_rank(as_matrix(w2)) == 2
    assert w2[0, 1].value == 1 and w2[1, 0].value == 1
    w4 = w_tensor(4, (2, 2, 2, 2), QQ)
    assert sum(1 for e in w4.entries if e) == 4
    with pytest.raises(DimensionMismatchError):
        w_tensor(3, (2, 1, 2), QQ)


def test_kronecker_of_unit_tensors_is_unit():
    i32 = unit_tensor(3, 2, QQ)
    assert kronecker(i32, i32) == unit_tensor(3, 4, QQ)


def test_kronecker_zero_and_w2():
    t = w_tensor(3, (2, 2, 2), QQ)
    zero = Tensor.zeros(QQ, (1, 1, 1))
    assert kronecker(t, zero) == Tensor.zeros(QQ, (2, 2, 2))
    w2 = w_tensor(2, (2, 2), QQ)
    assert mat_rank(as_matrix(kronecker(w2, w2))) == 4


def test_kronecker_index_convention():
    # combined index is i * m + i' (left factor major)
    a = Tensor.from_dict(QQ, (2, 2), {(1, 0): 1})
    b = Tensor.from_dict(QQ, (3, 3), {(2, 1): 1})
    prod = kronecker(a, b)
    assert prod.dims == (6, 6)
    assert prod[1 * 3 + 2, 0 * 3 + 1].value == 1
    assert sum(1 for e in prod.entries if e) == 1


def test_kronecker_mismatch_errors():
    with pytest.raises(DimensionMismatchError):
        kronecker(unit_tensor(3, 2, QQ), unit_tensor(2, 2, QQ))
    with pytest.raises(FieldMismatchError):
        kronecker(unit_tensor(3, 2, QQ), unit_tensor(3, 2, GF(2)))


def test_flatten_examples():
    i32 = unit_tensor(3, 2, QQ)
    m = flatten(i32, [0])
    assert (m.rows, m.cols) == (2, 4) and mat_rank(m) == 2
    w3 = w_tensor(3, (2, 2, 2), QQ)
    assert mat_rank(flatten(w3, [1])) == 2
    rank_one = Tensor.from_dict(QQ, (2, 2, 2), {(0, 0, 0): 1})
    assert mat_rank(flatten(rank_one, [2])) == 1
    with pytest.raises(DimensionMismatchError):
        flatten(i32, [])
    with pytest.raises(DimensionMismatchError):
        flatten(i32, [0, 1, 2])
    with pytest.raises(DimensionMismatchError):
        flatten(i32, [3])


def test_flatten_layout_row_major():
    t = Tensor.from_dict(QQ, (2, 3, 2), {(1, 2, 0): 7})
    m = flatten(t, [0, 2])  # rows over (i0, i2), cols over i1
    assert m.rows == 4 and m.cols == 3
    assert m[1 * 2 + 0, 2].value == 7


def test_restrict_examples():
    w3 = w_tensor(3, (2, 2, 2), QQ)
    assert restrict(w3, identity_maps(w3)) == w3
    pick_e2 = Matrix.from_rows(QQ, [[0, 1]])
    ident = Matrix.identity(QQ, 2)
    out = restrict(w3, (pick_e2, ident, ident))
    assert out == Tensor.from_dict(QQ, (1, 2, 2), {(0, 0, 0): 1})
    i32 = unit_tensor(3, 2, QQ)
    kill_e2 = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    assert restrict(i32, (kill_e2,) * 3) == Tensor.from_dict(
        QQ, (2, 2, 2), {(0, 0, 0): 1}
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_restrict_composes(seed):
    rng = random.Random(seed)
    t = random_rational_tensor((2, 3, 2), rng)
    inner = tuple(
        Matrix(QQ, d, n, [QQ.from_int(rng.randint(-3, 3)) for _ in range(d * n)])
        for d, n in zip((2, 2, 3), t.dims)
    )
    outer = tuple(
        Matrix(QQ, 2, d, [QQ.from_int(rng.randint(-3, 3)) for _ in range(2 * d)])
        for d in (2, 2, 3)
    )
    assert restrict(restrict(t, inner), outer) == restrict(t, compose_maps(outer, inner))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flattening_rank_multiplicative_under_kronecker(seed):
    rng = random.Random(seed)
    t = random_rational_tensor((2, 2, 2), rng, bound=2)
    s = random_rational_tensor((2, 2, 2), rng, bound=2)
    prod = kronecker(t, s)
    for axes in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
        assert mat_rank(flatten(prod, axes)) == mat_rank(flatten(t, axes)) * mat_rank(
            flatten(s, axes)
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flatten_rank_symmetric_in_complement(seed):
    rng = random.Random(seed)
    t = random_rational_tensor((2, 3, 2, 2), rng, bound=2)
    for axes in ([0], [1], [0, 1], [1, 2], [0, 3]):
        co = [a for a in range(4) if a not in axes]
        assert mat_rank(flatten(t, axes)) == mat_rank(flatten(t, co))


def test_pad_and_slice():
    w3 = w_tensor(3, (2, 2, 2), QQ)
    big = pad(w3, (4, 3, 2))
    assert big.dims == (4, 3, 2)
    assert big[1, 0, 0].value == 1 and big[3, 2, 1].value == 0
    s0 = Tensor(QQ, (4, 3), flatten(big, [2]).row(0))
    assert s0[1, 0].value == 1 and s0[3, 2].value == 0


def test_permute_axes():
    t = Tensor.from_dict(QQ, (2, 3, 4), {(1, 2, 3): 5})
    p = t.permute_axes((2, 0, 1))
    assert p.dims == (4, 2, 3)
    assert p[3, 1, 2].value == 5


def test_entry_validation():
    with pytest.raises(DimensionMismatchError):
        Tensor(QQ, (2, 2), [QQ.zero()] * 3)
    t = unit_tensor(3, 2, QQ)
    with pytest.raises(DimensionMismatchError):
        t[2, 0, 0]


# -- the index calculus against its elementwise definitions -----------------


def _indices(dims):
    return itertools.product(*(range(d) for d in dims))


def _row_major(idx, dims):
    flat = 0
    for i, d in zip(idx, dims):
        flat = flat * d + i
    return flat


@st.composite
def _tensors(draw, field=None, dims=None):
    if field is None:
        field = draw(st.sampled_from((QQ, GF(3))))
    if dims is None:
        dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    size = math.prod(dims)
    values = draw(st.lists(st.integers(-3, 3), min_size=size, max_size=size))
    return Tensor(field, dims, [field.from_int(v) for v in values])


def _mode_product_reference(t, m, axis):
    new_dims = t.dims[:axis] + (m.rows,) + t.dims[axis + 1 :]
    items = {}
    for jdx in _indices(new_dims):
        acc = t.ring.zero()
        for i in range(m.cols):
            acc = acc + m[jdx[axis], i] * t[jdx[:axis] + (i,) + jdx[axis + 1 :]]
        items[jdx] = acc
    return Tensor.from_dict(t.ring, new_dims, items)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_index_calculus_matches_elementwise_definitions(data):
    t = data.draw(_tensors())
    field, dims, k = t.ring, t.dims, t.order

    for size in range(1, k):
        for axes in itertools.combinations(range(k), size):
            co = tuple(a for a in range(k) if a not in axes)
            row_dims, col_dims = [dims[a] for a in axes], [dims[a] for a in co]
            m = flatten(t, axes)
            assert (m.rows, m.cols) == (math.prod(row_dims), math.prod(col_dims))
            for idx in _indices(dims):
                r = _row_major([idx[a] for a in axes], row_dims)
                c = _row_major([idx[a] for a in co], col_dims)
                assert m[r, c] == t[idx]

    if k >= 2:
        for axis in range(k):
            slices = flatten(t, [axis])
            rest_dims = dims[:axis] + dims[axis + 1 :]
            for i in range(dims[axis]):
                row = slices.row(i)
                assert len(row) == math.prod(rest_dims)
                for rest in _indices(rest_dims):
                    full = rest[:axis] + (i,) + rest[axis:]
                    assert row[_row_major(rest, rest_dims)] == t.entries[t.flat_index(full)]

    for perm in itertools.permutations(range(k)):
        p = t.permute_axes(perm)
        assert p.dims == tuple(dims[a] for a in perm)
        for idx in _indices(dims):
            assert p[tuple(idx[a] for a in perm)] == t[idx]

    for axis in range(k):
        rows = data.draw(st.sampled_from([n for n in range(1, 5) if n != dims[axis]]))
        values = data.draw(
            st.lists(st.integers(-2, 2), min_size=rows * dims[axis], max_size=rows * dims[axis])
        )
        m = Matrix(field, rows, dims[axis], [field.from_int(v) for v in values])
        assert mode_apply(t, m, axis) == _mode_product_reference(t, m, axis)

    other_dims = tuple(data.draw(st.lists(st.integers(1, 2), min_size=k, max_size=k)))
    s = data.draw(_tensors(field, other_dims))
    prod = kronecker(t, s)
    assert prod.dims == tuple(n * m for n, m in zip(dims, other_dims))
    for idx in _indices(dims):
        for jdx in _indices(other_dims):
            combined = tuple(i * m + j for i, m, j in zip(idx, other_dims, jdx))
            assert prod[combined] == t[idx] * s[jdx]

    big_dims = tuple(d + data.draw(st.integers(0, 2)) for d in dims)
    big = pad(t, big_dims)
    assert big.dims == big_dims
    for idx in _indices(big_dims):
        inside = all(i < d for i, d in zip(idx, dims))
        assert big[idx] == (t[idx] if inside else field.zero())


def test_mode_apply_over_k_eps():
    eps_ring = EpsField(QQ)
    e, one = eps_ring.eps(), eps_ring.one()
    t = Tensor(eps_ring, (2, 3), [one, e, eps_ring.zero(), one / (one + e), e * e, one - e])
    m = Matrix(eps_ring, 3, 2, [e, one, one / (one - e), eps_ring.zero(), one + e, e])
    for axis, mm in ((0, m), (1, m.transpose())):
        assert mode_apply(t, mm, axis) == _mode_product_reference(t, mm, axis)


# -- the element representation ---------------------------------------------------


def test_containers_hold_raw_values():
    f4 = GF(2, 2)
    q = Tensor(QQ, (2, 3, 2), [Fraction(n, 3) for n in range(-6, 6)])
    f3 = Tensor(GF(3), (2, 3, 2), list(range(12)))
    cases = [
        (q, Fraction),
        (f3, int),
        (Tensor(f4, (2, 3, 2), [f4.element(n % 4) for n in range(12)]), int),
        (lift_tensor(q, EpsField(QQ)), RatFunc),
        (lift_tensor(f3, GF(3, 2)), int),
        (lift_tensor(Tensor(GF(2), (2, 3, 2), [n % 3 for n in range(12)]), f4), int),
    ]
    for t, raw_type in cases:
        maps = tuple(Matrix(t.ring, 2, d, [i % 3 + 1 for i in range(2 * d)]) for d in t.dims)
        for entries in (
            t.entries,
            flatten(t, [1]).entries,
            restrict(t, maps).entries,
            kronecker(t, t).entries,
            (t - t.scale(2)).entries,
        ):
            assert all(type(e) is raw_type for e in entries), t.ring


def test_ints_are_integers_and_scalars_keep_their_code():
    f4 = GF(2, 2)
    assert Tensor(f4, (2,), [3, f4.element(3)]).entries == (1, 3)
    assert Matrix(f4, 1, 2, [3, f4.element(3)]).entries == (1, 3)
    assert Tensor.from_dict(f4, (2,), {(1,): f4.element(2)}).entries == (0, 2)


def test_foreign_scalars_are_refused():
    x = GF(3).from_int(1)
    for ring in (GF(3, 2), QQ):
        with pytest.raises(FieldMismatchError):
            Tensor(ring, (1,), [x])
        with pytest.raises(FieldMismatchError):
            Matrix(ring, 1, 1, [x])
        with pytest.raises(FieldMismatchError):
            Tensor.from_dict(ring, (1,), {(0,): x})
        with pytest.raises(FieldMismatchError):
            Tensor(ring, (1,), [1]).scale(x)
        with pytest.raises(FieldMismatchError):
            mat_solve(Matrix.identity(ring, 1), [x])


def test_reads_and_results_are_boxed_over_f4():
    f4 = GF(2, 2)
    x = f4.element(2)
    t = Tensor(f4, (2, 2), [x, 1, 0, x])
    assert isinstance(t[0, 0], Scalar) and t[0, 0] == x
    m = as_matrix(t)
    assert isinstance(m[1, 1], Scalar) and m[1, 1] == x
    det = mat_det(m)
    assert isinstance(det, Scalar) and det == f4.element(3)  # x^2 = x + 1
    solution = mat_solve(m, [x, 0])
    assert all(isinstance(v, Scalar) for v in solution)
    assert m.apply(solution) == [x, f4.zero()]
