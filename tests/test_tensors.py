import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgap import tensors
from tensorgap.errors import DimensionMismatchError, FieldMismatchError
from tensorgap.fields import GF, QQ, Scalar
from tensorgap.linalg import Matrix, lift_matrix, mat_det, mat_rank, mat_solve
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


def test_dims_must_be_positive_ints():
    for dims in ((2.9,), (2.0,), ("2",), (True, 2), (False, 2), (0, 2)):
        with pytest.raises(DimensionMismatchError):
            Tensor.zeros(QQ, dims)
    with pytest.raises(DimensionMismatchError):
        Tensor(QQ, (2.9,), [1, 2])
    with pytest.raises(DimensionMismatchError):
        Tensor.from_dict(QQ, (True, 2), {(0, 1): 1})
    assert Tensor.zeros(QQ, [2, 3]).dims == (2, 3)


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


def test_flatten_plan_normalizes_axes():
    t = Tensor(QQ, (2, 3, 2, 2), range(24))
    for axes in ([2, 0], (0, 2, 0), {2, 0}, iter([0, 2, 2])):
        assert flatten(t, axes) == flatten(t, [0, 2])
    assert flatten(t, [3, 1, 1]) == flatten(t, (1, 3))
    hits = tensors._flatten_plan.cache_info().hits
    flatten(t, [0, 2])
    assert tensors._flatten_plan.cache_info().hits == hits + 1


def test_flatten_refuses_bad_axes_on_every_call():
    t = unit_tensor(3, 2, QQ)
    for axes in ([], [0, 1, 2], [2, 1, 0, 0], [3], [0, 3], [-1], [-1, 0]):
        for _ in range(2):
            with pytest.raises(DimensionMismatchError):
                flatten(t, axes)


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


def _values(field):
    """Small integers; over Q also zeros and Fractions with denominators up to 10^4."""
    if field is QQ:
        return st.one_of(
            st.integers(-3, 3),
            st.just(0),
            st.fractions(-50, 50, max_denominator=10**4),
        )
    return st.integers(-3, 3)


@st.composite
def _tensors(draw, field=None, dims=None):
    if field is None:
        field = draw(st.sampled_from((QQ, GF(3))))
    if dims is None:
        dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    size = math.prod(dims)
    values = draw(st.lists(_values(field), min_size=size, max_size=size))
    return Tensor(field, dims, values)


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
        n = dims[axis]
        rows = data.draw(st.sampled_from([r for r in range(1, 5) if r != n]))
        values = data.draw(st.lists(_values(field), min_size=rows * n, max_size=rows * n))
        zero_rows = data.draw(st.sets(st.integers(0, rows - 1)))
        m = Matrix(field, rows, n, [0 if f // n in zero_rows else v for f, v in enumerate(values)])
        # zero some fibers along the axis (the entries sharing all other indices)
        fibers = list(_indices(dims[:axis] + dims[axis + 1 :]))
        zero_fibers = data.draw(st.sets(st.sampled_from(fibers)))
        holed = Tensor.from_dict(
            field,
            dims,
            {idx: t[idx] for idx in _indices(dims) if idx[:axis] + idx[axis + 1 :] not in zero_fibers},
        )
        assert mode_apply(t, m, axis) == _mode_product_reference(t, m, axis)
        assert mode_apply(holed, m, axis) == _mode_product_reference(holed, m, axis)

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
    t = Tensor(eps_ring, (2, 3), [one, e, eps_ring.zero(), (one + e) / e, e * e, one - e])
    m = Matrix(eps_ring, 3, 2, [e, one, (one - e) * eps_ring.eps(-2), eps_ring.zero(), one + e, e])
    for axis, mm in ((0, m), (1, m.transpose())):
        assert mode_apply(t, mm, axis) == _mode_product_reference(t, mm, axis)


# -- the Laurent restriction kernel over K(eps) ---------------------------------


def _per_axis_restrict(t, maps):
    """The reference: one mode product per axis, the route of every ring
    other than Q and Laurent K(eps)."""
    for axis, m in enumerate(maps):
        t = mode_apply(t, m, axis)
    return t


@st.composite
def _laurent_values(draw, ring):
    """A Laurent element: zero often, else a sum of up to three terms c eps^n
    with n in -3..3 and, over Q, denominators up to 7."""
    if draw(st.integers(0, 3)) == 0:
        return ring.zero()
    if ring.base is QQ:
        coeffs = st.fractions(-9, 9, max_denominator=7)
    else:
        coeffs = st.integers(0, ring.base.p - 1)
    terms = draw(st.lists(st.tuples(coeffs, st.integers(-3, 3)), min_size=1, max_size=3))
    return sum((ring.eps(n) * ring.coerce(c) for c, n in terms), ring.zero())


@st.composite
def _laurent_restriction(draw):
    """A Laurent K(eps) tensor of order 1..4 and dims 1..3 with one map per
    axis; some maps or map rows are zero, and some fibres of the tensor."""
    ring = EpsField(draw(st.sampled_from((QQ, GF(2), GF(3), GF(7)))))
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    fibres = draw(st.sets(st.integers(0, math.prod(dims) - 1), max_size=2))
    entries = [
        ring.zero() if f in fibres else draw(_laurent_values(ring)) for f in range(math.prod(dims))
    ]
    t = Tensor(ring, dims, entries)
    maps = []
    for n in dims:
        rows = draw(st.integers(1, 3))
        zero_rows = draw(st.sets(st.integers(0, rows - 1)))
        values = [
            ring.zero() if f // n in zero_rows else draw(_laurent_values(ring))
            for f in range(rows * n)
        ]
        maps.append(Matrix(ring, rows, n, values))
    return t, tuple(maps)


@settings(max_examples=200, deadline=None)
@given(_laurent_restriction())
def test_laurent_restrict_matches_per_axis_mode_products(case):
    t, maps = case
    assert restrict(t, maps) == _per_axis_restrict(t, maps)


def test_laurent_restrict_cancels_exactly_to_zero():
    # Two equal slices along axis 0 and a map row (c, -c): the first output
    # slice cancels term by term, eps^-2 parts included.
    for ring in (EpsField(QQ), EpsField(GF(5))):
        e = ring.eps()
        half = ring.coerce(Fraction(1, 2)) if ring.base is QQ else ring.from_int(3)
        row = [ring.eps(-2) * half + e, ring.from_int(4) - ring.eps(-1)]
        t = Tensor(ring, (2, 2), row + row)
        c = ring.eps(-1) * ring.from_int(3) + ring.one()
        maps = (Matrix(ring, 2, 2, [c, -c, ring.one(), e]), Matrix.identity(ring, 2))
        out = restrict(t, maps)
        assert out == _per_axis_restrict(t, maps)
        assert out.entries[:2] == (ring.zero(), ring.zero())
        assert all(out.entries[2:])
    # Over F_p the coefficients cancel mod p: 3 eps + 4 eps = 0 over F_7.
    ring = EpsField(GF(7))
    t = Tensor(ring, (2,), [ring.eps() * ring.from_int(3), ring.eps() * ring.from_int(4)])
    assert restrict(t, (Matrix(ring, 1, 2, [ring.one(), ring.one()]),)) == Tensor.zeros(ring, (1,))


def test_restrict_takes_the_laurent_kernel_exactly_on_laurent_input(monkeypatch):
    # Every K(eps) value is Laurent, so every K(eps) restriction takes the
    # integer kernel; F_p and F_{p^m} take one mode product per axis.
    calls = []

    def counting_mode_apply(t, m, axis):
        calls.append(axis)
        return mode_apply(t, m, axis)

    monkeypatch.setattr(tensors, "mode_apply", counting_mode_apply)
    for ring in (EpsField(QQ), EpsField(GF(3))):
        e, one = ring.eps(), ring.one()
        t = Tensor(ring, (2, 2), [one, e, ring.eps(-1), one - e])
        laurent = Matrix(ring, 2, 2, [e, one, ring.eps(-2), ring.zero()])
        dense = Matrix(ring, 2, 2, [e, (one + e) ** 3, ring.eps(-2) - e, one])
        for maps in ((laurent, laurent), (laurent, dense)):
            expected = _mode_product_reference(_mode_product_reference(t, maps[0], 0), maps[1], 1)
            assert restrict(t, maps) == expected
    assert calls == []
    for field in (GF(3), GF(3, 2)):
        t = Tensor(field, (2, 2), [1, 2, 0, 1])
        m = Matrix(field, 2, 2, [1, 1, 0, 2])
        assert restrict(t, (m, m)) == _mode_product_reference(_mode_product_reference(t, m, 0), m, 1)
    assert calls == [0, 1, 0, 1]


# -- the integer restriction kernel over Q -----------------------------------------


def _q_values():
    """Zero, small integers, and Fractions whose denominators differ entry by entry."""
    return st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-9, 9, max_denominator=60))


@st.composite
def _q_restriction(draw):
    """A Q tensor of order 1..4 and dims 1..3 with one map of 1..3 rows per
    axis; some map rows are zero, and some fibres of the tensor along a
    drawn axis (the entries sharing all other indices)."""
    dims = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    axis = draw(st.integers(0, len(dims) - 1))
    others = list(_indices(dims[:axis] + dims[axis + 1 :]))
    fibres = draw(st.sets(st.sampled_from(others), max_size=3))
    entries = [
        0 if idx[:axis] + idx[axis + 1 :] in fibres else draw(_q_values()) for idx in _indices(dims)
    ]
    maps = []
    for n in dims:
        rows = draw(st.integers(1, 3))
        zero_rows = draw(st.sets(st.integers(0, rows - 1)))
        values = [0 if f // n in zero_rows else draw(_q_values()) for f in range(rows * n)]
        maps.append(Matrix(QQ, rows, n, values))
    return Tensor(QQ, dims, entries), tuple(maps)


@settings(max_examples=200, deadline=None)
@given(_q_restriction())
def test_q_restrict_matches_the_per_axis_definition(case):
    t, maps = case
    expected = t
    for axis, m in enumerate(maps):
        expected = _mode_product_reference(expected, m, axis)
    assert restrict(t, maps) == expected


def test_q_restrict_makes_no_mode_product(monkeypatch):
    calls = []

    def counting_mode_apply(t, m, axis):
        calls.append(axis)
        return mode_apply(t, m, axis)

    monkeypatch.setattr(tensors, "mode_apply", counting_mode_apply)
    t = Tensor(QQ, (2, 3), [Fraction(1, 2), 0, 3, Fraction(-2, 7), 1, 0])
    maps = (Matrix(QQ, 1, 2, [Fraction(1, 3), 2]), Matrix(QQ, 2, 3, [1, 0, Fraction(5, 4), 0, 0, 0]))
    out = restrict(t, maps)
    assert calls == []
    assert out == _mode_product_reference(_mode_product_reference(t, maps[0], 0), maps[1], 1)
    assert out == _per_axis_restrict(t, maps)  # mode_apply's ring loop, over Q


def test_restrict_skips_identity_maps(monkeypatch):
    # Identity maps mixed with others, over Q and Q(eps), on tensors with
    # integer entries (no fiber lcm is taken) and with fractions: the result
    # is the per-axis definition, and an all-identity restriction
    # accumulates nothing.
    adds = []
    for name in ("_add_ints", "_add_laurent"):
        add = getattr(tensors, name)
        monkeypatch.setattr(tensors, name, lambda *args, add=add: adds.append(1) or add(*args))
    rng = random.Random(17)
    for ring in (QQ, EpsField(QQ)):
        one, half = ring.one(), ring.coerce(Fraction(1, 2))
        e = ring.coerce(2) if ring is QQ else ring.eps()
        others = {
            2: [
                Matrix(ring, 2, 2, [one, 0, 0, e]),
                Matrix(ring, 2, 2, [one, one, 0, one]),
                Matrix(ring, 2, 2, [half, 0, 0, half]),
                Matrix(ring, 2, 2, [0, one, one, 0]),
                Matrix(ring, 1, 2, [one, e]),
                Matrix(ring, 3, 2, [one, 0, 0, one, e, half]),
            ],
            3: [
                Matrix(ring, 3, 3, [one, 0, 0, 0, one, 0, 0, 0, e]),
                Matrix(ring, 2, 3, [one, 0, 0, 0, one, 0]),
            ],
        }
        for dims in ((2, 2, 2, 2, 2), (2, 3, 2), (3,)):
            for fractions in (False, True):
                pool = [0, one, -one, e, e * e] + ([half, e * half] if fractions else [])
                t = Tensor(ring, dims, [rng.choice(pool) for _ in range(math.prod(dims))])
                identity = identity_maps(t)
                adds.clear()
                assert restrict(t, identity) == t
                assert adds == []
                for _ in range(12):
                    maps = [
                        m if rng.random() < 0.5 else rng.choice(others[m.rows]) for m in identity
                    ]
                    expected = t
                    for axis, m in enumerate(maps):
                        expected = _mode_product_reference(expected, m, axis)
                    assert restrict(t, maps) == expected


def _raised(fn):
    with pytest.raises((FieldMismatchError, DimensionMismatchError)) as info:
        fn()
    return type(info.value), str(info.value)


def test_restrict_errors_are_the_per_axis_errors():
    ring = EpsField(QQ)
    e, one = ring.eps(), ring.one()
    t = Tensor(ring, (2, 3), [one, e, ring.eps(-1), one - e, e, one])
    good = (Matrix(ring, 1, 2, [e, one]), Matrix(ring, 2, 3, [one, e, one, one, one, e]))
    bad_ring = (good[0], Matrix(QQ, 2, 3, [1, 0, 0, 0, 1, 0]))
    bad_shape = (good[0], Matrix(ring, 2, 2, [one, e, one, one]))
    bad_both = (Matrix(ring, 2, 3, [one] * 6), bad_ring[1])
    for maps in (bad_ring, bad_shape, bad_both):
        assert _raised(lambda: restrict(t, maps)) == _raised(lambda: _per_axis_restrict(t, maps))
    assert _raised(lambda: restrict(t, bad_ring))[0] is FieldMismatchError
    assert _raised(lambda: restrict(t, bad_shape))[0] is DimensionMismatchError
    with pytest.raises(DimensionMismatchError, match="need 2 maps, got 1"):
        restrict(t, good[:1])
    with pytest.raises(DimensionMismatchError, match="need 2 maps, got 3"):
        restrict(t, good + good[:1])


def _prime_denominator_tensor(rng):
    """A 16 x 16 x 16 Q tensor whose 4096 entries have pairwise distinct
    prime denominators."""
    sieve = bytearray([1]) * 40000
    primes = []
    for n in range(2, len(sieve)):
        if sieve[n]:
            primes.append(n)
            sieve[n * n :: n] = bytearray(len(sieve[n * n :: n]))
    primes = [p for p in primes if p > 10][:4096]
    assert len(primes) == 4096
    return Tensor(QQ, (16, 16, 16), [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), p) for p in primes])


def _peak_bytes(fn):
    """fn() and the peak of memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_q_restriction_memory_stays_per_fiber():
    # 4096 entries with pairwise distinct prime denominators: one common
    # denominator for the whole tensor would be a product of 4096 primes in
    # every entry (tens of MB); per-fiber scaling keeps the peak small.
    rng = random.Random(16)
    t = _prime_denominator_tensor(rng)
    maps = [Matrix(QQ, 2, 16, [rng.randint(-3, 3) for _ in range(32)]) for _ in range(3)]
    out, peak = _peak_bytes(lambda: restrict(t, maps))
    assert peak < 4 * 2**20
    expected = t
    for axis, m in enumerate(maps):
        expected = _mode_product_reference(expected, m, axis)
    assert out == expected


def test_laurent_restriction_memory_stays_per_fiber():
    # The same tensor lifted to Q(eps), as the certificate verifier lifts a
    # source before expanding it: its constants are Laurent, so restrict
    # takes the integer Laurent kernel.  With identity curves every entry
    # keeps its own prime denominator, and with 2 x 16 maps each output
    # entry's denominator is the lcm of its own inputs'; a common
    # denominator for the whole tensor would cost tens of MB.
    ring = EpsField(QQ)
    rng = random.Random(16)
    t = _prime_denominator_tensor(rng)
    lifted = lift_tensor(t, ring)
    identity = identity_maps(lifted)
    out, peak = _peak_bytes(lambda: restrict(lifted, identity))
    assert peak < 4 * 2**20
    assert out == lifted
    maps = [Matrix(QQ, 2, 16, [rng.randint(-3, 3) for _ in range(32)]) for _ in range(3)]
    out, peak = _peak_bytes(lambda: restrict(lifted, [lift_matrix(m, ring) for m in maps]))
    assert peak < 4 * 2**20
    assert out == lift_tensor(restrict(t, maps), ring)


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
