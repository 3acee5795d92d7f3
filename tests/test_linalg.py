import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgap.errors import DimensionMismatchError, FieldMismatchError
from tensorgap.fields import GF, QQ
from tensorgap.linalg import Matrix, lift_matrix, mat_det, mat_inverse, mat_rank, mat_solve
from tensorgap.ratfunc import EpsField

EPS = EpsField(QQ)


def test_rank_examples():
    assert mat_rank(Matrix.identity(QQ, 2)) == 2
    assert mat_rank(Matrix.zeros(GF(2), 3, 4)) == 0
    assert mat_rank(Matrix.from_rows(QQ, [[1, 2], [2, 4]])) == 1


def test_rank_transpose_small_cases():
    m = Matrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6]])
    assert mat_rank(m) == mat_rank(m.transpose()) == 2


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from([None, 2, 5]),
)
def test_rank_equals_rank_of_transpose(rows, cols, seed, p):
    field = QQ if p is None else GF(p)
    rng = random.Random(seed)
    vals = [
        field.from_int(rng.randint(-3, 3) if p is None else rng.randrange(p))
        for _ in range(rows * cols)
    ]
    m = Matrix(field, rows, cols, vals)
    assert mat_rank(m) == mat_rank(m.transpose())


def _naive_rank(m):
    """Independent oracle: elimination with Scalar arithmetic only."""
    rows = [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]
    rank = 0
    for col in range(m.cols):
        pivot = next((r for r in range(rank, m.rows) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inverse()
        for r in range(rank + 1, m.rows):
            f = rows[r][col] * inv
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=160, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([None, 2, 3, 7]))
def test_fast_fp_rank_matches_naive(seed, p):
    # every route of mat_rank: packed bits over F_2, integer rows over Q,
    # `_echelon` over F_p
    field = QQ if p is None else GF(p)
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    if p is None:
        # up to 8x16, mostly zero, denominators up to 10^6, some zero rows
        rows, cols = rng.randint(1, 8), rng.randint(1, 16)
        density = rng.choice((0.1, 0.3, 1.0))
        max_den = rng.choice((3, 10**6))
        entries = [
            QQ.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, max_den)))
            if rng.random() < density
            else QQ.zero()
            for _ in range(rows * cols)
        ]
        for i in rng.sample(range(rows), rng.randint(0, rows // 2)):
            entries[i * cols : (i + 1) * cols] = [QQ.zero()] * cols
        if rows > 2 and rng.random() < 0.5:
            # a dependent last row, so that deficient ranks occur over Q too
            two = QQ.coerce(Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)))
            entries[-cols:] = [x - two * y for x, y in zip(entries[:cols], entries[cols : 2 * cols])]
    else:
        entries = [field.from_int(rng.randrange(p)) for _ in range(rows * cols)]
    m = Matrix(field, rows, cols, entries)
    assert mat_rank(m) == _naive_rank(m)


def test_solve_examples():
    x = mat_solve(Matrix.identity(QQ, 2), [3, 5])
    assert [v.value for v in x] == [3, 5]
    assert mat_solve(Matrix.from_rows(QQ, [[1, 1], [1, 1]]), [1, 0]) is None


def test_solve_underdetermined_picks_a_solution():
    a = Matrix.from_rows(QQ, [[1, 1, 0]])
    x = mat_solve(a, [5])
    assert sum((v.value for v in x)) == 5


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_solve_on_invertible_systems(seed, n):
    rng = random.Random(seed)
    while True:
        a = Matrix(QQ, n, n, [QQ.from_int(rng.randint(-5, 5)) for _ in range(n * n)])
        if mat_rank(a) == n:
            break
    b = [QQ.from_int(rng.randint(-5, 5)) for _ in range(n)]
    x = mat_solve(a, b)
    assert x is not None
    assert a.apply(x) == b


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        mat_solve(Matrix.identity(QQ, 2), [1, 2, 3])


def test_det_and_inverse():
    m = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    assert mat_det(m).value == 1
    inv = mat_inverse(m)
    assert m * inv == Matrix.identity(QQ, 2)
    singular = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    assert not mat_det(singular)
    with pytest.raises(ZeroDivisionError):
        mat_inverse(singular)


def test_rank_over_eps_field():
    eps = EPS.eps()
    m = Matrix(EPS, 2, 2, [eps, EPS.one(), eps * eps, eps])
    assert mat_rank(m) == 1
    m2 = Matrix(EPS, 2, 2, [eps, EPS.one(), EPS.one(), eps])
    assert mat_rank(m2) == 2
    assert mat_det(m2) == eps * eps - 1


def test_matrix_product_and_mismatches():
    a = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    b = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert a * b == Matrix.from_rows(QQ, [[2, 1], [4, 3]])
    with pytest.raises(FieldMismatchError):
        a * Matrix.identity(GF(2), 2)
    with pytest.raises(DimensionMismatchError):
        a * Matrix.zeros(QQ, 3, 3)


def test_lift_and_substitute():
    a = Matrix.from_rows(QQ, [[1, 2], [0, 1]])
    lifted = lift_matrix(a, EPS)
    assert lifted.ring == EPS


def test_bareiss_handles_zero_pivot_columns():
    m = Matrix.from_rows(QQ, [[0, 0, 1], [0, 0, 2], [1, 0, 0]])
    assert mat_rank(m) == 2


def test_matrix_dimensions_must_be_nonnegative_ints():
    for bad in (True, False, -1, 2.0):
        with pytest.raises(DimensionMismatchError, match="bad matrix dimension"):
            Matrix(QQ, bad, 2, [1, 2])
        with pytest.raises(DimensionMismatchError, match="bad matrix dimension"):
            Matrix.zeros(QQ, 2, bad)
        with pytest.raises(DimensionMismatchError, match="bad matrix dimension"):
            Matrix.identity(QQ, bad)
    # zero stays a dimension: the empty row list is the 0 x 0 matrix
    assert Matrix.from_rows(QQ, []) == Matrix.zeros(QQ, 0, 0) == Matrix.identity(QQ, 0)
    assert Matrix(QQ, 0, 3, []).cols == 3


def test_mixed_field_entries_rejected():
    with pytest.raises(FieldMismatchError):
        Matrix(QQ, 1, 2, [QQ.one(), GF(2).one()])


# -- the elimination kernel over every ring --------------------------------------

RINGS = {"Q": QQ, "F2": GF(2), "F3": GF(3), "F4": GF(2, 2), "Q(eps)": EPS}


def _random_element(ring, rng):
    """A small random element; zero often, so that pivots need row swaps."""
    if rng.random() < 0.4:
        return ring.zero()
    if ring == EPS:
        a, b = EPS.from_int(rng.randint(-2, 2)), EPS.from_int(rng.randint(-2, 2))
        return a + b * EPS.eps(rng.randint(-1, 2))
    if ring == QQ:
        return QQ.from_int(rng.randint(-3, 3))
    return rng.choice(list(ring.elements()))


def _leibniz_det(m):
    """Independent oracle: the permutation-sum determinant."""
    n = m.rows
    total = m.ring.zero()
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = m.ring.one()
        for i, j in enumerate(perm):
            term = term * m[i, j]
        total = total - term if inversions % 2 else total + term
    return total


def test_det_needs_row_swaps_in_every_ring():
    for ring in RINGS.values():
        one, zero = ring.one(), ring.zero()
        swap = Matrix(ring, 2, 2, [zero, one, one, zero])
        assert mat_det(swap) == -one
        cycle = Matrix(ring, 3, 3, [zero, one, zero, zero, zero, one, one, zero, zero])
        assert mat_det(cycle) == one
        if ring is not EPS:  # K(eps) has no field division
            assert mat_inverse(cycle) == cycle.transpose()


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(RINGS)), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_det_inverse_and_solve_match_oracles(ring_name, n, seed):
    ring = RINGS[ring_name]
    rng = random.Random(seed)
    a = Matrix(ring, n, n, [_random_element(ring, rng) for _ in range(n * n)])
    det = mat_det(a)
    assert det == _leibniz_det(a)
    if ring is EPS:
        return  # K(eps) has no field division: mat_inverse and mat_solve refuse it
    if det:
        assert a * mat_inverse(a) == Matrix.identity(ring, n)
    else:
        with pytest.raises(ZeroDivisionError):
            mat_inverse(a)

    # A consistent system: b is the image of a random vector.
    b = a.apply([_random_element(ring, rng) for _ in range(n)])
    x = mat_solve(a, b)
    assert x is not None and a.apply(x) == b

    # An inconsistent one: the last row of a singular matrix is a combination
    # of the others, y = (c, -1) is a left null vector, and y . b != 0.
    if n == 0:
        return
    rows = [[_random_element(ring, rng) for _ in range(n)] for _ in range(n - 1)]
    c = [_random_element(ring, rng) for _ in range(n - 1)]
    last = [ring.zero()] * n
    for ci, row in zip(c, rows):
        last = [u + ci * v for u, v in zip(last, row)]
    order = list(range(n))
    rng.shuffle(order)
    all_rows = rows + [last]
    y = c + [-ring.one()]
    b = [_random_element(ring, rng) for _ in range(n)]
    if not sum((yi * bi for yi, bi in zip(y, b)), ring.zero()):
        b[-1] = b[-1] + ring.one()
    singular = Matrix.from_rows(ring, [all_rows[i] for i in order])
    assert mat_solve(singular, [b[i] for i in order]) is None


# -- the fraction-free kernel over K(eps) --------------------------------------------


def _random_eps_element(ring, rng):
    """Zero, a Laurent polynomial, or a product of two, so that pivots with
    several terms occur."""
    kind = rng.randrange(4)
    if kind == 0:
        return ring.zero()

    def poly(low, high):
        return sum(
            (ring.eps(n) * ring.coerce(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             if ring.base is QQ else ring.eps(n) * ring.from_int(rng.randrange(ring.base.p))
             for n in range(low, high)),
            ring.zero(),
        )

    num = poly(rng.randint(-2, 1), rng.randint(2, 4))
    if kind == 3:
        return num * poly(0, rng.randint(2, 3))
    return num


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((QQ, GF(2), GF(5))), st.integers(0, 4), st.booleans(), st.integers(0, 2**32 - 1)
)
def test_eps_det_matches_echelon_pivot_product(base, n, singular, seed):
    ring = EpsField(base)
    rng = random.Random(seed)
    rows = [[_random_eps_element(ring, rng) for _ in range(n)] for _ in range(n)]
    if singular and n >= 2:
        # the last row a combination of earlier ones: det is exactly zero
        a, b = _random_eps_element(ring, rng), _random_eps_element(ring, rng)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[n - 2])]
    m = Matrix.from_rows(ring, rows) if n else Matrix.zeros(ring, 0, 0)
    det = mat_det(m)
    assert det == _leibniz_det(m)
    if singular and n >= 2:
        assert det == ring.zero()


def _minor_rank(m):
    """The reference rank: the largest k with a nonzero k x k minor, each
    minor a permutation-sum determinant."""
    for k in range(min(m.rows, m.cols), 0, -1):
        for rows in itertools.combinations(range(m.rows), k):
            for cols in itertools.combinations(range(m.cols), k):
                minor = Matrix(m.ring, k, k, [m.entries[i * m.cols + j] for i in rows for j in cols])
                if _leibniz_det(minor):
                    return k
    return 0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((QQ, GF(2), GF(5))),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
    st.sets(st.integers(0, 4), max_size=3),
    st.integers(0, 2),
)
def test_eps_rank_matches_largest_nonzero_minor(base, nrows, ncols, seed, zero_cols, dependent):
    # Zero columns make the kernel skip a column without a pivot; dependent
    # rows (combinations of the rows above them) make it run out of pivots
    # and leave later columns pivot-free too.  The rank alone would not
    # notice a kernel that skips the exact division by the previous pivot
    # (that only scales rows by nonzero factors), so square draws also
    # check the determinant the same kernel gives.
    ring = EpsField(base)
    rng = random.Random(seed)
    rows = [
        [ring.zero() if j in zero_cols else _random_eps_element(ring, rng) for j in range(ncols)]
        for _ in range(nrows)
    ]
    for i in range(max(1, nrows - dependent), nrows):
        a, b = _random_eps_element(ring, rng), _random_eps_element(ring, rng)
        rows[i] = [a * x + b * y for x, y in zip(rows[0], rows[i - 1])]
    m = Matrix.from_rows(ring, rows)
    assert mat_rank(m) == _minor_rank(m)
    if nrows == ncols:
        assert mat_det(m) == _leibniz_det(m)
