"""Exact matrix algebra over Q, F_p, F_{p^m} and K(eps).

Matrices are immutable row-major arrays of the raw values of their ring
(Fractions over Q, ints over F_p and F_{p^m}, RatFuncs over K(eps)): `entries`,
`row`, `column` and `to_rows` are raw, while ``m[i, j]`` and public results
are boxed.  Constructors coerce ints, Fractions and Scalars; inside the
package matrices are built from raw values by `Matrix._from_raw`.

Over the fields Q, F_p and F_{p^m} one kernel, `_echelon`, does Gaussian
elimination with field division; it reduces the leading columns of a row
list in place and returns the pivot columns and the parity of the row
swaps.  `mat_solve` eliminates [A | b] and back-substitutes, `mat_det` is
the swap sign times the product of the pivots, `mat_inverse` eliminates
[A | I] once and back-substitutes each column of I, and `mat_rank` counts
its pivots over F_p and F_{p^m}.  Rank has two other field routes.  Over
F_2, the hot case of the order-4 partition-rank gates, rows are packed into
bitmasks and reduced by XOR.  Over Q each row is scaled to the integer map
of its nonzero entries by `ratfunc._integer_map` (the form RatFunc
coefficients take) and the sparse integer rows are reduced fraction-free,
each updated row divided by its content.  Where the question is only
whether one row is a multiple of another (the rank-one flattening gate, the
one-vector step of the certificate builder's valuation reduction), `_ratio`
answers it by cross-multiplying against the first nonzero entry, with no
elimination.

K(eps) holds Laurent polynomials, a ring whose only units are the monomials
c*eps^n, so it has no field division: `mat_rank`, `mat_solve`, `mat_det` and
`mat_inverse` refuse it, and no elimination runs over it.  The one question
a degeneration curve poses, whether it is invertible, `_eps_invertible`
answers over the base field: it evaluates the curve at enough points eps = a
that a determinant which is not identically zero cannot vanish at all of
them, and ranks each evaluation by the kernels above.  All results are
exact.
"""

from __future__ import annotations

import functools
import math

from .errors import DimensionMismatchError, FieldMismatchError
from .fields import GF, QQ, _extension_past
from .ratfunc import EpsField, _integer_map


def _check_dims(*dims):
    """Refuse a matrix dimension that is not a nonnegative int (bools too)."""
    for d in dims:
        if type(d) is bool or not isinstance(d, int) or d < 0:
            raise DimensionMismatchError(f"bad matrix dimension {d!r}")


class Matrix:
    """Immutable rows x cols matrix over a FieldSpec or EpsField."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __new__(cls, ring, rows: int, cols: int, entries):
        _check_dims(rows, cols)
        entries = tuple(map(ring._raw, entries))
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        return cls._from_raw(ring, rows, cols, entries)

    @classmethod
    def _from_raw(cls, ring, rows: int, cols: int, entries) -> "Matrix":
        """The matrix with raw entries already reduced in ring (unchecked)."""
        m = object.__new__(cls)
        object.__setattr__(m, "ring", ring)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", tuple(entries))
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, ring, rows):
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise DimensionMismatchError("ragged rows")
        return cls(ring, n, m, [e for r in rows for e in r])

    @classmethod
    def identity(cls, ring, n: int):
        _check_dims(n)
        one, zero = ring._raw(1), ring._raw(0)
        entries = [one if i == j else zero for i in range(n) for j in range(n)]
        return cls._from_raw(ring, n, n, entries)

    @classmethod
    def zeros(cls, ring, rows: int, cols: int):
        _check_dims(rows, cols)
        return cls._from_raw(ring, rows, cols, [ring._raw(0)] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.ring._box(self.entries[i * self.cols + j])

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        entries = [e for j in range(self.cols) for e in self.column(j)]
        return Matrix._from_raw(self.ring, self.cols, self.rows, entries)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring is other.ring
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ring is not other.ring:
            raise FieldMismatchError("matrix product over different rings")
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ring = self.ring
        add, mul, zero = ring.add, ring.mul, ring._raw(0)
        b, width = other.entries, other.cols
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(width):
                acc = zero
                for t, a in enumerate(ri):
                    if a:
                        acc = add(acc, mul(a, b[t * width + j]))
                out.append(acc)
        return Matrix._from_raw(ring, self.rows, width, out)

    def scale(self, c) -> "Matrix":
        c, mul = self.ring._raw(c), self.ring.mul
        return Matrix._from_raw(self.ring, self.rows, self.cols, [mul(c, e) for e in self.entries])

    def apply(self, vector):
        """Matrix-vector product; vector is a sequence of ring elements."""
        column = Matrix(self.ring, len(vector), 1, vector)
        if column.rows != self.cols:
            raise DimensionMismatchError("vector length does not match column count")
        return [self.ring._box(e) for e in (self * column).entries]

    def __repr__(self):
        body = "; ".join(", ".join(map(self.ring.text, self.row(i))) for i in range(self.rows))
        return f"Matrix({self.ring.name}, [{body}])"


# -- elimination --------------------------------------------------------------

_F2 = GF(2)


def _gf2_rank(rows: list[int]) -> int:
    rank = 0
    for row in rows:
        cur = row
        for pivot in rows[:rank]:
            low = pivot & -pivot
            if cur & low:
                cur ^= pivot
        if cur:
            rows[rank] = cur
            rank += 1
    return rank


def _echelon(ring, rows, ncols: int):
    """Row-reduce the first ncols columns of rows (raw values) in place by field division.

    Rows may be wider than ncols; the extra (augmented) columns take part in
    every row operation but never supply a pivot.  Returns the pivot column of
    each leading row and the parity of the row swaps made.
    """
    sub, mul = ring.sub, ring.mul
    nrows = len(rows)
    width = len(rows[0]) if rows else 0
    pivots = []
    parity = 0
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            parity ^= 1
        prow = rows[rank]
        inv = ring.inv(prow[col])
        for r in range(rank + 1, nrows):
            f = rows[r][col]
            if f:
                f = mul(f, inv)
                rr = rows[r]
                for c in range(col, width):
                    if prow[c]:
                        rr[c] = sub(rr[c], mul(f, prow[c]))
        pivots.append(col)
    return pivots, parity


def _back_substitute(ring, rows, pivots, ncols: int, rhs: int):
    """The solution, free variables zero, whose right-hand side is column
    `rhs` of an echelon form from `_echelon`."""
    sub, mul = ring.sub, ring.mul
    x = [ring._raw(0)] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = rows[r][rhs]
        for c in range(col + 1, ncols):
            if rows[r][c] and x[c]:
                acc = sub(acc, mul(rows[r][c], x[c]))
        x[col] = mul(acc, ring.inv(rows[r][col]))
    return x


def _solve(ring, rows, ncols: int):
    """The solution, free variables zero, of the augmented rows (raw values,
    reduced in place) with right-hand side column ncols; None if inconsistent."""
    pivots, _ = _echelon(ring, rows, ncols)
    if any(row[ncols] for row in rows[len(pivots) :]):
        return None
    return _back_substitute(ring, rows, pivots, ncols, ncols)


def _ratio(ring, a, b):
    """The raw lam with b = lam * a, for rows a (not all zero) and b of raw
    values over a field, or None when b is no multiple of a.

    No elimination: with p0 = a[j0] the first nonzero entry of a, b is a
    multiple of a exactly when b[j] * p0 == a[j] * b[j0] for every j.  That
    holds at j0 itself, and before it only b[j] = 0 is left to test, so the
    products start past j0; a zero pair costs only its two truth tests.
    """
    mul = ring.mul
    j0 = next(j for j, x in enumerate(a) if x)
    p0, c = a[j0], b[j0]
    if not c:
        return None if any(b) else c
    if any(b[:j0]):
        return None
    for x, y in zip(a[j0 + 1 :], b[j0 + 1 :]):
        if x:
            if not y or mul(y, p0) != mul(x, c):
                return None
        elif y:
            return None
    return mul(c, ring.inv(p0))


def _q_rank(rows, ncols: int) -> int:
    """Rank over Q of rows given as {column: nonzero int} dicts, read until
    ncols of them are independent.

    Fraction-free elimination: each row is reduced against the pivot rows
    found so far, cur <- a * cur - b * pivot_row with a/b the ratio of the two
    entries in the pivot column in lowest terms, so only the pivot row's
    columns are touched when a = 1.  Every updated row is divided by its
    content.  A row left nonzero becomes a pivot row at its entry of least
    absolute value, made positive (so that a = 1 as often as possible); it
    has zeros in the pivot columns of all earlier pivot rows.
    """
    pivots = []
    for cur in rows:
        for col, lead, prow in pivots:
            f = cur.get(col)
            if f is None:
                continue
            g = math.gcd(lead, f)
            a, b = lead // g, f // g
            if a != 1:
                for c in cur:
                    cur[c] *= a
            for c, v in prow.items():
                w = cur.get(c, 0) - b * v
                if w:
                    cur[c] = w
                else:
                    del cur[c]
            if not cur:
                break
            g = math.gcd(*cur.values())
            if g != 1:
                for c in cur:
                    cur[c] //= g
        if cur:
            col = min(cur, key=lambda c: abs(cur[c]))
            if cur[col] < 0:
                for c in cur:
                    cur[c] = -cur[c]
            pivots.append((col, cur[col], cur))
            if len(pivots) == ncols:
                break
    return len(pivots)


def _over_a_field(m: Matrix, what: str):
    """Refuse a K(eps) matrix for a routine that needs field division."""
    if isinstance(m.ring, EpsField):
        raise FieldMismatchError(f"{what} needs field division, which {m.ring.name} lacks")


def mat_rank(m: Matrix) -> int:
    """Exact rank over a field: rows packed into bitmasks over F_2, rows
    scaled to integers over Q, `_echelon` over F_p and F_{p^m}."""
    if m.ring is _F2:
        rows = []
        for i in range(m.rows):
            bits = 0
            for j, e in enumerate(m.row(i)):
                if e:
                    bits |= 1 << j
            rows.append(bits)
        return _gf2_rank(rows)
    if m.ring is QQ:
        return _q_rank((_integer_map(m.row(i))[1] for i in range(m.rows)), m.cols)
    _over_a_field(m, "mat_rank")
    return len(_echelon(m.ring, m.to_rows(), m.cols)[0])


def mat_solve(a: Matrix, b):
    """One exact solution of a x = b, or None when the system is inconsistent.

    b is a sequence of ring elements of length a.rows; free variables are set
    to zero.  Works over Q, F_p and F_{p^m}.
    """
    _over_a_field(a, "mat_solve")
    ring = a.ring
    b = list(map(ring._raw, b))
    if len(b) != a.rows:
        raise DimensionMismatchError(f"matrix has {a.rows} rows but b has {len(b)}")
    x = _solve(ring, [list(a.row(i)) + [b[i]] for i in range(a.rows)], a.cols)
    return None if x is None else [ring._box(v) for v in x]


def mat_det(m: Matrix):
    """Exact determinant of a square matrix over Q, F_p or F_{p^m}: the swap
    sign times the product of the pivots of `_echelon`."""
    _over_a_field(m, "mat_det")
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    ring = m.ring
    rows = m.to_rows()
    pivots, parity = _echelon(ring, rows, m.cols)
    if len(pivots) < m.rows:
        return ring.zero()
    det = ring._raw(-1 if parity else 1)
    for i in range(m.rows):
        det = ring.mul(det, rows[i][i])
    return ring._box(det)


def _eps_invertible(m: Matrix) -> bool:
    """Whether the square K(eps) matrix m is invertible, that is whether
    det m is not identically zero, decided by evaluation at points.

    If row i's exponents lie in [low_i, high_i], its entries are eps^low_i
    times polynomials of degree at most high_i - low_i, so det m is
    eps^(sum low_i) times a polynomial P of degree at most
    D = sum (high_i - low_i).  A nonzero P has at most D roots, so it is zero
    exactly when it vanishes at D + 1 distinct nonzero points a, and at such
    an a, P(a) != 0 exactly when m(a) has full rank.  The points are tried in
    order until one gives full rank; a zero row ends the test at once.

    Row i is evaluated scaled by a^-low_i and, over Q, by the lcm of its
    denominators, which leaves the rank alone and gives integer entries
    (residues over F_p).  Over Q the points are 1, 2, ... and the rows are
    ranked by `_q_rank`, over F_p with p - 1 > D they are the residues
    1 .. D + 1, and otherwise the codes 1 .. D + 1 of the smallest F_{p^m}
    with p^m - 1 > D (F_p's own first), both ranked by `_echelon`.  A curve
    that needs more points than the largest extension field has raises
    SearchSpaceTooLargeError.
    """
    field, n = m.ring.base, m.rows
    rows, span, width = [], 0, 0
    for i in range(n):
        row = m.row(i)
        exponents = [e for x in row for e in x._c]
        if not exponents:
            return False
        low, high = min(exponents), max(exponents)
        rows.append((low, math.lcm(*[x._d for x in row]), row))
        span, width = span + high - low, max(width, high - low)
    ring = field
    if field.p is not None and field.p - 1 <= span:
        ring = _extension_past(field.p, span + 1, f"a curve of determinant span {span}")
    add, mul = ring.add, ring.mul
    for a in range(1, span + 2):
        powers = [ring.power(a, k) for k in range(width + 1)]
        if ring is QQ:
            table = [
                {j: v * (d // x._d) for j, x in enumerate(row)
                 if (v := sum([c * powers[e - low] for e, c in x._c.items()]))}
                for low, d, row in rows
            ]
            if _q_rank(table, n) == n:
                return True
        else:
            table = [
                [functools.reduce(add, [mul(c, powers[e - low]) for e, c in x._c.items()], 0)
                 for x in row]
                for low, _, row in rows
            ]
            if len(_echelon(ring, table, n)[0]) == n:
                return True
    return False


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square invertible matrix over Q, F_p or F_{p^m}:
    one elimination of [m | I]."""
    _over_a_field(m, "mat_inverse")
    if m.rows != m.cols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    n = m.rows
    ring = m.ring
    identity = Matrix.identity(ring, n)
    rows = [list(m.row(i)) + list(identity.row(i)) for i in range(n)]
    pivots, _ = _echelon(ring, rows, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    cols = [_back_substitute(ring, rows, pivots, n, n + j) for j in range(n)]
    return Matrix._from_raw(ring, n, n, [cols[j][i] for i in range(n) for j in range(n)])


def lift_matrix(m: Matrix, ring: EpsField) -> Matrix:
    """Reinterpret a base-field matrix over K(eps)."""
    if isinstance(m.ring, EpsField):
        if m.ring is not ring:
            raise FieldMismatchError("matrix already over a different K(eps)")
        return m
    return Matrix._from_raw(ring, m.rows, m.cols, map(ring._embedding(m.ring), m.entries))
