"""Exact matrix algebra over Q, F_p, F_{p^m} and K(eps).

Matrices are immutable row-major arrays of Scalars (over Q, F_p or F_{p^m})
or RatFuncs (over K(eps)), tagged with their ring.

One kernel, `_echelon`, does Gaussian elimination with field division in any
supported ring; it reduces the leading columns of a row list in place and
returns the pivot columns and the parity of the row swaps.  Everything is
built on it: `mat_solve` eliminates [A | b] and back-substitutes, `mat_det`
is the swap sign times the product of the pivots, `mat_inverse` eliminates
[A | I] once and back-substitutes each column of I, and `mat_rank` counts
its pivots.  The one other route is rank over F_2, the hot case of the
order-4 partition-rank gates: there rows are packed into bitmasks and
reduced by XOR.  All results are exact.
"""

from __future__ import annotations

from .errors import DimensionMismatchError, FieldMismatchError
from .fields import GF
from .ratfunc import EpsField, RatFunc


class Matrix:
    """Immutable rows x cols matrix over a FieldSpec or EpsField."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, rows: int, cols: int, entries):
        entries = tuple(ring.coerce(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

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
        one, zero = ring.one(), ring.zero()
        return cls(ring, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, ring, rows: int, cols: int):
        zero = ring.zero()
        return cls(ring, rows, cols, [zero] * (rows * cols))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.ring,
            self.cols,
            self.rows,
            [self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)],
        )

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
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = self.ring.zero()
                for t in range(self.cols):
                    a = ri[t]
                    if a:
                        acc = acc + a * other.entries[t * other.cols + j]
                out.append(acc)
        return Matrix(self.ring, self.rows, other.cols, out)

    def scale(self, c) -> "Matrix":
        c = self.ring.coerce(c)
        return Matrix(self.ring, self.rows, self.cols, [c * e for e in self.entries])

    def apply(self, vector):
        """Matrix-vector product; vector is a sequence of ring elements."""
        vector = [self.ring.coerce(v) for v in vector]
        if len(vector) != self.cols:
            raise DimensionMismatchError("vector length does not match column count")
        out = []
        for i in range(self.rows):
            acc = self.ring.zero()
            for a, v in zip(self.row(i), vector):
                if a and v:
                    acc = acc + a * v
            out.append(acc)
        return out

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(self.rows)
        )
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


def _echelon(rows, ncols: int):
    """Row-reduce the first ncols columns of rows in place by field division.

    Rows may be wider than ncols; the extra (augmented) columns take part in
    every row operation but never supply a pivot.  Returns the pivot column of
    each leading row and the parity of the row swaps made.
    """
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
        inv = prow[col].inverse()
        for r in range(rank + 1, nrows):
            f = rows[r][col]
            if f:
                f = f * inv
                rr = rows[r]
                for c in range(col, width):
                    rr[c] = rr[c] - f * prow[c]
        pivots.append(col)
    return pivots, parity


def _back_substitute(rows, pivots, ncols: int, rhs: int, zero):
    """The solution, free variables zero, whose right-hand side is column
    `rhs` of an echelon form from `_echelon`."""
    x = [zero] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        acc = rows[r][rhs]
        for c in range(col + 1, ncols):
            if rows[r][c] and x[c]:
                acc = acc - rows[r][c] * x[c]
        x[col] = acc / rows[r][col]
    return x


def mat_rank(m: Matrix) -> int:
    """Exact rank: rows packed into bitmasks over F_2, `_echelon` elsewhere."""
    if m.ring is _F2:
        rows = []
        for i in range(m.rows):
            bits = 0
            for j, e in enumerate(m.row(i)):
                if e.value:
                    bits |= 1 << j
            rows.append(bits)
        return _gf2_rank(rows)
    return len(_echelon(m.to_rows(), m.cols)[0])


def mat_solve(a: Matrix, b):
    """One exact solution of a x = b, or None when the system is inconsistent.

    b is a sequence of ring elements of length a.rows; free variables are set
    to zero.  Works over Q, F_p, F_{p^m} and K(eps).
    """
    b = [a.ring.coerce(v) for v in b]
    if len(b) != a.rows:
        raise DimensionMismatchError(f"matrix has {a.rows} rows but b has {len(b)}")
    rows = [list(a.row(i)) + [b[i]] for i in range(a.rows)]
    pivots, _ = _echelon(rows, a.cols)
    if any(rows[r][a.cols] for r in range(len(pivots), a.rows)):
        return None
    return _back_substitute(rows, pivots, a.cols, a.cols, a.ring.zero())


def mat_det(m: Matrix):
    """Exact determinant of a square matrix (any supported ring): the swap
    sign times the product of the pivots of `_echelon`."""
    if m.rows != m.cols:
        raise DimensionMismatchError("determinant of a non-square matrix")
    rows = m.to_rows()
    pivots, parity = _echelon(rows, m.cols)
    if len(pivots) < m.rows:
        return m.ring.zero()
    det = -m.ring.one() if parity else m.ring.one()
    for i in range(m.rows):
        det = det * rows[i][i]
    return det


def mat_inverse(m: Matrix) -> Matrix:
    """Exact inverse of a square invertible matrix: one elimination of [m | I]."""
    if m.rows != m.cols:
        raise DimensionMismatchError("inverse of a non-square matrix")
    n = m.rows
    one, zero = m.ring.one(), m.ring.zero()
    rows = [list(m.row(i)) + [one if i == j else zero for j in range(n)] for i in range(n)]
    pivots, _ = _echelon(rows, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    cols = [_back_substitute(rows, pivots, n, n + j, zero) for j in range(n)]
    return Matrix(m.ring, n, n, [cols[j][i] for i in range(n) for j in range(n)])


def lift_matrix(m: Matrix, ring: EpsField) -> Matrix:
    """Reinterpret a base-field matrix over K(eps)."""
    if isinstance(m.ring, EpsField):
        if m.ring is not ring:
            raise FieldMismatchError("matrix already over a different K(eps)")
        return m
    return Matrix(ring, m.rows, m.cols, [ring.lift(e) for e in m.entries])


def substitute_matrix(m: Matrix, n: int) -> Matrix:
    """Entrywise eps -> eps^n substitution for a K(eps) matrix."""
    if not isinstance(m.ring, EpsField):
        raise FieldMismatchError("power substitution needs a K(eps) matrix")
    return Matrix(m.ring, m.rows, m.cols, [e.substitute_power(n) for e in m.entries])
