"""Dense order-k tensors and the restriction calculus.

A :class:`Tensor` is an immutable dense array over Q, F_p, F_{p^m} or K(eps), with
row-major flat storage and 0-based indices throughout (the customary basis
vectors e_1, e_2 are indices 0, 1 here).  Like a Matrix it holds raw values
of its ring (`entries`), boxes what ``t[idx]`` reads, and is built from raw
values by `Tensor._from_raw` inside the package.  Alongside the standard tensors
(unit tensor, W-tensor) this module provides the Kronecker product, the
I-vs-complement flattenings, and restriction by a tuple of linear maps, one
per factor.

Every reshuffle of entries (flattenings, slices, axis permutations, the
Kronecker product) is a gather through one cached axis-order map,
``_axis_order(dims, perm)``; `flatten` (and the rank-one flattening gate,
which reads rows in place) reads it, with its row count and its axis
checks, from one cached plan per (dims, axes).  `restrict` over Q and
over K(eps) (whose values are Laurent polynomials) is one integer pass over
all axes, ``_integer_restrict``: it carries the support as integer
numerators over denominators, read off each entry as it stands (a
Fraction's numerator, a RatFunc's coefficient map), scales each map row and
each source fiber along an axis over the lcm of its own denominators, and
builds one Fraction or RatFunc per nonzero output entry.  The same pass,
through `restrict` itself, expands a base-field tensor under K(eps) curves,
reading its entries as constants with no lifted copy.
Over F_p and F_{p^m} it takes one ``mode_apply`` per axis: one map applied
along one axis with the ring's own add and mul (padding and the covector
tables of the brute-force oracles).

Kronecker index convention: the combined index on factor j is
``i_j * m_j + i'_j`` (left factor major); tests depend on it bit-exactly.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DimensionMismatchError, FieldMismatchError
from .fields import QQ, FieldSpec
from .linalg import Matrix
from .ratfunc import EpsField, _add_product, _integer_laurent, _reduce, _rf


class Tensor:
    """Immutable dense tensor of order k >= 1 over a FieldSpec or EpsField."""

    __slots__ = ("ring", "dims", "entries")

    def __new__(cls, ring, dims, entries):
        t = cls.zeros(ring, dims)  # validates dims
        entries = tuple(map(ring._raw, entries))
        if len(entries) != t.size:
            raise DimensionMismatchError(f"dims {t.dims} need {t.size} entries, got {len(entries)}")
        return cls._from_raw(ring, t.dims, entries)

    @classmethod
    def _from_raw(cls, ring, dims, entries) -> "Tensor":
        """The tensor with raw entries already reduced in ring (unchecked)."""
        t = object.__new__(cls)
        object.__setattr__(t, "ring", ring)
        object.__setattr__(t, "dims", dims)
        object.__setattr__(t, "entries", tuple(entries))
        return t

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def zeros(cls, ring, dims):
        dims = tuple(dims)
        if not dims or any(type(d) is bool or not isinstance(d, int) or d < 1 for d in dims):
            raise DimensionMismatchError(f"bad tensor dimensions {dims}")
        return cls._from_raw(ring, dims, [ring._raw(0)] * math.prod(dims))

    @classmethod
    def from_dict(cls, ring, dims, items):
        """Build from a {multi-index: value} mapping; omitted entries are zero."""
        t = cls.zeros(ring, dims)
        entries = list(t.entries)
        for idx, value in items.items():
            entries[t.flat_index(idx)] = ring._raw(value)
        return cls._from_raw(ring, t.dims, entries)

    @property
    def order(self) -> int:
        return len(self.dims)

    @property
    def size(self) -> int:
        return len(self.entries)

    def flat_index(self, idx) -> int:
        idx = tuple(idx)
        if len(idx) != len(self.dims):
            raise DimensionMismatchError(f"index {idx} has wrong length for dims {self.dims}")
        flat = 0
        for i, d, s in zip(idx, self.dims, _strides(self.dims)):
            if not 0 <= i < d:
                raise DimensionMismatchError(f"index {idx} out of range for dims {self.dims}")
            flat += i * s
        return flat

    def multi_index(self, flat: int):
        idx = []
        for s in _strides(self.dims):
            idx.append(flat // s)
            flat %= s
        return tuple(idx)

    def __getitem__(self, idx):
        if isinstance(idx, int):
            idx = (idx,)
        return self.ring._box(self.entries[self.flat_index(idx)])

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.ring is other.ring
            and self.dims == other.dims
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ring, self.dims, self.entries))

    def _entrywise(self, op, other, what):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.ring is not other.ring or self.dims != other.dims:
            raise DimensionMismatchError(f"tensor {what} needs equal rings and dims")
        return Tensor._from_raw(self.ring, self.dims, map(op, self.entries, other.entries))

    def __add__(self, other):
        return self._entrywise(self.ring.add, other, "sum")

    def __sub__(self, other):
        return self._entrywise(self.ring.sub, other, "difference")

    def __neg__(self):
        return Tensor._from_raw(self.ring, self.dims, map(self.ring.neg, self.entries))

    def scale(self, c) -> "Tensor":
        c, mul = self.ring._raw(c), self.ring.mul
        return Tensor._from_raw(self.ring, self.dims, [mul(c, e) for e in self.entries])

    def permute_axes(self, perm) -> "Tensor":
        """Reorder factors; perm[a] is the source axis placed at position a."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.order)):
            raise DimensionMismatchError(f"bad axis permutation {perm}")
        entries = [self.entries[f] for f in _axis_order(self.dims, perm)]
        return Tensor._from_raw(self.ring, tuple(self.dims[a] for a in perm), entries)

    def __repr__(self):
        shape = "x".join(str(d) for d in self.dims)
        nz = sum(1 for e in self.entries if e)
        return f"Tensor({self.ring.name}, {shape}, {nz} nonzero)"


@functools.cache
def _strides(dims) -> tuple[int, ...]:
    """Row-major strides of a dims-shaped tensor."""
    strides = [1] * len(dims)
    for a in range(len(dims) - 2, -1, -1):
        strides[a] = strides[a + 1] * dims[a + 1]
    return tuple(strides)


@functools.cache
def _axis_order(dims, perm) -> tuple[int, ...]:
    """Flat indices of a dims-shaped tensor, listed in the row-major order of
    its axes permuted by perm (perm[a] is the source axis placed at position
    a, perm[0] outermost).  Gathering entries through it permutes the axes."""
    strides = _strides(dims)
    order = [0]
    for a in perm:
        s = strides[a]
        order = [f + i * s for f in order for i in range(dims[a])]
    return tuple(order)


def unit_tensor(k: int, r: int, field: FieldSpec) -> Tensor:
    """The diagonal tensor of order k and rank r: ones at (i, ..., i)."""
    if k < 2 or r < 1:
        raise ValueError("unit tensor needs k >= 2 and r >= 1")
    return Tensor.from_dict(field, (r,) * k, {(i,) * k: 1 for i in range(r)})


def w_tensor(k: int, dims, field: FieldSpec) -> Tensor:
    """The order-k W-tensor: ones exactly on the permutations of (1, 0, ..., 0)."""
    dims = tuple(dims)
    if k < 2 or len(dims) != k:
        raise ValueError("W-tensor needs k >= 2 matching dims")
    if any(d < 2 for d in dims):
        raise DimensionMismatchError(f"W-tensor needs every dimension >= 2, got {dims}")
    items = {}
    for t in range(k):
        idx = [0] * k
        idx[t] = 1
        items[tuple(idx)] = 1
    return Tensor.from_dict(field, dims, items)


def kronecker(t: Tensor, s: Tensor) -> Tensor:
    """Factor-wise Kronecker product; combined index i_j * m_j + i'_j."""
    if t.order != s.order:
        raise DimensionMismatchError("Kronecker product needs equal orders")
    if t.ring is not s.ring:
        raise FieldMismatchError("Kronecker product needs a common field")
    # The outer product has axes (t_0, ..., t_(k-1), s_0, ..., s_(k-1));
    # ordering them (t_0, s_0, t_1, s_1, ...) and merging pairs gives the
    # combined index i_j * m_j + i'_j.
    k = t.order
    mul = t.ring.mul
    outer = [mul(et, es) for et in t.entries for es in s.entries]
    perm = tuple(a for j in range(k) for a in (j, k + j))
    dims = tuple(n * m for n, m in zip(t.dims, s.dims))
    return Tensor._from_raw(t.ring, dims, [outer[f] for f in _axis_order(t.dims + s.dims, perm)])


@functools.cache
def _flatten_plan(dims, axes: frozenset) -> tuple[int, tuple[int, ...]]:
    """The row count of the axes-flattening of a dims-shaped tensor and the
    flat indices that gather its entries; axes must be a nonempty proper
    subset of range(len(dims))."""
    if not axes or len(axes) >= len(dims):
        raise DimensionMismatchError("flattening needs a nonempty proper subset of axes")
    if not axes <= frozenset(range(len(dims))):
        raise DimensionMismatchError(f"axes {sorted(axes)} out of range for order {len(dims)}")
    rows = tuple(sorted(axes))
    co_axes = tuple(a for a in range(len(dims)) if a not in axes)
    return math.prod(dims[a] for a in rows), _axis_order(dims, rows + co_axes)


def flatten(t: Tensor, axes) -> Matrix:
    """The I-flattening: rows indexed by the axes in I, columns by the rest.

    Both sides are enumerated row-major in ascending axis order.
    """
    nrows, order = _flatten_plan(t.dims, frozenset(axes))
    entries = t.entries
    return Matrix._from_raw(t.ring, nrows, t.size // nrows, [entries[f] for f in order])


def _check_map(ring, dims, m: Matrix, axis: int):
    """Refuse a map over a ring other than ring, or of the wrong width for
    axis of a dims-shaped tensor."""
    if m.ring is not ring:
        raise FieldMismatchError("map and tensor over different rings")
    if m.cols != dims[axis]:
        raise DimensionMismatchError(
            f"map is {m.rows}x{m.cols} but axis {axis} has dimension {dims[axis]}"
        )


def mode_apply(t: Tensor, m: Matrix, axis: int) -> Tensor:
    """Apply one linear map along a single axis."""
    _check_map(t.ring, t.dims, m, axis)
    # Work in axis-first order: the source is then an n x rest matrix and
    # output row j is sum_i m[j, i] * (source row i).
    ring = t.ring
    add, mul = ring.add, ring.mul
    perm = (axis,) + tuple(a for a in range(t.order) if a != axis)
    rest = t.size // m.cols
    src = [t.entries[f] for f in _axis_order(t.dims, perm)]
    out = [ring._raw(0)] * (m.rows * rest)
    for i in range(m.cols):
        column = [(j * rest, c) for j, c in enumerate(m.column(i)) if c]
        if not column:
            continue
        for r, e in enumerate(src[i * rest : (i + 1) * rest]):
            if not e:
                continue
            for base, c in column:
                out[base + r] = add(out[base + r], mul(c, e))
    new_dims = t.dims[:axis] + (m.rows,) + t.dims[axis + 1 :]
    entries = [None] * len(out)
    for f, e in zip(_axis_order(new_dims, perm), out):
        entries[f] = e
    return Tensor._from_raw(ring, new_dims, entries)


def restrict(t: Tensor, maps) -> Tensor:
    """Restriction by a tuple of linear maps, one map per factor.

    The maps are over the tensor's ring, or all over K(eps) for a tensor
    over its base field K: that expands the tensor under degeneration
    curves, its entries read as constants, and the result is over K(eps).
    Every other pairing of rings, and a map of the wrong width, is refused
    before any arithmetic.  Over Q and K(eps) one pass of
    `_integer_restrict`; over F_p and F_{p^m} one `mode_apply` per axis.
    """
    maps = tuple(maps)
    if len(maps) != t.order:
        raise DimensionMismatchError(f"need {t.order} maps, got {len(maps)}")
    ring = maps[0].ring
    if not (isinstance(ring, EpsField) and t.ring is ring.base):
        ring = t.ring
    for axis, m in enumerate(maps):
        _check_map(ring, t.dims, m, axis)
    if ring is QQ or isinstance(ring, EpsField):
        return _integer_restrict(t, maps)
    out = t
    for axis, m in enumerate(maps):
        out = mode_apply(out, m, axis)
    return out


def _q_integers(field, values):
    """Fractions as ints over the lcm d of their denominators: (d, [d * e]),
    as `ratfunc._integer_laurent` rescales RatFuncs."""
    d = math.lcm(*[e.denominator for e in values])
    return d, [e.numerator * (d // e.denominator) for e in values]


def _add_ints(out: dict, base: int, column, a: int, scale: int):
    """out[base + shift] += scale * a * b for the (shift, b) of a map column."""
    a *= scale
    for shift, b in column:
        f = base + shift
        out[f] = out.get(f, 0) + a * b


def _add_laurent(out: dict, base: int, column, a: dict, scale: int):
    """`_add_ints` on integer coefficient maps, by `ratfunc._add_product`."""
    for shift, b in column:
        acc = out.get(base + shift)
        if acc is None:
            acc = out[base + shift] = {}
        _add_product(acc, a, b, scale)


def _integer_restrict(t: Tensor, maps) -> Tensor:
    """`restrict` on integer numerators, over Q or K(eps), for a tensor and
    checked maps; the result is over the maps' ring.

    The support is carried through all axes as {flat index: (d, value)},
    each entry over its own denominator d: a Fraction's (denominator,
    numerator) over Q, a RatFunc's own (_d, _c) over K(eps).  A tensor over
    the base field of K(eps) maps is read straight into constants, (den,
    {0: num}) over Q and (1, {0: r}) over F_p, the forms `lift_tensor`
    would give its entries.  At each axis every map row is scaled over the
    lcm of its own denominators and every source fiber along the axis over
    the lcm of its own, so each output entry is an integer sum over the
    product of the two scales, accumulated by `_add_ints` or
    `_add_laurent`; it is brought to lowest terms before the next axis, so a
    RatFunc wraps the last one as it stands.  Zero fibers and zero map rows
    cost nothing past the scan, an identity map costs only its own scan, the
    fiber lcms are taken only when some denominator is not 1, and one
    Fraction or RatFunc is built per nonzero output entry.
    """
    ring = maps[0].ring
    laurent = ring is not QQ
    if laurent:
        field, scaled, add = ring.base, _integer_laurent, _add_laurent
        if t.ring is ring:
            support = {f: (e._d, e._c) for f, e in enumerate(t.entries) if e}
        elif field is QQ:
            support = {
                f: (e.denominator, {0: e.numerator}) for f, e in enumerate(t.entries) if e
            }
        else:
            support = {f: (1, {0: e}) for f, e in enumerate(t.entries) if e}
    else:
        field, scaled, add = QQ, _q_integers, _add_ints
        support = {f: (e.denominator, e.numerator) for f, e in enumerate(t.entries) if e}
    one = {0: 1} if laurent else 1
    dims = list(t.dims)
    for axis, m in enumerate(maps):
        n, s, rows = m.cols, math.prod(dims[axis + 1 :]), m.rows
        ns, rs = n * s, rows * s
        row_den, column = [], [[] for _ in range(n)]  # column[i]: (output offset, entry)
        for j in range(rows):
            dj, row = scaled(field, m.row(j))
            row_den.append(dj)
            for i, c in enumerate(row):
                if c:
                    column[i].append((j * s, c))
        if rows == n and all(
            col == [(i * s, one)] and row_den[i] == 1 for i, col in enumerate(column)
        ):
            continue  # the identity map
        ones = all(d == 1 for d, _ in support.values())
        fiber_den = {}  # fiber (hi, lo) along the axis, keyed hi * s + lo
        if not ones:
            for f, (d, _) in support.items():
                key = f // ns * s + f % s
                fiber_den[key] = math.lcm(fiber_den.get(key, 1), d)
        out = {}
        for f, (d, a) in support.items():
            hi, lo = divmod(f, ns)
            i, lo = divmod(lo, s)
            add(out, hi * rs + lo, column[i], a, 1 if ones else fiber_den[hi * s + lo] // d)
        support = {}
        for f, acc in out.items():
            hi, lo = divmod(f, rs)
            j, lo = divmod(lo, s)
            d = row_den[j] if ones else fiber_den[hi * s + lo] * row_den[j]
            if laurent:
                d = _reduce(field, d, acc)
            elif d != 1:
                g = math.gcd(d, acc)
                d, acc = d // g, acc // g
            if acc:
                support[f] = d, acc
        dims[axis] = rows
    entries = [ring._raw(0)] * math.prod(dims)
    for f, (d, c) in support.items():
        entries[f] = _rf(field, d, c) if laurent else Fraction(c, d)
    return Tensor._from_raw(ring, tuple(dims), entries)


def identity_maps(t: Tensor):
    """The identity map tuple for a tensor's shape."""
    return tuple(Matrix.identity(t.ring, d) for d in t.dims)


def compose_maps(outer, inner):
    """Componentwise matrix product: (outer o inner) as a map tuple."""
    if len(outer) != len(inner):
        raise DimensionMismatchError("map tuples of different lengths")
    return tuple(o * i for o, i in zip(outer, inner))


def pad(t: Tensor, dims) -> Tensor:
    """Embed a tensor into larger dimensions, zero-filling new coordinates."""
    dims = tuple(dims)
    if len(dims) != t.order or any(d < n for d, n in zip(dims, t.dims)):
        raise DimensionMismatchError(f"cannot pad {t.dims} into {dims}")
    ring = t.ring
    one, zero = ring._raw(1), ring._raw(0)
    inclusions = [
        Matrix._from_raw(ring, d, n, [one if i == j else zero for i in range(d) for j in range(n)])
        for d, n in zip(dims, t.dims)
    ]
    return restrict(t, inclusions)


def lift_tensor(t: Tensor, ring) -> Tensor:
    """Reinterpret a tensor over an extension: a base-field tensor over
    K(eps) (ring an EpsField), or an F_p tensor over F_{p^m} (ring an
    ExtensionField of characteristic p)."""
    if isinstance(t.ring, EpsField):
        if t.ring is not ring:
            raise FieldMismatchError("tensor already over a different K(eps)")
        return t
    return Tensor._from_raw(ring, t.dims, map(ring._embedding(t.ring), t.entries))


def as_matrix(t: Tensor) -> Matrix:
    """View an order-2 tensor as a matrix."""
    if t.order != 2:
        raise DimensionMismatchError("only order-2 tensors are matrices")
    return Matrix._from_raw(t.ring, t.dims[0], t.dims[1], t.entries)
