"""Flattening-rank signatures, partition-rank gates, and brute-force oracles.

Two independent routes decide whether a tensor has partition rank at least
two.  The direct route inspects the rank signature: partition rank one means
exactly that some flattening has rank one, so pR >= 2 holds iff the tensor
is nonzero and no flattening rank drops to one.  The recursive route fixes
the last factor p, requires rk(T_p) >= 2, and searches the image of T_p for
an order-(k-1) element that again has partition rank at least two.  It never
consults the direct route; the test suite checks that the two agree,
exhaustively over F_2 and F_3 and on seeded instances over Q and F_p.

The recursive route enumerates one fixed grid of image points, exactly over
every field.  An order-(k-1) image element has partition rank one exactly
when, for one of its S = 2^(k-2) - 1 canonical splits, every 2x2 minor of
that flattening vanishes; each minor is a quadratic form in the image
coordinates x_1 .. x_d.  If pR(T) >= 2 then, for every split, some minor is
not identically zero (otherwise, over the closure, a linear space of
rank-<=1 flattenings shares a factor and T itself has a rank-one
flattening), so the product of one such minor per split is a nonzero form F
of degree D = 2S.  Its dehomogenization F(1, y) is a nonzero polynomial of
degree at most D, so by the Combinatorial Nullstellensatz it does not vanish
on all of G^(d-1) for any set G of D + 1 field elements.  The gate therefore
walks the points of P^(d-1) whose first nonzero coordinate is 1 and whose
other coordinates lie in G, chart (1, G^(d-1)) first: G is 0 .. D over Q and
the first min(D + 1, q) codes over F_q.  The walk runs on raw entry rows: the
last-axis slices are the strided rows entries[j::n], the basis is read off
the pivot columns of their transpose (the runs of n entries), and each point
sum c_i S_i is a raw list the recursion descends into.  Only an order-2 leaf
becomes a Matrix, ranked by `mat_rank`.

When q <= D the grid is all of P^(d-1)(F_q), which can lack a witness, so a
"no" from a prime field F_p, p <= D, is rechecked once over the smallest
F_{p^m} with p^m > D: F_4 at order 3 and F_8 at order 4 over F_2, F_9 at
order 4 over F_3.  A "yes" is sound over any field, so every ground-field
"yes" stands without the recheck.

The brute-force oracles decide subrank and restriction over F_p by exhaustive
search over map tuples, driven by a precomputed table of the multilinear form
on all covector tuples.  Only the map tuples of the first k-1 factors are
enumerated.  The table gives, for each covector code of the first k-1
factors and each residue, the bitmask of last-factor covectors on which the
form takes that residue, so each row of the last factor's map gets its
candidates by ANDing masks, and a prefix that leaves some row without
candidates is dropped unseen by the last factor.  The last factor's tuples
are scanned in their own order, so the first match is the one the full
product order gives: the same witness and the same verdict.

The subrank oracle returns only a verdict, so it searches one map tuple per
orbit of the stabilizer of the unit tensor <r>: simultaneous row
permutations P, and invertible diagonals D_0 .. D_{k-1} whose product is I.
If (A_j) restricts T to <r>, so does (D_j P A_j).  For order k >= 2 the
rows of each A_j are pairwise non-proportional, since every flattening of
<r> has rank r, so the diagonals can make every row of the first k-1
factors monic (lowest nonzero base-p digit 1), the last factor absorbing
the scaling, and P can sort factor 0's rows.  So factor 0 takes increasing
r-tuples and every later factor ordered r-tuples, of monic codes on the
first k-1 factors and of every nonzero code on the last.  The rule needs no
exception at order 1: factor 0 is then the last, and row permutations alone
fix the all-ones vector <r>, so it takes increasing r-tuples of nonzero
codes.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    SearchBudgetError,
    SearchSpaceTooLargeError,
    ZeroTensorError,
)
from .fields import GF, FieldSpec
from .linalg import Matrix, _echelon, mat_rank
from .tensors import Tensor, _strides, flatten, identity_maps, lift_tensor, restrict

DEFAULT_BRUTE_CEILING = 2**30
DEFAULT_START_BOUND = 8
DEFAULT_COMPRESS_BUDGET = 64


class RankSignature:
    """Exact ranks of every flattening, stored on canonical subsets only.

    The I-flattening and its complement are transposes, so only one
    representative per pair is kept: the smaller side, ties broken by
    membership of axis 0.  Keys are frozensets of 0-based axes.
    """

    __slots__ = ("dims", "ranks")

    def __init__(self, dims, ranks):
        object.__setattr__(self, "dims", tuple(dims))
        object.__setattr__(self, "ranks", dict(ranks))

    def __setattr__(self, name, value):
        raise AttributeError("RankSignature is immutable")

    @staticmethod
    def canonical(axes, order: int) -> frozenset:
        axes = frozenset(axes)
        co = frozenset(range(order)) - axes
        if len(axes) < len(co):
            return axes
        if len(co) < len(axes):
            return co
        return axes if 0 in axes else co

    def rank(self, axes) -> int:
        return self.ranks[self.canonical(axes, len(self.dims))]

    def items(self):
        return sorted(self.ranks.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    def __eq__(self, other):
        return (
            isinstance(other, RankSignature)
            and self.dims == other.dims
            and self.ranks == other.ranks
        )

    def dominates(self, other: "RankSignature") -> bool:
        """Componentwise >=, for restriction monotonicity checks."""
        if set(self.ranks) != set(other.ranks):
            raise DimensionMismatchError("signatures of different orders")
        return all(self.ranks[k] >= other.ranks[k] for k in self.ranks)

    def __repr__(self):
        body = ", ".join(
            "{" + ",".join(str(a + 1) for a in sorted(k)) + "}:" + str(v)
            for k, v in self.items()
        )
        return f"RankSignature({body})"


@functools.cache
def canonical_subsets(order: int) -> tuple:
    """Canonical flattening subsets for a given order, in a stable order."""
    out = []
    for size in range(1, order // 2 + 1):
        for axes in itertools.combinations(range(order), size):
            axes = frozenset(axes)
            if RankSignature.canonical(axes, order) == axes:
                out.append(axes)
    return tuple(out)


def rank_signature(t: Tensor) -> RankSignature:
    """Exact ranks of all 2^(k-1) - 1 canonical flattenings (k >= 2)."""
    if t.order < 2:
        raise DimensionMismatchError("rank signature needs order >= 2")
    ranks = {}
    for axes in canonical_subsets(t.order):
        ranks[axes] = mat_rank(flatten(t, axes))
    return RankSignature(t.dims, ranks)


def has_rank_one_flattening(t: Tensor):
    """A witness subset I with rk(T_I) <= 1, or None; rejects the zero tensor."""
    if t.is_zero():
        raise ZeroTensorError("rank-one flattening test presupposes a nonzero tensor")
    if t.order < 2:
        raise DimensionMismatchError("flattening test needs order >= 2")
    for axes in canonical_subsets(t.order):
        if mat_rank(flatten(t, axes)) <= 1:
            return axes
    return None


# -- the recursive partition-rank gate ----------------------------------------


def _combine_slices(ring, basis, coeffs) -> list:
    """The raw entries of sum c_i S_i over the basis rows S_i, for raw
    coefficients c_i."""
    add, mul = ring.add, ring.mul
    out = None
    for c, row in zip(coeffs, basis):
        if c:
            term = row if c == 1 else [mul(c, e) for e in row]
            out = term if out is None else list(map(add, out, term))
    return out


def _projective_points(n: int, dim: int):
    """Coefficient codes for the points of P^(dim-1) whose first nonzero
    coordinate is 1 and whose later coordinates are codes below n; the chart
    (1, range(n)^(dim-1)) comes first."""
    for lead in range(dim):
        for tail in itertools.product(range(n), repeat=dim - lead - 1):
            yield (0,) * lead + (1,) + tail


def _witness_degree(order: int) -> int:
    """D = 2 * (2^(k-2) - 1): the degree of the product of one 2x2 minor per
    split of an order-(k-1) image element."""
    return 2 * (2 ** (order - 2) - 1)


def _witness_field(field: FieldSpec, order: int):
    """The smallest F_{p^m} over which enumerating the image of an order-k
    tensor is exact, p^m > _witness_degree(k), or None when the field itself
    is large enough (or infinite)."""
    if field.p is None or order < 3:
        return None
    bound = _witness_degree(order)
    if field.q > bound:
        return None
    if not field.is_prime_field:
        raise FieldMismatchError(
            f"a partition-rank 'no' at order {order} is exact only over more than "
            f"{bound} elements, and {field.name} tensors are not lifted further"
        )
    m = 2
    while field.p**m <= bound:
        m += 1
    return GF(field.p, m)


def pr_at_least_two(t: Tensor, seed: int = 0, axis: int | None = None) -> bool:
    """Whether the partition rank is at least two.

    Recursive gate: for k = 2 this is matrix rank >= 2; for k >= 3 the last
    flattening must have rank >= 2 and its image must contain an element of
    partition rank >= 2.  The image is searched on a fixed grid of
    projective points, the chart (1, G^(d-1)) first, with |G| = D + 1 for
    D = 2(2^(k-2) - 1); that is exact over Q and over F_q with q > D (see
    the module docstring), walking raw entry rows.  `axis`, moved last
    before the walk, overrides the flattening choice (the default is the
    last factor); the result does not depend on it.  The search is
    deterministic, so `seed` has no effect; it is kept for callers that
    pass one.

    Over a prime field F_p with p <= D the grid is the whole projective
    space, which can lack a witness (at order 4 over F_2, 648 tensors with
    no rank-one flattening have none), so a "no" there is rechecked over the
    smallest F_{p^m} past D.  Over a too-small F_{p^m} ground field a "no"
    raises FieldMismatchError instead.  The gate never consults the
    signature oracle.
    """
    if not isinstance(t.ring, FieldSpec):
        raise FieldMismatchError("partition-rank gate works over Q or a finite field")
    if t.order < 2:
        raise DimensionMismatchError("partition rank needs order >= 2")
    if axis is not None:
        t = t.permute_axes([a for a in range(t.order) if a != axis] + [axis])
    if t.is_zero():
        return False
    if _pr_recurse(t.ring, t.dims, t.entries):
        return True
    big = _witness_field(t.ring, t.order)
    if big is None:
        return False
    return _pr_recurse(big, t.dims, lift_tensor(t, big).entries)


def _pr_recurse(ring, dims, entries) -> bool:
    """The gate on the dims-shaped tensor with raw row-major entries: its
    last-axis slices are entries[j::n], and each image point is a raw list."""
    if len(dims) == 2:
        return mat_rank(Matrix._from_raw(ring, dims[0], dims[1], entries)) >= 2
    n = dims[-1]
    rows = [list(entries[i : i + n]) for i in range(0, len(entries), n)]
    basis = [entries[j::n] for j in _echelon(ring, rows, n)[0]]
    if len(basis) < 2:
        return False
    grid = _witness_degree(len(dims)) + 1
    if ring.p is not None:
        grid = min(grid, ring.q)
    for coeffs in _projective_points(grid, len(basis)):
        if ring.p is None:
            coeffs = [Fraction(c) for c in coeffs]
        if _pr_recurse(ring, dims[:-1], _combine_slices(ring, basis, coeffs)):
            return True
    return False


def generic_compress(
    t: Tensor,
    seed: int = 0,
    budget: int = DEFAULT_COMPRESS_BUDGET,
):
    """Compress a tensor of partition rank >= 2 to shape (2, ..., 2).

    Returns (maps, compressed) with every map 2 x n_j and the compressed
    tensor again of partition rank >= 2; the property is certified by the
    exact signature gate and failed draws are retried with fresh randomness.
    """
    if t.order < 2:
        raise DimensionMismatchError("compression needs order >= 2")
    field = t.ring
    if not isinstance(field, FieldSpec):
        raise FieldMismatchError("compression works over Q or a finite field")
    if all(d == 2 for d in t.dims):
        if not t.is_zero() and has_rank_one_flattening(t) is None:
            return identity_maps(t), t
        raise ValueError("tensor does not have partition rank >= 2")
    rng = random.Random(seed)
    bound = DEFAULT_START_BOUND
    for attempt in range(budget):
        maps = []
        for d in t.dims:
            if field.p is None:
                entries = [field._raw(rng.randint(-bound, bound)) for _ in range(2 * d)]
            else:
                entries = [rng.randrange(field.q) for _ in range(2 * d)]
            maps.append(Matrix._from_raw(field, 2, d, entries))
        compressed = restrict(t, maps)
        if not compressed.is_zero() and has_rank_one_flattening(compressed) is None:
            return tuple(maps), compressed
        if field.p is None and (attempt + 1) % 8 == 0:
            bound *= 2
    raise SearchBudgetError(
        f"no partition-rank-preserving compression found in {budget} attempts",
        attempts=budget,
    )


# -- brute-force oracles over F_p ----------------------------------------------


def _covector_table(t: Tensor):
    """Values of the multilinear form on every tuple of covectors.

    Covectors on factor j are coded 0 .. p^(n_j) - 1 with base-p digits as
    coefficients (digit i multiplies index i).  The table is the restriction
    of T by, per factor, the p^(n_j) x n_j matrix whose rows are all
    covectors in code order; it is returned as a flat list of residues,
    indexed row-major by the covector codes (factor 0 outermost), and its
    shape.
    """
    field = t.ring
    if not field.is_prime_field:
        raise FieldMismatchError(f"covector codes are base-p digits over F_p, not {field.name}")
    maps = [_covector_rows(field, n, range(field.p**n)) for n in t.dims]
    table = restrict(t, maps)
    return table.entries, list(table.dims)


def _covector_rows(field: FieldSpec, n: int, codes) -> Matrix:
    """The matrix whose rows are the covectors with the given codes."""
    p = field.p
    rows = [(c // p**i) % p for c in codes for i in range(n)]
    return Matrix._from_raw(field, len(codes), n, rows)


def _check_search_space(what: str, sizes, ceiling: int) -> None:
    """Refuse a search over more than `ceiling` map tuples, sizes[j] per factor."""
    size = math.prod(sizes)
    if size > ceiling:
        raise SearchSpaceTooLargeError(
            f"{what} search space {size} exceeds ceiling {ceiling}",
            size=size,
            ceiling=ceiling,
        )


def _first_match(t: Tensor, conditions, row_counts, per_factor):
    """The first assignment in itertools.product(*per_factor), one list of
    covector-code tuples per factor, under which T restricts to the target;
    None if there is none.

    conditions lists the target's (index, residue) pairs and row_counts its
    dims.  Callers pass the search space through _check_search_space before
    they build per_factor.

    Only the first k-1 factors are enumerated.  With P = p^(n_last), the
    covector table is cut into rows of P values, one row per flat code f of
    the first k-1 factors, and masks[f][v] holds, as a bitmask over
    last-factor codes c, those with table[f*P + c] == v.  For a prefix
    assignment, the candidates for last-factor row l are the AND of
    masks[f][target] over the conditions whose index ends in l; a zero mask
    rules the prefix out.  Otherwise per_factor[-1] is scanned in its own
    order for the first tuple whose codes all lie in their row's mask.
    Prefixes come in product order and the last factor varies fastest in
    itertools.product, so this is the same first match as testing every
    full tuple.
    """
    p = t.ring.p
    table, shape = _covector_table(t)
    *per_factor, last = per_factor
    P = shape[-1]
    masks = []
    for base in range(0, len(table), P):
        by_value = [0] * p
        for c in range(P):
            by_value[table[base + c]] |= 1 << c
        masks.append(by_value)
    strides = _strides(tuple(shape[:-1]))
    rows = [[] for _ in range(row_counts[-1])]
    for jdx, target in sorted(conditions, key=lambda c: -c[1]):  # nonzero ones first
        rows[jdx[-1]].append((jdx[:-1], target))
    full = (1 << P) - 1
    for prefix in itertools.product(*per_factor):
        row_masks = []
        for row in rows:
            mask = full
            for idx, target in row:
                flat = 0
                for codes, i, s in zip(prefix, idx, strides):
                    flat += codes[i] * s
                mask &= masks[flat][target]
                if not mask:
                    break
            if not mask:
                break
            row_masks.append(mask)
        else:
            for codes in last:
                if all(mask >> c & 1 for mask, c in zip(row_masks, codes)):
                    return (*prefix, codes)
    return None


def subrank_bruteforce(
    t: Tensor, r: int, ceiling: int = DEFAULT_BRUTE_CEILING
) -> bool:
    """Whether T restricts to the order-k unit tensor of rank r, by exhaustion.

    Only for F_p tensors.  The search checks the r^k diagonal/off-diagonal
    conditions against the precomputed covector table, one map tuple per
    orbit of the stabilizer of <r> (row permutations P, diagonals D_j of
    product I; (D_j P A_j) is a witness whenever (A_j) is).  At order
    k >= 2 the rows of a witness factor are pairwise non-proportional, so
    the first k-1 factors take only monic codes and the last every nonzero
    code; factor 0 takes increasing r-tuples and the others ordered ones.
    At order 1 the one factor is the last, so it takes increasing r-tuples
    of nonzero codes.  The ceiling still bounds the unreduced count, the
    product of perm(p^(n_j) - 1, r) over the factors, so a search refused
    before is refused now.
    """
    field = t.ring
    if not isinstance(field, FieldSpec) or not field.is_prime_field:
        raise FieldMismatchError("brute-force subrank needs a prime field")
    if r < 1:
        raise ValueError("subrank threshold must be >= 1")
    if t.is_zero():
        return False
    if r == 1:
        return True
    p = field.p
    _check_search_space("subrank", [math.perm(p**d - 1, r) for d in t.dims], ceiling)
    codes = [[c for c in range(1, p**d) if _is_monic(c, p)] for d in t.dims[:-1]]
    codes.append(range(1, p ** t.dims[-1]))
    per_factor = [
        list(itertools.combinations(codes[0], r)),
        *(list(itertools.permutations(c, r)) for c in codes[1:]),
    ]
    if not all(per_factor):
        return False  # some factor cannot supply r admissible rows
    unit = [
        (jdx, 1 if len(set(jdx)) == 1 else 0)
        for jdx in itertools.product(range(r), repeat=t.order)
    ]
    return _first_match(t, unit, [r] * t.order, per_factor) is not None


def _is_monic(code: int, p: int) -> bool:
    """Whether the lowest nonzero base-p digit of a nonzero code is 1."""
    while code % p == 0:
        code //= p
    return code % p == 1


def restricts_to_bruteforce(
    t: Tensor, s: Tensor, ceiling: int = DEFAULT_BRUTE_CEILING
):
    """A witness map tuple with restrict(T, maps) = S, or None, by exhaustion.

    Only for F_p tensors of equal order and field.  The ceiling bounds the
    number of map tuples, the product of p^(m_j n_j) over the factors.
    """
    field = t.ring
    if not isinstance(field, FieldSpec) or not field.is_prime_field:
        raise FieldMismatchError("brute-force restriction needs a prime field")
    if s.ring is not field:
        raise FieldMismatchError("source and target over different fields")
    if s.order != t.order:
        raise DimensionMismatchError("source and target of different orders")
    p = field.p
    if s.is_zero():
        return tuple(Matrix.zeros(field, m, n) for m, n in zip(s.dims, t.dims))
    _check_search_space("restriction", [p ** (m * n) for m, n in zip(s.dims, t.dims)], ceiling)
    target = [(s.multi_index(flat), e) for flat, e in enumerate(s.entries)]
    per_factor = [list(itertools.product(range(p**n), repeat=m)) for m, n in zip(s.dims, t.dims)]
    assignment = _first_match(t, target, s.dims, per_factor)
    if assignment is None:
        return None
    return tuple(_covector_rows(field, n, codes) for n, codes in zip(t.dims, assignment))
