"""Order-3 machinery: hyperdeterminant, 2x2x2 orbits, trichotomy, gap constants.

Every 2x2x2 tensor falls into exactly one of seven orbit classes over the
algebraic closure, and the class is decided by the three flattening ranks
together with the degree-4 Cayley hyperdeterminant, computed as the
discriminant of the determinant pencil det(l*A0 + m*A1) on the first-factor
slices; the same pencil's rank-one points diagonalize a unit-class tensor.
Over a non-closed ground field the full-rank / nonvanishing-hyperdeterminant
class is reported at the level of the closure; a ground-field witness of a
restriction onto the unit tensor is constructed from the rank-one points of
the pencil whenever those points are rational, and its absence is flagged in
the report (the asymptotic class is extension-invariant, so the gap output is
unaffected).  Over F_p a twisted form gets its witness after lifting to
F_{p^2} (``lift_tensor(t, GF(p, 2))``), where the pencil splits.

The trichotomy classifier for arbitrary order-3 shapes is exact for the
first two classes.  A rank-one flattening settles the first.  When every
multilinear rank is 2, two coordinates per axis with independent rows of
that flattening cut out a 2x2x2 core isomorphic to the tensor, and a
vanishing hyperdeterminant of the core settles the W class: any compression
to 2x2x2 that keeps partition rank >= 2 restricts to invertible maps on the
fibre spans, so its hyperdeterminant is prod det(g_j)^2 times the core's,
and the seeded samples the report lists are provably 0.  The report
derives its "randomized" confidence from the number of those samples.
Otherwise DEFAULT_TRIALS (8) seeded random compressions to 2x2x2 are
tried; a nonvanishing
hyperdeterminant sample is a deterministic certificate for the unit class,
and its ground-field witness is built from the compression maps.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import (
    ClassificationInconsistencyError,
    DimensionMismatchError,
    ZeroTensorError,
)
from .fields import FieldSpec, Scalar
from .linalg import Matrix, _ratio, mat_inverse, mat_rank
from .ranks import (
    RankSignature,
    generic_compress,
    rank_signature,
)
from .tensors import Tensor, compose_maps, flatten, restrict, unit_tensor


class Orbit222(str, Enum):
    """Orbit classes of 2x2x2 tensors (closure-level on the last two)."""

    ZERO = "zero"
    RANK_ONE = "rank-one"
    PENCIL_1X2 = "pencil-1x2"  # first factor pinned: ranks (1, 2, 2)
    PENCIL_2X1 = "pencil-2x1"  # second factor pinned: ranks (2, 1, 2)
    PENCIL_2X2_SPLIT = "pencil-2x2-split"  # third factor pinned: ranks (2, 2, 1)
    W_CLASS = "w-class"
    UNIT_CLASS = "unit-class"


class TrichotomyClass(str, Enum):
    FLATTENING_RANK_ONE = "flattening-rank-one"
    W_ISOMORPHIC = "w-isomorphic"
    RESTRICTS_TO_UNIT2 = "restricts-to-unit2"


class AsymptoticClass(str, Enum):
    ONE = "1"
    C3 = "c3"
    AT_LEAST_TWO = "at-least-2"


@dataclass(frozen=True)
class GapValue:
    """An asymptotic-subrank value: exact description plus decimal."""

    description: str
    decimal: float
    lower_bound_only: bool = False


@dataclass(frozen=True)
class Confidence:
    kind: str  # "deterministic" | "randomized"
    trials: int | None = None

    @staticmethod
    def deterministic() -> "Confidence":
        return Confidence("deterministic")

    @staticmethod
    def randomized(trials: int) -> "Confidence":
        return Confidence("randomized", trials)


_TWISTED_NOTE = (
    "determinant pencil has no rational rank-one points over the ground field; "
    "unit restriction exists over the closure only"
)


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of the order-3 trichotomy for one tensor: the verdict and its
    evidence.  Everything else the report shows is derived from these."""

    trichotomy: TrichotomyClass
    rank_signature: RankSignature
    cayley_samples: tuple  # ((seed, Scalar), ...) one per compression trial
    unit_witness: tuple | None = None  # map tuple with restrict(T, maps) = I_{3,2}

    @property
    def asymptotic_class(self) -> AsymptoticClass:
        return _GAP_BY_CLASS[self.trichotomy][0]

    @property
    def constant(self) -> GapValue:
        return _GAP_BY_CLASS[self.trichotomy][1]

    @property
    def rank_one_witness(self) -> frozenset | None:
        """The first flattening axes of rank at most 1, or None."""
        return next((axes for axes, r in self.rank_signature.items() if r <= 1), None)

    @property
    def confidence(self) -> Confidence:
        """Randomized over the sample count for a W verdict, else deterministic."""
        if self.trichotomy is TrichotomyClass.W_ISOMORPHIC:
            return Confidence.randomized(len(self.cayley_samples))
        return Confidence.deterministic()

    @property
    def unit_witness_note(self) -> str | None:
        """Why a unit verdict has no ground-field witness, or None."""
        if self.trichotomy is TrichotomyClass.RESTRICTS_TO_UNIT2 and self.unit_witness is None:
            return _TWISTED_NOTE
        return None


# -- the determinant pencil and the Cayley hyperdeterminant ----------------------


def _det2(field, e):
    """The determinant of the 2x2 matrix with raw row-major entries e."""
    return field.sub(field.mul(e[0], e[3]), field.mul(e[1], e[2]))


def _pencil(field, e):
    """(det0, mixed, det1) with det(l*A0 + m*A1) = det0*l^2 + mixed*l*m + det1*m^2, where
    A0 = e[:4], A1 = e[4:] are the first-factor slices of raw 2x2x2 entries e."""
    a0, a1 = e[:4], e[4:]
    det0, det1 = _det2(field, a0), _det2(field, a1)
    det_sum = _det2(field, [field.add(x, y) for x, y in zip(a0, a1)])
    return det0, field.sub(field.sub(det_sum, det0), det1), det1


def _discriminant(field, pencil):
    """mixed^2 - 4*det0*det1, the discriminant of the determinant pencil."""
    det0, mixed, det1 = pencil
    twice = field.add(det0, det0)
    return field.sub(field.mul(mixed, mixed), field.mul(field.add(twice, twice), det1))


def _checked_pencil(t: Tensor, what: str):
    """The determinant pencil of a 2x2x2 tensor over Q or F_q; `what` names the caller."""
    if t.dims != (2, 2, 2):
        raise DimensionMismatchError(f"{what} needs dims (2,2,2), got {t.dims}")
    if not isinstance(t.ring, FieldSpec):
        raise DimensionMismatchError(f"{what} is evaluated over Q or F_q, not {t.ring.name}")
    return _pencil(t.ring, t.entries)


def cayley_hyperdet(t: Tensor) -> Scalar:
    """Exact value of the degree-4 hyperdeterminant of a 2x2x2 tensor: the discriminant
    of its determinant pencil, an identity over Z (Gelfand-Kapranov-Zelevinsky, ch. 14)."""
    return t.ring._box(_discriminant(t.ring, _checked_pencil(t, "hyperdeterminant")))


_ORBIT_BY_RANKS = {
    (0, 0, 0): Orbit222.ZERO,
    (1, 1, 1): Orbit222.RANK_ONE,
    (1, 2, 2): Orbit222.PENCIL_1X2,
    (2, 1, 2): Orbit222.PENCIL_2X1,
    (2, 2, 1): Orbit222.PENCIL_2X2_SPLIT,
}


def _orbit_label(ranks: tuple, cayley) -> Orbit222:
    """Orbit class from the three flattening ranks and, for ranks (2, 2, 2)
    only, the hyperdeterminant value."""
    if ranks == (2, 2, 2):
        return Orbit222.UNIT_CLASS if cayley else Orbit222.W_CLASS
    if ranks not in _ORBIT_BY_RANKS:
        raise ClassificationInconsistencyError(f"impossible rank pattern {ranks}")
    return _ORBIT_BY_RANKS[ranks]


def classify_222(t: Tensor) -> Orbit222:
    """Orbit class of a 2x2x2 tensor from flattening ranks and the hyperdeterminant."""
    if t.dims != (2, 2, 2):
        raise DimensionMismatchError(f"orbit classification needs dims (2,2,2), got {t.dims}")
    ranks = tuple(mat_rank(flatten(t, [a])) for a in range(3))
    return _orbit_label(ranks, cayley_hyperdet(t) if ranks == (2, 2, 2) else None)


def multilinear_rank_le_2(t: Tensor) -> bool:
    """Whether all three single-factor flattening ranks are at most 2."""
    if t.order != 3:
        raise DimensionMismatchError("multilinear-rank gate is for order 3")
    return all(mat_rank(flatten(t, [a])) <= 2 for a in range(3))


def _independent_rows(field, m: Matrix) -> tuple:
    """The first nonzero row of m and the first row not proportional to it."""
    rows = [m.row(i) for i in range(m.rows)]
    first = next(i for i, row in enumerate(rows) if any(row))
    base = rows[first]
    second = next(i for i in range(first + 1, m.rows) if _ratio(field, base, rows[i]) is None)
    return first, second


def _coordinate_core(t: Tensor):
    """Two coordinates per axis and the 2x2x2 subtensor of t on them.

    For a nonzero order-3 tensor whose flattenings all have rank 2, the
    coordinates of axis a index independent rows of flatten(t, [a]), so
    selecting them is injective on the span of the axis-a fibres and the
    core is isomorphic to t.
    """
    coords = tuple(_independent_rows(t.ring, flatten(t, [a])) for a in range(3))
    (i0, i1), (j0, j1), (k0, k1) = coords
    n1, n2 = t.dims[1], t.dims[2]
    e = t.entries
    core = [e[(i * n1 + j) * n2 + k] for i in (i0, i1) for j in (j0, j1) for k in (k0, k1)]
    return coords, Tensor._from_raw(t.ring, (2, 2, 2), core)


# -- ground-field witness for the unit class -----------------------------------


def _rational_sqrt(q: Fraction):
    """The exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _fq_sqrt(field, a):
    """A square root of a in F_q, q odd, or None: Tonelli-Shanks with the
    non-residue of smallest code."""
    power, mul, half = field.power, field.mul, (field.q - 1) // 2
    if not a or power(a, half) != 1:
        return None if a else a
    s = ((field.q - 1) & (1 - field.q)).bit_length() - 1  # 2-adic order of q - 1
    odd = (field.q - 1) >> s
    z = next(c for c in range(2, field.q) if power(c, half) != 1)
    c, t, root = power(z, odd), power(a, odd), power(a, (odd + 1) // 2)
    while t != 1:
        i = next(i for i in range(1, s) if power(t, 2**i) == 1)
        b = power(c, 2 ** (s - i - 1))
        s, c, t, root = i, mul(b, b), mul(t, mul(b, b)), mul(root, b)
    return root


def _pencil_rank_one_points(field, pencil):
    """Distinct projective zeros (l : m) of det(l*A0 + m*A1) over the ground field.

    `pencil` is the nonzero triple of `_pencil`; returns a list of raw pairs.
    Its discriminant is the hyperdeterminant, so when that is nonzero the
    quadratic is squarefree and the list has length 0 or 2.  Over F_q the
    points are (1 : u) by ascending code u, then (0 : 1): from one square root
    of the discriminant for odd q, by trying every u for q = 2^m <= 2^16.
    """
    add, sub, mul = field.add, field.sub, field.mul
    det0, mixed, det1 = pencil
    if not (det0 or mixed or det1):
        raise ValueError("the determinant pencil vanishes identically")
    one, zero = field._raw(1), field._raw(0)
    if field.p is not None:  # the zeros (1 : u) of det0 + mixed*u + det1*u^2, then (0 : 1)
        if field.p == 2:
            roots = [u for u in range(field.q) if not add(det0, mul(u, add(mixed, mul(det1, u))))]
        elif not det1:
            roots = [mul(field.neg(det0), field.inv(mixed))] if mixed else []
        else:
            root = _fq_sqrt(field, _discriminant(field, pencil))
            inv = field.inv(add(det1, det1))
            pair = () if root is None else (root, field.neg(root))
            roots = sorted({mul(sub(r, mixed), inv) for r in pair})
        points = [(one, u) for u in roots]
        return points if det1 else points + [(zero, one)]
    # Rational case (raw Fractions): solve det0*x^2 + mixed*x + det1 = 0 projectively.
    if not det0:
        points = [(one, zero)]
        if mixed:
            points.append((-det1 / mixed, one))
        return points
    root = _rational_sqrt(_discriminant(field, pencil))
    if root is None or root == 0:
        return []
    return [((-mixed + r) / (2 * det0), one) for r in (root, -root)]


def _rank_one_factors(field, e):
    """Write a rank-one 2x2 matrix, given by raw row-major entries e, as u v^T."""
    col = 0 if (e[0] or e[2]) else 1
    u = [e[col], e[2 + col]]
    pivot_row = 0 if u[0] else 1
    inv = field.inv(u[pivot_row])
    v = [field.mul(e[2 * pivot_row], inv), field.mul(e[2 * pivot_row + 1], inv)]
    return u, v


def unit_restriction_witness(t: Tensor):
    """Invertible maps carrying a unit-class 2x2x2 tensor onto I_{3,2}, or None.

    Requires Cay(t) != 0.  The two rank-one points of the determinant pencil
    give the diagonalizing bases; over a non-closed ground field the points
    can be irrational, in which case None is returned and the tensor is a
    twisted form of the unit tensor.
    """
    field = t.ring
    pencil = _checked_pencil(t, "unit witness")
    if not _discriminant(field, pencil):
        raise ValueError("unit witness requires a nonvanishing hyperdeterminant")
    a0, a1 = t.entries[:4], t.entries[4:]
    points = _pencil_rank_one_points(field, pencil)
    if len(points) < 2:
        return None
    add, mul = field.add, field.mul
    (u0, v0), (u1, v1) = (
        _rank_one_factors(field, [add(mul(lam, x), mul(mu, y)) for x, y in zip(a0, a1)])
        for lam, mu in points[:2]
    )
    # First-factor basis: the columns of the inverse of the root matrix, so
    # the first map is the root matrix itself.
    (l0, m0), (l1, m1) = points[0], points[1]
    g1 = Matrix._from_raw(field, 2, 2, [l0, m0, l1, m1])
    g2 = mat_inverse(Matrix._from_raw(field, 2, 2, [u0[0], u1[0], u0[1], u1[1]]))
    g3 = mat_inverse(Matrix._from_raw(field, 2, 2, [v0[0], v1[0], v0[1], v1[1]]))
    maps = (g1, g2, g3)
    if restrict(t, maps) != unit_tensor(3, 2, field):
        raise ClassificationInconsistencyError("pencil diagonalization failed to verify")
    return maps


# -- the trichotomy classifier ---------------------------------------------------


DEFAULT_TRIALS = 8


def trichotomy(t: Tensor, seed: int = 0) -> ClassificationReport:
    """Classify a nonzero order-3 tensor into the three-class hierarchy.

    Deterministic gate first: a flattening of rank one settles the first
    class.  With every multilinear rank equal to 2, the hyperdeterminant of
    the coordinate core decides the W class exactly (module docstring): the
    W report lists the DEFAULT_TRIALS seeds drawn from `random.Random(seed)`,
    each with the sample value 0 its compression provably has, and computes
    no compression; the report derives its "randomized" confidence from them.
    Otherwise DEFAULT_TRIALS independent random compressions to 2x2x2 are
    classified; any unit-class hit is a deterministic certificate (the
    sampled hyperdeterminant value is a polynomial certificate, and a
    ground-field witness map is attached when the pencil splits).  If every
    sample vanishes, some multilinear rank exceeds 2 and the seed gave
    degenerate compressions: ClassificationInconsistencyError.
    """
    if t.order != 3:
        raise DimensionMismatchError("trichotomy classifies order-3 tensors")
    if t.is_zero():
        raise ZeroTensorError("trichotomy presupposes a nonzero tensor")
    if not isinstance(t.ring, FieldSpec):
        raise DimensionMismatchError("trichotomy works over Q or F_p")
    signature = rank_signature(t)
    if any(r <= 1 for r in signature.ranks.values()):
        return ClassificationReport(TrichotomyClass.FLATTENING_RANK_ONE, signature, ())

    rng = random.Random(seed)
    if all(r <= 2 for r in signature.ranks.values()):
        _, core = _coordinate_core(t)
        if not cayley_hyperdet(core):
            # Every compression generic_compress accepts has Cayley value
            # prod det(g_j)^2 * Cay(core) = 0, so the samples are recorded
            # without being computed.
            zero = t.ring.zero()
            samples = tuple((rng.randrange(2**63), zero) for _ in range(DEFAULT_TRIALS))
            return ClassificationReport(TrichotomyClass.W_ISOMORPHIC, signature, samples)

    samples = []
    for _ in range(DEFAULT_TRIALS):
        trial_seed = rng.randrange(2**63)
        maps, compressed = generic_compress(t, trial_seed)
        cay = cayley_hyperdet(compressed)
        samples.append((trial_seed, cay))
        if cay:
            # Unit class: deterministic certificate.  T >= compressed >= I_{3,2}.
            witness = None
            cube_maps = unit_restriction_witness(compressed)
            if cube_maps is not None:
                witness = compose_maps(cube_maps, maps)
                if restrict(t, witness) != unit_tensor(3, 2, t.ring):
                    raise ClassificationInconsistencyError("composed unit witness failed")
            return ClassificationReport(
                TrichotomyClass.RESTRICTS_TO_UNIT2, signature, tuple(samples), witness
            )

    # With multilinear ranks <= 2 a nonzero Cay(core) makes every sample
    # nonzero, so an all-zero outcome means some multilinear rank exceeds 2.
    raise ClassificationInconsistencyError(
        "hyperdeterminant vanished on all samples but some multilinear rank "
        "exceeds 2; the seed produced degenerate compressions, retry"
    )


def gap_constant(k: int):
    """The gap constant for order k: k/(k-1)^((k-1)/k), equal to 2^h(1/k).

    Returns (exact description, decimal).  Both closed forms are evaluated in
    floating point and must agree to 1e-12, so k may not exceed the largest float.
    """
    if k < 2:
        raise ValueError("gap constant needs k >= 2")
    if k > sys.float_info.max:
        raise ValueError(f"gap constant needs k <= {sys.float_info.max!r}, the largest float")
    direct = k / (k - 1) ** ((k - 1) / k) if k > 2 else 2.0
    x = 1.0 / k
    entropy = -(x * math.log2(x) + (1 - x) * math.log2(1 - x))
    via_entropy = 2.0**entropy
    if abs(direct - via_entropy) > 1e-12:
        raise AssertionError(
            f"gap constant formulas disagree at k={k}: {direct!r} vs {via_entropy!r}"
        )
    return f"{k}/{k - 1}^({k - 1}/{k})", direct


# The asymptotic-subrank class and constant of each trichotomy class.
_GAP_BY_CLASS = {
    TrichotomyClass.FLATTENING_RANK_ONE: (AsymptoticClass.ONE, GapValue("1", 1.0)),
    TrichotomyClass.W_ISOMORPHIC: (AsymptoticClass.C3, GapValue(*gap_constant(3))),
    TrichotomyClass.RESTRICTS_TO_UNIT2: (
        AsymptoticClass.AT_LEAST_TWO,
        GapValue("2", 2.0, lower_bound_only=True),
    ),
}
