"""Degeneration certificates over K(eps) and their constructive builder.

A :class:`DegenerationCertificate` holds a source tensor T, a target S of the
same shape as the (optionally compressed) source, and one square curve matrix
over K(eps) per factor.  It witnesses that S lies in the orbit closure of T,
and the verifier checks it by two tests only: every curve has a determinant
that is not identically zero (`linalg._eps_invertible`, a rank test of the
curve evaluated at a few points of the base field, so no linear algebra runs
over K(eps)), and applying the curves produces S + O(eps), checked by exact
expansion at eps = 0 (every entry has valuation >= 0 and the eps^0
coefficient tensor equals S).  The expansion is `tensors.restrict` of the
base-field source under the K(eps) curves, as in the builder; it needs
only + - x, the valuation and the eps^0 coefficient, never a division.
Verification is a value, never an error, and works over any supported
coefficient field.

The builder realizes the constructive induction that pulls the order-k
W-tensor out of any tensor of partition rank at least two:

* compress to shape (2, ..., 2) by a seeded random restriction;
* split off a slice S of partition rank >= 2 along the last factor and
  recursively drive S to the W-tensor of order k-1;
* transport the two slices along the recursive curve once; the limit of
  their plane (a valuation reduction, replacing power-series bookkeeping)
  contains the W-tensor and picks the stabilizer curves, a shear making a
  corner coefficient nonzero when needed and the weighted scaling curve,
  which carry it on to the plane of W and the corner tensor (proved in
  `_certify_cube`), spanned by the reduced pair's leading coefficients a0, b0;
* read the final factor off the reduction: it maps the slices to the
  coordinates of W and the corner tensor in the basis a0, b0, composed with
  the triangular K(eps) matrix that carried the transported slices to the
  reduced pair.

Everything is exact; the only randomness is the compression seed, and the
constructed certificate is re-verified before being returned.  Pluecker
coordinates (`pluecker_wedge`) remain a library utility that no check uses.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import (
    CertificateConstructionError,
    DegenerateSpanError,
    DimensionMismatchError,
    FieldMismatchError,
    SingularCurveError,
)
from .fields import QQ, FieldSpec, Scalar
from .linalg import Matrix, _eps_invertible, _ratio, _solve, lift_matrix, mat_inverse
from .ratfunc import EpsField, _rf
from .ranks import generic_compress, has_rank_one_flattening
from .tensors import (
    Tensor,
    as_matrix,
    compose_maps,
    flatten,
    restrict,
    unit_tensor,
    w_tensor,
)

SLICE_COMBO_BOUND = 8
SHEAR_BOX_BOUND = 8


@dataclass(frozen=True)
class DegenerationCertificate:
    """Curves over K(eps) witnessing that target = limit of curve * source."""

    source: Tensor
    target: Tensor
    curves: tuple  # one square Matrix over K(eps) per factor
    compression: tuple | None = None  # optional base-field maps applied first

    def __post_init__(self):
        if self.source.order != self.target.order:
            raise DimensionMismatchError("source and target orders differ")
        if len(self.curves) != self.target.order:
            raise DimensionMismatchError("one curve matrix per factor is required")

    @property
    def order(self) -> int:
        return self.target.order

    def compressed_source(self) -> Tensor:
        if self.compression is None:
            return self.source
        return restrict(self.source, self.compression)


@dataclass(frozen=True)
class VerificationResult:
    condition: str | None = None  # singular-curve | negative-valuation | constant-term-mismatch
    detail: str | None = None

    @property
    def accepted(self) -> bool:
        return self.condition is None

    def __bool__(self):
        return self.accepted


# -- expansion helpers -----------------------------------------------------------


def tensor_min_valuation(t: Tensor):
    """Minimum entry valuation of a K(eps) tensor (+inf when zero)."""
    return min((e.valuation() for e in t.entries if e), default=math.inf)


def eps_coefficient_tensor(t: Tensor, exponent: int) -> Tensor:
    """The base-field tensor of Laurent coefficients at a fixed exponent."""
    ring = t.ring
    if not isinstance(ring, EpsField):
        raise FieldMismatchError("coefficient extraction needs a K(eps) tensor")
    return Tensor._from_raw(ring.base, t.dims, [e._coefficient(exponent) for e in t.entries])


def _expand_certificate(cert: DegenerationCertificate) -> Tensor:
    """curve * (compressed) source over K(eps), by `restrict`, after the
    ring and shape checks.

    Raises SingularCurveError when a curve matrix has determinant zero, and
    SearchSpaceTooLargeError for an F_p curve whose invertibility test needs
    more points than the largest extension field has.
    Every ring (each curve's against the first curve's K(eps), the source's,
    the target's and the compression maps' against its base field), every
    shape and every curve's invertibility are checked before the source is
    compressed, so a malformed or singular certificate costs no
    restriction and a certificate over mixed fields no arithmetic at all.
    Compression maps of the checked shapes give the compressed source the
    target's dims.
    """
    maps, source, dims = cert.compression, cert.source, cert.target.dims
    eps_ring = cert.curves[0].ring
    if not isinstance(eps_ring, EpsField) or any(c.ring is not eps_ring for c in cert.curves):
        raise FieldMismatchError("curves must be matrices over one K(eps)")
    if source.ring is not eps_ring.base:
        raise FieldMismatchError(f"source over {source.ring.name}, curves over {eps_ring.name}")
    if cert.target.ring is not eps_ring.base:
        raise FieldMismatchError("target and curves over different base fields")
    if maps is not None and any(m.ring is not source.ring for m in maps):
        raise FieldMismatchError("map and tensor over different rings")
    shapes = list(zip(dims, source.dims))
    if maps is not None and [(m.rows, m.cols) for m in maps] != shapes:
        raise DimensionMismatchError(
            f"compression needs one map per factor of shapes {shapes} (target x source dims)"
        )
    if maps is None and source.dims != dims:
        raise DimensionMismatchError(
            f"(compressed) source dims {source.dims} != target dims {dims}"
        )
    for j, curve in enumerate(cert.curves):
        if curve.rows != curve.cols or curve.rows != dims[j]:
            raise DimensionMismatchError(f"curve {j} has the wrong shape")
        if not _eps_invertible(curve):
            raise SingularCurveError(f"curve {j} has determinant identically zero")
    return restrict(cert.compressed_source(), cert.curves)


def verify_certificate(cert: DegenerationCertificate) -> VerificationResult:
    """Accept iff curves are invertible, the expansion has no pole, and the
    eps^0 coefficient tensor equals the target exactly."""
    try:
        expanded = _expand_certificate(cert)
    except SingularCurveError as exc:
        return VerificationResult("singular-curve", str(exc))
    for flat, e in enumerate(expanded.entries):
        if e and e.valuation() < 0:
            idx = expanded.multi_index(flat)
            return VerificationResult(
                "negative-valuation",
                f"entry {idx} has a pole of order {-e.valuation()} at eps = 0",
            )
    constant = eps_coefficient_tensor(expanded, 0)
    text = constant.ring.text
    for flat, (c, want) in enumerate(zip(constant.entries, cert.target.entries)):
        if c != want:
            return VerificationResult(
                "constant-term-mismatch",
                f"entry {constant.multi_index(flat)}: eps^0 coefficient {text(c)} "
                f"!= target {text(want)}",
            )
    return VerificationResult()


# -- stabilizer curves of the W-tensor -------------------------------------------


def stab_scaling_curve(k: int, field: FieldSpec):
    """The diagonal curve diag(eps^-1, eps^(k-1)) and its eps^k prefactor.

    The k-fold tuple of the diagonal lies in the stabilizer of the order-k
    W-tensor; with the prefactor absorbed, the assembled tuple scales the
    basis tensor with 0/1 indices i by eps^(k * sum(i)).
    """
    if k < 2:
        raise ValueError("scaling curve needs k >= 2")
    ring = EpsField(field)
    h = Matrix._from_raw(ring, 2, 2, [ring.eps(-1), ring.zero(), ring.zero(), ring.eps(k - 1)])
    return h, ring.eps(k)


def scaling_map_tuple(k: int, field: FieldSpec):
    """The assembled k-factor scaling tuple, prefactor folded into factor 0."""
    h, prefactor = stab_scaling_curve(k, field)
    return (h.scale(prefactor),) + (h,) * (k - 1)


def stab_shear(scalars, field: FieldSpec | None = None):
    """Upper-triangular shears [[1, s_j], [0, 1]], one per factor.

    The entries must sum to zero; the resulting tuple then fixes the W-tensor
    of matching order exactly.
    """
    scalars = list(scalars)
    if field is None:
        if not scalars or not isinstance(scalars[0], Scalar):
            raise ValueError("pass a field or a nonempty list of Scalars")
        field = scalars[0].field
    values = [field._raw(s) for s in scalars]
    total = functools.reduce(field.add, values, field._raw(0))
    if total:
        raise ValueError(f"shear parameters must sum to zero, got {field.text(total)}")
    one, zero = field._raw(1), field._raw(0)
    return tuple(Matrix._from_raw(field, 2, 2, [one, v, zero, one]) for v in values)


# -- Pluecker coordinates ----------------------------------------------------------


@dataclass(frozen=True)
class WedgePoint:
    """Coordinates of S ^ S' in the exterior square of the flattened space.

    Stored strictly upper-triangular: coordinate (a, b) with a < b over flat
    entry indices, lexicographic.  Nonzero iff S and S' are independent.
    """

    ring: object
    ambient_dim: int
    coords: tuple

    def is_zero(self) -> bool:
        return not any(self.coords)

    def proportional_to(self, other: "WedgePoint") -> bool:
        """Whether two nonzero wedge points agree up to a nonzero scalar."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError("wedge points from different ambient spaces")
        if self.is_zero() or other.is_zero():
            return False
        n = len(self.coords)
        for i in range(n):
            for j in range(i + 1, n):
                if self.coords[i] * other.coords[j] != self.coords[j] * other.coords[i]:
                    return False
        return True


def pluecker_wedge(s: Tensor, s_prime: Tensor) -> WedgePoint:
    """The wedge S ^ S' of two same-shape tensors, over K or K(eps)."""
    if s.dims != s_prime.dims:
        raise DimensionMismatchError("wedge needs tensors of equal dims")
    if s.ring is not s_prime.ring:
        raise FieldMismatchError("wedge needs tensors over a common ring")
    ring = s.ring
    sub, mul = ring.sub, ring.mul
    a = s.entries
    b = s_prime.entries
    n = len(a)
    coords = []
    for i in range(n):
        for j in range(i + 1, n):
            coords.append(ring._box(sub(mul(a[i], b[j]), mul(a[j], b[i]))))
    return WedgePoint(ring, n, tuple(coords))


# -- explicit unit-to-W certificate ------------------------------------------------


def unit_to_w_certificate(k: int, field: FieldSpec = QQ) -> DegenerationCertificate:
    """The classical border-rank-2 curve carrying I_{k,2} onto the W-tensor.

    The two diagonal legs are mapped to -e0/eps and (e0 + eps*e1)/eps in the
    first factor and to e0, e0 + eps*e1 elsewhere, so the sum expands as
    (1/eps) * ((e0 + eps*e1)^(x)k - e0^(x)k) = W_k + O(eps).
    """
    if k < 2:
        raise ValueError("unit-to-W certificate needs k >= 2")
    ring = EpsField(field)
    one = ring.one()
    zero = ring.zero()
    eps = ring.eps()
    inv_eps = ring.eps(-1)
    first = Matrix._from_raw(ring, 2, 2, [-inv_eps, inv_eps, zero, one])
    rest = Matrix._from_raw(ring, 2, 2, [one, one, zero, eps])
    return DegenerationCertificate(
        source=unit_tensor(k, 2, field),
        target=w_tensor(k, (2,) * k, field),
        curves=(first,) + (rest,) * (k - 1),
    )


# -- constructive certificate builder ----------------------------------------------


def _coordinates(basis, target: Tensor):
    """Raw coefficients x with sum x_i * basis_i = target, or None when target
    is outside the span of the independent same-shape tensors in basis."""
    rows = [list(row) for row in zip(*(b.entries for b in basis), target.entries)]
    return _solve(basis[0].ring, rows, len(basis))


def _eps_shift(t: Tensor, n: int) -> Tensor:
    """t * eps^n for a K(eps) tensor: each entry's exponents shifted by n,
    which leaves it in lowest terms."""
    field = t.ring.base
    return Tensor._from_raw(
        t.ring,
        t.dims,
        [_rf(field, e._d, {x + n: c for x, c in e._c.items()}) if e else e for e in t.entries],
    )


def _dvr_reduce_pair(a: Tensor, b: Tensor):
    """Normalize a pair of K(eps) tensors until the leading coefficients are
    independent, that is until b0 has no coordinate lam in the basis a0;
    returns (ra, rb, a0, b0, T).

    The pair must be independent over K(eps).  Each step keeps or rescales
    a ^ b by a power of eps: dividing a or b by eps^v divides the wedge by
    eps^v, and b - lam * a (for b0 = lam * a0) leaves it unchanged.  So
    a0 ^ b0 is the leading coefficient of the input wedge, and span(a0, b0)
    is the limit of the transported plane.  Termination: once a and b have
    valuation 0, the wedge has a finite valuation >= 0; a step that does not
    return leaves b of valuation >= 1, and dividing it out lowers val(a ^ b)
    by at least 1.  A dependent pair with a ratio that is no polynomial in
    eps would never stop, so the caller (`_certify_cube`) passes the images
    of independent tensors under invertible curves.

    T is the 2x2 matrix over K(eps) with (ra, rb) = T * (a, b): the steps
    rescale a row by a power of eps or subtract lam times the first row from
    the second, and none adds a multiple of b to a, so T is lower-triangular
    with eps powers on its diagonal.
    """
    eps_ring = a.ring
    va = tensor_min_valuation(a)
    if va == math.inf:
        raise DegenerateSpanError("first transported vector vanishes")
    t00 = eps_ring.eps(-va)
    if va != 0:
        a = _eps_shift(a, -va)
    a0 = eps_coefficient_tensor(a, 0)
    t10, t11 = eps_ring.zero(), eps_ring.one()
    while True:
        vb = tensor_min_valuation(b)
        if vb == math.inf:
            raise DegenerateSpanError("transported pair collapsed to one dimension")
        if vb != 0:
            shift = eps_ring.eps(-vb)
            b = _eps_shift(b, -vb)
            t10, t11 = t10 * shift, t11 * shift
        b0 = eps_coefficient_tensor(b, 0)
        lam = _ratio(eps_ring.base, a0.entries, b0.entries)
        if lam is None:
            return a, b, a0, b0, Matrix._from_raw(eps_ring, 2, 2, [t00, eps_ring.zero(), t10, t11])
        lam = eps_ring._constant(lam)
        b = b - a.scale(lam)
        t10 = t10 - lam * t00


def _choose_slice_combo(s0: Tensor, s1: Tensor):
    """Small integer coefficients (alpha, beta) giving a combination of the
    last-axis slices s0, s1 of partition rank >= 2, with the combination
    itself."""
    for bound in range(1, SLICE_COMBO_BOUND + 1):
        for alpha, beta in itertools.product(range(-bound, bound + 1), repeat=2):
            if max(abs(alpha), abs(beta)) != bound:
                continue
            s = s0.scale(alpha) + s1.scale(beta)
            if s.is_zero():
                continue
            if has_rank_one_flattening(s) is None:
                return (alpha, beta), s
    raise CertificateConstructionError(
        "no slice combination of partition rank >= 2 found; "
        "the input violates the partition-rank precondition"
    )


def _find_shear(*plane: Tensor):
    """Deterministic integer shear parameters (sum zero) giving shear * p a
    nonzero corner for some p in plane; None when some p has one already."""
    field = plane[0].ring
    k = plane[0].order
    if any(p.entries[0] for p in plane):  # the corner (0, ..., 0)
        return None
    for bound in range(1, SHEAR_BOX_BOUND + 1):
        for head in itertools.product(range(-bound, bound + 1), repeat=k - 1):
            last = -sum(head)
            if abs(last) > bound:
                continue
            s = head + (last,)
            if all(x == 0 for x in s):
                continue
            shear = stab_shear(s, field)
            if any(restrict(p, shear).entries[0] for p in plane):
                return shear
    raise CertificateConstructionError(
        "no shear with zero parameter sum exposes the corner coefficient; "
        "this contradicts the square-free-monomial argument"
    )


def _certify_cube(t: Tensor):
    """Curves carrying a (2, ..., 2) tensor with no rank-one flattening onto
    the W-tensor of the same order: restrict(t, curves) = W + O(eps) exactly.

    A level of order k >= 3 transports the last-axis slices s0, s1 along rec
    once.  rec carries the slice combination s to a = W + O(eps) (verified
    one level down), so W lies in the limit plane L = span(W, p) of
    rec span(s0, s1), p the leading coefficient of a reduced b completing a
    (all of order k - 1).  The shear S fixes W and corner(W) = 0, so
    corner o S vanishes on W and on L is a multiple of its value at p: a
    shear gets the same verdict from every basis of L, such as the limit
    plane span(a0, b0) of `_dvr_reduce_pair` that `_find_shear` is given.

    Let stab = D S, with corner(S p) = c != 0 and D the scaling tuple of
    order k - 1 (weight-m basis tensors times eps^((k-1) m)).  D S b is
    c corner + O(eps), its weight >= 1 part O(eps^(k-1)); D S a has corner
    part O(eps), weight-1 part eps^(k-1) (W + O(eps)), higher weights
    O(eps^(2(k-1))), and less the corner ratio (valuation >= 1) times D S b
    it is eps^(k-1) (W + O(eps)), as 2(k-1) >= k.  So stab o rec carries
    the slice plane to span(W, corner).  As restrict(restrict(X, rec), stab)
    is restrict(X, stab o rec) exactly and RatFunc's normal form is unique,
    reducing stab applied to the transported slices gives that transport's
    a0, b0 and T; W and the corner have coordinates top, bottom in a0, b0,
    and the invertible last factor [top; bottom] * T takes the slices to
    W + O(eps) and corner + O(eps).
    """
    field = t.ring
    eps_ring = EpsField(field)
    k = t.order
    if k == 2:
        m = as_matrix(t)
        zero, one = field._raw(0), field._raw(1)
        w2 = Matrix._from_raw(field, 2, 2, [zero, one, one, zero])
        g = w2 * mat_inverse(m)
        return (lift_matrix(g, eps_ring), Matrix.identity(eps_ring, 2))

    slices = flatten(t, [k - 1])
    s0, s1 = (Tensor._from_raw(field, t.dims[:-1], slices.row(i)) for i in (0, 1))
    s = _choose_slice_combo(s0, s1)[1]
    rec = _certify_cube(s)
    w_prev = w_tensor(k - 1, (2,) * (k - 1), field)
    # Each level is verified once: the recursive result here (the order-2
    # closed form is exact by construction), the full-order cube by
    # construct_w_degeneration on the certificate it returns.
    if k > 3 and not verify_certificate(DegenerationCertificate(s, w_prev, rec)):
        raise CertificateConstructionError(
            f"the recursive curves failed exact verification against W of order {k - 1}"
        )
    corner_prev = Tensor.from_dict(field, (2,) * (k - 1), {(0,) * (k - 1): 1})

    pair = (restrict(s0, rec), restrict(s1, rec))
    shear = _find_shear(*_dvr_reduce_pair(*pair)[2:4])
    stab = scaling_map_tuple(k - 1, field)
    if shear is not None:
        stab = compose_maps(stab, tuple(lift_matrix(m, eps_ring) for m in shear))
    _, _, a0, b0, transform = _dvr_reduce_pair(*(restrict(x, stab) for x in pair))
    top = _coordinates((a0, b0), w_prev)
    bottom = _coordinates((a0, b0), corner_prev)
    if top is None or bottom is None:
        raise CertificateConstructionError("the limit plane is not span(W, corner)")
    x = lift_matrix(Matrix._from_raw(field, 2, 2, top + bottom), eps_ring) * transform
    if not _eps_invertible(x):
        raise CertificateConstructionError("recovered final factor is singular")
    return compose_maps(stab, rec) + (x,)


def construct_w_degeneration(t: Tensor, seed: int = 0) -> DegenerationCertificate:
    """A verified certificate that the W-tensor lies in the orbit closure of t.

    Requires partition rank >= 2 and a rational ground field: the genericity
    arguments behind the compression and the shear search need enough field
    elements, so over F_p the constructor refuses (verification, by contrast,
    works over any supported field).  Deterministic given the seed.
    """
    field = t.ring
    if not isinstance(field, FieldSpec):
        raise FieldMismatchError("construction expects a base-field tensor")
    if field.p is not None:
        raise FieldMismatchError(
            "certificate construction runs over Q only; F_p tensors can be "
            "verified but the generic searches need an infinite field"
        )
    if t.order < 2:
        raise DimensionMismatchError("construction needs order >= 2")
    if t.is_zero() or has_rank_one_flattening(t) is not None:
        raise ValueError("precondition violated: tensor must have partition rank >= 2")
    maps, cube = generic_compress(t, seed)
    curves = _certify_cube(cube)
    cert = DegenerationCertificate(
        source=t,
        target=w_tensor(t.order, (2,) * t.order, field),
        curves=curves,
        compression=maps,
    )
    result = verify_certificate(cert)
    if not result:
        raise CertificateConstructionError(
            f"constructed certificate rejected: {result.condition} ({result.detail})"
        )
    return cert
