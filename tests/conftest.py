import math
import random
from fractions import Fraction

import pytest

from tensorgap.fields import GF, QQ
from tensorgap.tensors import Tensor


def random_rational_tensor(dims, rng, bound=5):
    size = 1
    for d in dims:
        size *= d
    return Tensor(QQ, dims, [QQ.from_int(rng.randint(-bound, bound)) for _ in range(size)])


def random_fp_tensor(dims, p, rng):
    field = GF(p)
    size = 1
    for d in dims:
        size *= d
    return Tensor(field, dims, [field.from_int(rng.randrange(p)) for _ in range(size)])


def all_fp_tensors(dims, p):
    """Every tensor over F_p of the given shape, paired with its integer code."""
    field = GF(p)
    size = 1
    for d in dims:
        size *= d
    for code in range(p**size):
        digits = []
        n = code
        for _ in range(size):
            digits.append(n % p)
            n //= p
        yield code, Tensor(field, dims, [field.from_int(d) for d in digits])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


# -- the dense route of certificate curve entries ----------------------------------
# Literal -> raw coefficient tuple -> value, as documents were read and written
# before curve entries went between text and the integer form (d, map) in one
# step: the reference for ratfunc.coeff_parse, coeff_text and _monomial_quotient.


def trimmed(raw) -> tuple:
    """raw as a tuple without trailing zeros."""
    n = len(raw)
    while n and raw[n - 1] == 0:
        n -= 1
    return tuple(raw[:n])


def dense_coeff_text(field, raw) -> list:
    """The texts of raw coefficients from eps^0; ["0"] for the zero polynomial."""
    return [field.text(c) for c in raw] or ["0"]


def dense_parse(field, text: str):
    """The raw value of a scalar literal, by the rules FieldSpec._parse keeps."""
    text = text.strip()
    p = field.p
    try:
        if "/" in text:
            a, b = text.split("/")
            q = Fraction(int(a), int(b))
            return q if p is None else field._raw(q)
        n = int(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar literal {text!r} for {field.name}: {exc}") from None
    return Fraction(n) if p is None else n % p


def dense_coeff_parse(field, texts) -> tuple:
    """Raw coefficients from their texts, trailing zeros trimmed."""
    return trimmed([dense_parse(field, str(t)) for t in texts])


def dense_monomial_quotient(field, num, den) -> tuple:
    """The integer form (d, map) of num / den for raw coefficient sequences,
    den a nonzero monomial c*eps^m; ZeroDivisionError for a zero den and
    ValueError for any other."""
    den = [(m, c) for m, c in enumerate(den) if c != 0]
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if len(den) > 1:
        raise ValueError("denominator is not a monomial c*eps^m: K(eps) values are Laurent")
    ((m, c),) = den
    num = [field.mul(x, field.inv(c)) for x in num]
    if field.p is not None:
        return 1, {i - m: x for i, x in enumerate(num) if x}
    d = math.lcm(*[x.denominator for x in num])
    return d, {i - m: x.numerator * (d // x.denominator) for i, x in enumerate(num) if x}


# -- the lifting routes of the curve expansion and the DVR step -------------------
# The base tensor lifted to K(eps) before restricting, each rescaling a product
# with eps^n, and the one-vector coordinate solved by elimination: the references
# for tensors.restrict of a base-field tensor under K(eps) curves (which reads
# base-field entries straight into its integer kernel) and
# degeneration._dvr_reduce_pair (which shifts exponents and takes the
# coordinate by a proportionality test).


def lifted_expand(base, curves):
    """The base tensor lifted to the curves' K(eps), then restricted."""
    from tensorgap.tensors import lift_tensor, restrict

    return restrict(lift_tensor(base, curves[0].ring), curves)


def solved_dvr_reduce_pair(a, b):
    """`_dvr_reduce_pair` with each rescaling a `Tensor.scale` by eps^n and
    the coordinate of b0 in the basis a0 solved by elimination."""
    from tensorgap.degeneration import _coordinates, eps_coefficient_tensor, tensor_min_valuation
    from tensorgap.errors import DegenerateSpanError
    from tensorgap.linalg import Matrix

    eps_ring = a.ring
    va = tensor_min_valuation(a)
    if va == math.inf:
        raise DegenerateSpanError("first transported vector vanishes")
    t00 = eps_ring.eps(-va)
    if va != 0:
        a = a.scale(t00)
    a0 = eps_coefficient_tensor(a, 0)
    t10, t11 = eps_ring.zero(), eps_ring.one()
    while True:
        vb = tensor_min_valuation(b)
        if vb == math.inf:
            raise DegenerateSpanError("transported pair collapsed to one dimension")
        if vb != 0:
            shift = eps_ring.eps(-vb)
            b = b.scale(shift)
            t10, t11 = t10 * shift, t11 * shift
        b0 = eps_coefficient_tensor(b, 0)
        coords = _coordinates((a0,), b0)
        if coords is None:
            return a, b, a0, b0, Matrix._from_raw(eps_ring, 2, 2, [t00, eps_ring.zero(), t10, t11])
        lam = eps_ring._constant(coords[0])
        b = b - a.scale(lam)
        t10 = t10 - lam * t00
