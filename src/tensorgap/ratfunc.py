"""Laurent polynomials K[eps, 1/eps], the K(eps) values of degeneration curves.

A degeneration needs only curves with entries in K[eps, 1/eps]: the
expansion must have no pole and its constant term must be the target
(Buergisser-Clausen-Shokrollahi, ch. 15).  So every K(eps) value here is a
Laurent polynomial, and division is by the units of K[eps, 1/eps], the
monomials c*eps^n, only; anything else raises ValueError.

A polynomial is a raw coefficient tuple indexed by exponent from eps^0
upward (Fractions over Q, int residues over F_p), trailing zeros trimmed;
the zero polynomial is the empty tuple.  All arithmetic of raw coefficients
is the field's own (``K.add``, ``K.mul``, ``K.inv``, ...), and
``coeff_text`` and ``coeff_parse`` are the one text form of a polynomial,
for ``RatFunc.text`` and for documents alike.  :class:`EpsField` tags K(eps)
the way FieldSpec tags K and is interned the same way, one object per base
field; its raw values and boxed elements are both RatFuncs, so its raw
arithmetic (``add``, ``mul``, ...) is the RatFunc operators.

A :class:`RatFunc` is held as eps^v * u with u(0) != 0 (zero is u = (),
v = +inf), so equal values have equal representations; ``valuation`` reads
v and ``coefficient`` reads u.  Its ``num`` and ``den`` are eps^max(v, 0) u
and eps^max(-v, 0).  Nearly every value a certificate construction makes is
a monomial, whose product with another is one multiplication in K.  The
K(eps) restriction and elimination kernels (`tensors._integer_restrict`,
`linalg._eps_bareiss`) skip the RatFunc operators and work on integer
coefficient maps {exponent: int} over an integer denominator, a format only
the helpers here read or write: `_integer_laurent` takes values over the
lcm of their own denominators, `_add_product` and `_exact_quotient` are the
arithmetic, and `_reduce` and `_laurent_from_integers` bring a result to
lowest terms and build it.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import FieldMismatchError
from .fields import FieldSpec, Scalar

INFINITE_VALUATION = math.inf


class EpsField:
    """The ring K(eps) of the Laurent polynomials over a base FieldSpec; one
    object per base field, so equality is identity."""

    __slots__ = ("base", "_zero", "_one")

    def __new__(cls, base: FieldSpec):
        ring = _EPS_FIELDS.get(base)
        if ring is None:
            if base.m != 1:
                raise FieldMismatchError(f"eps-polynomials are over Q or F_p, not {base.name}")
            ring = _EPS_FIELDS[base] = object.__new__(cls)
            object.__setattr__(ring, "base", base)
            object.__setattr__(ring, "_zero", _rf(base, INFINITE_VALUATION, ()))
            object.__setattr__(ring, "_one", _rf(base, 0, (base._raw(1),)))
        return ring

    def __setattr__(self, name, value):
        raise AttributeError("EpsField is immutable")

    @property
    def name(self):
        return f"{self.base.name}(eps)"

    def __repr__(self):
        return f"EpsField({self.base.name})"

    def zero(self) -> "RatFunc":
        return self._zero

    def one(self) -> "RatFunc":
        return self._one

    def eps(self, n: int = 1) -> "RatFunc":
        """The monomial eps^n, for any integer n."""
        return _rf(self.base, n, self._one._u)

    def from_int(self, n: int) -> "RatFunc":
        return self._constant(self.base._raw(n))

    def lift(self, s: Scalar) -> "RatFunc":
        return self._embedding(s.field)(s.value)

    def _embedding(self, field):
        """The map of raw values of the base field into K(eps)."""
        if field is not self.base:
            raise FieldMismatchError(f"cannot lift {field.name} scalar into {self.name}")
        return self._constant

    def _constant(self, c) -> "RatFunc":
        """The constant function with raw base value c."""
        if c == 0:
            return self._zero
        return _rf(self.base, 0, (c,))

    def coerce(self, x) -> "RatFunc":
        """Coerce a RatFunc, Scalar, int or Fraction into K(eps)."""
        if isinstance(x, RatFunc):
            if x.field is not self.base:
                raise FieldMismatchError(f"cannot coerce {x.field.name}(eps) into {self.name}")
            return x
        if isinstance(x, (Scalar, int, Fraction)):
            return self._constant(self.base._raw(x))
        raise TypeError(f"cannot coerce {type(x).__name__} into {self.name}")

    # A RatFunc is its own raw value and its own boxed element.
    _raw = _box = coerce
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    inv, text = operator.methodcaller("inverse"), operator.methodcaller("text")


class RatFunc:
    """A Laurent polynomial eps^v * u in the form of the module docstring.

    RatFunc(field, num, den) takes coefficient sequences from eps^0 whose
    entries field coerces; den must be a nonzero monomial c*eps^m."""

    __slots__ = ("field", "_v", "_u")

    def __init__(self, field: FieldSpec, num, den=(1,)):
        EpsField(field)  # refuses a base field other than Q or F_p
        num = _trimmed([field._raw(c) for c in num])
        den = _trimmed([field._raw(c) for c in den])
        _monomial_quotient(field, num, den, self)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def ring(self) -> EpsField:
        return EpsField(self.field)

    @property
    def num(self) -> tuple:
        """The raw coefficients of the numerator eps^max(v, 0) * u of the
        dense quotient in lowest terms."""
        return _dense(self.field, self._u, self._v)

    @property
    def den(self) -> tuple:
        """The raw coefficients of the denominator eps^max(-v, 0)."""
        return _dense(self.field, self.ring._one._u, -self._v)

    def _other(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise FieldMismatchError("rational functions over different base fields")
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return self.ring.coerce(other)
        return None

    def _sum(self, other, subtract: bool) -> "RatFunc":
        """self + other, or self - other when subtract; leading zeros of a
        cancellation move into v."""
        o = self._other(other)
        if o is None:
            return NotImplemented
        if not o._u:
            return self
        if not self._u:
            return -o if subtract else o
        field, v = self.field, min(self._v, o._v)
        op, zero = (field.sub if subtract else field.add), field._raw(0)
        n = [zero] * (self._v - v) + list(self._u)
        n += [zero] * (o._v - v + len(o._u) - len(n))
        for i, c in enumerate(o._u, o._v - v):
            n[i] = op(n[i], c)
        n = _trimmed(n)
        if not n:
            return self.ring.zero()
        k = _low(n)
        return _rf(field, v + k, n[k:])

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        """Valuations add and the eps-free parts multiply; a product of
        monomials is one multiplication in K."""
        o = self._other(other)
        if o is None:
            return NotImplemented
        if not (self._u and o._u):
            return self.ring.zero()
        return _rf(self.field, self._v + o._v, _times(self.field, self._u, o._u))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _rf(self.field, self._v, tuple(map(self.field.neg, self._u)))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self._u)

    def __eq__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self._v == o._v and self._u == o._u

    def __hash__(self):
        return hash((self._v, self._u))

    def inverse(self) -> "RatFunc":
        """The inverse of a monomial c*eps^n, (1/c)*eps^-n.  The monomials
        are the units of K[eps, 1/eps]; any other value raises ValueError."""
        if not self._u:
            raise ZeroDivisionError("inverse of the zero rational function")
        if len(self._u) > 1:
            raise ValueError(f"{self.text()} is not a monomial c*eps^n, a unit of K[eps, 1/eps]")
        return _rf(self.field, -self._v, (self.field.inv(self._u[0]),))

    def valuation(self):
        """Order of vanishing at eps = 0; negative at a pole, +inf for 0."""
        return self._v

    def series(self, upto: int) -> list[Scalar]:
        """Exact Laurent coefficients from the valuation up to exponent `upto`.

        Empty for the zero function; otherwise requires upto >= valuation.
        """
        if not self._u:
            return []
        if upto < self._v:
            raise ValueError(f"expansion order {upto} below valuation {self._v}")
        return [self.coefficient(e) for e in range(self._v, upto + 1)]

    def coefficient(self, e: int) -> Scalar:
        """The exact Laurent coefficient at eps^e."""
        return Scalar(self.field, self._coefficient(e))

    def _coefficient(self, e: int):
        """`coefficient` as a raw value, read off u."""
        i = e - self._v  # -inf for the zero function
        return self._u[i] if 0 <= i < len(self._u) else self.field._raw(0)

    def substitute_power(self, n: int) -> "RatFunc":
        """The Laurent polynomial f(eps^n), n >= 1; eps -> eps^n keeps
        u(0) != 0, so the result needs no normalization."""
        if n < 1:
            raise ValueError("power substitution needs n >= 1")
        return _rf(self.field, n * self._v, _spread(self.field, self._u, n))

    def text(self) -> str:
        num, den = (",".join(coeff_text(self.field, p)) for p in (self.num, self.den))
        return f"{num} ; {den}"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"RatFunc({self.text()!r})"


def _rf(field, v, u, r=None) -> RatFunc:
    """The RatFunc eps^v * u (filled into r if given), u(0) != 0 or u = ()."""
    r = object.__new__(RatFunc) if r is None else r
    object.__setattr__(r, "field", field)
    object.__setattr__(r, "_v", v)
    object.__setattr__(r, "_u", u)
    return r


def _monomial_quotient(field, num: tuple, den: tuple, r=None) -> RatFunc:
    """The RatFunc num / den of trimmed raw coefficient tuples, den a nonzero
    monomial c*eps^m (filled into r if given).  A zero den raises
    ZeroDivisionError and any other den ValueError."""
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    m = _low(den)
    if m != len(den) - 1:
        raise ValueError("denominator is not a monomial c*eps^m: K(eps) values are Laurent")
    if not num:
        return _rf(field, INFINITE_VALUATION, (), r)
    k, c = _low(num), den[m]
    if c != 1:
        c = field.inv(c)
        num = tuple([field.mul(x, c) for x in num])
    return _rf(field, k - m, num[k:], r)


def _integer_laurent(field, values):
    """Laurent values as integer coefficient maps over one denominator.

    Returns (d, [coeffs]) with value = sum_n coeffs[n] eps^n / d for each
    value, zero coefficients left out (the zero value gives {}).  Over Q, d
    is the lcm of the values' coefficient denominators; over F_p, d = 1 and
    the coefficients are the residues.
    """
    if field.p is not None:
        return 1, [{e._v + i: c for i, c in enumerate(e._u) if c} for e in values]
    d = math.lcm(*[c.denominator for e in values for c in e._u])
    return d, [
        {e._v + i: c.numerator * (d // c.denominator) for i, c in enumerate(e._u) if c}
        for e in values
    ]


def _add_product(acc: dict, a: dict, b: dict, scale: int = 1):
    """acc += scale * a * b for integer coefficient maps, acc in place."""
    for ea, x in a.items():
        x *= scale
        for eb, y in b.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + x * y


def _exact_quotient(field, a: dict, b: dict) -> dict:
    """a / b for integer coefficient maps reduced by `_reduce` where b
    (nonzero) divides a exactly, over Z[eps, 1/eps] or, as residues, over
    F_p[eps, 1/eps]: long division from the top, each step an exact integer
    division (over F_p a product with the inverse of b's leading
    coefficient)."""
    if not a:
        return a
    p, va, vb = field.p, min(a), min(b)
    rem = [a.get(e, 0) for e in range(va, max(a) + 1)]
    den = [b.get(e, 0) for e in range(vb, max(b) + 1)]
    lead, db, quo = den[-1], len(den) - 1, {}
    inv = None if p is None else pow(lead, -1, p)
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] // lead if p is None else rem[i] * inv % p
        if q:
            quo[va - vb + i - db] = q
            for j, y in enumerate(den):
                rem[i - db + j] -= q * y
    return quo


def _reduce(field, d: int, coeffs: dict) -> int:
    """Bring coeffs over d to lowest terms in place and return the new d:
    zero coefficients dropped and the gcd of d and the coefficients divided
    out; over F_p (d = 1) the coefficients reduced mod p."""
    p = field.p
    if p is not None:
        for e, c in list(coeffs.items()):
            if c % p:
                coeffs[e] = c % p
            else:
                del coeffs[e]
        return d
    if 0 in coeffs.values():
        for e in [e for e, c in coeffs.items() if not c]:
            del coeffs[e]
    g = math.gcd(d, *coeffs.values()) if d != 1 else 1
    if g != 1:
        for e, c in coeffs.items():
            coeffs[e] = c // g
    return d // g


def _laurent_from_integers(field, d: int, coeffs: dict) -> RatFunc:
    """The Laurent value sum_n coeffs[n] eps^n / d of an integer coefficient
    map, reduced in place by `_reduce`."""
    d = _reduce(field, d, coeffs)
    if not coeffs:
        return EpsField(field).zero()
    lo = min(coeffs)
    u = [coeffs.get(e, 0) for e in range(lo, max(coeffs) + 1)]
    if field.p is None:
        u = [Fraction(c) for c in u] if d == 1 else [Fraction(c, d) for c in u]
    return _rf(field, lo, tuple(u))


def _times(field, a: tuple, b: tuple) -> tuple:
    """The product of raw coefficient tuples."""
    if len(a) == 1 == len(b):
        return (field.mul(a[0], b[0]),)
    add, mul = field.add, field.mul
    out = [field._raw(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj != 0:
                out[i + j] = add(out[i + j], mul(ai, bj))
    return _trimmed(out)


def _dense(field, part: tuple, shift) -> tuple:
    """eps^shift * part when shift > 0, else part."""
    return (field._raw(0),) * shift + part if shift > 0 and part else part


def _spread(field, raw: tuple, n: int) -> tuple:
    """raw(eps^n) as raw coefficients."""
    if n == 1 or len(raw) == 1:
        return raw
    out = [field._raw(0)] * ((len(raw) - 1) * n + 1)
    out[::n] = raw
    return tuple(out)


def _low(raw) -> int:
    """The exponent of the lowest nonzero coefficient of a nonzero polynomial."""
    return next(i for i, c in enumerate(raw) if c != 0)


def _trimmed(raw) -> tuple:
    """raw as a tuple without trailing zeros."""
    n = len(raw)
    while n and raw[n - 1] == 0:
        n -= 1
    return tuple(raw[:n])


# The one EpsField of each base field.
_EPS_FIELDS: dict = {}


def coeff_text(field: FieldSpec, raw: tuple) -> list:
    """The texts of raw coefficients from eps^0; ["0"] for the zero polynomial."""
    return [field.text(c) for c in raw] or ["0"]


def coeff_parse(field: FieldSpec, texts) -> tuple:
    """Raw coefficients from their texts, trailing zeros trimmed: the inverse
    of `coeff_text`."""
    return _trimmed([field._parse(str(t)) for t in texts])
