"""The rational function field K(eps) over an exact coefficient field K.

A polynomial in K[eps] is a raw coefficient tuple indexed by exponent from
eps^0 upward (Fractions over Q, int residues over F_p), trailing zeros
trimmed; the zero polynomial is the empty tuple.  Three private kernels work
on such tuples: ``_times``, ``_divmod`` and the monic-remainder Euclid
``_gcd``.  Every sum, product, inverse, negation and coefficient text of raw
coefficients is the field's own (``K.add``, ``K.mul``, ``K.inv``, ...), so no
rule of the arithmetic of K is written here, and ``coeff_text`` and
``coeff_parse`` are the one text form of a polynomial, for ``RatFunc.text``
and for documents alike.  :class:`EpsField` tags K(eps) the way FieldSpec
tags K, and is interned the same way: one object per base field.  A RatFunc
is both the raw value of K(eps) containers and the element at the API
boundary; EpsField's raw arithmetic (``add``, ``mul``, ...) is the RatFunc
operators.

A :class:`RatFunc` is held eps-adically, as eps^v * u/w with u, w raw
coefficient tuples, u(0) != 0, w(0) != 0, gcd(u, w) = 1 and w monic (zero
is u = (), w = (1,), v = +inf), so equal values have equal representations.
This is the old dense normal form, num/den in lowest terms with den monic,
split at eps: eps is prime in K[eps] and divides neither u nor w, so
num = eps^max(v, 0) u and den = eps^max(-v, 0) w are coprime with den
monic, and ``num``/``den`` rebuild them.  Nearly every value of a
certificate construction is a monomial c*eps^n; in this form its valuation
is a field read and a product of two is one multiplication in K.  Euclid
runs only when both eps-free parts of a result are nonconstant, so never
on Laurent values (w = 1).  The K(eps) restriction and determinant kernels
(`tensors._laurent_restrict`, `linalg._eps_det`) skip the RatFunc operators
altogether and work on integer coefficient maps {exponent: int} over an
integer denominator, a format only the helpers here read or write:
`_integer_laurent` takes Laurent values (a map row, a matrix row, a single
entry) over the lcm of their own denominators, `_add_product` and
`_exact_quotient` are the arithmetic, `_reduce` brings a map and its
denominator to lowest terms, and `_laurent_from_integers` builds each
result in normal form.

Curves of group elements appearing in degeneration certificates have rational
function entries, so exact arithmetic here removes any need for truncation
order bookkeeping.  Laurent data at eps = 0 is recovered on demand:
``RatFunc.valuation`` gives the order of vanishing (negative at a pole, +inf
at 0) and ``RatFunc.series`` expands u/w exactly up to a requested exponent.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import FieldMismatchError
from .fields import FieldSpec, Scalar

INFINITE_VALUATION = math.inf


class EpsField:
    """The field K(eps) of rational functions over a base FieldSpec; one
    object per base field, so equality is identity."""

    __slots__ = ("base", "_zero", "_one")

    def __new__(cls, base: FieldSpec):
        ring = _EPS_FIELDS.get(base)
        if ring is None:
            if base.m != 1:
                raise FieldMismatchError(f"eps-polynomials are over Q or F_p, not {base.name}")
            ring = _EPS_FIELDS[base] = object.__new__(cls)
            one = (base._raw(1),)
            object.__setattr__(ring, "base", base)
            object.__setattr__(ring, "_zero", _rf(base, INFINITE_VALUATION, (), one))
            object.__setattr__(ring, "_one", _rf(base, 0, one, one))
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
        return _rf(self.base, n, self._one._u, self._one._w)

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
        return _rf(self.base, 0, (c,), self._one._w)

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
    """An element eps^v * u/w of K(eps) in the normal form of the module docstring.

    RatFunc(field, num, den) takes any quotient of polynomials, given as
    coefficient sequences from eps^0 whose entries field coerces (ints,
    Fractions, Scalars or raw values): it moves the powers of eps into v by
    slicing, divides the eps-free parts by their gcd when both are
    nonconstant (otherwise that gcd is 1) and scales w monic."""

    __slots__ = ("field", "_v", "_u", "_w")

    def __init__(self, field: FieldSpec, num, den=(1,)):
        EpsField(field)  # refuses a base field other than Q or F_p
        num = _trimmed([field._raw(c) for c in num])
        den = _trimmed([field._raw(c) for c in den])
        _quotient(field, 0, num, den, self)

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
        """The raw coefficients of the monic denominator eps^max(-v, 0) * w."""
        return _dense(self.field, self._w, -self._v)

    def _other(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise FieldMismatchError("rational functions over different base fields")
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return self.ring.coerce(other)
        return None

    def _sum(self, other, subtract: bool) -> "RatFunc":
        """self + other, or self - other when subtract.  Equal denominators
        skip the cross products; leading zeros of a cancellation move into v."""
        o = self._other(other)
        if o is None:
            return NotImplemented
        if not o._u:
            return self
        if not self._u:
            return -o if subtract else o
        field = self.field
        a, b, w1, w2 = self._u, o._u, self._w, o._w
        if len(w1) == 1 == len(w2) or w1 == w2:
            w = w1
        else:
            a, b, w = _times(field, a, w2), _times(field, b, w1), _times(field, w1, w2)
        v = min(self._v, o._v)
        op, zero = (field.sub if subtract else field.add), field._raw(0)
        n = [zero] * (self._v - v) + list(a)
        n += [zero] * (o._v - v + len(b) - len(n))
        for i, c in enumerate(b, o._v - v):
            n[i] = op(n[i], c)
        n = _trimmed(n)
        if not n:
            return self.ring.zero()
        k = _low(n)
        u, w = _lowest_terms(field, n[k:], w)
        return _rf(field, v + k, u, w)

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
        field = self.field
        w1, w2 = self._w, o._w
        w = w2 if len(w1) == 1 else w1 if len(w2) == 1 else _times(field, w1, w2)
        u, w = _lowest_terms(field, _times(field, self._u, o._u), w)
        return _rf(field, self._v + o._v, u, w)

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
        return _rf(self.field, self._v, tuple(map(self.field.neg, self._u)), self._w)

    def __pow__(self, n: int):
        if n < 0:
            return (self.ring.one() / self) ** (-n)
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
        return self._v == o._v and self._u == o._u and self._w == o._w

    def __hash__(self):
        return hash((self._v, self._u, self._w))

    def inverse(self) -> "RatFunc":
        """Swap u and w, negate v and scale the new w monic."""
        if not self._u:
            raise ZeroDivisionError("inverse of the zero rational function")
        field = self.field
        inv = field.inv(self._u[-1])
        return _rf(field, -self._v, _scaled(field, self._w, inv), _scaled(field, self._u, inv))

    def valuation(self):
        """Order of vanishing at eps = 0; negative at a pole, +inf for 0."""
        return self._v

    def series(self, upto: int) -> list[Scalar]:
        """Exact Laurent coefficients from the valuation up to exponent `upto`.

        Empty for the zero function; otherwise requires upto >= valuation.
        """
        return [Scalar(self.field, c) for c in self._series(upto)]

    def _series(self, upto: int) -> list:
        """`series` as raw coefficients: u/w expanded to order upto - v."""
        if not self._u:
            return []
        v = self._v
        if upto < v:
            raise ValueError(f"expansion order {upto} below valuation {v}")
        n0, d0 = self._u, self._w
        field = self.field
        sub, mul = field.sub, field.mul
        inv0 = field.inv(d0[0])
        zero = field._raw(0)
        out = []
        for j in range(upto - v + 1):
            acc = n0[j] if j < len(n0) else zero
            for i in range(max(0, j - len(d0) + 1), j):
                acc = sub(acc, mul(out[i], d0[j - i]))
            out.append(mul(acc, inv0))
        return out

    def coefficient(self, e: int) -> Scalar:
        """The exact Laurent coefficient at eps^e."""
        return Scalar(self.field, self._coefficient(e))

    def _coefficient(self, e: int):
        """`coefficient` as a raw value: read off u when w = 1."""
        i = e - self._v  # -inf for the zero function
        if i < 0:
            return self.field._raw(0)
        if len(self._w) == 1:
            return self._u[i] if i < len(self._u) else self.field._raw(0)
        return self._series(e)[i]

    def substitute_power(self, n: int) -> "RatFunc":
        """The rational function f(eps^n), n >= 1; eps -> eps^n keeps the
        normal form's conditions on u and w, so they need no normalization."""
        if n < 1:
            raise ValueError("power substitution needs n >= 1")
        field = self.field
        return _rf(field, n * self._v, _spread(field, self._u, n), _spread(field, self._w, n))

    def text(self) -> str:
        num, den = (",".join(coeff_text(self.field, p)) for p in (self.num, self.den))
        return f"{num} ; {den}"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"RatFunc({self.text()!r})"


def _rf(field, v, u, w, r=None) -> RatFunc:
    """The RatFunc eps^v * u/w (filled into r if given) of parts in normal form."""
    r = object.__new__(RatFunc) if r is None else r
    object.__setattr__(r, "field", field)
    object.__setattr__(r, "_v", v)
    object.__setattr__(r, "_u", u)
    object.__setattr__(r, "_w", w)
    return r


def _quotient(field, v, num: tuple, den: tuple, r=None) -> RatFunc:
    """The RatFunc eps^v * num/den of trimmed raw coefficient tuples, den
    nonzero, brought to normal form (filled into r if given)."""
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return _rf(field, INFINITE_VALUATION, (), (field._raw(1),), r)
    vn, vd = _low(num), _low(den)
    u, w = _lowest_terms(field, num[vn:], den[vd:])
    if w[-1] != 1:
        inv = field.inv(w[-1])
        u, w = _scaled(field, u, inv), _scaled(field, w, inv)
    return _rf(field, v + vn - vd, u, w, r)


def _integer_laurent(field, values):
    """Laurent values (w = 1) as integer coefficient maps over one denominator.

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


def _exact_quotient(a: dict, b: dict) -> dict:
    """a / b for integer coefficient maps where b (nonzero, no zero
    coefficient) divides a exactly over Z[eps, 1/eps]: long division from
    the top, each step an exact integer division."""
    a = {e: c for e, c in a.items() if c}
    if len(b) == 1:
        ((eb, cb),) = b.items()
        return {e - eb: c // cb for e, c in a.items()}
    if not a:
        return a
    va, vb = min(a), min(b)
    rem = [a.get(e, 0) for e in range(va, max(a) + 1)]
    den = [b.get(e, 0) for e in range(vb, max(b) + 1)]
    lead, db, quo = den[-1], len(den) - 1, {}
    for i in range(len(rem) - 1, db - 1, -1):
        q = rem[i] // lead
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
    map, reduced in place (d = 1 over F_p, where the coefficients are
    reduced mod p here)."""
    d = _reduce(field, d, coeffs)
    if not coeffs:
        return EpsField(field).zero()
    lo = min(coeffs)
    u = [coeffs.get(e, 0) for e in range(lo, max(coeffs) + 1)]
    if field.p is None:
        u = [Fraction(c) for c in u] if d == 1 else [Fraction(c, d) for c in u]
    return _rf(field, lo, tuple(u), EpsField(field)._one._w)


def _lowest_terms(field, u: tuple, w: tuple):
    """u and w divided by their monic gcd; a no-op unless both are nonconstant."""
    if len(u) > 1 and len(w) > 1:
        g = _gcd(field, u, w)
        if len(g) > 1:
            return _divmod(field, u, g)[0], _divmod(field, w, g)[0]
    return u, w


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


def _divmod(field, a: tuple, b: tuple):
    """Quotient and remainder of Euclidean division of a by a nonzero b."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    sub, mul = field.sub, field.mul
    inv_lead = field.inv(b[-1])
    rem = list(a)
    db = len(b) - 1
    quo = [field._raw(0)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        q = mul(c, inv_lead)
        quo[i - db] = q
        for j, bj in enumerate(b):
            rem[i - db + j] = sub(rem[i - db + j], mul(q, bj))
    return _trimmed(quo), _trimmed(rem)


def _gcd(field, a: tuple, b: tuple) -> tuple:
    """Monic gcd by the Euclidean algorithm.

    Each remainder is made monic before the next division.  Scaling by a
    unit does not change the ideal a remainder generates, so the monic gcd is
    the one plain Euclid gives; over Q it keeps the `Fraction` coefficients
    of the remainders from growing with every step.
    """
    while b:
        a, b = b, _monic(field, _divmod(field, a, b)[1])
    return _monic(field, a)


def _monic(field, a: tuple) -> tuple:
    return _scaled(field, a, field.inv(a[-1])) if a else a


def _scaled(field, a: tuple, c) -> tuple:
    return tuple([field.mul(x, c) for x in a])


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


def coeff_parse(field: FieldSpec, texts) -> list:
    """Raw coefficients from their texts: the inverse of `coeff_text`."""
    return [field._parse(str(t)) for t in texts]


def ratfunc_parse(field: FieldSpec, text: str) -> RatFunc:
    """Parse the "num ; den" form of `RatFunc.text` (den defaults to 1)."""
    num, den = text.split(";") if ";" in text else (text, "1")
    return RatFunc(field, coeff_parse(field, num.split(",")), coeff_parse(field, den.split(",")))
