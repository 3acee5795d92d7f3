"""The rational function field K(eps) over an exact coefficient field K.

A :class:`Poly` is a dense univariate polynomial in eps with coefficients in
K, stored as a raw coefficient tuple indexed by exponent from eps^0 upward
(Fractions over Q, int residues over F_p), trailing zeros trimmed; the zero
polynomial has an empty tuple.  Every sum, product, inverse, negation and
coefficient text of raw coefficients is the field's own (``K.add``,
``K.mul``, ``K.inv``, ...), so no rule of the arithmetic of K is written
here.  A :class:`RatFunc` is a normalized quotient num/den with
gcd(num, den) = 1 and den monic, so equal values have equal representations.
:class:`EpsField` tags K(eps) the way FieldSpec tags K, and is interned the
same way: one object per base field.  A RatFunc is both the raw value of
K(eps) containers and the element at the API boundary; EpsField's raw
arithmetic (``add``, ``mul``, ...) is the RatFunc operators.

Normalization is eps-adic.  eps is prime in K[eps], so
gcd(num, den) = eps^min(vn, vd) * gcd(num_free, den_free), where vn, vd are
the valuations and x_free is x with its power of eps divided out.  The eps
power is cancelled by slicing coefficient tuples, and Euclid runs only on
the eps-free parts, only when both are nonconstant.  Certificate curves
mostly have monomial denominators, so most normalizations need no Euclid.
The normal form is unique, so this reaches exactly the num/den that Euclid
on the whole polynomials would.

Curves of group elements appearing in degeneration certificates have rational
function entries, so exact arithmetic here removes any need for truncation
order bookkeeping.  Laurent data at eps = 0 is recovered on demand:
``RatFunc.valuation`` gives the order of vanishing (negative at a pole, +inf
at 0) and ``RatFunc.series`` expands exactly up to a requested exponent.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import FieldMismatchError
from .fields import FieldSpec, Scalar

INFINITE_VALUATION = math.inf


class Poly:
    """Polynomial in eps over Q or F_p; raw dense coefficients from eps^0."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs=()):
        """Coefficients are ints, Fractions or Scalars, coerced into field."""
        if field.m != 1:
            raise FieldMismatchError(f"eps-polynomials are over Q or F_p, not {field.name}")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _trimmed([field._raw(c) for c in coeffs]))

    @classmethod
    def _from_raw(cls, field: FieldSpec, raw) -> "Poly":
        """The polynomial with raw coefficients already reduced in field."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "field", field)
        object.__setattr__(poly, "coeffs", _trimmed(raw))
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def coefficient(self, e: int) -> Scalar:
        raw = self.coeffs[e] if 0 <= e < len(self.coeffs) else None
        return Scalar(self.field, raw) if raw is not None else self.field.zero()

    def valuation(self):
        """Index of the lowest nonzero coefficient; +inf for the zero polynomial."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return INFINITE_VALUATION

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        add = self.field.add
        return Poly._from_raw(self.field, [add(x, y) for x, y in zip(a, b)] + list(a[len(b) :]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        return Poly._from_raw(self.field, [neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        field = self.field
        if not a or not b:
            return Poly._from_raw(field, ())
        add, mul = field.add, field.mul
        out = [field._raw(0)] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] = add(out[i + j], mul(ai, bj))
        return Poly._from_raw(field, out)

    def scale(self, raw):
        """Multiply by the raw value of a field element."""
        mul = self.field.mul
        return Poly._from_raw(self.field, [mul(c, raw) for c in self.coeffs])

    def shift(self, n: int):
        """Multiply by eps^n (n >= 0)."""
        if not self.coeffs:
            return self
        return Poly._from_raw(self.field, (self.field._raw(0),) * n + self.coeffs)

    def _check(self, other):
        if not isinstance(other, Poly) or other.field is not self.field:
            raise FieldMismatchError("polynomials over different fields")

    def divmod(self, other):
        """Exact Euclidean division by a nonzero polynomial."""
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        sub, mul = field.sub, field.mul
        inv_lead = field.inv(other.leading())
        rem = list(self.coeffs)
        db = other.degree
        quo = [field._raw(0)] * max(len(rem) - db, 0)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = mul(c, inv_lead)
            quo[i - db] = q
            for j, bj in enumerate(other.coeffs):
                rem[i - db + j] = sub(rem[i - db + j], mul(q, bj))
        return Poly._from_raw(field, quo), Poly._from_raw(field, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self):
        if not self:
            return self
        return self.scale(self.field.inv(self.leading()))

    def text(self) -> str:
        """Comma-separated coefficients from eps^0 ("0" for the zero polynomial)."""
        if not self.coeffs:
            return "0"
        return ",".join(self.field.text(c) for c in self.coeffs)

    def __repr__(self):
        return f"Poly({self.field.name}, [{self.text()}])"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm.

    Each remainder is made monic before the next division.  Scaling by a
    unit does not change the ideal a remainder generates, so the monic gcd is
    the one plain Euclid gives; over Q it keeps the `Fraction` coefficients
    of the remainders from growing with every step.
    """
    while b:
        a, b = b, (a % b).monic()
    return a.monic()


def poly_parse(field: FieldSpec, text: str) -> Poly:
    text = text.strip()
    if text in ("", "0"):
        return Poly(field)
    return Poly._from_raw(field, [field._parse(part) for part in text.split(",")])


class EpsField:
    """The field K(eps) of rational functions over a base FieldSpec; one
    object per base field, so equality is identity."""

    __slots__ = ("base",)

    def __new__(cls, base: FieldSpec):
        ring = _EPS_FIELDS.get(base)
        if ring is None:
            if base.m != 1:
                raise FieldMismatchError(f"eps-polynomials are over Q or F_p, not {base.name}")
            ring = _EPS_FIELDS[base] = object.__new__(cls)
            object.__setattr__(ring, "base", base)
        return ring

    def __setattr__(self, name, value):
        raise AttributeError("EpsField is immutable")

    @property
    def name(self):
        return f"{self.base.name}(eps)"

    def __repr__(self):
        return f"EpsField({self.base.name})"

    def zero(self) -> "RatFunc":
        return self._constant(self.base._raw(0))

    def one(self) -> "RatFunc":
        return self._constant(self.base._raw(1))

    def eps(self, n: int = 1) -> "RatFunc":
        """The monomial eps^n, for any integer n."""
        one = self.one().num
        if n >= 0:
            return RatFunc(one.shift(n), one)
        return RatFunc(one, one.shift(-n))

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
        base = self.base
        return RatFunc(Poly._from_raw(base, (c,)), Poly._from_raw(base, (base._raw(1),)))

    def coerce(self, x) -> "RatFunc":
        """Coerce a RatFunc, Poly, Scalar, int or Fraction into K(eps)."""
        if isinstance(x, RatFunc):
            if x.field is not self.base:
                raise FieldMismatchError(f"cannot coerce {x.field.name}(eps) into {self.name}")
            return x
        if isinstance(x, Poly):
            if x.field is not self.base:
                raise FieldMismatchError("polynomial over the wrong base field")
            return RatFunc(x, self.one().num)
        if isinstance(x, (Scalar, int, Fraction)):
            return self._constant(self.base._raw(x))
        raise TypeError(f"cannot coerce {type(x).__name__} into {self.name}")

    # A RatFunc is its own raw value and its own boxed element.
    _raw = _box = coerce
    add, sub, mul, neg = operator.add, operator.sub, operator.mul, operator.neg
    inv, text = operator.methodcaller("inverse"), operator.methodcaller("text")


class RatFunc:
    """Normalized quotient of polynomials in eps: gcd(num, den) = 1, den monic.

    The constructor cancels the common power of eps by slicing, then divides
    by the gcd of the eps-free parts when both are nonconstant (otherwise
    that gcd is 1), then scales den monic.  Sums and differences of values
    with equal denominators skip the cross products and normalize
    (num +- num', den) directly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        field = num.field
        if den.field is not field:
            raise FieldMismatchError("numerator and denominator over different fields")
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            den = Poly._from_raw(field, (field._raw(1),))
        else:
            vn, vd = num.valuation(), den.valuation()
            shift = min(vn, vd)
            if shift:
                num = Poly._from_raw(field, num.coeffs[shift:])
                den = Poly._from_raw(field, den.coeffs[shift:])
                vn -= shift
                vd -= shift
            if num.degree > vn and den.degree > vd:
                g = poly_gcd(
                    Poly._from_raw(field, num.coeffs[vn:]), Poly._from_raw(field, den.coeffs[vd:])
                )
                if g.degree > 0:
                    num = num // g
                    den = den // g
            lead = den.leading()
            if lead != 1:
                inv = field.inv(lead)
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def field(self) -> FieldSpec:
        return self.num.field

    @property
    def ring(self) -> EpsField:
        return EpsField(self.num.field)

    def _other(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise FieldMismatchError("rational functions over different base fields")
            return other
        if isinstance(other, (Scalar, int, Fraction, Poly)):
            return self.ring.coerce(other)
        return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatFunc(self.num - o.num, self.den)
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        if not o:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

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
        return bool(self.num)

    def __eq__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def inverse(self) -> "RatFunc":
        if not self:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc(self.den, self.num)

    def valuation(self):
        """Order of vanishing at eps = 0; negative at a pole, +inf for 0."""
        if not self:
            return INFINITE_VALUATION
        return self.num.valuation() - self.den.valuation()

    def series(self, upto: int) -> list[Scalar]:
        """Exact Laurent coefficients from the valuation up to exponent `upto`.

        Empty for the zero function; otherwise requires upto >= valuation.
        """
        return [Scalar(self.field, c) for c in self._series(upto)]

    def _series(self, upto: int) -> list:
        """`series` as raw coefficients."""
        if not self:
            return []
        v = self.valuation()
        if upto < v:
            raise ValueError(f"expansion order {upto} below valuation {v}")
        vn = self.num.valuation()
        vd = self.den.valuation()
        n0 = self.num.coeffs[vn:]
        d0 = self.den.coeffs[vd:]
        count = upto - v + 1
        field = self.field
        sub, mul = field.sub, field.mul
        inv0 = field.inv(d0[0])
        zero = field._raw(0)
        out = []
        for j in range(count):
            acc = n0[j] if j < len(n0) else zero
            for i in range(max(0, j - len(d0) + 1), j):
                acc = sub(acc, mul(out[i], d0[j - i]))
            out.append(mul(acc, inv0))
        return out

    def coefficient(self, e: int) -> Scalar:
        """The exact Laurent coefficient at eps^e."""
        return Scalar(self.field, self._coefficient(e))

    def _coefficient(self, e: int):
        """`coefficient` as a raw value."""
        v = self.valuation()  # +inf for the zero function
        return self._series(e)[e - v] if e >= v else self.field._raw(0)

    def substitute_power(self, n: int) -> "RatFunc":
        """The rational function f(eps^n), n >= 1."""
        if n < 1:
            raise ValueError("power substitution needs n >= 1")
        return RatFunc(_spread(self.num, n), _spread(self.den, n))

    def text(self) -> str:
        return f"{self.num.text()} ; {self.den.text()}"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"RatFunc({self.text()!r})"


def _spread(poly: Poly, n: int) -> Poly:
    if not poly.coeffs:
        return poly
    out = [poly.field._raw(0)] * ((len(poly.coeffs) - 1) * n + 1)
    for i, c in enumerate(poly.coeffs):
        out[i * n] = c
    return Poly._from_raw(poly.field, out)


def _trimmed(raw) -> tuple:
    """raw as a tuple without trailing zeros."""
    n = len(raw)
    while n and raw[n - 1] == 0:
        n -= 1
    return tuple(raw[:n])


# The one EpsField of each base field.
_EPS_FIELDS: dict = {}


def ratfunc_parse(field: FieldSpec, text: str) -> RatFunc:
    """Parse the "num ; den" textual form (den defaults to 1)."""
    if ";" in text:
        num_text, den_text = text.split(";")
    else:
        num_text, den_text = text, "1"
    return RatFunc(poly_parse(field, num_text), poly_parse(field, den_text))

