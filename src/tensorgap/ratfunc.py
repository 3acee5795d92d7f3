"""Laurent polynomials K[eps, 1/eps], the K(eps) values of degeneration curves.

A degeneration needs only curves with entries in K[eps, 1/eps]: the
expansion must have no pole and its constant term must be the target
(Buergisser-Clausen-Shokrollahi, ch. 15).  So every K(eps) value here is a
Laurent polynomial, and checking a certificate takes the ring operations
+ - x, the valuation and the eps^0 coefficient: K(eps) values have those
and no division.  The one quotient taken is that of a value read with a
monomial denominator c*eps^m (`_monomial_quotient`); any other denominator
raises ValueError.

A :class:`RatFunc` holds its value in the one form the K(eps) kernels
work on: an integer coefficient map ``_c`` {exponent: nonzero int} over a
positive integer denominator ``_d``, the value sum_n _c[n] eps^n / _d, in
lowest terms (`_reduce`); over F_p, _d = 1 and the coefficients are
residues.  Equal values have equal (_d, _c), and zero is (1, {}).  Its
``+`` and ``-`` add scaled maps and its ``*`` is `_add_product`, the product
of the restriction kernel `tensors._integer_restrict`.  That kernel and the
curve invertibility test `linalg._eps_invertible`, which evaluates values at
points, read (_d, _c) directly: `_integer_laurent` only rescales values to
one denominator, and `_laurent_from_integers` brings a result to lowest
terms and wraps it.  A value's map may be shared with a kernel or another
value and is never changed in place.

Raw coefficient tuples indexed by exponent from eps^0 upward (Fractions
over Q, int residues over F_p, trailing zeros trimmed; zero is the empty
tuple) are what ``RatFunc(field, num, den)`` takes and ``num`` and ``den``
give.  The text form, for ``RatFunc.text`` and for documents alike, is the
pair of literal lists of ``num`` and ``den``, taken to and from (_d, _c) in
one step: ``coeff_text`` prints both from the map, and ``coeff_parse``
reads one list into the integer form (d, map) by ``FieldSpec._literal``'s
rules, which `_monomial_quotient` divides by the monomial denominator.

:class:`EpsField` tags K(eps) the way FieldSpec tags K and is interned the
same way, one object per base field; its raw values and boxed elements are
both RatFuncs, so its raw arithmetic (``add``, ``mul``, ...) is the RatFunc
operators.
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
            object.__setattr__(ring, "_zero", _rf(base, 1, {}))
            object.__setattr__(ring, "_one", _rf(base, 1, {0: 1}))
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
        return _rf(self.base, 1, {n: 1})

    def from_int(self, n: int) -> "RatFunc":
        return self._constant(self.base._raw(n))

    def _embedding(self, field):
        """The map of raw values of the base field into K(eps)."""
        if field is not self.base:
            raise FieldMismatchError(f"cannot lift {field.name} scalar into {self.name}")
        return self._constant

    def _constant(self, c) -> "RatFunc":
        """The constant function with raw base value c."""
        if c == 0:
            return self._zero
        return _rf(self.base, *_integer_map((c,)))

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
    text = operator.methodcaller("text")


class RatFunc:
    """A Laurent polynomial in the form of the module docstring.

    RatFunc(field, num, den) takes coefficient sequences from eps^0 whose
    entries field coerces; den must be a nonzero monomial c*eps^m."""

    __slots__ = ("field", "_d", "_c")

    def __init__(self, field: FieldSpec, num, den=(1,)):
        EpsField(field)  # refuses a base field other than Q or F_p
        num, den = ([field._raw(c) for c in p] for p in (num, den))
        _monomial_quotient(field, _integer_map(num), _integer_map(den), self)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def ring(self) -> EpsField:
        return EpsField(self.field)

    @property
    def num(self) -> tuple:
        """The raw coefficients of the numerator eps^max(-v, 0) * self, v
        the valuation, of the dense quotient in lowest terms."""
        if not self._c:
            return ()
        return tuple(map(self._coefficient, range(min(min(self._c), 0), max(self._c) + 1)))

    @property
    def den(self) -> tuple:
        """The raw coefficients of the denominator eps^max(-v, 0)."""
        zero, one, v = self.field._raw(0), self.field._raw(1), self.valuation()
        return (zero,) * -v + (one,) if v < 0 else (one,)

    def _other(self, other):
        if isinstance(other, RatFunc):
            if other.field is not self.field:
                raise FieldMismatchError("rational functions over different base fields")
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return self.ring.coerce(other)
        return None

    def _sum(self, other, subtract: bool) -> "RatFunc":
        """self + other, or self - other when subtract: the maps scaled to
        the lcm of the denominators and added."""
        o = self._other(other)
        if o is None:
            return NotImplemented
        if not o._c:
            return self
        if not self._c:
            return -o if subtract else o
        d = math.lcm(self._d, o._d)
        k = d // self._d
        out = {e: c * k for e, c in self._c.items()}
        k = -(d // o._d) if subtract else d // o._d
        for e, c in o._c.items():
            out[e] = out.get(e, 0) + c * k
        return _laurent_from_integers(self.field, d, out)

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
        """`_add_product` of the maps over the product of the denominators."""
        o = self._other(other)
        if o is None:
            return NotImplemented
        if not (self._c and o._c):
            return self.ring.zero()
        acc = {}
        _add_product(acc, self._c, o._c)
        return _laurent_from_integers(self.field, self._d * o._d, acc)

    __rmul__ = __mul__

    def __neg__(self):
        return _rf(self.field, self._d, {e: self.field.neg(c) for e, c in self._c.items()})

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._c == o._c

    def __hash__(self):
        return hash((self._d, frozenset(self._c.items())))

    def valuation(self):
        """Order of vanishing at eps = 0; negative at a pole, +inf for 0."""
        return min(self._c) if self._c else INFINITE_VALUATION

    def coefficient(self, e: int) -> Scalar:
        """The exact Laurent coefficient at eps^e."""
        return Scalar(self.field, self._coefficient(e))

    def _coefficient(self, e: int):
        """`coefficient` as a raw value, _c[e] / _d."""
        c = self._c.get(e, 0)
        if self.field.p is not None:
            return c
        return Fraction(c) if self._d == 1 else Fraction(c, self._d)

    def substitute_power(self, n: int) -> "RatFunc":
        """The Laurent polynomial f(eps^n), n >= 1: each exponent times n."""
        if n < 1:
            raise ValueError("power substitution needs n >= 1")
        return _rf(self.field, self._d, {n * e: c for e, c in self._c.items()})

    def text(self) -> str:
        num, den = (",".join(t) for t in coeff_text(self))
        return f"{num} ; {den}"

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"RatFunc({self.text()!r})"


def _rf(field, d: int, c: dict, r=None) -> RatFunc:
    """The RatFunc of (d, c) already in lowest terms (filled into r if given)."""
    r = object.__new__(RatFunc) if r is None else r
    object.__setattr__(r, "field", field)
    object.__setattr__(r, "_d", d)
    object.__setattr__(r, "_c", c)
    return r


def _integer_map(raw, v: int = 0) -> tuple:
    """The integer form (d, map) of raw coefficients of eps^v, eps^(v+1), ...
    (ints, Fractions in lowest terms, or residues over F_p): d is the lcm of
    their denominators, which is in lowest terms with no gcd to take.  A
    row of Fractions (v = 0) gives the integer row `linalg.mat_rank` ranks
    over Q, keyed by column."""
    d = math.lcm(*[x.denominator for x in raw])
    if d == 1:
        return 1, {v + i: x.numerator for i, x in enumerate(raw) if x}
    return d, {v + i: x.numerator * (d // x.denominator) for i, x in enumerate(raw) if x}


def _monomial_quotient(field, num, den, r=None) -> RatFunc:
    """The RatFunc num / den of integer forms (d, map), den a nonzero
    monomial c*eps^m (filled into r if given): num's exponents shifted by -m
    and its map scaled by 1/c.  A zero den raises ZeroDivisionError and any
    other den ValueError."""
    (d, c), (dd, dc) = num, den
    if not dc:
        raise ZeroDivisionError("rational function with zero denominator")
    if len(dc) > 1:
        raise ValueError("denominator is not a monomial c*eps^m: K(eps) values are Laurent")
    ((m, k),) = dc.items()
    if m:
        c = {e - m: x for e, x in c.items()}
    if k == 1 and dd == 1:
        return _rf(field, d, c, r)
    p = field.p
    if p is not None:
        k = pow(k, -1, p)
        return _rf(field, 1, {e: x * k % p for e, x in c.items()}, r)
    # c / d divided by k / dd is (dd * c) / (k * d), made positive over |k| * d
    s = dd if k > 0 else -dd
    c = {e: x * s for e, x in c.items()}
    return _rf(field, _reduce(field, d * abs(k), c), c, r)


def _integer_laurent(field, values):
    """RatFuncs over one denominator: (d, [map]) with value = map / d for
    each value, d the lcm of their _d (1 over F_p).  A value already over
    d hands out its own map, which the caller must not change."""
    d = math.lcm(*[e._d for e in values])
    return d, [e._c if e._d == d else {n: c * (d // e._d) for n, c in e._c.items()} for e in values]


def _add_product(acc: dict, a: dict, b: dict, scale: int = 1):
    """acc += scale * a * b for integer coefficient maps, acc in place."""
    for ea, x in a.items():
        x *= scale
        for eb, y in b.items():
            e = ea + eb
            acc[e] = acc.get(e, 0) + x * y


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
    """The RatFunc coeffs / d of an integer coefficient map, brought to
    lowest terms in place by `_reduce`."""
    return _rf(field, _reduce(field, d, coeffs), coeffs)


# The one EpsField of each base field.
_EPS_FIELDS: dict = {}


def coeff_text(r: RatFunc) -> tuple:
    """The literal lists of r's num and den from eps^0 upward, printed from
    (_d, _c) without building num; ["0"] for the zero numerator."""
    c = r._c
    if not c:
        return ["0"], ["1"]
    v = min(c)
    exponents = range(min(v, 0), max(c) + 1)
    if r._d == 1:
        num = [str(c[e]) if e in c else "0" for e in exponents]
    else:
        num = [r.field.text(r._coefficient(e)) if e in c else "0" for e in exponents]
    return num, (["0"] * -v + ["1"] if v < 0 else ["1"])


def coeff_parse(field: FieldSpec, texts) -> tuple:
    """The integer form (d, map) of a coefficient list from eps^0 upward, in
    lowest terms: the inverse of `coeff_text` under `_monomial_quotient`.
    Literals follow ``field._literal``, whose ValueError a bad one raises;
    a "0" costs one comparison, and d is the lcm of the Fractions'
    denominators (1 if there are none), as in `_integer_map`."""
    literal, c, d = field._literal, {}, 1
    for e, t in enumerate(texts):
        if t != "0":
            x = literal(str(t))
            if x:
                c[e] = x
                if type(x) is not int:
                    d = math.lcm(d, x.denominator)
    if d == 1:
        return 1, c
    return d, {e: x.numerator * (d // x.denominator) for e, x in c.items()}
