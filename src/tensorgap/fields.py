"""Exact coefficient fields: the rationals, prime fields F_p, and small F_{p^m}.

A :class:`FieldSpec` is a field, and the only owner of the arithmetic of its
raw values: ``add``, ``sub``, ``mul``, ``neg``, ``inv``, ``power`` and
``text``.  Raw values are `fractions.Fraction` (always in lowest terms,
positive denominator) over the rationals and int residues in [0, p) over
F_p.  Fields are interned, one object per field, so field equality is
identity.  Tensors, matrices and eps-polynomials hold raw values.  A
:class:`Scalar` pairs a field with a raw value: it is the element at the API
boundary (indexed reads, results, element parameters) and hands every
operator to its field.  Scalars are immutable, support the usual arithmetic
operators, and refuse to mix fields (FieldMismatchError).  Plain Python ints
are coerced into any field, so ``x + 1`` works.

The extension field F_q, q = p^m with m >= 2, is the FieldSpec variant
:class:`ExtensionField`: F_p[x]/(f) for one fixed modulus f per (p, m), see
:func:`extension_modulus`.  Its raw values are int codes in [0, q) whose
base-p digits are the coefficients of 1, x, ..., x^(m-1); the codes 0 .. p-1
are the prime subfield, so ints coerce exactly as over F_p.  Multiplication
runs through exponent and logarithm tables of the generator x.  Extension
fields serve exact rank computations over a large enough field (the
partition-rank gate and unit witnesses over F_4); the F_p-only routines
(packed F_2 elimination, the brute-force oracles, census ids, document I/O,
K(eps)) refuse them with FieldMismatchError rather than misread a code as a
residue mod p.

Textual form: ``a/b`` (just ``a`` for integers) over the rationals, the
decimal residue over F_p, a polynomial in x over F_{p^m}.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import FieldMismatchError, SearchSpaceTooLargeError

# Word-sized prime moduli; extension fields up to 2^16 elements (tables of
# that length are built per field).
MAX_PRIME = 2**63
MAX_EXTENSION_ORDER = 2**16

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24 with these bases."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The rationals (p is None) or the prime field F_p (degree m = 1).

    The subclass ExtensionField is F_{p^m} for m >= 2; there p is the
    characteristic, so code branching on ``p`` alone must check ``m`` too.
    """

    __slots__ = ("p", "m")

    def __new__(cls, p=None):
        if p is not None and (not isinstance(p, int) or not 2 <= p < MAX_PRIME):
            raise ValueError(f"modulus must be an integer in [2, 2^63): {p!r}")
        field = _FIELDS.get((p, 1))
        if field is None:
            if p is not None and not is_prime(p):
                raise ValueError(f"modulus must be prime: {p}")
            field = _intern(cls, p, 1)
        return field

    def __setattr__(self, name, value):
        raise AttributeError("FieldSpec is immutable")

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def is_prime_field(self):
        """F_p itself: raw values are residues mod p."""
        return self.p is not None and self.m == 1

    @property
    def q(self):
        """The number of elements, or None for the rationals."""
        return None if self.p is None else self.p**self.m

    @property
    def name(self):
        return "Q" if self.p is None else f"F{self.q}"

    def __repr__(self):
        return f"FieldSpec({self.name})"

    # -- element construction ------------------------------------------------

    def zero(self) -> "Scalar":
        return self.from_int(0)

    def one(self) -> "Scalar":
        return self.from_int(1)

    def from_int(self, n: int) -> "Scalar":
        return Scalar(self, self._raw(n))

    def from_fraction(self, q) -> "Scalar":
        return Scalar(self, self._raw(Fraction(q)))

    def element(self, code: int) -> "Scalar":
        """The element of a finite field with raw code in [0, q)."""
        if self.p is None or type(code) is not int or not 0 <= code < self.q:
            raise ValueError(f"no element with code {code!r} in {self.name}")
        return Scalar(self, code)

    def elements(self):
        """Every element of a finite field, in code order (zero first)."""
        return [self.element(code) for code in range(self.q)]

    def lift(self, s: "Scalar") -> "Scalar":
        """The image of a scalar of this field's prime subfield."""
        if not isinstance(s, Scalar):
            raise TypeError(f"cannot lift {type(s).__name__} into {self.name}")
        return Scalar(self, self._embedding(s.field)(s.value))

    def _embedding(self, field):
        """The raw-value map of `field` (itself or the prime subfield) into this field."""
        if field is not self and not (field.is_prime_field and field.p == self.p):
            raise FieldMismatchError(f"cannot lift {field.name} scalar into {self.name}")
        return _same

    def coerce(self, x) -> "Scalar":
        """Coerce an int, Fraction, or Scalar of this field into a Scalar."""
        return Scalar(self, self._raw(x))

    def _raw(self, x):
        """The raw value of an int (an integer, never a code), Fraction or Scalar."""
        p = self.p
        if p is None and type(x) is Fraction:
            return x  # already a raw value: constructed Fractions are in lowest terms
        if isinstance(x, Scalar):
            if x.field is not self:
                raise FieldMismatchError(f"cannot coerce {x.field.name} scalar into {self.name}")
            return x.value
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"cannot coerce {type(x).__name__} into {self.name}")
        if p is None:
            return Fraction(x)
        den = x.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes in F_{p}")
        return x.numerator * pow(den, -1, p) % p

    def _box(self, a) -> "Scalar":
        return Scalar(self, a)

    def parse(self, text: str) -> "Scalar":
        """Parse the textual scalar form: "a" or "a/b"."""
        return Scalar(self, self._parse(text))

    def _parse(self, text: str):
        """The raw value of the textual scalar form."""
        x = self._literal(text)
        return Fraction(x) if self.p is None and type(x) is int else x

    def _literal(self, text: str):
        """The textual scalar form in integer form, the one set of literal
        rules: over the rationals an int for an integer value and a Fraction
        in lowest terms otherwise, over F_p the int residue.  Surrounding
        whitespace is ignored; anything else raises ValueError."""
        text = text.strip()
        p = self.p
        try:
            if "/" in text:
                a, b = text.split("/")
                q = Fraction(int(a), int(b))
                if p is not None:
                    return self._raw(q)
                return q.numerator if q.denominator == 1 else q
            n = int(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad scalar literal {text!r} for {self.name}: {exc}") from None
        return n if p is None else n % p

    # -- arithmetic on raw values ---------------------------------------------

    def add(self, a, b):
        p = self.p
        return a + b if p is None else (a + b) % p

    def sub(self, a, b):
        p = self.p
        return a - b if p is None else (a - b) % p

    def neg(self, a):
        p = self.p
        return -a if p is None else -a % p

    def mul(self, a, b):
        p = self.p
        return a * b if p is None else a * b % p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        p = self.p
        return 1 / a if p is None else pow(a, -1, p)

    def power(self, a, n: int):
        p = self.p
        return a**n if p is None else pow(a, n, p)

    def text(self, a) -> str:
        if self.p is not None:
            return str(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"


# The one object of each field, keyed by (p, m); only valid fields enter.
_FIELDS: dict = {}


def _same(a):
    return a


def _intern(cls, p, m) -> FieldSpec:
    field = object.__new__(cls)
    object.__setattr__(field, "p", p)
    object.__setattr__(field, "m", m)
    _FIELDS[p, m] = field
    return field


QQ = FieldSpec()


def GF(p: int, m: int = 1) -> FieldSpec:
    """The finite field with p^m elements: F_p itself for m = 1 (p a
    word-sized prime), the ExtensionField F_p[x]/(f) for m >= 2."""
    return FieldSpec(p) if m == 1 else ExtensionField(p, m)


def _extension_past(p: int, n: int, what: str) -> FieldSpec:
    """The smallest F_{p^m}, m >= 2, with more than n elements, the field
    that `what` needs; SearchSpaceTooLargeError, naming `what`, when that
    field has more than MAX_EXTENSION_ORDER elements."""
    m = 2
    while p**m <= n:
        m += 1
    if p**m > MAX_EXTENSION_ORDER:
        raise SearchSpaceTooLargeError(
            f"{what} needs a field of characteristic {p} with more than {n} elements, "
            f"past the largest extension field ({MAX_EXTENSION_ORDER} elements)",
            size=p**m, ceiling=MAX_EXTENSION_ORDER,
        )
    return GF(p, m)


# -- extension fields ------------------------------------------------------------


def _code_digits(code: int, p: int, m: int) -> list:
    return [(code // p**i) % p for i in range(m)]


def _digits_code(digits, p: int) -> int:
    return sum(d * p**i for i, d in enumerate(digits))


def _times_x(digits, f, p: int) -> list:
    """x * (residue given by digits) modulo x^m + sum f[i] x^i."""
    top = digits[-1]
    digits = [0] + digits[:-1]
    return [(c - top * fc) % p for c, fc in zip(digits, f)] if top else digits


@functools.cache
def _extension_tables(p: int, m: int):
    """(modulus digits, exp table, log table) for F_p[x]/(f), f primitive.

    Monic polynomials x^m + f_(m-1) x^(m-1) + ... + f_0 are tried in
    increasing order of the code of (f_0, ..., f_(m-1)); the first f for
    which x has multiplicative order exactly q - 1 is taken.  Then the
    q - 1 powers of x are distinct units, so every nonzero residue is a
    unit, F_p[x]/(f) is a field and f is irreducible (indeed primitive).
    exp has length 2(q - 1) so that log a + log b needs no reduction.
    """
    q = p**m
    for low in range(1, q):
        f = _code_digits(low, p, m)
        exp = []
        digits, code = [1] + [0] * (m - 1), 1
        while True:
            exp.append(code)
            digits = _times_x(digits, f, p)
            code = _digits_code(digits, p)
            if code == 1 or len(exp) == q - 1:
                break
        if code == 1 and len(exp) == q - 1:
            log = [0] * q
            for i, code in enumerate(exp):
                log[code] = i
            return tuple(f), tuple(exp + exp), tuple(log)
    raise AssertionError(f"no primitive polynomial of degree {m} over F_{p}")


def extension_modulus(p: int, m: int) -> tuple:
    """Coefficients (c_0, ..., c_(m-1), 1) of the fixed modulus of F_{p^m}:
    x^2+x+1 for F_4, x^3+x+1 for F_8, x^2+x+2 for F_9."""
    return _extension_tables(p, m)[0] + (1,)


class ExtensionField(FieldSpec):
    """F_q = F_p[x]/(f), q = p^m with m >= 2 and f = extension_modulus(p, m).

    Element construction is inherited: ints and fractions land in the prime
    subfield, whose codes are its residues.
    """

    __slots__ = ("_exp", "_log")

    def __new__(cls, p: int, m: int):
        if not isinstance(m, int) or m < 2:
            raise ValueError(f"extension degree must be an integer >= 2: {m!r}")
        FieldSpec(p)  # validates the characteristic
        field = _FIELDS.get((p, m))
        if field is None:
            if p**m > MAX_EXTENSION_ORDER:
                raise ValueError(f"extension field F_{p}^{m} exceeds {MAX_EXTENSION_ORDER} elements")
            _, exp, log = _extension_tables(p, m)
            field = _intern(cls, p, m)
            object.__setattr__(field, "_exp", exp)
            object.__setattr__(field, "_log", log)
        return field

    # -- arithmetic on raw codes -------------------------------------------------

    def add(self, a: int, b: int) -> int:
        p = self.p
        if p == 2:
            return a ^ b
        out, place = 0, 1
        while a or b:
            out += (a + b) % p * place
            a //= p
            b //= p
            place *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        p = self.p
        if p == 2:
            return a
        out, place = 0, 1
        while a:
            out += (-a) % p * place
            a //= p
            place *= p
        return out

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        log = self._log
        return self._exp[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self.name}")
        return self._exp[self.q - 1 - self._log[a]]

    def power(self, a: int, n: int) -> int:
        if n == 0:
            return 1
        if not a:
            return 0
        return self._exp[self._log[a] * n % (self.q - 1)]

    def text(self, a: int) -> str:
        """The residue as a polynomial in x, highest power first ("x^2+1")."""
        terms = []
        for i, c in reversed(list(enumerate(_code_digits(a, self.p, self.m)))):
            if not c:
                continue
            mono = "" if i == 0 else "x" if i == 1 else f"x^{i}"
            terms.append(str(c) if not mono else mono if c == 1 else f"{c}{mono}")
        return "+".join(terms) or "0"


class Scalar:
    """An element of a field, tagged with the field that does its arithmetic."""

    __slots__ = ("field", "value")

    def __init__(self, field: FieldSpec, value):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def _other(self, other):
        """The raw value of a same-field operand; None for a foreign type."""
        if isinstance(other, Scalar):
            if other.field is not self.field:
                raise FieldMismatchError(
                    f"cannot combine {self.field.name} and {other.field.name} scalars"
                )
            return other.value
        if isinstance(other, (int, Fraction)):
            return self.field.coerce(other).value
        return None

    def __add__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.add(self.value, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.sub(self.value, o))

    def __rsub__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.sub(o, self.value))

    def __mul__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.mul(self.value, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.mul(self.value, f.inv(o)))

    def __rtruediv__(self, other):
        o = self._other(other)
        if o is None:
            return NotImplemented
        f = self.field
        return Scalar(f, f.mul(o, f.inv(self.value)))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a natural number")
        return Scalar(self.field, self.field.power(self.value, n))

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.coerce(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        if other.field is not self.field:
            raise FieldMismatchError(
                f"cannot compare {self.field.name} and {other.field.name} scalars"
            )
        return self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def text(self) -> str:
        return self.field.text(self.value)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"Scalar({self.field.name}, {self.text()})"
