import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgap.errors import FieldMismatchError
from tensorgap.fields import GF, QQ
from tensorgap.linalg import Matrix, _eps_invertible, mat_inverse, mat_solve
from tensorgap.ratfunc import (
    EpsField,
    RatFunc,
    _monomial_quotient,
    coeff_parse,
    coeff_text,
)
from tensorgap.tensors import Tensor, restrict
from conftest import dense_coeff_text, trimmed

EPS = EpsField(QQ)


def P(*coeffs):
    """Raw Q coefficients from eps^0, as ratfunc's kernels take them."""
    return tuple(Fraction(c) for c in coeffs)


def RF(num, den=(1,)):
    return RatFunc(QQ, num, den)


# -- polynomials ----------------------------------------------------------------


def test_poly_trims_trailing_zeros():
    assert trimmed(P(1, 2, 0, 0)) == P(1, 2)
    assert trimmed(P(0, 0)) == ()
    assert RF((1, 2, 0, 0), (3, 0)).num == P(Fraction(1, 3), Fraction(2, 3))
    assert RF((0, 0)).num == () and not RF((0, 0))
    assert _times(QQ, P(1, 2), ()) == ()
    with pytest.raises(ZeroDivisionError):
        RF((1,), (0, 0))


def test_poly_over_prime_field():
    f2 = GF(2)
    assert _times(f2, (1, 1), (1, 1)) == (1, 0, 1)  # (1+eps)^2 = 1 + eps^2 over F_2


def test_poly_valuation():
    assert RF((0, 0, 3)).valuation() == 2
    assert RF(()).valuation() == math.inf


# -- Laurent polynomials ----------------------------------------------------------


def test_ratfunc_normalization_common_factor():
    # (p * h) / h normalizes identically to p for every monomial h = c eps^m
    p = P(1, 2)
    for h in (P(3), P(0, 0, 4), P(0, Fraction(-1, 2))):
        assert RF(_times(QQ, p, h), h) == RF(p)
    assert RF(P(0, 5, 10), P(0, 0, 0, 5)) == RF(P(1, 2), P(0, 0, 1))


def test_ratfunc_den_monic():
    f = RF((0, 2), (2,))  # 2*eps / 2
    assert f.num == P(0, 1) and f.den == P(1)
    g = RF((1,), (0, 3))  # 1 / (3*eps)
    assert g.den == P(0, 1) and g.num == P(Fraction(1, 3))


def test_valuation_examples():
    # eps^2 (1 + eps) -> 2 ; (1 + eps)/eps^3 -> -3 ; 0 -> +inf
    assert RF((0, 0, 1, 1)).valuation() == 2
    assert RF((1, 1), (0, 0, 0, 1)).valuation() == -3
    assert EPS.zero().valuation() == math.inf


def test_series_laurent_tail():
    f = RF((1, 1), (0, 1))  # (1 + eps) / eps
    assert f.valuation() == -1
    assert [f.coefficient(e).value for e in range(-1, 1)] == [1, 1]
    assert [f.coefficient(e).value for e in range(-1, 3)] == [1, 1, 0, 0]
    assert [EPS.zero().coefficient(e).value for e in range(6)] == [0] * 6


def test_coefficient():
    f = RF((1, 2, 3, 4, 5, 6), (0, 0, 1))  # sum (n+1) eps^(n-2), n = 0..5
    assert f.coefficient(3).value == 6
    assert f.coefficient(-2).value == 1
    assert f.coefficient(-3).value == 0 and f.coefficient(4).value == 0
    assert EPS.zero().coefficient(0).value == 0


def test_arithmetic_and_powers():
    eps = EPS.eps()
    f = (1 + eps) * EPS.eps(-1)
    g = f * f - 1
    # (1+x)^2/x^2 - 1 = (1 + 2x)/x^2
    assert g == RF((1, 2), (0, 0, 1))
    assert EPS.eps(-1) * EPS.eps(-1) == EPS.eps(-2)
    assert (EPS.eps(-1) * 3) * (EPS.eps(-1) * 3) == EPS.eps(-2) * 9
    assert f * f * f == RF((1, 3, 3, 1), (0, 0, 0, 1))


def test_substitute_power():
    f = RF((1, 3), (0, 1))  # (1 + 3 eps)/eps
    assert f.substitute_power(2) == RF((1, 0, 3), (0, 0, 1))


def test_parse_print_round_trip():
    # One text form serves RatFunc.text and the document coefficient lists.
    cases = {
        QQ: [((0, 1), (1,)), ((1, 2, 3), (0, 1)), ((0,), (1,)), ((Fraction(-1, 2), 0, 1), (3,))],
        GF(2): [((0, 1), (1,)), ((1, 1), (0, 0, 1)), ((0,), (0, 1)), ((1, 0, 1), (0, 1))],
        GF(3): [((2, 1), (2,)), ((0, 0, 2), (0, 1)), ((1, 2, 0, 1), (0, 0, 2)), ((4,), (5,))],
    }
    for field, pairs in cases.items():
        for num, den in pairs:
            f = RatFunc(field, num, den)
            texts = coeff_text(f)
            assert texts == tuple(dense_coeff_text(field, p) for p in (f.num, f.den))
            assert f.text() == " ; ".join(",".join(t) for t in texts)
            assert _monomial_quotient(field, *(coeff_parse(field, t) for t in texts)) == f
    assert RF((0, 2, 4), (0, 0, 2)).text() == "1,2 ; 0,1"
    assert RatFunc(GF(3), (4,), (5,)).text() == "2 ; 1"


def test_cross_base_rejected():
    with pytest.raises(FieldMismatchError):
        RF((1,)) + RatFunc(GF(3), [1], [1])


def test_fp_base_series():
    f3 = GF(3)
    f = RatFunc(f3, [1, 2, 0, 4], [0, 1])  # (1 + 2 eps + eps^3) / eps over F_3
    assert f.valuation() == -1
    assert [f.coefficient(e).value for e in range(-1, 4)] == [1, 2, 0, 1, 0]


def test_non_units_are_refused():
    # K(eps) values are Laurent polynomials: a denominator must be a monomial
    # c eps^m, and the values have the ring operations only, no division
    one_plus_eps = EPS.one() + EPS.eps()
    for field, den in ((QQ, (1, 1)), (QQ, (0, 2, 0, 3)), (GF(2), (1, 0, 1))):
        with pytest.raises(ValueError, match="not a monomial"):
            RatFunc(field, (1,), den)
    assert RatFunc(QQ, (1,), (0, 0, 3)) == EPS.eps(-2) * Fraction(1, 3)
    for divide in (lambda: EPS.one() / one_plus_eps, lambda: 1 / EPS.eps(), lambda: EPS.eps() ** 2):
        with pytest.raises(TypeError):
            divide()
    # so does linear algebra that needs field division
    m = Matrix(EPS, 2, 2, [EPS.eps(), EPS.zero(), EPS.zero(), EPS.one()])
    with pytest.raises(FieldMismatchError, match="mat_solve"):
        mat_solve(m, [EPS.one(), EPS.one()])
    with pytest.raises(FieldMismatchError, match="mat_inverse"):
        mat_inverse(m)


small_rf = st.builds(
    lambda num, m, c: RF(tuple(num), (0,) * m + (c,)),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.integers(0, 3),
    st.integers(-4, 4).filter(bool),
)
monomials = st.builds(
    lambda m, c: EPS.eps(m) * c, st.integers(-3, 3), st.integers(-4, 4).filter(bool)
)


@settings(max_examples=200, deadline=None)
@given(small_rf, small_rf)
def test_valuation_laws(f, g):
    vf, vg = f.valuation(), g.valuation()
    assert (f * g).valuation() == vf + vg
    assert (f + g).valuation() >= min(vf, vg)


@settings(max_examples=200, deadline=None)
@given(small_rf, small_rf, small_rf, monomials)
def test_field_axioms(f, g, h, unit):
    # the ring axioms of K[eps, 1/eps], and a unit c eps^m times its inverse
    # (1/c) eps^-m is one
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == EPS.zero() and f * EPS.one() == f
    ((m, c),) = unit._c.items()
    assert (f * unit) * EPS.eps(-m) * Fraction(1, c) == f


# -- the Laurent form against a dense reference ------------------------------------


class _Pol:
    """A reference polynomial: a trimmed coefficient list over `field` with
    schoolbook arithmetic of its own, so that ratfunc's tuple kernels are
    checked against code they do not share."""

    def __init__(self, field, coeffs):
        self.field = field
        self.cs = [field._raw(c) for c in coeffs]
        while self.cs and self.cs[-1] == 0:
            self.cs.pop()

    def _new(self, coeffs):
        return _Pol(self.field, coeffs)

    def __bool__(self):
        return bool(self.cs)

    def __add__(self, o):
        n = max(len(self.cs), len(o.cs))
        a, b = self.cs + [0] * (n - len(self.cs)), o.cs + [0] * (n - len(o.cs))
        return self._new([self.field.add(x, y) for x, y in zip(a, b)])

    def __neg__(self):
        return self._new([self.field.neg(c) for c in self.cs])

    def __sub__(self, o):
        return self + -o

    def __mul__(self, o):
        out = [0] * (len(self.cs) + len(o.cs))
        for i, x in enumerate(self.cs):
            for j, y in enumerate(o.cs):
                out[i + j] = self.field.add(out[i + j], self.field.mul(x, y))
        return self._new(out)

    def shift(self, n):
        """Multiply by eps^n (n >= 0)."""
        return self._new([0] * n + self.cs if self.cs else [])

    def scale(self, c):
        return self._new([self.field.mul(x, c) for x in self.cs])

    def divmod(self, o):
        """Long division by a nonzero o, one leading term at a time."""
        q, r = self._new([]), self
        while r and len(r.cs) >= len(o.cs):
            lead = self.field.mul(r.cs[-1], self.field.inv(o.cs[-1]))
            t = self._new([0] * (len(r.cs) - len(o.cs)) + [lead])
            q, r = q + t, r - t * o
        return q, r

    def valuation(self):
        return next((i for i, c in enumerate(self.cs) if c != 0), math.inf)

    def __eq__(self, o):
        return self.cs == o.cs


def _plain_gcd(a, b):
    """A gcd by unmodified Euclid on the whole polynomials (not monic)."""
    while b:
        a, b = b, a.divmod(b)[1]
    return a


def _plain_reduce(num, den):
    """num/den in lowest terms with den monic, by unmodified Euclid."""
    if not num:
        return num, _Pol(den.field, [1])
    g = _plain_gcd(num, den)
    num, den = num.divmod(g)[0], den.divmod(g)[0]
    inv = den.field.inv(den.cs[-1])
    return num.scale(inv), den.scale(inv)


def _times(field, a, b):
    """The product of raw coefficient tuples, by `_Pol`'s schoolbook product."""
    return tuple((_Pol(field, a) * _Pol(field, b)).cs)


def _factors(field):
    """General, constant and monomial polynomials over `field` (possibly 0)."""
    ints = st.integers(-4, 4)
    return st.one_of(
        st.lists(ints, min_size=1, max_size=4),
        ints.map(lambda c: [c]),
        st.tuples(st.integers(1, 3), ints).map(lambda ec: [0] * ec[0] + [ec[1]]),
    ).map(lambda cs: _Pol(field, cs))


def _rf(num, den):
    return RatFunc(num.field, num.cs, den.cs)


def _parts(r):
    return r.num, r.den


class _Dense:
    """A reference element of K(eps): dense num/den reduced by plain Euclid."""

    def __init__(self, num, den):
        self.num, self.den = _plain_reduce(num, den)

    def __add__(self, o):
        return _Dense(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return _Dense(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return _Dense(self.num * o.num, self.den * o.den)

    def substitute_power(self, n):
        return _Dense(_dense_spread(self.num, n), _dense_spread(self.den, n))

    def valuation(self):
        return self.num.valuation() - self.den.valuation() if self.num else math.inf

    def coefficient(self, e):
        """Laurent coefficient at eps^e: num/den = eps^-vd * num/den0 with
        den0 = den / eps^vd, expanded as a power series by the recurrence
        sum_i a_i den0_(j-i) = num_j."""
        field, vd = self.den.field, self.den.valuation()
        den0, num = self.den.cs[vd:], self.num.cs
        a = []
        for j in range(e + vd + 1):
            acc = num[j] if j < len(num) else field._raw(0)
            for i in range(j):
                if j - i < len(den0):
                    acc = field.sub(acc, field.mul(a[i], den0[j - i]))
            a.append(field.mul(acc, field.inv(den0[0])))
        return a[-1] if a else field._raw(0)


def _dense_spread(poly, n):
    """poly(eps^n), coefficient by coefficient."""
    out = [0] * (n * len(poly.cs))
    for i, c in enumerate(poly.cs):
        out[i * n] = c
    return _Pol(poly.field, out)


def _monomials(field):
    """Nonzero monomials c eps^j over `field`, j <= 3."""
    terms = st.tuples(st.integers(0, 3), st.integers(-4, 4))
    return terms.map(lambda jc: _Pol(field, [0] * jc[0] + [jc[1]])).filter(bool)


@st.composite
def _eps_adic_cases(draw):
    """(f, g) as dense (num, den) pairs over Q, F_2 or F_3, each den a
    monomial c eps^j.

    g is drawn free, or as f plus a Laurent polynomial (so f and g share
    their denominator), or as h - f with h = f * eps^m * q (so f + g cancels
    the lowest terms of f), or as eps^m h - f for a free h.  Numerators
    include zero and monomials; denominators carry eps powers, so valuations
    go negative.
    """
    field = draw(st.sampled_from((QQ, GF(2), GF(3))))
    polys, dens = _factors(field), _monomials(field)
    nonzero = polys.filter(bool)

    def shifted(p):
        return p.shift(draw(st.integers(0, 3)))

    f = shifted(draw(polys)), draw(dens)
    kind = draw(st.sampled_from(("free", "same-den", "cancel", "cancel-free")))
    m = draw(st.integers(1, 3))
    if kind == "free":
        g = shifted(draw(polys)), draw(dens)
    elif kind == "same-den":
        x, k = draw(polys), draw(st.integers(-3, 3))
        if k >= 0:
            g = f[0] + x.shift(k) * f[1], f[1]
        else:
            g = f[0].shift(-k) + x * f[1], f[1].shift(-k)
    elif kind == "cancel":
        g = f[0] * (draw(nonzero).shift(m) - _Pol(field, [1])), f[1]
    else:
        h = draw(polys), draw(dens)
        g = h[0].shift(m) * f[1] - f[0] * h[1], f[1] * h[1]
    return f, g


def _one_form(field, r, f):
    """r built again by the constructor, arithmetic and `restrict`: every
    route gives one (_d, _c), so one hash; and r is invertible as a 1x1
    curve exactly when it is nonzero."""
    ring, c = EpsField(field), field._raw(-1)
    routes = (
        RatFunc(field, (0,) + tuple(field.mul(c, x) for x in r.num),
                (0,) + tuple(field.mul(c, x) for x in r.den)),
        (r + f) - f,
        r * ring.eps() * ring.eps(-1),
        restrict(Tensor(ring, (1,), [r]), (Matrix(ring, 1, 1, [1]),)).entries[0],
    )
    for x in routes:
        assert x == r and hash(x) == hash(r) and (x._d, x._c) == (r._d, r._c)
    assert _eps_invertible(Matrix(ring, 1, 1, [r])) == bool(r)


def _agrees(r, ref):
    assert _parts(r) == (tuple(ref.num.cs), tuple(ref.den.cs))
    v = r.valuation()
    assert v == ref.valuation()
    if r:
        offsets = (v - 1, v, v + 1, v + 3, 0, 2)
        assert [r._coefficient(e) for e in offsets] == [ref.coefficient(e) for e in offsets]
        assert [r.coefficient(e).value for e in range(v, v + 4)] == [
            ref.coefficient(e) for e in range(v, v + 4)
        ]
    else:
        assert all(r._coefficient(e) == 0 for e in (-2, 0, 3))


@settings(max_examples=500, deadline=None)
@given(_eps_adic_cases())
def test_eps_adic_form_matches_dense_reference(case):
    (fn, fd), (gn, gd) = case
    f, g = _rf(fn, fd), _rf(gn, gd)
    rf, rg = _Dense(fn, fd), _Dense(gn, gd)
    for r, ref in ((f, rf), (g, rg), (f + g, rf + rg), (f - g, rf - rg), (g - f, rg - rf),
                   (f * g, rf * rg), (-f, _Dense(-fn, fd))):
        _agrees(r, ref)
        _one_form(fn.field, r, f)
    for n in (1, 2, 3):
        _agrees(f.substitute_power(n), rf.substitute_power(n))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_kernels_leave_input_maps_unchanged(field):
    # restrict and the invertibility test read each entry's (_d, _c) as it
    # stands and may share its map; neither may change it
    ring = EpsField(field)
    eps, one = ring.eps(), ring.one()
    inv_eps = ring.eps(-1)
    values = [
        inv_eps * Fraction(1, 2) + one * Fraction(1, 3), eps * Fraction(1, 6), one * 5,
        one * Fraction(2, 3), one * Fraction(1, 2) + eps, eps * eps,
        inv_eps * Fraction(1, 4), ring.zero(), eps * Fraction(7, 12),
    ]
    m = Matrix(ring, 3, 3, values)
    maps = (Matrix(ring, 2, 3, values[3:]), Matrix(ring, 3, 3, values[::-1]))
    inputs = values + list(maps[0].entries) + list(maps[1].entries)
    snapshot = [(e._d, dict(e._c)) for e in inputs]
    restrict(Tensor(ring, (3, 3), values), maps)
    assert _eps_invertible(m)
    # singular: the first row repeated, so every point is tried
    assert not _eps_invertible(Matrix(ring, 3, 3, values[:6] + values[:3]))
    for e in values:
        assert _eps_invertible(Matrix(ring, 1, 1, [e])) == bool(e)
    assert [(e._d, e._c) for e in inputs] == snapshot
