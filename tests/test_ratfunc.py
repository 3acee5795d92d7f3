import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgap.errors import FieldMismatchError
from tensorgap.fields import GF, QQ
from tensorgap.ratfunc import (
    EpsField,
    Poly,
    RatFunc,
    poly_gcd,
    ratfunc_parse,
)

EPS = EpsField(QQ)


def P(*coeffs):
    return Poly(QQ, list(coeffs))


def RF(num, den=(1,)):
    return RatFunc(P(*num), P(*den))


# -- polynomials ----------------------------------------------------------------


def test_poly_trims_trailing_zeros():
    assert P(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert P(0, 0).coeffs == ()
    assert not P()
    assert P().degree == -1


def test_poly_divmod_exact():
    q, r = P(-1, 0, 1).divmod(P(-1, 1))  # (eps^2 - 1) / (eps - 1)
    assert q == P(1, 1) and not r
    q, r = P(1, 0, 0, 1).divmod(P(1, 1))
    assert q * P(1, 1) + r == P(1, 0, 0, 1)


def test_poly_gcd_is_monic():
    g = poly_gcd(P(-1, 0, 1), P(1, -2, 1))  # gcd(eps^2-1, (eps-1)^2) = eps - 1
    assert g == P(-1, 1)
    g2 = poly_gcd(P(0, 2), P(0, 0, 4))
    assert g2 == P(0, 1)


def test_poly_over_prime_field():
    f2 = GF(2)
    a = Poly(f2, [1, 1])
    assert a * a == Poly(f2, [1, 0, 1])  # (1+eps)^2 = 1 + eps^2 over F_2


def test_poly_valuation():
    assert P(0, 0, 3).valuation() == 2
    assert P().valuation() == math.inf


# -- rational functions -----------------------------------------------------------


def test_ratfunc_normalization_common_factor():
    # (p*h, q*h) must normalize identically to (p, q)
    p, q, h = P(1, 2), P(2, 0, 1), P(3, 1, 4)
    assert RatFunc(p * h, q * h) == RatFunc(p, q)


def test_ratfunc_den_monic():
    f = RF((0, 2), (2,))  # 2*eps / 2
    assert f.num == P(0, 1) and f.den == P(1)
    g = RF((1,), (0, 3))  # 1 / (3*eps)
    assert g.den == P(0, 1) and g.num == P(Fraction(1, 3))


def test_valuation_examples():
    # eps^2 / (1 + eps) -> 2 ; (1 + eps)/eps^3 -> -3 ; 0 -> +inf
    assert RF((0, 0, 1), (1, 1)).valuation() == 2
    assert RF((1, 1), (0, 0, 0, 1)).valuation() == -3
    assert EPS.zero().valuation() == math.inf


def test_series_geometric():
    f = RF((1,), (1, -1))  # 1 / (1 - eps)
    assert [c.value for c in f.series(2)] == [1, 1, 1]


def test_series_laurent_tail():
    f = RF((1, 1), (0, 1))  # (1 + eps) / eps
    assert f.valuation() == -1
    assert [c.value for c in f.series(0)] == [1, 1]
    assert EPS.zero().series(5) == []


def test_series_below_valuation_rejected():
    with pytest.raises(ValueError):
        RF((0, 0, 1)).series(1)


def test_coefficient():
    f = RF((1,), (1, -2, 1))  # 1/(1-eps)^2 = sum (n+1) eps^n
    assert f.coefficient(5).value == 6
    assert f.coefficient(-1).value == 0


def test_arithmetic_and_powers():
    eps = EPS.eps()
    f = (1 + eps) / (1 - eps)
    g = f * f - 1
    # (1+x)^2/(1-x)^2 - 1 = 4x/(1-x)^2
    assert g == RF((0, 4), (1, -2, 1))
    assert (eps**-2) == EPS.eps(-2)
    assert f**0 == EPS.one()


def test_substitute_power():
    f = RF((0, 1), (1, -1))  # eps/(1-eps)
    assert f.substitute_power(2) == RF((0, 0, 1), (1, 0, -1))


def test_parse_print_round_trip():
    for text in ["0,1 ; 1", "1,2,3 ; 1,1", "0 ; 1", "-1/2,0,1 ; 3,1"]:
        f = ratfunc_parse(QQ, text)
        assert ratfunc_parse(QQ, f.text()) == f


def test_cross_base_rejected():
    with pytest.raises(FieldMismatchError):
        RF((1,)) + RatFunc(Poly(GF(3), [1]), Poly(GF(3), [1]))


def test_fp_base_series():
    f3 = GF(3)
    ring = EpsField(f3)
    f = RatFunc(Poly(f3, [1]), Poly(f3, [1, 2]))  # 1/(1 + 2 eps) over F_3
    # expansion: sum (-2 eps)^n = sum eps^n over F_3
    assert [c.value for c in f.series(3)] == [1, 1, 1, 1]


small_rf = st.builds(
    lambda a, b: RF(tuple(a), tuple(b)),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda c: any(c)),
)


@settings(max_examples=200, deadline=None)
@given(small_rf, small_rf)
def test_valuation_laws(f, g):
    vf, vg = f.valuation(), g.valuation()
    assert (f * g).valuation() == vf + vg
    assert (f + g).valuation() >= min(vf, vg)


@settings(max_examples=200, deadline=None)
@given(small_rf, small_rf, small_rf)
def test_field_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    if g:
        assert (f / g) * g == f


# -- normal form against plain Euclid --------------------------------------------


def _plain_gcd(a, b):
    """A gcd by unmodified Euclid on the whole polynomials (not monic)."""
    while b:
        a, b = b, a % b
    return a


def _plain_reduce(num, den):
    """num/den in lowest terms with den monic, by unmodified Euclid."""
    field = den.field
    if not num:
        return num, Poly(field, [1])
    g = _plain_gcd(num, den)
    num, den = num // g, den // g
    inv = field.inv(den.leading())
    return num.scale(inv), den.scale(inv)


def _plain_normal_form(num, den):
    """Coefficient tuples of num/den in lowest terms with den monic."""
    num, den = _plain_reduce(num, den)
    return num.coeffs, den.coeffs


def _factors(field):
    """General, constant and monomial polynomials over `field` (possibly 0)."""
    ints = st.integers(-4, 4)
    return st.one_of(
        st.lists(ints, min_size=1, max_size=4),
        ints.map(lambda c: [c]),
        st.tuples(st.integers(1, 3), ints).map(lambda ec: [0] * ec[0] + [ec[1]]),
    ).map(lambda cs: Poly(field, cs))


@st.composite
def _normalization_cases(draw):
    """(num, den, x) with num = eps^i A C, den = eps^j B C, i, j <= 4."""
    factors = _factors(draw(st.sampled_from((QQ, GF(2), GF(3)))))
    a, x = draw(factors), draw(factors)
    b, c = draw(factors.filter(bool)), draw(factors.filter(bool))
    i, j = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return (a * c).shift(i), (b * c).shift(j), x


def _parts(r):
    return r.num.coeffs, r.den.coeffs


@settings(max_examples=400, deadline=None)
@given(_normalization_cases())
def test_normal_form_matches_plain_euclid(case):
    num, den, x = case
    r = RatFunc(num, den)
    assert _parts(r) == _plain_normal_form(num, den)
    assert poly_gcd(num, den) == _plain_gcd(num, den).monic()
    # t shares r's denominator, so r + t and r - u take the equal-denominator
    # path; both equal x.
    t = RatFunc(x * r.den - r.num, r.den)
    u = RatFunc(r.num - x * r.den, r.den)
    assert t.den == r.den == u.den
    assert _parts(r + t) == _plain_normal_form(x * r.den, r.den)
    assert _parts(r - u) == _plain_normal_form(x * r.den, r.den)


# -- the eps-adic form against a dense reference -----------------------------------


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

    def __truediv__(self, o):
        return _Dense(self.num * o.den, self.den * o.num)

    def inverse(self):
        return _Dense(self.den, self.num)

    def substitute_power(self, n):
        return _Dense(_dense_spread(self.num, n), _dense_spread(self.den, n))

    def valuation(self):
        return self.num.valuation() - self.den.valuation() if self.num else math.inf

    def coefficient(self, e):
        """Laurent coefficient at eps^e: num/den = eps^-vd * num/den0 with
        den0 = den / eps^vd, expanded as a power series by the recurrence
        sum_i a_i den0_(j-i) = num_j."""
        field, vd = self.den.field, self.den.valuation()
        den0 = self.den.coeffs[vd:]
        a = []
        for j in range(e + vd + 1):
            acc = self.num.coeffs[j] if j < len(self.num.coeffs) else field._raw(0)
            for i in range(j):
                if j - i < len(den0):
                    acc = field.sub(acc, field.mul(a[i], den0[j - i]))
            a.append(field.mul(acc, field.inv(den0[0])))
        return a[-1] if a else field._raw(0)


def _dense_spread(poly, n):
    """poly(eps^n), coefficient by coefficient."""
    out = [0] * (n * len(poly.coeffs))
    for i, c in enumerate(poly.coeffs):
        out[i * n] = c
    return Poly(poly.field, out)


@st.composite
def _eps_adic_cases(draw):
    """(f, g) as dense (num, den) pairs over Q, F_2 or F_3.

    g is drawn free, or as f plus a Laurent polynomial (so f and g share
    their eps-free denominator w), or as h - f with h = f * eps^m * q (so
    f + g cancels the lowest terms of f), or as eps^m h - f for a free h.
    Numerators include zero and monomials; denominators carry eps powers, so
    valuations go negative.
    """
    field = draw(st.sampled_from((QQ, GF(2), GF(3))))
    polys = _factors(field)
    nonzero = polys.filter(bool)

    def shifted(p):
        return p.shift(draw(st.integers(0, 3)))

    f = shifted(draw(polys)), shifted(draw(nonzero))
    kind = draw(st.sampled_from(("free", "same-w", "cancel", "cancel-free")))
    m = draw(st.integers(1, 3))
    if kind == "free":
        g = shifted(draw(polys)), shifted(draw(nonzero))
    elif kind == "same-w":
        x, k = draw(polys), draw(st.integers(-3, 3))
        if k >= 0:
            g = f[0] + x.shift(k) * f[1], f[1]
        else:
            g = f[0].shift(-k) + x * f[1], f[1].shift(-k)
    elif kind == "cancel":
        g = f[0] * (draw(nonzero).shift(m) - Poly(field, [1])), f[1]
    else:
        h = draw(polys), draw(nonzero)
        g = h[0].shift(m) * f[1] - f[0] * h[1], f[1] * h[1]
    return f, g


def _agrees(r, ref):
    assert (r.num.coeffs, r.den.coeffs) == (ref.num.coeffs, ref.den.coeffs)
    v = r.valuation()
    assert v == ref.valuation()
    if r:
        offsets = (v - 1, v, v + 1, v + 3, 0, 2)
        assert [r._coefficient(e) for e in offsets] == [ref.coefficient(e) for e in offsets]
        assert [c.value for c in r.series(v + 3)] == [ref.coefficient(e) for e in range(v, v + 4)]
    else:
        assert all(r._coefficient(e) == 0 for e in (-2, 0, 3))
        assert r.series(3) == []


@settings(max_examples=500, deadline=None)
@given(_eps_adic_cases())
def test_eps_adic_form_matches_dense_reference(case):
    (fn, fd), (gn, gd) = case
    f, g = RatFunc(fn, fd), RatFunc(gn, gd)
    rf, rg = _Dense(fn, fd), _Dense(gn, gd)
    for r, ref in ((f, rf), (g, rg), (f + g, rf + rg), (f - g, rf - rg), (g - f, rg - rf),
                   (f * g, rf * rg), (-f, _Dense(-fn, fd))):
        _agrees(r, ref)
    for n in (1, 2, 3):
        _agrees(f.substitute_power(n), rf.substitute_power(n))
    if g:
        _agrees(f / g, rf / rg)
        _agrees(g.inverse(), rg.inverse())
