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


def _plain_normal_form(num, den):
    """Coefficient tuples of num/den in lowest terms with den monic."""
    if not num:
        return (), (1,)
    g = _plain_gcd(num, den)
    num, den = num // g, den // g
    p = den.field.p
    inv = 1 / den.leading() if p is None else pow(den.leading(), -1, p)
    return num.scale(inv).coeffs, den.scale(inv).coeffs


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
