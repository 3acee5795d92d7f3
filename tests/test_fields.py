import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorgap.census import tensor_to_id
from tensorgap.degeneration import construct_w_degeneration
from tensorgap.errors import FieldMismatchError
from tensorgap import fields
from tensorgap.fields import GF, QQ, FieldSpec, Scalar, extension_modulus, is_prime
from tensorgap.io import tensor_to_document
from tensorgap.linalg import Matrix, mat_det, mat_rank
from tensorgap.ranks import _covector_table, restricts_to_bruteforce, subrank_bruteforce
from tensorgap.ratfunc import EpsField, RatFunc
from tensorgap.tensors import lift_tensor, unit_tensor


def test_rational_scalars_are_normalized():
    x = QQ.from_fraction(Fraction(2, 4))
    assert x.value == Fraction(1, 2)
    y = QQ.from_fraction(Fraction(3, -6))
    assert y.value.denominator == 2 and y.value.numerator == -1


def test_prime_field_residues_reduced():
    f5 = GF(5)
    assert f5.from_int(7).value == 2
    assert f5.from_int(-1).value == 4
    assert f5.from_fraction(Fraction(1, 2)).value == 3  # 2 * 3 = 6 = 1 mod 5


def test_nonprime_modulus_rejected():
    with pytest.raises(ValueError, match="must be prime"):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        FieldSpec(2**63 + 9)


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(65537)
    assert not is_prime(1) and not is_prime(91) and not is_prime(2**32)


def test_arithmetic_over_q():
    a = QQ.from_fraction(Fraction(1, 3))
    b = QQ.from_int(2)
    assert (a + b).value == Fraction(7, 3)
    assert (a * b).value == Fraction(2, 3)
    assert (a - b).value == Fraction(-5, 3)
    assert (b / a).value == 6
    assert (-a).value == Fraction(-1, 3)
    assert (a**3).value == Fraction(1, 27)
    assert a.inverse().value == 3


def test_arithmetic_over_fp():
    f7 = GF(7)
    a, b = f7.from_int(3), f7.from_int(5)
    assert (a + b).value == 1
    assert (a * b).value == 1
    assert (a - b).value == 5
    assert a.inverse().value == 5
    assert (a**6).value == 1


def test_int_coercion_in_operators():
    a = QQ.from_int(3)
    assert (a + 1).value == 4
    assert (1 + a).value == 4
    assert (2 * a).value == 6
    assert (a / 2).value == Fraction(3, 2)
    assert a == 3


def test_cross_field_operations_rejected():
    with pytest.raises(FieldMismatchError):
        QQ.from_int(1) + GF(3).from_int(1)
    with pytest.raises(FieldMismatchError):
        GF(3).from_int(1) == GF(5).from_int(1)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        QQ.one() / QQ.zero()
    with pytest.raises(ZeroDivisionError):
        GF(3).zero().inverse()


def test_text_round_trip():
    for text in ["3/4", "-2", "5", "-7/3", "0"]:
        s = QQ.parse(text)
        assert QQ.parse(s.text()) == s
    f7 = GF(7)
    assert f7.parse("10").value == 3
    assert f7.parse("1/2").value == 4
    with pytest.raises(ValueError):
        QQ.parse("abc")
    with pytest.raises(ValueError):
        QQ.parse("1/0")


def test_scalar_literals_keep_their_values_and_messages():
    # _parse builds each raw value directly; these are the values, raw types
    # and messages of coercing the parsed int or Fraction into the field.
    f7, f4 = GF(7), GF(2, 2)
    values = {
        QQ: {"-1": Fraction(-1), "1/2": Fraction(1, 2), "-3/6": Fraction(-1, 2), " +12 ": Fraction(12)},
        f7: {"-1": 6, "1/2": 4, "7/14": 4, "-3/6": 3, "10": 3},
        f4: {"-1": 1, "12": 0, "3": 1},
    }
    for field, cases in values.items():
        for text, raw in cases.items():
            got = field._parse(text)
            assert got == raw and type(got) is type(raw), (field, text)
    errors = {
        (QQ, "1/0"): "bad scalar literal '1/0' for Q: Fraction(1, 0)",
        (QQ, "1.5"): "bad scalar literal '1.5' for Q: invalid literal for int() with base 10: '1.5'",
        (f7, "1/14"): "bad scalar literal '1/14' for F7: denominator of 1/14 vanishes in F_7",
        (f4, "-3/6"): "bad scalar literal '-3/6' for F4: denominator of -1/2 vanishes in F_2",
    }
    for (field, text), message in errors.items():
        with pytest.raises(ValueError) as info:
            field._parse(text)
        assert str(info.value) == message


def test_scalar_truthiness_and_hash():
    assert not QQ.zero()
    assert QQ.one()
    assert hash(QQ.from_int(2)) == hash(QQ.from_int(2))
    assert Scalar(QQ, Fraction(2)) == QQ.from_int(2)


# -- extension fields F_{p^m} ------------------------------------------------------

EXTENSIONS = [(2, 2), (2, 3), (3, 2)]


def _reference_product(a: int, b: int, p: int, m: int) -> int:
    """Schoolbook product of two codes as polynomials, reduced by the modulus."""
    da = [(a // p**i) % p for i in range(m)]
    db = [(b // p**i) % p for i in range(m)]
    prod = [0] * (2 * m - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    f = extension_modulus(p, m)
    for deg in range(2 * m - 2, m - 1, -1):
        c = prod[deg]
        if c:
            for i, fc in enumerate(f):
                prod[deg - m + i] = (prod[deg - m + i] - c * fc) % p
    return sum(d * p**i for i, d in enumerate(prod[:m]))


def test_extension_moduli_are_fixed():
    assert extension_modulus(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert extension_modulus(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1
    assert extension_modulus(3, 2) == (2, 1, 1)  # x^2 + x + 2


@pytest.mark.parametrize("p,m", EXTENSIONS)
def test_extension_field_axioms_exhaustive(p, m):
    field = GF(p, m)
    q = p**m
    elems = field.elements()
    assert field.q == q and field.name == f"F{q}"
    assert [e.value for e in elems] == list(range(q))
    zero, one = field.zero(), field.one()
    for a in elems:
        assert a + zero == a and a * one == a and a * zero == zero
        assert a + (-a) == zero
        if a:
            assert a * a.inverse() == one
            assert a / a == one
        x = one
        for _ in range(q):
            x = x * a
        assert x == a  # Frobenius: a^q = a
        assert a**q == a
    for a, b in itertools.product(elems, repeat=2):
        assert (a * b).value == _reference_product(a.value, b.value, p, m)
        assert a * b == b * a and a + b == b + a
        assert a - b == a + (-b)
    for a, b, c in itertools.product(elems, repeat=3):
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert (a + b) + c == a + (b + c)


@pytest.mark.parametrize("p,m", EXTENSIONS)
def test_extension_prime_subfield(p, m):
    field, base = GF(p, m), GF(p)
    assert field != base and GF(p, 1) == base
    assert hash(field) == hash(GF(p, m))
    assert field is GF(p, m) and FieldSpec(p) is GF(p) is base and FieldSpec() is QQ
    assert EpsField(QQ) is EpsField(QQ) and EpsField(base) is not EpsField(QQ)
    assert type(field.one()) is Scalar and type(field.element(p**m - 1)) is Scalar
    for n in range(-2 * p, 2 * p):
        assert field.from_int(n).value == n % p
        assert field.lift(base.from_int(n)) == field.from_int(n)
        assert field.from_int(n) + 1 == field.from_int(n + 1)
    assert field.from_fraction(Fraction(1, p - 1)).value == base.from_fraction(Fraction(1, p - 1)).value
    with pytest.raises(FieldMismatchError):
        field.one() + base.one()
    with pytest.raises(FieldMismatchError):
        field.lift(GF(5).one())
    # codes are ints in [0, q): not q, and not a bool, float or Fraction
    for f, code in itertools.product((field, base), (p**m, True, False, 1.0, Fraction(1))):
        with pytest.raises(ValueError, match="no element with code"):
            f.element(code)


def test_fields_never_mix_and_invalid_fields_are_not_interned():
    f3, f9 = GF(3), GF(3, 2)
    with pytest.raises(FieldMismatchError):
        f3.one() + f9.one()
    with pytest.raises(FieldMismatchError):
        f9.one() * f3.one()
    with pytest.raises(FieldMismatchError):
        f3.one() == f9.one()
    with pytest.raises(FieldMismatchError):
        f3.coerce(f9.one())
    with pytest.raises(FieldMismatchError):
        Matrix.from_rows(f3, [[f9.one()]])
    q_eps, f3_eps = EpsField(QQ), EpsField(f3)
    with pytest.raises(FieldMismatchError):
        q_eps.one() + f3_eps.one()
    with pytest.raises(FieldMismatchError):
        q_eps.eps() == f3_eps.eps()
    with pytest.raises(FieldMismatchError):
        q_eps.coerce(f3.one())
    interned = dict(fields._FIELDS)
    for _ in range(3):
        for bad in ((4,), (4, 2), (2, 17), (2**63 + 9,), (3.0,)):
            with pytest.raises(ValueError):
                GF(*bad)
        with pytest.raises(ValueError):
            FieldSpec(1)
    assert fields._FIELDS == interned


def test_extension_rank_is_not_read_as_f2_bits():
    f4 = GF(2, 2)
    a = f4.element(2)  # x, with x^2 = x + 1
    m = Matrix.from_rows(f4, [[f4.one(), a], [a, f4.one()]])
    # read as F_2 bits both rows would be (1, 1), of rank 1; det = 1 + x^2 = x
    assert mat_det(m) == a
    assert mat_rank(m) == 2
    assert mat_rank(Matrix.from_rows(f4, [[f4.one(), a], [a, a * a]])) == 1


def test_extension_fields_refused_by_fp_only_routines():
    f4 = GF(2, 2)
    t = lift_tensor(unit_tensor(3, 2, GF(2)), f4)
    with pytest.raises(FieldMismatchError):
        subrank_bruteforce(t, 2)
    with pytest.raises(FieldMismatchError):
        restricts_to_bruteforce(t, t)
    with pytest.raises(FieldMismatchError):
        _covector_table(t)
    with pytest.raises(FieldMismatchError):
        tensor_to_id(t)
    with pytest.raises(FieldMismatchError):
        tensor_to_document(t)
    with pytest.raises(FieldMismatchError):
        RatFunc(f4, [1])
    with pytest.raises(FieldMismatchError):
        EpsField(f4).one()
    with pytest.raises(FieldMismatchError):
        construct_w_degeneration(lift_tensor(unit_tensor(3, 2, GF(3)), GF(3, 2)))


class _FractionSubclass(Fraction):
    pass


@settings(max_examples=200, deadline=None)
@given(st.integers(-(10**12), 10**12), st.integers(1, 10**12))
def test_raw_coercion_keeps_its_meaning(num, den):
    f3 = GF(3)
    exact = Fraction(num, den)
    for x in (exact, _FractionSubclass(num, den), num, num > 0):
        raw = QQ._raw(x)
        assert type(raw) is Fraction and raw == Fraction(x)
        assert raw.denominator > 0 and math.gcd(raw.numerator, raw.denominator) == 1
        if Fraction(x).denominator % 3:
            assert f3._raw(x) == Fraction(x).numerator * pow(Fraction(x).denominator, -1, 3) % 3
        else:
            with pytest.raises(ZeroDivisionError):
                f3._raw(x)


def test_raw_coercion_edge_cases():
    assert GF(3)._raw(Fraction(1, 2)) == 2
    assert QQ._raw(True) == 1 and type(QQ._raw(True)) is Fraction
    assert QQ._raw(QQ.from_fraction(Fraction(2, 6))) == Fraction(1, 3)
    with pytest.raises(FieldMismatchError):
        QQ._raw(GF(3).one())
    with pytest.raises(FieldMismatchError):
        GF(3)._raw(QQ.one())
    with pytest.raises(TypeError):
        QQ._raw(0.5)


def test_extension_field_text():
    # residues as polynomials in x, highest power first, coefficients in F_p
    f4, f8, f9 = GF(2, 2), GF(2, 3), GF(3, 2)
    assert [f4.text(c) for c in (0, 1, 2, 3)] == ["0", "1", "x", "x+1"]
    assert f8.text(6) == "x^2+x"
    assert (f9.text(5), f9.text(7), f9.text(0)) == ("x+2", "2x+1", "0")


def test_reflected_scalar_operators():
    assert 1 - QQ.from_int(3) == -2
    assert 2 / GF(5).from_int(3) == 4
    assert Fraction(1, 2) - QQ.from_int(1) == QQ.from_fraction(Fraction(-1, 2))
