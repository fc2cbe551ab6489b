import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from crosstwist import CharacteristicError, FieldError, PrimeField, Rationals
from crosstwist.fields import _text, parse_field_spec


def test_exactness_thirds():
    f = Rationals()
    third = Fraction(1, 3)
    assert f.add(f.add(third, third), third) == f.one()


def test_rational_parse_canonical():
    f = Rationals()
    assert f.parse("3/4") == Fraction(3, 4)
    assert f.parse("-3/4") == Fraction(-3, 4)
    assert f.parse("0/1") == 0
    assert f.format(Fraction(5)) == "5/1"
    assert f.format(Fraction(-1, 2)) == "-1/2"


def test_scalars_of_any_size_are_written_in_full():
    """str() refuses ints of more than sys.get_int_max_str_digits() digits
    (at least 640 when limited); _text and format write them as str() would
    without the limit."""
    limit = sys.get_int_max_str_digits()
    try:
        cases = [10**5000, -(10**5000) + 7, 3 * 10**1300 + 1, 10**600, 10**599, 12, -5, 0]
        cases += [Fraction(10**4400 + 1, 3), Fraction(-1, 10**9000 + 1), Fraction(3, 4), Fraction(10**4400)]
        sys.set_int_max_str_digits(0)
        want = [str(x) for x in cases]
        wanted_format = [f"{Fraction(x).numerator}/{Fraction(x).denominator}" for x in cases]
        sys.set_int_max_str_digits(640)
        assert [_text(x) for x in cases] == want
        assert [Rationals().format(x) for x in cases] == wanted_format
    finally:
        sys.set_int_max_str_digits(limit)
    assert Rationals().format(Fraction(10**5000, 7)) == "1" + "0" * 5000 + "/7"


@pytest.mark.parametrize("text", ["2/4", "1/-2", "0/3", "5", "1.5", "1/0", "--1/2", "+1/2", "-0/1", "01/1", "-03/4", "00/1"])
def test_rational_parse_rejects_noncanonical(text):
    with pytest.raises(FieldError):
        Rationals().parse(text)


def test_prime_field_requires_prime():
    with pytest.raises(FieldError):
        PrimeField(6)
    with pytest.raises(FieldError):
        PrimeField(1)
    PrimeField(2)
    PrimeField(101)


@pytest.mark.parametrize(
    "p",
    [
        318665857834031151167461,  # psi_12: composite, a strong probable prime to bases 2..37
        3317044064679887385961981,  # psi_13: the bound of the primality test
    ],
)
def test_prime_field_refuses_pseudoprimes_and_oversized_moduli(p):
    with pytest.raises(FieldError):
        PrimeField(p)


def test_prime_field_accepts_large_prime_below_bound():
    assert PrimeField(2**61 - 1).p == 2**61 - 1


@pytest.mark.parametrize("text", ["", "gf", "gf:", "gf:x", "gf:4", "gf:318665857834031151167461", "Q"])
def test_parse_field_spec_rejects(text):
    with pytest.raises(FieldError, match="bad field spec"):
        parse_field_spec(text)


def test_parse_field_spec_accepts():
    assert parse_field_spec("rationals") == Rationals()
    assert parse_field_spec("gf:5") == PrimeField(5)


def test_prime_field_parse():
    f = PrimeField(5)
    assert f.parse("3") == 3
    with pytest.raises(FieldError):
        f.parse("7")
    with pytest.raises(FieldError):
        f.parse("-1")
    with pytest.raises(FieldError):
        f.parse("03")


def test_prime_field_half():
    assert PrimeField(3).from_fraction(Fraction(1, 2)) == 2
    assert PrimeField(5).from_fraction(Fraction(1, 2)) == 3
    with pytest.raises(CharacteristicError):
        PrimeField(2).from_fraction(Fraction(1, 2))


@given(st.integers(1, 4), st.integers(-20, 20))
def test_gf5_inverse(den, num):
    f = PrimeField(5)
    x = f.from_fraction(Fraction(num, den))
    if x != 0:
        assert f.mul(x, f.inv(x)) == f.one()


@given(
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
def test_rational_field_laws(a, b, c):
    f = Rationals()
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero()
    if a != 0:
        assert f.mul(a, f.inv(a)) == f.one()
