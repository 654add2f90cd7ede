from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradedbrauer.scalars import (COMPLEX, REAL, GaussianRational, I,
                                  field_from_label, format_gaussian,
                                  format_rational, parse_gaussian,
                                  parse_rational)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussianRational, rationals, rationals)


def test_gaussian_basic_arithmetic():
    z = GaussianRational(1, 2)
    w = GaussianRational(Fraction(1, 3), -1)
    assert z + w == GaussianRational(Fraction(4, 3), 1)
    assert z * I == GaussianRational(-2, 1)
    assert I * I == -1
    assert (z - z) == 0 and not (z - z)


def test_gaussian_mixes_with_plain_numbers():
    z = GaussianRational(1, 1)
    assert 1 + z == GaussianRational(2, 1)
    assert Fraction(1, 2) * z == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert z - 1 == I
    assert GaussianRational(5, 0) == 5
    assert hash(GaussianRational(5, 0)) == hash(5)


def test_gaussian_division():
    z = GaussianRational(3, 4)
    assert z / z == 1
    assert 1 / I == -I
    with pytest.raises(ZeroDivisionError):
        z / GaussianRational(0, 0)


def test_gaussian_is_immutable():
    z = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        z.re = Fraction(9)


@given(gaussians, gaussians)
def test_gaussian_multiplication_norm(z, w):
    assert (z * w).norm() == z.norm() * w.norm()


@given(gaussians)
def test_gaussian_conjugate_product_is_norm(z):
    assert z * z.conjugate() == GaussianRational(z.norm(), 0)


@given(rationals)
def test_rational_format_parse_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@given(gaussians)
def test_gaussian_format_parse_round_trip(z):
    assert parse_gaussian(format_gaussian(z)) == z


@pytest.mark.parametrize("text, re, im", [
    ("i", 0, 1),
    ("-i", 0, -1),
    ("3", 3, 0),
    ("-2/3", Fraction(-2, 3), 0),
    ("1+i", 1, 1),
    ("1/2-3/4i", Fraction(1, 2), Fraction(-3, 4)),
    ("-i+2", 2, -1),
])
def test_gaussian_parsing_spellings(text, re, im):
    assert parse_gaussian(text) == GaussianRational(re, im)


def test_real_field_rejects_imaginary_parts():
    with pytest.raises(ValueError):
        REAL.coerce(I)
    assert REAL.coerce(GaussianRational(2, 0)) == Fraction(2)


@pytest.mark.parametrize("value", [0.5, 1.0, True, False, None, [1]])
def test_fields_reject_inexact_and_non_numeric_scalars(value):
    for field in (REAL, COMPLEX):
        with pytest.raises(ValueError, match="strings or integers"):
            field.coerce(value)


@pytest.mark.parametrize("text", ["1e9999999", "2E-9999999", "1+1e9999999i"])
def test_exponents_are_refused_before_they_are_expanded(text):
    """``Fraction("1e9999999")`` would compute ``10**9999999`` (seconds and
    megabytes); a scalar is ``p/q`` or ``a+bi``, so an exponent is refused."""
    for field in (REAL, COMPLEX):
        with pytest.raises(ValueError, match="not a rational scalar"):
            field.parse(text)


def test_complex_field_accepts_everything_rational():
    assert COMPLEX.coerce(Fraction(1, 2)) == GaussianRational(Fraction(1, 2), 0)
    assert COMPLEX.parse("1-i") == GaussianRational(1, -1)


def test_sign_only_defined_over_the_reals():
    assert REAL.sign(Fraction(-7, 2)) == -1
    with pytest.raises(ValueError):
        COMPLEX.sign(GaussianRational(1, 0))


def test_field_lookup():
    assert field_from_label("R") is REAL
    assert field_from_label("C") is COMPLEX
    with pytest.raises(ValueError):
        field_from_label("Q")
