import operator
from fractions import Fraction

import pytest
from hypothesis import assume, given
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
    for dividend in (z, GaussianRational(3), GaussianRational(0), 1, Fraction(-2, 3)):
        for zero in (0, Fraction(0), GaussianRational(0, 0)):
            if isinstance(dividend, GaussianRational) or isinstance(zero, GaussianRational):
                with pytest.raises(ZeroDivisionError):
                    dividend / zero


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


# ------------------------------------------- the kernel against its parts
#
# Each operator is checked against the arithmetic of ``(re, im)`` pairs
# written out by hand.  Parts are zero half of the time, so every fast
# path (real times real, real times complex, division by a real value,
# additions that skip a zero imaginary part) is drawn often, and ``int``
# and ``Fraction`` operands stand on either side.

parts = st.one_of(st.just(Fraction(0)),
                  st.fractions(min_value=-50, max_value=50, max_denominator=12))
sparse_gaussians = st.builds(GaussianRational, parts, parts)
operands = st.one_of(sparse_gaussians, sparse_gaussians, parts,
                     st.integers(-5, 5))


def pair(x):
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def reference_div(x, y):
    (a, b), (c, d) = x, y
    n = c * c + d * d
    return (a * c + b * d) / n, (b * c - a * d) / n


REFERENCE = {
    operator.add: lambda x, y: (x[0] + y[0], x[1] + y[1]),
    operator.sub: lambda x, y: (x[0] - y[0], x[1] - y[1]),
    operator.mul: lambda x, y: (x[0] * y[0] - x[1] * y[1],
                                x[0] * y[1] + x[1] * y[0]),
    operator.truediv: reference_div,
}


def assert_gaussian(z, want):
    assert type(z) is GaussianRational
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == want


@given(operands, operands)
def test_binary_operators_match_the_parts(x, y):
    assume(isinstance(x, GaussianRational) or isinstance(y, GaussianRational))
    for op, reference in REFERENCE.items():
        if op is operator.truediv and pair(y) == (0, 0):
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            continue
        assert_gaussian(op(x, y), reference(pair(x), pair(y)))


@given(sparse_gaussians)
def test_unary_operations_match_the_parts(z):
    a, b = z.re, z.im
    assert_gaussian(-z, (-a, -b))
    assert_gaussian(z.conjugate(), (a, -b))
    n = z.norm()
    assert type(n) is Fraction and n == a * a + b * b
    assert bool(z) == (a != 0 or b != 0)


@given(operands, operands)
def test_equality_and_hash_follow_the_parts(x, y):
    assume(isinstance(x, GaussianRational) or isinstance(y, GaussianRational))
    assert (x == y) == (pair(x) == pair(y))
    assert (x != y) == (pair(x) != pair(y))
    if x == y:
        assert hash(x) == hash(y)


@given(parts)
def test_a_real_value_hashes_like_its_real_part(x):
    z = GaussianRational(x)
    assert hash(z) == hash(x)
    assert z == x and x == z


@given(sparse_gaussians, operands)
def test_results_are_immutable(z, x):
    for w in (z, z + x, z * x, -z, z.conjugate()):
        for name in ("re", "im"):
            with pytest.raises(AttributeError):
                setattr(w, name, Fraction(9))
            with pytest.raises(AttributeError):
                delattr(w, name)


def test_field_constants_are_shared_and_exact():
    assert REAL.zero() is REAL.zero() and type(REAL.zero()) is Fraction
    assert REAL.one() == 1 and type(REAL.one()) is Fraction
    for value, want in ((COMPLEX.zero(), (0, 0)), (COMPLEX.one(), (1, 0))):
        assert_gaussian(value, want)
    assert COMPLEX.one() is COMPLEX.one()


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
            field.coerce(text)


def test_complex_field_accepts_everything_rational():
    assert COMPLEX.coerce(Fraction(1, 2)) == GaussianRational(Fraction(1, 2), 0)
    assert COMPLEX.coerce("1-i") == GaussianRational(1, -1)


def test_sign_only_defined_over_the_reals():
    assert REAL.sign(Fraction(-7, 2)) == -1
    with pytest.raises(ValueError):
        COMPLEX.sign(GaussianRational(1, 0))


def test_field_lookup():
    assert field_from_label("R") is REAL
    assert field_from_label("C") is COMPLEX
    with pytest.raises(ValueError):
        field_from_label("Q")
