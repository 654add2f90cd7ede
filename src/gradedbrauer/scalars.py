"""Exact scalars for the two ground-field contexts.

Every number in this package is either a :class:`fractions.Fraction`
(real-point context, label ``"R"``) or a :class:`GaussianRational`
(complex-point context, label ``"C"``).  No floating point, ever.

Scalars serialize to short strings: ``"3"``, ``"-5/2"``, ``"1/2+3/4i"``,
``"-2i"``.  Parsing accepts anything :func:`Field.parse` emits, plus
obvious variants (``"i"``, ``"-i"``, embedded spaces).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class GaussianRational:
    """A number ``re + im*i`` with exact rational parts.

    Supports field arithmetic and mixes freely with ``int`` and
    ``Fraction``.  A value with ``im == 0`` compares (and hashes) equal
    to the corresponding rational.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        # Parts that are already Fractions (every arithmetic result) are
        # stored as they are; only other rationals are converted.
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gaussian(self)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __hash__(self) -> int:
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self.re, -self.im)

    def __add__(self, other: object) -> GaussianRational:
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> GaussianRational:
        if isinstance(other, GaussianRational):
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other: object) -> GaussianRational:
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) - self
        return NotImplemented

    def __mul__(self, other: object) -> GaussianRational:
        if isinstance(other, GaussianRational):
            return GaussianRational(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The rational ``re**2 + im**2``."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other: object) -> GaussianRational:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        if isinstance(other, GaussianRational):
            n = other.norm()
            if not n:
                raise ZeroDivisionError("division by zero Gaussian rational")
            c = other.conjugate()
            prod = self * c
            return GaussianRational(prod.re / n, prod.im / n)
        return NotImplemented

    def __rtruediv__(self, other: object) -> GaussianRational:
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other) / self
        return NotImplemented


I = GaussianRational(0, 1)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_gaussian(z: GaussianRational) -> str:
    if not z.im:
        return format_rational(z.re)
    im = format_rational(abs(z.im)) + "i"
    if not z.re:
        return im if z.im > 0 else "-" + im
    return f"{format_rational(z.re)}{'+' if z.im > 0 else '-'}{im}"


def parse_rational(text: str) -> Fraction:
    # An exponent is refused: Fraction("1e9999999") computes 10**9999999.
    if "e" in text or "E" in text:
        raise ValueError(f"not a rational scalar: {text!r}")
    try:
        return Fraction(text.replace(" ", ""))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational scalar: {text!r}") from exc


def parse_gaussian(text: str) -> GaussianRational:
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar string")
    if "i" in s and not s.endswith("i"):
        # imaginary term written first ("-i+2", "i-3"): move it to the back
        cut = s.index("i") + 1
        imag, tail = s[:cut], s[cut:]
        if not tail or tail[0] not in "+-":
            raise ValueError(f"not a Gaussian scalar: {text!r}")
        real = tail[1:] if tail.startswith("+") else tail
        s = real + (imag if imag[0] in "+-" else "+" + imag)
    if not s.endswith("i"):
        return GaussianRational(parse_rational(s))
    body = s[:-1]
    # Split a trailing imaginary term off an optional real part.  A sign
    # counts as a separator only when it is not the leading sign and not
    # part of a fraction that began earlier (fractions never contain signs
    # after position 0 of their own token, so any interior +/- separates).
    split = None
    for pos in range(len(body) - 1, 0, -1):
        if body[pos] in "+-" and body[pos - 1] not in "+-/":
            split = pos
            break
    if split is None:
        re_part, im_part = "", body
    else:
        re_part, im_part = body[:split], body[split:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = parse_rational(im_part)
    re = parse_rational(re_part) if re_part else Fraction(0)
    return GaussianRational(re, im)


class Field:
    """Ground-field context: the rationals (``"R"``) or the Gaussian
    rationals (``"C"``), standing for the real and complex points.

    Instances are the two module-level singletons :data:`REAL` and
    :data:`COMPLEX`; identity comparison is fine.
    """

    __slots__ = ("label",)

    def __init__(self, label: str) -> None:
        self.label = label

    def __repr__(self) -> str:
        return "REAL" if self.label == "R" else "COMPLEX"

    @property
    def is_real(self) -> bool:
        return self.label == "R"

    def zero(self):
        return Fraction(0) if self.is_real else GaussianRational(0)

    def one(self):
        return Fraction(1) if self.is_real else GaussianRational(1)

    def coerce(self, value):
        """Bring ``value`` into this field, rejecting what does not embed.

        Only strings, integers and exact scalars are taken: a float is
        not exact, and a JSON ``true`` or ``null`` is not a number.  A
        value of the field's own exact type is returned unchanged."""
        if type(value) is (Fraction if self.label == "R" else GaussianRational):
            return value
        if isinstance(value, bool) or not isinstance(
                value, (str, int, Fraction, GaussianRational)):
            raise ValueError(f"scalars are strings or integers, not "
                             f"{type(value).__name__} {value!r}")
        if self.is_real:
            if isinstance(value, GaussianRational):
                if value.im:
                    raise ValueError(f"{value} has nonzero imaginary part")
                return value.re
            if isinstance(value, str):
                return parse_rational(value)
            return Fraction(value)
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, str):
            return parse_gaussian(value)
        return GaussianRational(Fraction(value))

    def parse(self, text: str):
        return self.coerce(text)

    def render(self, value) -> str:
        value = self.coerce(value)
        if self.is_real:
            return format_rational(value)
        return format_gaussian(value)

    def sign(self, value) -> int:
        """Sign of a scalar; only meaningful over the real point."""
        if not self.is_real:
            raise ValueError("sign is not defined over the complex point")
        value = self.coerce(value)
        return (value > 0) - (value < 0)


REAL = Field("R")
COMPLEX = Field("C")

_BY_LABEL = {"R": REAL, "C": COMPLEX}


def field_from_label(label: str) -> Field:
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise ValueError(f"unknown field label {label!r}; expected 'R' or 'C'") from None
