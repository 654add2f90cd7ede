"""Exact scalars for the two ground-field contexts.

Every number this package returns is either a :class:`fractions.Fraction`
(real-point context, label ``"R"``) or a :class:`GaussianRational`
(complex-point context, label ``"C"``) with ``Fraction`` parts.  No
floating point, ever.

Scalars serialize to short strings: ``"3"``, ``"-5/2"``, ``"1/2+3/4i"``,
``"-2i"``.  Parsing accepts anything :meth:`Field.render` emits, plus
obvious variants (``"i"``, ``"-i"``, embedded spaces).

Cost model.  A ``Fraction`` operation runs Python code and a gcd: ``a *
b + a`` takes about 3 us on ``Fraction`` operands against 50 ns on small
``int`` ones (Python 3.11).  So the classification and the certificates
compute on the integral image of an algebra
(:func:`gradedbrauer.algebra._integral`), whose scalars are ``int`` (or
``GaussianRational`` with ``int`` parts, made by :func:`_make`), with
the fraction-free kernels of :mod:`gradedbrauer.linalg`; image scalars
never leave the package.  A ``GaussianRational`` operation does only the
work its nonzero parts need: a product takes one product of parts when
both factors are real, two when one is, and four (plus two sums) only
when neither is; ``+``, ``-`` and negation leave a zero imaginary part
alone.  Every division is :func:`_div`, which returns a ``Fraction`` or a
``GaussianRational`` with ``Fraction`` parts for any operands, so no
``int / int`` (a float) is taken.  Both scalar types are immutable, so
:meth:`Field.zero` and :meth:`Field.one` hand out shared constants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


class GaussianRational:
    """A number ``re + im*i`` with exact rational parts.

    Supports field arithmetic and mixes freely with ``int`` and
    ``Fraction``.  A value with ``im == 0`` compares (and hashes) equal
    to the corresponding rational.  Both parts are always ``Fraction``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        _set_re(self, re if type(re) is Fraction else Fraction(re))
        _set_im(self, im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("GaussianRational is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("GaussianRational is immutable")

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_gaussian(self)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __hash__(self) -> int:
        im = self.im
        if not im:
            return hash(self.re)
        return hash((self.re, im))

    def __eq__(self, other: object) -> bool:
        if type(other) is GaussianRational:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __neg__(self) -> GaussianRational:
        im = self.im
        return _make(-self.re, -im if im else im)

    def __add__(self, other: object) -> GaussianRational:
        if type(other) is GaussianRational:
            b, d = self.im, other.im
            return _make(self.re + other.re, (b + d if b else d) if d else b)
        if isinstance(other, (int, Fraction)):
            return _make(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> GaussianRational:
        if type(other) is GaussianRational:
            b, d = self.im, other.im
            return _make(self.re - other.re, (b - d if b else -d) if d else b)
        if isinstance(other, (int, Fraction)):
            return _make(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other: object) -> GaussianRational:
        if isinstance(other, (int, Fraction)):
            im = self.im
            return _make(other - self.re, -im if im else im)
        return NotImplemented

    def __mul__(self, other: object) -> GaussianRational:
        if type(other) is GaussianRational:
            a, b = self.re, self.im
            c, d = other.re, other.im
            if not b:
                return _make(a * c, a * d if d else b)
            if not d:
                return _make(a * c, b * c)
            return _make(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            b = self.im
            return _make(self.re * other, b * other if b else b)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> GaussianRational:
        im = self.im
        return _make(self.re, -im if im else im)

    def norm(self) -> Fraction:
        """The rational ``re**2 + im**2``."""
        a, b = self.re, self.im
        return a * a + b * b if b else a * a

    def __truediv__(self, other: object) -> GaussianRational:
        if isinstance(other, (int, Fraction, GaussianRational)):
            return _div(self, other)
        return NotImplemented

    def __rtruediv__(self, other: object) -> GaussianRational:
        if isinstance(other, (int, Fraction)):
            return _div(other, self)
        return NotImplemented


_set_re = GaussianRational.re.__set__
_set_im = GaussianRational.im.__set__
_new = object.__new__


def _make(re: Fraction, im: Fraction) -> GaussianRational:
    """``GaussianRational(re, im)`` for parts that are already Fractions,
    as every arithmetic result's are: no conversion and no type checks."""
    z = _new(GaussianRational)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _div(x, y):
    """``x / y`` exactly, the one division of the package: a ``Fraction``,
    or a ``GaussianRational`` with ``Fraction`` parts when either operand
    is one.  Operands may be ``int``, ``Fraction`` or ``GaussianRational``
    with ``int`` or ``Fraction`` parts, so no ``int / int`` (a float) is
    ever taken.  ``(a + bi) / (c + di)`` is ``(a + bi)(c - di) / (c^2 +
    d^2)``."""
    if type(y) is GaussianRational:
        c, d = y.re, y.im
        x, y = (x * _make(c, -d), c * c + d * d) if d else (x, c)
        if type(x) is not GaussianRational:
            x = _make(x, 0)
    if not y:
        raise ZeroDivisionError("division by zero")
    if type(x) is GaussianRational:
        return _make(Fraction(x.re, y), Fraction(x.im, y))
    return Fraction(x, y)


_ZERO = Fraction(0)
_ONE = Fraction(1)
_GAUSSIAN_ZERO = _make(_ZERO, _ZERO)
_GAUSSIAN_ONE = _make(_ONE, _ZERO)

I = GaussianRational(0, 1)


def format_rational(x: Fraction) -> str:
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
        """The field's zero, one shared (immutable) instance."""
        return _ZERO if self.label == "R" else _GAUSSIAN_ZERO

    def one(self):
        """The field's unit, one shared (immutable) instance."""
        return _ONE if self.label == "R" else _GAUSSIAN_ONE

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

    def render(self, value) -> str:
        """The string of ``value``, which must already be a scalar of
        this field (as :meth:`coerce` returns)."""
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
