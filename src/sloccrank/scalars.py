"""Exact complex numbers with rational real and imaginary parts.

Stored as (a + b*i) / d with integer a, b and positive d, gcd(a, b, d) = 1.
All arithmetic is exact, so rank decisions downstream never depend on a
floating tolerance. The arithmetic is + and * (no -, unary - or /), and it
and == are only between ComplexRationals: an int or Fraction operand raises
TypeError, and a value is != the int or Fraction it equals, so sum() needs
start=ZERO. The constructor takes int or Fraction parts.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, List, Tuple


class ComplexRational:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=1):
        # int parts over d = 1 are in lowest terms already
        if type(a) is int and type(b) is int and type(d) is int and d == 1:
            self.a, self.b, self.d = a, b, d
            return
        if isinstance(a, Fraction) or isinstance(b, Fraction):
            # ints have .numerator and .denominator too
            da, db = a.denominator, b.denominator
            den = lcm(da, db)
            a = a.numerator * (den // da)
            b = b.numerator * (den // db)
            d = den * d
        if d == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(a, b), d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        self.a, self.b, self.d = a, b, d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        if type(other) is not ComplexRational:
            return NotImplemented
        d1, d2 = self.d, other.d
        return ComplexRational(
            self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2
        )

    def __mul__(self, other):
        if type(other) is not ComplexRational:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return ComplexRational(
            a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d
        )

    def conjugate(self) -> "ComplexRational":
        return ComplexRational(self.a, -self.b, self.d)

    def __eq__(self, other):
        if type(other) is not ComplexRational:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __complex__(self):
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return f"ComplexRational({self.a}, {self.b}, {self.d})"

    def __str__(self):
        return format_scalar(self)


ZERO = ComplexRational(0)
ONE = ComplexRational(1)


def gaussian_pairs(values: Collection[ComplexRational]) -> Tuple[int, List[Tuple[int, int]]]:
    """L, the lcm of the denominators, and each L * v as a Gaussian integer
    (a, b). values is read twice and never copied."""
    den = 1
    for v in values:
        if v.d != 1:
            den = lcm(den, v.d)
    if den == 1:
        return 1, [(v.a, v.b) for v in values]
    return den, [(v.a * (den // v.d), v.b * (den // v.d)) for v in values]


# the text grammar of a rational part; [0-9], not \d, which takes any
# Unicode digit
_UNSIGNED = "[0-9]+(?:/[0-9]+)?"
# the spaces allowed around a number; a bare strip() also drops U+3000, U+00A0
ASCII_WHITESPACE = " \t\r\n"
_RATIONAL = re.compile(f"[+-]?{_UNSIGNED}")


def format_rational(value: Fraction) -> str:
    num, den = value.numerator, value.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q": an optional sign and ASCII digits, nothing else."""
    text = text.strip(ASCII_WHITESPACE)
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # q = 0, or too many digits
        raise ValueError(f"malformed rational {text!r}") from exc


def format_scalar(z: ComplexRational) -> str:
    """Render as "re+imi" with both parts in p/q form, e.g. "1/2-3i"."""
    sign = "-" if z.b < 0 else "+"
    return f"{format_rational(z.re)}{sign}{format_rational(abs(z.im))}i"
