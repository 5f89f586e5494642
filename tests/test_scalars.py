"""Exact complex-rational scalar arithmetic and its text format."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from sloccrank.scalars import (
    ComplexRational,
    ONE,
    ZERO,
    format_rational,
    format_scalar,
    gaussian_pairs,
    parse_rational,
    parse_scalar,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
scalars = st.builds(ComplexRational, rationals, rationals)


def as_pair(z: ComplexRational):
    return (z.re, z.im)


def test_normal_form():
    z = ComplexRational(2, 4, -6)
    assert (z.a, z.b, z.d) == (-1, -2, 3)
    assert ComplexRational(0, 0, 5) == ZERO
    with pytest.raises(ZeroDivisionError):
        ComplexRational(1, 1, 0)


def test_fraction_construction():
    z = ComplexRational(Fraction(1, 2), Fraction(-3, 4))
    assert (z.a, z.b, z.d) == (2, -3, 4)
    assert z.re == Fraction(1, 2)
    assert z.im == Fraction(-3, 4)


def test_basic_arithmetic_examples():
    i = ComplexRational(0, 1)
    assert i * i == ComplexRational(-1)
    half = ComplexRational(Fraction(1, 2))
    assert half + half == ONE
    assert (ONE + i) * (ONE - i) == ComplexRational(2)
    assert ONE / i == -i
    assert complex(ComplexRational(1, -2, 4)) == complex(0.25, -0.5)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_int_coercion():
    assert 2 * ComplexRational(0, 1) == ComplexRational(0, 2)
    assert ComplexRational(3) - 1 == ComplexRational(2)
    assert 1 - ComplexRational(3) == ComplexRational(-2)
    assert 6 / ComplexRational(2) == ComplexRational(3)


@given(rationals)
def test_real_value_hashes_like_the_rational_it_equals(q):
    z = ComplexRational(q)
    plain = int(q) if q.denominator == 1 else q
    assert z == plain
    assert hash(z) == hash(plain)
    assert z in {plain} and plain in {z}
    assert len({z, plain}) == 1


@given(scalars, scalars)
def test_add_matches_componentwise(x, y):
    s = x + y
    assert as_pair(s) == (x.re + y.re, x.im + y.im)


@given(scalars, scalars)
def test_mul_matches_fraction_oracle(x, y):
    p = x * y
    assert p.re == x.re * y.re - x.im * y.im
    assert p.im == x.re * y.im + x.im * y.re


@given(scalars, scalars)
def test_div_inverts_mul(x, y):
    if y.is_zero():
        return
    assert (x / y) * y == x


@given(scalars)
def test_conjugate_involution_and_norm(x):
    assert x.conjugate().conjugate() == x
    n = x * x.conjugate()
    assert n.im == 0
    assert n.re == x.re * x.re + x.im * x.im


@given(scalars)
def test_canonical_form_invariants(x):
    from math import gcd

    assert x.d > 0
    assert gcd(gcd(x.a, x.b), x.d) == 1


@given(scalars, scalars, scalars)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_scalar_text_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


@given(rationals)
def test_rational_text_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_scalar_format_examples():
    assert format_scalar(ComplexRational(Fraction(1, 2), Fraction(-3))) == "1/2-3i"
    assert format_scalar(ONE) == "1+0i"
    assert format_scalar(ZERO) == "0+0i"
    assert parse_scalar("-1/3+2/5i") == ComplexRational(
        Fraction(-1, 3), Fraction(2, 5)
    )


@pytest.mark.parametrize(
    "bad", ["1.5", "1e3", "", "1/0", "x/2", "1_000", "1_0/3", "١٢", "３/4", "+-1", "1/+2"]
)
def test_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "bad", ["1+2", "1", "+i", "1/2i", "1.0+0i", "1++2i", "1+-2i", "1_0+2i", "١+2i", "1+2i2i"]
)
def test_scalar_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


def test_gaussian_pairs_scale_by_the_lcm_of_denominators():
    amps = {0: ComplexRational(1, 2, 4), 5: ComplexRational(-1, 0, 6), 7: ONE * 3}
    assert gaussian_pairs(amps.values()) == (12, [(3, 6), (-2, 0), (36, 0)])
    assert gaussian_pairs([ComplexRational(2, -1), ZERO]) == (1, [(2, -1), (0, 0)])
    assert gaussian_pairs([]) == (1, [])


@given(st.lists(scalars, max_size=6))
def test_gaussian_pairs_are_the_values_times_one_scale(values):
    den, pairs = gaussian_pairs(values)
    assert den == lcm(1, *(v.d for v in values))
    assert [ComplexRational(a, b, den) for a, b in pairs] == values
