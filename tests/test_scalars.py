"""Exact complex-rational scalar arithmetic and its text format."""

import operator
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
)

from oracles import int_parts

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)
scalars = st.builds(lambda x, y: ComplexRational(*int_parts(x, y)), rationals, rationals)


def real(z: ComplexRational) -> Fraction:
    return Fraction(z.a, z.d)


def imag(z: ComplexRational) -> Fraction:
    return Fraction(z.b, z.d)


def as_pair(z: ComplexRational):
    return (real(z), imag(z))


def test_normal_form():
    z = ComplexRational(2, 4, -6)
    assert (z.a, z.b, z.d) == (-1, -2, 3)
    assert ComplexRational(0, 0, 5) == ZERO
    with pytest.raises(ZeroDivisionError):
        ComplexRational(1, 1, 0)


def test_integer_parts_are_normalized():
    # 1/2 - 3/4 i, however its integer parts are written
    for parts in [(2, -3, 4), (4, -6, 8), (-4, 6, -8), int_parts(Fraction(1, 2), Fraction(-3, 4))]:
        z = ComplexRational(*parts)
        assert (z.a, z.b, z.d) == (2, -3, 4)
        assert real(z) == Fraction(1, 2)
        assert imag(z) == Fraction(-3, 4)
    assert (ComplexRational(0, 0, -7).a, ComplexRational(0, 0, -7).d) == (0, 1)
    assert (ComplexRational(6, 0, 3).a, ComplexRational(6, 0, 3).d) == (2, 1)


@pytest.mark.parametrize("position", [0, 1, 2])
@pytest.mark.parametrize("part", [True, False, 1.0, 0.5, Fraction(1, 2), Fraction(3), "1"])
def test_constructor_takes_int_parts_only(position, part):
    parts = [1, 1, 1]
    parts[position] = part
    with pytest.raises(TypeError):
        ComplexRational(*parts)


def test_constructor_keeps_int_parts_and_reduces_the_rest():
    # int parts over d = 1 are stored as given, other int parts are reduced,
    # and a part of any other type is rejected
    z = ComplexRational(2, -4)
    assert (z.a, z.b, z.d) == (2, -4, 1)
    assert {type(p) for p in (z.a, z.b, z.d)} == {int}
    z = ComplexRational(*int_parts(Fraction(3), 2))
    assert (z.a, z.b, z.d) == (3, 2, 1)
    assert {type(p) for p in (z.a, z.b, z.d)} == {int}
    assert (ComplexRational(2, 4, 6).a, ComplexRational(2, 4, 6).d) == (1, 3)
    for parts in [(1.5,), (1.0,), (1, 2.0), (1, 0, 1.0)]:
        with pytest.raises(TypeError):
            ComplexRational(*parts)


def test_basic_arithmetic_examples():
    i = ComplexRational(0, 1)
    assert i * i == ComplexRational(-1)
    half = ComplexRational(1, 0, 2)
    assert half + half == ONE
    assert complex(ComplexRational(1, -2, 4)) == complex(0.25, -0.5)


def test_there_is_no_subtraction_negation_or_division():
    # the program only adds and multiplies: -, unary - and / are not defined
    for op in (lambda: -ONE, lambda: ONE - ONE, lambda: ONE / ONE):
        with pytest.raises(TypeError):
            op()
    assert bool(ZERO) is False and bool(ONE) is True


def test_int_and_fraction_operands_raise_type_error():
    z = ComplexRational(2, 1)
    for plain in (1, Fraction(1, 2)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(z, plain)
            with pytest.raises(TypeError):
                op(plain, z)


@given(rationals, st.integers(min_value=2, max_value=9))
def test_a_value_is_not_the_int_or_fraction_it_equals(q, k):
    z = ComplexRational(*int_parts(q))
    plain = int(q) if q.denominator == 1 else q
    assert z != plain and plain != z
    assert not z == plain and not plain == z
    assert len({z, plain}) == 2
    # equal values hash equal, however they were written
    same = ComplexRational(z.a * k, z.b * k, z.d * k)
    assert same == z and hash(same) == hash(z)


@given(scalars, scalars)
def test_add_matches_componentwise(x, y):
    s = x + y
    assert as_pair(s) == (real(x) + real(y), imag(x) + imag(y))


@given(scalars, scalars)
def test_mul_matches_fraction_oracle(x, y):
    p = x * y
    assert real(p) == real(x) * real(y) - imag(x) * imag(y)
    assert imag(p) == real(x) * imag(y) + imag(x) * real(y)


@given(scalars)
def test_conjugate_involution_and_norm(x):
    assert x.conjugate().conjugate() == x
    n = x * x.conjugate()
    assert imag(n) == 0
    assert real(n) == real(x) * real(x) + imag(x) * imag(x)


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
    # "re+imi" or "re-imi": the sign after the first character splits the parts
    text = format_scalar(x)
    assert text.endswith("i")
    cut = max(text.rfind("+"), text.rfind("-"))
    assert cut > 0
    assert Fraction(*parse_rational(text[:cut])) == real(x)
    assert Fraction(*parse_rational(text[cut:-1])) == imag(x)


@given(rationals, st.integers(min_value=1, max_value=9))
def test_rational_text_round_trip(q, k):
    # printed in lowest terms, whatever multiple of them it is given
    text = format_rational(q.numerator * k, q.denominator * k)
    assert text == format_rational(q.numerator, q.denominator)
    assert parse_rational(text) == (q.numerator, q.denominator)


def test_scalar_format_examples():
    assert format_scalar(ComplexRational(1, -6, 2)) == "1/2-3i"
    assert format_scalar(ComplexRational(2, -6, 4)) == "1/2-3/2i"
    assert format_scalar(ONE) == "1+0i"
    assert format_scalar(ZERO) == "0+0i"


@pytest.mark.parametrize(
    "bad", ["1.5", "1e3", "", "1/0", "x/2", "1_000", "1_0/3", "١٢", "３/4", "+-1", "1/+2"]
)
def test_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_rational_parses_to_integer_pairs_as_written():
    assert parse_rational("-0") == (0, 1)
    assert parse_rational("+3") == (3, 1)
    assert parse_rational(" 12/8\n") == (12, 8)
    assert {type(x) for x in parse_rational("-12/8")} == {int}
    # a zero denominator, and more digits than int() reads
    for bad in ["1/0", "1" + "0" * 4999]:
        with pytest.raises(ValueError, match="malformed rational"):
            parse_rational(bad)


def test_gaussian_pairs_scale_by_the_lcm_of_denominators():
    amps = {0: ComplexRational(1, 2, 4), 5: ComplexRational(-1, 0, 6), 7: ComplexRational(3)}
    assert gaussian_pairs(amps.values()) == (12, [(3, 6), (-2, 0), (36, 0)])
    assert gaussian_pairs([ComplexRational(2, -1), ZERO]) == (1, [(2, -1), (0, 0)])
    assert gaussian_pairs([]) == (1, [])


@given(st.lists(scalars, max_size=6))
def test_gaussian_pairs_are_the_values_times_one_scale(values):
    den, pairs = gaussian_pairs(values)
    assert den == lcm(1, *(v.d for v in values))
    assert [ComplexRational(a, b, den) for a, b in pairs] == values
