from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from exclusion.scalars import float_repr, format_rational, parse_rational
from reference import dual_parts

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
nonzero_rationals = rationals.filter(lambda x: x != 0)


def test_parse_rational():
    assert parse_rational("2/3") == F(2, 3)
    assert parse_rational("-7") == F(-7)
    assert parse_rational(" 5/10 ") == F(1, 2)
    for bad in ("1/0", "a", "1.5", "", "2/3/4"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_rational():
    assert format_rational(F(2, 3)) == "2/3"
    assert format_rational(F(4)) == "4"
    assert format_rational(F(-6, 4)) == "-3/2"


def test_float_repr_17_digits():
    assert float_repr(F(1, 3)) == "0.33333333333333331"


@given(rationals, rationals, rationals)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_dual_arithmetic():
    # the dual-number oracle: d/dx x^2 = 2x, and the derivative of
    # (x+1)/(x-1) is -2/(x-1)^2, -1/2 at 3
    assert dual_parts(lambda x: x * x, F(3)) == (9, 6)
    assert dual_parts(lambda x: (x + 1) / (x - 1), F(3)) == (2, F(-1, 2))
    assert dual_parts(lambda x: x ** 4, F(3)) == (81, 108)
    assert dual_parts(lambda x: 2, F(3)) == (2, 0)
    assert dual_parts(lambda x: 1 - 2 / x, F(2)) == (0, F(1, 2))


def test_dual_zero_division():
    with pytest.raises(ZeroDivisionError):
        dual_parts(lambda x: 1 / (x - 1), F(1))


@given(nonzero_rationals, rationals, nonzero_rationals.filter(lambda x: x != 3))
def test_dual_chain_rule(p, q, x0):
    # f(y) = y^2 + p y + q composed with g(x) = (p x + q)/(x - 3)
    def g(x):
        return (p * x + q) / (x - 3)

    def f(y):
        return y * y + p * y + q

    value, deriv = dual_parts(lambda x: f(g(x)), x0)
    g0 = g(x0)
    gp = (p * x0 + q) * F(-1) / (x0 - 3) ** 2 + p / (x0 - 3)
    fp = 2 * g0 + p
    assert value == f(g0)
    assert deriv == fp * gp
