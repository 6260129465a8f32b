from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mfd.numbers import (close, close_all, div, format_scalar, is_exact,
                         parse_scalar, to_float)


def test_is_exact():
    assert is_exact(3)
    assert is_exact(Fraction(1, 2))
    assert not is_exact(0.5)
    assert not is_exact(True)  # booleans are not scalars


def test_div_keeps_exactness():
    assert div(1, 2) == Fraction(1, 2)
    assert isinstance(div(1, 2), Fraction)
    assert isinstance(div(Fraction(3), 2), Fraction)
    assert isinstance(div(1.0, 2), float)


def test_close_exact_is_exact_equality():
    assert close(Fraction(1, 3), Fraction(1, 3))
    assert not close(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 30))


def test_close_float_relative():
    assert close(1e6, 1e6 * (1 + 1e-13))
    assert not close(1e6, 1e6 * (1 + 1e-11))
    assert close(0.0, 5e-13)  # near zero the bound is absolute


def test_close_all():
    assert close_all((1, 2), (1, 2))
    assert not close_all((1, 2), (1, 2, 3))


@pytest.mark.parametrize("text,mode,expected", [
    ("5/2", "rational", Fraction(5, 2)),
    ("5/2", "float", 2.5),
    ("2.5", "rational", Fraction(5, 2)),
    ("7", "rational", 7),
    (7, "float", 7.0),
    (0.25, "rational", Fraction(1, 4)),
    ("-3/4", "rational", Fraction(-3, 4)),
    ("1e-3", "float", 1e-3),
    ("0.0", "rational", 0),
    ("0e5", "float", 0.0),
    ("0e4000000", "rational", 0),
    ("5e-324", "float", 5e-324),
])
def test_parse_scalar(text, mode, expected):
    value = parse_scalar(text, mode)
    assert value == expected
    assert is_exact(value) == (mode == "rational")


@pytest.mark.parametrize("bad", ["x", "1/0", "", None, True, float("nan"),
                                 float("inf"), -float("inf")])
def test_parse_scalar_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("text", ["1e-999", "1e-324", "-1e-400", "1e999", "1e4000000"])
@pytest.mark.parametrize("mode", ["rational", "float"])
def test_parse_scalar_rejects_outside_the_double_range(text, mode):
    with pytest.raises(ValueError, match="below the double range|not a finite scalar"):
        parse_scalar(text, mode)


def test_format_scalar():
    assert format_scalar(Fraction(5, 2)) == "5/2"
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(7) == "7"
    assert format_scalar(0.1) == "0.10000000000000001"


@given(st.fractions(min_value=-100, max_value=100))
def test_rational_roundtrip(x):
    assert parse_scalar(format_scalar(x), "rational") == x


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_float_roundtrip(x):
    assert float(format_scalar(x)) == x


@given(st.floats(min_value=-1e12, max_value=1e12))
def test_to_float_close_reflexive(x):
    assert close(x, x)
    assert to_float(x) == x
