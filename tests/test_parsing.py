import random
from fractions import Fraction

import pytest

from polaris.geometry import Chart
from polaris.parsing import MAX_NESTING, ParseError, parse_polynomial
from polaris.poly import Polynomial
from polaris.nambu import NambuSpaceRk1
from polaris.sampling import random_polynomial

R3 = NambuSpaceRk1(2).chart  # aliases x, y, z over (x1_1, x2_1, q1)


def test_alias_resolution():
    p = parse_polynomial("z*x", R3)
    q1 = R3.coordinate("q1")
    x11 = R3.coordinate("x1_1")
    assert p == q1 * x11


def test_exact_coefficients():
    p = parse_polynomial("x^2 + 3*y - 1/2", R3)
    x, y = R3.coordinate("x"), R3.coordinate("y")
    assert p == x * x + 3 * y - Fraction(1, 2)
    assert p.constant_value() == Fraction(-1, 2)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^-1", R3)
    assert "negative exponent" in str(err.value)
    assert err.value.offset == 2


def test_decimals_convert_exactly():
    assert parse_polynomial("0.25", R3).constant_value() == Fraction(1, 4)
    assert parse_polynomial("0.1", R3).constant_value() == Fraction(1, 10)


def test_fraction_literal_needs_digits():
    with pytest.raises(ParseError):
        parse_polynomial("1/", R3)
    with pytest.raises(ParseError) as err:
        parse_polynomial("1/0", R3)
    assert "zero denominator" in str(err.value)


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("2x", R3)


def test_unary_minus():
    x = R3.coordinate("x")
    assert parse_polynomial("-x", R3) == parse_polynomial("(0-1)*x", R3)
    assert parse_polynomial("-x^2", R3) == -(x * x)
    assert parse_polynomial("3*-x", R3) == -3 * x


def test_parse_zero():
    assert parse_polynomial("0", R3) == Polynomial.zero(R3.dim)


def test_whitespace_insensitive():
    tight = parse_polynomial("z*x+1/2*y^2-3", R3)
    spaced = parse_polynomial("  z * x + 1/2 * y ^ 2 - 3 ", R3)
    assert tight == spaced


def test_unknown_variable():
    with pytest.raises(ParseError) as err:
        parse_polynomial("z*w", R3)
    assert "unknown variable 'w'" in str(err.value)
    assert err.value.offset == 2


def test_unbalanced_parentheses():
    with pytest.raises(ParseError):
        parse_polynomial("(x + y", R3)
    with pytest.raises(ParseError):
        parse_polynomial("x + y)", R3)


def test_trailing_input():
    with pytest.raises(ParseError):
        parse_polynomial("x 1", R3)


def test_non_ascii_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x²", R3)
    assert err.value.offset == 1


def test_huge_exponent_rejected():
    with pytest.raises(ParseError):
        parse_polynomial("x^33", R3)
    with pytest.raises(ParseError):
        parse_polynomial("(x^8)^8", R3)


def test_product_past_degree_cap_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^32*x", R3)
    assert err.value.message == "product overflows the degree cap"
    assert err.value.offset == 4


def test_nesting_cap_counts_parens_and_unary_minus():
    assert parse_polynomial("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, R3) \
        == R3.coordinate("x")
    assert parse_polynomial("-(" * (MAX_NESTING // 2) + "x"
                            + ")" * (MAX_NESTING // 2), R3) == R3.coordinate("x")
    for text in ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
                 "-" * (MAX_NESTING + 1) + "x",
                 "-(" * 50 + "-x" + ")" * 50):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, R3)
        assert err.value.message == "expression nested too deeply"
        assert err.value.offset == MAX_NESTING


def test_siblings_do_not_add_up_to_nesting():
    text = "+".join(["(-x)"] * (2 * MAX_NESTING))
    assert parse_polynomial(text, R3) == R3.coordinate("x") * (-2 * MAX_NESTING)


def test_exponent_must_be_integer():
    with pytest.raises(ParseError):
        parse_polynomial("x^(2)", R3)
    with pytest.raises(ParseError):
        parse_polynomial("x^1/2", R3)


def test_roundtrip_through_canonical_printing():
    rng = random.Random(42)
    charts = [Chart(1, 1), Chart(2, 2), Chart(3, 2), R3]
    for chart in charts:
        for _ in range(50):
            p = random_polynomial(rng, chart)
            text = p.to_string(chart.var_names)
            assert parse_polynomial(text, chart) == p
