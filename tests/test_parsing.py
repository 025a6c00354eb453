import random
import sys
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


# One row per `raise ParseError` site in the parser, plus the cases where
# a rewrite of the scanner could drift: which error wins, what counts as
# whitespace, and where each offset points.
ERROR_TABLE = [
    ("x²", "non-ASCII input", 1),
    ("1/ x²", "non-ASCII input", 4),
    ("1.", "digits required after decimal point", 2),
    ("1.x", "digits required after decimal point", 2),
    ("1/", "digits required after '/'", 2),
    ("1/x", "digits required after '/'", 2),
    ("1/ 2", "digits required after '/'", 2),
    ("1/0", "zero denominator", 2),
    ("1/00", "zero denominator", 2),
    ("0/0", "zero denominator", 2),
    ("x$y", "unexpected character '$'", 1),
    ("x\fy", "unexpected character '\\x0c'", 1),
    ("x\vy", "unexpected character '\\x0b'", 1),
    ("2.5.1", "unexpected character '.'", 3),
    ("1.5/2", "unexpected character '/'", 3),
    ("1/2/3", "unexpected character '/'", 3),
    ("1/2.5", "unexpected character '.'", 3),
    ("1 /2", "unexpected character '/'", 2),
    ("x y $", "unexpected character '$'", 4),
    ("^ 1/0", "zero denominator", 4),
    ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
     "expression nested too deeply", MAX_NESTING),
    ("-" * (MAX_NESTING + 1) + "x", "expression nested too deeply", MAX_NESTING),
    ("x^32*x", "product overflows the degree cap", 4),
    ("x^-1", "negative exponent", 2),
    ("x^(2)", "exponent must be a plain non-negative integer", 2),
    ("x^1/2", "exponent must be a plain non-negative integer", 2),
    ("x^0.5", "exponent must be a plain non-negative integer", 2),
    ("x^y", "exponent must be a plain non-negative integer", 2),
    ("x^", "exponent must be a plain non-negative integer", 2),
    ("x^33", "exponent 33 above cap 32", 2),
    ("x^4000", "exponent 4000 above cap 32", 2),
    ("(x^8)^8", "exponentiation overflows the degree cap", 5),
    ("(x^16)^3", "exponentiation overflows the degree cap", 6),
    ("z*w", "unknown variable 'w'", 2),
    ("(x + y", "unbalanced parentheses", 0),
    ("()", "unbalanced parentheses", 1),
    (")", "unbalanced parentheses", 0),
    ("", "expected a value, found 'end of input'", 0),
    ("   ", "expected a value, found 'end of input'", 3),
    ("x+", "expected a value, found 'end of input'", 2),
    ("(", "expected a value, found 'end of input'", 1),
    ("-", "expected a value, found 'end of input'", 1),
    ("x**2", "expected a value, found '*'", 2),
    ("x + y)", "unexpected trailing input ')'", 5),
    ("2x", "unexpected trailing input 'x'", 1),
    ("x 1", "unexpected trailing input '1'", 2),
    ("x\ny", "unexpected trailing input 'y'", 2),
    ("x^2^3", "unexpected trailing input '^'", 3),
]


@pytest.mark.parametrize("text, message, offset", ERROR_TABLE,
                         ids=[repr(row[0])[:24] for row in ERROR_TABLE])
def test_error_table(text, message, offset):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, R3)
    assert (err.value.message, err.value.offset) == (message, offset)
    assert str(err.value) == f"{message} (at byte {offset})"


def test_integral_decimal_exponent():
    assert parse_polynomial("x^2.0", R3) == R3.coordinate("x") ** 2
    assert parse_polynomial("\t(x)\r\n", R3) == R3.coordinate("x")


@pytest.mark.parametrize("text, offset", [
    ("1" * 5000 + "*x", 0),
    ("x^" + "1" * 5000, 2),
    ("x + 2." + "1" * 5000, 4),
    ("1/" + "7" * 5000, 0),
    ("1/" + "0" * 5000, 0),
], ids=["integer", "exponent", "decimal", "denominator", "zero-denominator"])
def test_number_too_long(text, offset):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, R3)
    assert (err.value.message, err.value.offset) == ("number too long", offset)


def test_number_length_limit_is_per_digit_run():
    limit = sys.get_int_max_str_digits()
    assert parse_polynomial("9" * limit, R3).constant_value() == 10 ** limit - 1
    assert parse_polynomial("1/" + "9" * limit, R3) != R3.zero()
    with pytest.raises(ParseError) as err:
        parse_polynomial("x*(" + "9" * (limit + 1) + ")", R3)
    assert (err.value.message, err.value.offset) == ("number too long", 3)
