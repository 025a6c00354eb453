import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from polaris.cli import load_problem
from polaris.geometry import Chart
from polaris.parsing import MAX_NESTING, ParseError, parse_polynomial
from polaris.poly import MAX_EXPONENT, DegreeOverflowError, Polynomial
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
    assert p.terms[(0, 0, 0)] == Fraction(-1, 2)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x^-1", R3)
    assert "negative exponent" in str(err.value)
    assert err.value.offset == 2


def test_decimals_convert_exactly():
    assert parse_polynomial("0.25", R3) == R3.constant(Fraction(1, 4))
    assert parse_polynomial("0.1", R3) == R3.constant(Fraction(1, 10))


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
    assert parse_polynomial("2*-x^2", R3) == -2 * x * x


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
    # a term's plain factors fold into one monomial; errors stay where the
    # left-to-right product of Polynomials puts them
    ("*".join(["x"] * (MAX_EXPONENT + 1)), "product overflows the degree cap",
     2 * MAX_EXPONENT - 1),
    ("2*x*w", "unknown variable 'w'", 4),
    ("-" * (MAX_NESTING + 1) + "1", "expression nested too deeply", MAX_NESTING),
    ("w^-1", "unknown variable 'w'", 0),
    ("x^32*x^y", "exponent must be a plain non-negative integer", 7),
    ("x^20*(x^20)", "product overflows the degree cap", 4),
]


def _row_ids(rows):
    """The first 24 characters of each text's repr; a later row whose
    prefix is taken also gets its last characters."""
    ids = []
    for text, _, _ in rows:
        name = repr(text)[:24]
        ids.append(name if name not in ids else f"{name}..{text[-4:]!r}")
    return ids


@pytest.mark.parametrize("text, message, offset", ERROR_TABLE,
                         ids=_row_ids(ERROR_TABLE))
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
    assert parse_polynomial("9" * limit, R3) == R3.constant(10 ** limit - 1)
    assert parse_polynomial("1/" + "9" * limit, R3) != R3.zero()
    with pytest.raises(ParseError) as err:
        parse_polynomial("x*(" + "9" * (limit + 1) + ")", R3)
    assert (err.value.message, err.value.offset) == ("number too long", 3)


# -- the fold against a parse that builds every atom as a Polynomial -----------

CHART = Chart(2, 2, aliases={"x": "x1_1", "y": "q1"})
ROOT = Path(__file__).resolve().parent.parent
_REF_TOKEN = re.compile(r"\s*(?:([0-9]+(?:[./][0-9]+)?)|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


def reference_parse(text, chart):
    """Parse well-formed `text` as the grammar reads it: every literal and
    variable its own Polynomial, each '*' and '^' its own product, left to
    right, and a degree-cap error at the operator whose product passes it."""
    tokens = [(m.start(m.lastindex), m[m.lastindex], m.lastindex)
              for m in _REF_TOKEN.finditer(text)] + [(len(text), "", 0)]
    pos = 0

    def take():
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def expr():
        value = term()
        while tokens[pos][1] in ("+", "-"):
            op = take()[1]
            value = value + term() if op == "+" else value - term()
        return value

    def term():
        value = factor()
        while tokens[pos][1] == "*":
            star = take()[0]
            rhs = factor()
            try:
                value = value * rhs
            except DegreeOverflowError:
                raise ParseError("product overflows the degree cap", star) from None
        return value

    def factor():
        if tokens[pos][1] == "-":
            take()
            return -factor()
        _, word, group = take()
        if group == 1:
            value = chart.constant(Fraction(word))
        elif group == 2:
            value = chart.coordinate(word)
        else:
            value = expr()
            take()  # ")"
        if tokens[pos][1] == "^":
            caret = take()[0]
            try:
                value = value ** int(take()[1])
            except DegreeOverflowError:
                raise ParseError("exponentiation overflows the degree cap",
                                 caret) from None
        return value

    value = expr()
    assert pos == len(tokens) - 1, text
    return value


def outcome(parse, text, chart):
    try:
        return parse(text, chart)
    except ParseError as exc:
        return exc.message, exc.offset


LITERALS = st.one_of(
    st.integers(0, 120).map(str),
    st.builds("{}/{}".format, st.integers(0, 40), st.integers(1, 40)),
    st.builds("{}.{}".format, st.integers(0, 9), st.sampled_from(["0", "5", "125"])))
MINUS = st.sampled_from(["", "", "", "-", "-", "--", "---"])
POWER = st.sampled_from(["", "", "", "^0", "^1", " ^ 2", "^5", "^16", "^31", "^32"])
GROUP_POWER = st.sampled_from(["", "", "^0", "^1", " ^2"])
STAR = st.sampled_from(["*", "*", " * "])
SIGN = st.sampled_from([" + ", "+", " - ", "-", " -"])


def _expressions(depth):
    """Sums of products of runs of numbers and variables, `-` chains and
    powers, with parenthesised groups nested at most `depth` deep."""
    plain = st.builds("{}{}{}".format, MINUS,
                      st.one_of(LITERALS, st.sampled_from(CHART.var_names + ("x", "y"))),
                      POWER)
    factor = plain if depth == 0 else st.one_of(
        plain, plain, plain, plain,
        st.builds("{}({}){}".format, MINUS, _expressions(depth - 1), GROUP_POWER))
    term = st.builds(str.join, STAR, st.lists(factor, min_size=1, max_size=4))
    return st.builds(lambda first, rest: first + "".join(map("".join, rest)),
                     term, st.lists(st.tuples(SIGN, term), max_size=2))


@settings(max_examples=150, deadline=None)
@given(_expressions(2))
@example("2*-x^2")
@example("-1/2*q1*q1 + 2/3*q1*q2 - -3*q2")
@example("x^16*x^16*x")
@example("0*x^32*x")
@example("x^32*0*x")
@example("x^32*(0)*x")
@example("0*x^32*x*(y)")
@example("x^16*(x^16)*x*y")
@example("2*x^30*(x + 1)^2")
@example("(x+1)^2*x^31")
@example("--x - -(-2.5*y)^2")
def test_parse_matches_atom_by_atom_reference(text):
    assert outcome(parse_polynomial, text, CHART) \
        == outcome(reference_parse, text, CHART)


def test_problem_files_match_atom_by_atom_reference():
    paths = [ROOT / "problems" / "demo.json", *sorted((ROOT / "tests" / "golden").glob("*.json"))]
    checked = 0
    for path in paths:
        raw = json.loads(path.read_text())
        if "hamiltonians" not in raw:
            continue  # a report, not a problem
        chart = load_problem(str(path)).chart
        for comps in raw["hamiltonians"].values():
            for text in comps:
                assert parse_polynomial(text, chart) == reference_parse(text, chart)
                checked += 1
    assert checked >= 20


def test_bench_shaped_component_multiplies_once_per_group(monkeypatch):
    # H^p = sum_j f_j x^{pj} + g^p with dense f_j, g^p as the verify
    # benchmark writes them: the flat terms inside the groups fold, so only
    # each `(f_j)*x` is a Polynomial product
    chart = Chart(3, 3)
    rng = random.Random(7)
    coeffs = ["1", "-1", "2", "-2", "3", "-3", "1/2", "-1/2", "2/3", "-2/3"]
    leaves = ["q1", "q2", "q3"]
    monomials = [()] + [(a,) for a in leaves] + [
        (a, b) for i, a in enumerate(leaves) for b in leaves[i:]]

    def dense():
        return " + ".join("*".join([rng.choice(coeffs), *mono]) for mono in monomials)

    text = " + ".join([f"({dense()})*x1_{i}" for i in (1, 2, 3)] + [f"({dense()})"])
    calls = []
    dot = Polynomial.dot.__func__

    def counting_dot(cls, dim, pairs):
        calls.append(dim)
        return dot(cls, dim, pairs)

    monkeypatch.setattr(Polynomial, "dot", classmethod(counting_dot))
    value = parse_polynomial(text, chart)
    monkeypatch.undo()
    assert 0 < len(calls) <= text.count("(")
    assert value == reference_parse(text, chart)
