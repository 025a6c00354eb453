"""Differential tests of the polynomial kernel against sympy's sparse rings.

`sympy.polys.rings` keeps the same objects, maps from exponent tuples to
rationals, with an arithmetic written independently of polaris.  Every
ring operation, the partial derivative and `Polynomial.sum` are compared
with it term by term on polynomials drawn by hypothesis, so a rewrite of
the coefficient kernel is checked against an outside oracle rather than
against itself.  sympy is needed by these tests only.
"""

from fractions import Fraction

import pytest

pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from polaris.geometry import Chart
from polaris.parsing import parse_polynomial
from polaris.poly import MAX_EXPONENT, Polynomial

# dims 2, 4, 6 and 6: one and several fiber blocks, one and several leaves;
# dim 64, the CLI's chart bound, fills 64 fields of a packed monomial
CHARTS = (Chart(1, 1), Chart(2, 1), Chart(3, 1), Chart(2, 2), Chart(1, 63))
RINGS = {chart.dim: ring(",".join(chart.var_names), QQ)[0] for chart in CHARTS}

coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12)

# up to half the cap and often at it, so that the product of two such
# polynomials reaches MAX_EXPONENT, in neighbouring fields too
HALF_CAP = st.one_of(st.just(MAX_EXPONENT // 2), st.integers(0, MAX_EXPONENT // 2))


def polynomials(dim, exponents=st.integers(0, 3)):
    monomials = st.tuples(*[exponents] * dim)
    return st.dictionaries(monomials, coefficients, max_size=6).map(
        lambda terms: Polynomial(dim, terms))


def to_sympy(poly):
    return RINGS[poly.dim].from_dict(
        {exps: QQ(c.numerator, c.denominator) for exps, c in poly.terms.items()})


def from_sympy(element):
    return {tuple(exps): Fraction(int(QQ.numer(c)), int(QQ.denom(c)))
            for exps, c in element.items()}


def same(poly, element):
    return dict(poly.terms) == from_sympy(element)


@st.composite
def chart_and_polys(draw, count, exponents=st.integers(0, 3)):
    chart = draw(st.sampled_from(CHARTS))
    return chart, [draw(polynomials(chart.dim, exponents)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(chart_and_polys(2, HALF_CAP))
def test_ring_operations_match_sympy(case):
    _, (a, b) = case
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(-a, -sa)
    assert same(a * b, sa * sb)


@settings(max_examples=150, deadline=None)
@given(chart_and_polys(1), coefficients, st.integers(0, 3))
def test_scalars_and_powers_match_sympy(case, scalar, exponent):
    _, (a,) = case
    sa = to_sympy(a)
    q = QQ(scalar.numerator, scalar.denominator)
    assert same(a * scalar, sa * q)
    assert same(a + scalar, sa + q)
    # sympy refuses 0**0; polaris, like Python's ints, makes it 1
    power = RINGS[a.dim].one
    for _ in range(exponent):
        power *= sa
    assert same(a ** exponent, power)


@settings(max_examples=150, deadline=None)
@given(chart_and_polys(1), st.data())
def test_partial_matches_sympy(case, data):
    chart, (a,) = case
    var = data.draw(st.integers(0, chart.dim - 1))
    gens = RINGS[chart.dim].gens
    assert same(a.partial(var), to_sympy(a).diff(gens[var]))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(chart_and_polys))
def test_sum_matches_sympy(case):
    chart, polys = case
    expected = RINGS[chart.dim].zero
    for poly in polys:
        expected += to_sympy(poly)
    total = Polynomial.sum(chart.dim, polys)
    assert same(total, expected)
    assert all(total.terms.values())
    reverse = Polynomial.sum(chart.dim, iter(polys[::-1]))
    assert total == reverse and hash(total) == hash(reverse)
    # the sum is in canonical form: rebuilt from its terms it is the same
    rebuilt = Polynomial(chart.dim, total.terms)
    assert total == rebuilt and hash(total) == hash(rebuilt)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(lambda count: chart_and_polys(2 * count, HALF_CAP)))
def test_dot_matches_sympy(case):
    chart, polys = case
    pairs = list(zip(polys[::2], polys[1::2]))
    expected = RINGS[chart.dim].zero
    for a, b in pairs:
        expected += to_sympy(a) * to_sympy(b)
    total = Polynomial.dot(chart.dim, iter(pairs))
    assert same(total, expected)
    assert total == Polynomial(chart.dim, total.terms)


def test_sum_rejects_a_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        Polynomial.sum(2, [Polynomial.variable(2, 0), Polynomial.variable(3, 0)])


def test_sum_leaves_its_operands_unchanged():
    a = Polynomial.variable(2, 0)
    assert Polynomial.sum(2, [a, a]).coefficient((1, 0)) == 2
    assert Polynomial.sum(2, [a, -a]).is_zero
    assert Polynomial.sum(2, []).is_zero
    assert dict(a.terms) == {(1, 0): 1}


@settings(max_examples=150, deadline=None)
@given(chart_and_polys(1))
def test_to_string_parses_back(case):
    chart, (a,) = case
    assert parse_polynomial(a.to_string(chart.var_names), chart) == a
