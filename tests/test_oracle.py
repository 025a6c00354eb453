"""Differential tests of the polynomial kernel against sympy's sparse rings.

`sympy.polys.rings` keeps the same objects, maps from exponent tuples to
rationals, with an arithmetic written independently of polaris.  Every
ring operation, the partial derivative and `Polynomial.sum` are compared
with it term by term on polynomials drawn by hypothesis, so a rewrite of
the coefficient kernel is checked against an outside oracle rather than
against itself.  The 2-form layer is checked the same way: each
canonical theta^p is written down as a `sympy.Matrix` from its defining
formula, and the contraction and the theta route of the bracket are
matched with sympy's matrix products.  The coordinate bracket, the
field X_H and the Lie bracket of fields are rebuilt with sympy's `diff`
from the formulas in `polaris.hamiltonian`'s docstrings.  sympy is
needed by these tests only.
"""

from fractions import Fraction

import pytest

pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st
from sympy import QQ, Matrix, Poly, Rational, S, symbols, zeros
from sympy.polys.rings import ring

from polaris.geometry import (
    Chart,
    KSymplecticStructure,
    VectorField,
    interior_product,
)
from polaris.hamiltonian import (
    PolarizedForm,
    bracket,
    bracket_via_theta,
    hamiltonian_field,
    lie_bracket,
)
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


# -- the 2-form layer ----------------------------------------------------------

# every (n, k) with n(k+1) <= 8
FORM_CHARTS = tuple(Chart(n, k) for n in range(1, 5) for k in range(1, 8)
                    if n * (k + 1) <= 8)


def fiber(chart, p, i):
    """The index of fiber variable x^{pi} (1-based p and i): (p-1)n + (i-1)."""
    return (p - 1) * chart.n + (i - 1)


def leaf(chart, i):
    """The index of leaf variable q_i (1-based i): kn + (i-1)."""
    return chart.k * chart.n + (i - 1)


def sympy_theta(chart, p):
    """theta^p = sum_i dx^{pi} ^ dq^i (1-based p) as its coefficient matrix;
    a wedge dx^a ^ dx^b puts 1 at (a, b) and -1 at (b, a)."""
    theta = zeros(chart.dim, chart.dim)
    for i in range(1, chart.n + 1):
        a, b = fiber(chart, p, i), leaf(chart, i)
        theta[a, b], theta[b, a] = 1, -1
    return theta


def to_expr(poly, gens):
    total = S.Zero
    for exps, c in poly.terms.items():
        term = Rational(c.numerator, c.denominator)
        for g, e in zip(gens, exps):
            term *= g ** e
        total += term
    return total


def expr_terms(expr, gens):
    """The coefficient dict of an expression, in polaris's `terms` shape."""
    return {exps: Fraction(int(c.p), int(c.q))
            for exps, c in Poly(expr, *gens).as_dict().items() if c}


def column(X, gens):
    return Matrix([to_expr(X.component(i), gens) for i in range(X.chart.dim)])


@st.composite
def polarized_pair(draw):
    """Two polarized forms with basic f and g of few, small terms."""
    chart = draw(st.sampled_from(FORM_CHARTS))
    leaf = set(chart.leaf_indices)
    exps = st.tuples(*[st.integers(0, 2) if i in leaf else st.just(0)
                       for i in range(chart.dim)])
    basic = st.dictionaries(exps, coefficients, max_size=3).map(
        lambda terms: Polynomial(chart.dim, terms))
    forms = [PolarizedForm(chart, [draw(basic) for _ in range(chart.n)],
                           [draw(basic) for _ in range(chart.k)])
             for _ in range(2)]
    return chart, forms


@settings(max_examples=60, deadline=None)
@given(polarized_pair())
def test_two_form_layer_matches_sympy_matrices(case):
    chart, (H, K) = case
    gens = symbols(f"v0:{chart.dim}")
    structure = KSymplecticStructure.canonical(chart)
    X_H, X_K = hamiltonian_field(H), hamiltonian_field(K)
    XH, XK = column(X_H, gens), column(X_K, gens)
    via_theta = bracket_via_theta(H, K)
    for p in range(1, chart.k + 1):
        theta = sympy_theta(chart, p)
        expected = XH.T * theta
        row = interior_product(X_H, structure.theta(p - 1))
        H_p = to_expr(H.to_map()[p - 1], gens)
        for j in range(chart.dim):
            assert dict(row[j].terms) == expr_terms(expected[j], gens)
            # and it solves i(X_H)theta^p = -dH^p
            assert expr_terms(expected[j] + H_p.diff(gens[j]), gens) == {}
        value = (-XH.T * theta * XK)[0, 0]
        assert dict(via_theta[p - 1].terms) == expr_terms(value, gens)


# -- brackets and fields, from the docstring formulas -------------------------


def sympy_poly(poly, gens):
    return Poly(to_expr(poly, gens), *gens, domain=QQ)


def same_terms(poly, expected, gens):
    return dict(poly.terms) == expr_terms(expected, gens)


@settings(max_examples=40, deadline=None)
@given(polarized_pair())
def test_coordinate_bracket_matches_sympy(case):
    # {H,K}^p = sum_s (dH^p/dq_s dK^p/dx^{ps} - dH^p/dx^{ps} dK^p/dq_s)
    chart, (H, K) = case
    gens = symbols(f"v0:{chart.dim}")
    value = bracket(H, K)
    for p in range(1, chart.k + 1):
        H_p = sympy_poly(H.to_map()[p - 1], gens)
        K_p = sympy_poly(K.to_map()[p - 1], gens)
        expected = Poly(0, *gens, domain=QQ)
        for s in range(1, chart.n + 1):
            q, x = gens[leaf(chart, s)], gens[fiber(chart, p, s)]
            expected += H_p.diff(q) * K_p.diff(x) - H_p.diff(x) * K_p.diff(q)
        assert same_terms(value[p - 1], expected, gens)


@settings(max_examples=40, deadline=None)
@given(polarized_pair())
def test_hamiltonian_field_matches_sympy(case):
    # X_H = -sum_{p,s} dH^p/dq_s d/dx^{ps} + sum_s f_s d/dq_s, with f_s read
    # off as the coefficient dH^1/dx^{1s}
    chart, (H, _) = case
    gens = symbols(f"v0:{chart.dim}")
    comps = [sympy_poly(c, gens) for c in H.to_map()]
    expected = [Poly(0, *gens, domain=QQ)] * chart.dim
    for s in range(1, chart.n + 1):
        q = gens[leaf(chart, s)]
        for p in range(1, chart.k + 1):
            expected[fiber(chart, p, s)] = -comps[p - 1].diff(q)
        expected[leaf(chart, s)] = comps[0].diff(gens[fiber(chart, 1, s)])
    X = hamiltonian_field(H)
    for i in range(chart.dim):
        assert same_terms(X.component(i), expected[i], gens)


@settings(max_examples=40, deadline=None)
@given(polarized_pair(), st.data())
def test_lie_bracket_matches_sympy(case, data):
    # [X,Y]^j = sum_i (X^i dY^j/dx^i - Y^i dX^j/dx^i), on a hamiltonian
    # field and on an arbitrary one
    chart, (H, _) = case
    gens = symbols(f"v0:{chart.dim}")
    X = hamiltonian_field(H)
    indices = data.draw(st.sets(st.integers(0, chart.dim - 1), max_size=3))
    Y = VectorField(chart, {i: data.draw(polynomials(chart.dim, st.integers(0, 2)))
                            for i in sorted(indices)})
    xs = [sympy_poly(X.component(i), gens) for i in range(chart.dim)]
    ys = [sympy_poly(Y.component(i), gens) for i in range(chart.dim)]
    value = lie_bracket(X, Y)
    for j in range(chart.dim):
        expected = Poly(0, *gens, domain=QQ)
        for i, g in enumerate(gens):
            expected += xs[i] * ys[j].diff(g) - ys[i] * xs[j].diff(g)
        assert same_terms(value.component(j), expected, gens)
