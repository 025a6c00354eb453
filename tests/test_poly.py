import gc
import random
import struct
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polaris import poly as poly_module
from polaris.poly import (
    DegreeOverflowError,
    MAX_EXPONENT,
    Polynomial,
    float_evaluator,
)

# dim-3 scratch space: v0, v1, v2 with v2 playing the leaf role
X = Polynomial.variable(3, 0)
Y = Polynomial.variable(3, 1)
Z = Polynomial.variable(3, 2)
ONE = Polynomial.constant(3, 1)


def rand_poly(rng, dim=3, max_degree=2, span=3):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, max_degree) for _ in range(dim))
        terms[exps] = terms.get(exps, 0) + rng.randint(-span, span)
    return Polynomial(dim, terms)


def test_additive_inverse():
    assert (X + (-X)).is_zero
    assert X - X == Polynomial.zero(3)


def test_product_identity():
    assert (X + ONE) * (X - ONE) == X * X - ONE


def test_rational_coefficient_product():
    lhs = (Z * Fraction(2, 3)) * (Z * 3)
    assert lhs == Z * Z * 2


def test_coefficients_stay_normalized():
    p = Polynomial(3, {(1, 0, 0): Fraction(2, 4)})
    coeff = p.terms[(1, 0, 0)]
    assert coeff == Fraction(1, 2)
    assert coeff.denominator > 0
    assert (0, 0, 0) not in Polynomial.zero(3).terms


def test_zero_terms_dropped():
    p = Polynomial(3, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert list(p.terms) == [(0, 1, 0)]


def test_partial_examples():
    assert (Z * X).partial(0) == Z
    assert (Z * Z).partial(0).is_zero
    assert (X ** 3).partial(0) == 3 * X * X


@pytest.mark.parametrize("dim", [1, 12, 64])
def test_partial_along_an_absent_variable_is_zero(dim):
    last = dim - 1
    x0, xl = Polynomial.variable(dim, 0), Polynomial.variable(dim, last)
    three = Polynomial.constant(dim, 3)
    assert three.partial(0).is_zero and three.partial(last).is_zero
    assert Polynomial.zero(dim).partial(last).is_zero
    # the zero along an absent variable is the one shared zero of its dim,
    # and no operation on it writes into it
    zero = three.partial(0)
    assert zero is Polynomial.zero(dim)
    results = [zero + x0, x0 + zero, zero - x0, x0 - zero, -zero, zero * x0,
               zero * 2, Polynomial.sum(dim, [zero, x0, three]),
               Polynomial.dot(dim, [(zero, x0), (x0, x0)], [(x0, zero)])]
    assert results[-1] == x0 * x0 and results[2] == -x0
    assert zero.is_zero and not zero.terms and zero._den == 1
    if dim == 1:
        assert (x0 * x0 + three).partial(0) == 2 * x0
        return
    # x0^2 xl + 3 xl + x0 - xl^2: both ends involved, in every term or
    # in one, none between; every partial reads the mask held since the
    # first, so ask in several orders
    p = x0 * x0 * xl + three * xl + x0 - xl * xl
    for var in (1, 0, last, last // 2, 0, last - 1, last):
        expected = {0: 2 * x0 * xl + 1, last: x0 * x0 + three - 2 * xl}.get(
            var, Polynomial.zero(dim))
        assert p.partial(var) == expected
    # each term involves one end only
    assert (x0 + xl).partial(0) == 1 and (x0 + xl).partial(last) == 1
    only_first, only_last = x0 * x0 * x0, xl * Fraction(1, 2)
    assert only_first.partial(last).is_zero
    assert only_first.partial(0) == 3 * x0 * x0
    assert only_last.partial(0).is_zero
    assert only_last.partial(last) == Polynomial.constant(dim, Fraction(1, 2))


def test_partial_index_out_of_range():
    with pytest.raises(ValueError):
        X.partial(3)


def test_evaluate_examples():
    assert (X * X).evaluate((2.0, 0.0, 0.0)) == 4.0
    assert Polynomial.zero(3).evaluate((5.0, 5.0, 5.0)) == 0.0
    assert (Z * X).evaluate((3.0, 0.0, 0.5)) == 1.5


def test_evaluate_length_mismatch():
    with pytest.raises(ValueError):
        X.evaluate((1.0, 2.0))


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        X + Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        X * Polynomial.variable(4, 0)


@pytest.mark.parametrize("exps, error, message", [
    ((1, 0), ValueError, "exponent vector (1, 0) does not have length 3"),
    ((-1, 40), ValueError, "exponent vector (-1, 40) does not have length 3"),
    ((0, -1, 40), ValueError, "negative exponent in (0, -1, 40)"),
    ((40, 0, -1), ValueError, "negative exponent in (40, 0, -1)"),
    ((0, 0, 33), DegreeOverflowError, "exponent above cap 32 in (0, 0, 33)"),
], ids=["length", "length-before-sign", "sign-before-cap", "sign-last",
        "cap"])
def test_constructor_checks_length_then_sign_then_cap(exps, error, message):
    with pytest.raises(ValueError) as err:
        Polynomial(3, {exps: 1})
    assert type(err.value) is error
    assert str(err.value) == message


# -- fused sum of products ------------------------------------------------


@st.composite
def pairs_over_one_dim(draw):
    """Pairs of polynomials with mixed denominators, zero operands among
    them; the list may be empty."""
    dim = draw(st.integers(1, 4))
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    poly = st.one_of(
        st.just(Polynomial.zero(dim)),
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * dim), coeff,
                        max_size=5).map(lambda terms: Polynomial(dim, terms)))
    return dim, draw(st.lists(st.tuples(poly, poly), max_size=6))


ZERO = Polynomial.zero(3)


@settings(max_examples=200, deadline=None)
@given(pairs_over_one_dim())
@example((3, []))
@example((3, [(ZERO, X), (Y, ZERO)]))
@example((3, [(X, Y), (-Y, X)]))
@example((3, [(ONE * Fraction(1, 2), X), (ONE * Fraction(1, 3), X), (ZERO, Y)]))
def test_dot_is_the_sum_of_products(case):
    dim, pairs = case
    expected = Polynomial.sum(dim, [a * b for a, b in pairs])
    total = Polynomial.dot(dim, iter(pairs))
    assert total == expected and hash(total) == hash(expected)
    assert all(total.terms.values())
    # canonical: rebuilt from its terms it is the same polynomial
    assert total == Polynomial(dim, total.terms)


def test_dot_cap_check_sees_products_that_cancel():
    x20 = Polynomial.variable(3, 0) ** 20
    # each product exceeds the cap; they cancel across the pairs
    with pytest.raises(DegreeOverflowError):
        Polynomial.dot(3, [(x20, x20), (-x20, x20)])
    # a cancelled key past the cap raises although the whole sum is zero
    with pytest.raises(DegreeOverflowError):
        Polynomial.dot(3, [(x20 + ONE, x20 - ONE), (-x20, x20), (ONE, ONE)])
    at_cap = Polynomial.variable(3, 0) ** 16
    assert Polynomial.dot(3, [(at_cap, at_cap), (-at_cap, at_cap)]).is_zero


def test_dot_rejects_a_dimension_mismatch():
    for pair in [(X, Polynomial.variable(2, 0)), (Polynomial.variable(4, 0), X)]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            Polynomial.dot(3, [(X, Y), pair])
        with pytest.raises(ValueError, match="dimension mismatch"):
            Polynomial.dot(3, [(X, Y)], [pair])
    with pytest.raises(ValueError, match="dimension mismatch"):
        Polynomial.dot(2, [(X, Y)])


# -- signed sum of products ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(pairs_over_one_dim(), st.integers(0, 6))
@example((3, []), 0)
@example((3, [(X, Y)]), 0)
@example((3, [(ONE * Fraction(1, 2), X), (ZERO, Y), (X, Y),
              (ONE * Fraction(2, 3), Y)]), 2)
def test_signed_dot_is_the_difference_of_the_two_sums(case, cut):
    dim, pairs = case
    plus, minus = pairs[:cut], pairs[cut:]
    expected = Polynomial.dot(dim, plus) - Polynomial.dot(dim, minus)
    total = Polynomial.dot(dim, iter(plus), iter(minus))
    assert total == expected and hash(total) == hash(expected)
    assert total == Polynomial(dim, total.terms)
    assert Polynomial.dot(dim, [], pairs) == -Polynomial.dot(dim, pairs)
    assert Polynomial.dot(dim, pairs, pairs).is_zero


def test_signed_dot_cap_check_sees_a_product_cancelled_by_minus():
    x20 = Polynomial.variable(3, 0) ** 20
    # the product past the cap cancels against the same product subtracted
    with pytest.raises(DegreeOverflowError):
        Polynomial.dot(3, [(x20, x20)], [(x20, x20)])
    with pytest.raises(DegreeOverflowError):
        Polynomial.dot(3, [(ONE, ONE)], [(x20, x20), (-x20, x20)])
    at_cap = Polynomial.variable(3, 0) ** 16
    assert Polynomial.dot(3, [(at_cap, at_cap)], [(at_cap, at_cap)]).is_zero


def test_difference_leaves_its_operands_unchanged():
    rng = random.Random(23)
    for _ in range(60):
        # mixed denominators on both sides
        a = rand_poly(rng) * Fraction(rng.randint(1, 4), rng.randint(1, 6))
        b = rand_poly(rng) * Fraction(1, rng.randint(1, 6))
        before = dict(a.terms), dict(b.terms)
        difference = a - b
        assert (dict(a.terms), dict(b.terms)) == before
        expected = a + (-b)
        assert difference == expected and hash(difference) == hash(expected)
        assert (a - a).is_zero and a - ZERO == a and ZERO - b == -b


def test_degree_cap():
    # the first variable sits in the top field of the packed monomial and
    # the last in the bottom one; dim 64 is the CLI's chart bound
    for dim, var in [(3, 0), (64, 0), (64, 31), (64, 63)]:
        x = Polynomial.variable(dim, var)
        at_cap = [0] * dim
        at_cap[var] = MAX_EXPONENT
        top = x ** MAX_EXPONENT  # at the cap: fine
        assert dict(top.terms) == {tuple(at_cap): 1}
        # every field at the cap at once, reached by a product
        half = Polynomial(dim, {(MAX_EXPONENT // 2,) * dim: 1})
        assert dict((half * half).terms) == {(MAX_EXPONENT,) * dim: 1}
        with pytest.raises(DegreeOverflowError):
            x ** (MAX_EXPONENT + 1)
        with pytest.raises(DegreeOverflowError):
            top * x
        with pytest.raises(DegreeOverflowError):
            half * half * x
        with pytest.raises(ValueError):
            x ** -1


def test_canonical_string():
    p = X * X + 3 * Y - Fraction(1, 2)
    assert p.to_string(("x", "y", "z")) == "x^2 + 3*y - 1/2"
    assert Polynomial.zero(3).to_string() == "0"
    assert (-X).to_string(("x", "y", "z")) == "-x"


def test_string_is_deterministic():
    a = X * Y + Z * 2 - ONE
    b = -ONE + Z * 2 + Y * X
    assert a == b
    assert a.to_string() == b.to_string()


def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_partial_derivatives_commute():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(rng)
        for u in range(3):
            for v in range(3):
                assert p.partial(u).partial(v) == p.partial(v).partial(u)


def test_evaluate_compatible_with_ring_ops():
    rng = random.Random(11)
    for _ in range(200):
        a, b = rand_poly(rng, span=1000), rand_poly(rng, span=1000)
        point = tuple(rng.uniform(-10, 10) for _ in range(3))
        direct = (a * b).evaluate(point)
        split = a.evaluate(point) * b.evaluate(point)
        assert abs(direct - split) <= 1e-12 * (1.0 + abs(split))


def test_hash_matches_equality():
    a = X * Y + ONE
    b = ONE + Y * X
    assert a == b and hash(a) == hash(b)
    assert a != a + X


# -- compiled float evaluation ----------------------------------------------


def reference_evaluate(poly, point):
    """The interpretive loop that `evaluate` ran before it was compiled:
    the oracle the compiled evaluator must match bit for bit."""
    total = 0.0
    for exps, coeff in poly.ordered_terms():
        value = float(coeff)
        for i, e in enumerate(exps):
            if e:
                value *= point[i] ** e
        total += value
    return total


def outcome(compute):
    """Packed float64 bits of each value (so -0.0 counts), "nan" for every
    NaN, or OverflowError if the computation raised it.

    NaN payloads are not compared: CPython's specialised float add and
    multiply can propagate the other NaN operand than the generic path,
    so a payload depends on how warm the code is, not on the evaluator.
    """
    try:
        values = compute()
    except OverflowError:
        return OverflowError
    if not isinstance(values, list):
        values = [values]
    return ["nan" if v != v else struct.pack("<d", v) for v in values]


def magnitudes(limit):
    return st.one_of(st.integers(1, 10**6), st.integers(1, 10**40),
                     st.integers(1, limit))


coefficients = st.builds(
    lambda sign, num, den: Fraction(sign * num, den),
    st.sampled_from([1, -1]), magnitudes(10**400), magnitudes(10**400))

coordinates = st.one_of(
    st.sampled_from([0, 0.0, -0.0, 1, -1]),
    st.integers(-10**6, 10**6),
    st.floats(),
    st.floats(-2.0, 2.0))


@st.composite
def polynomials_and_point(draw):
    dim = draw(st.integers(1, 12))
    exps = st.tuples(*[st.integers(0, MAX_EXPONENT)] * dim)
    polys = draw(st.lists(
        st.dictionaries(exps, coefficients, max_size=8).map(
            lambda terms: Polynomial(dim, terms)),
        min_size=1, max_size=4))
    point = draw(st.lists(coordinates, min_size=dim, max_size=dim))
    return polys, point


# a NaN with a payload beside a term that makes inf * 0: the reference and
# the compiled code gave NaNs with different payloads
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0xfff8000000000001))[0]


@settings(max_examples=300, deadline=None)
@given(polynomials_and_point(), st.sampled_from([1, 3, poly_module.UNIT_TERMS]))
@example(([Polynomial(3, {(1, 0, 0): 1, (0, 2, 1): Fraction(10**300)})],
          [PAYLOAD_NAN, 1e10, 0.0]), 1)
@example(([Polynomial(3, {(1, 0, 0): 1}), Polynomial(3, {(0, 1, 0): -1}),
           Polynomial(3, {(0, 0, 1): 2, (1, 0, 1): 1})],
          [-0.0, float("inf"), 5e-324]), 1)  # first powers, bound without `**`
def test_compiled_evaluation_matches_reference_bit_for_bit(case, unit_terms):
    polys, point = case
    expected = outcome(lambda: [reference_evaluate(p, point) for p in polys])
    saved = poly_module.UNIT_TERMS
    poly_module.UNIT_TERMS = unit_terms  # small units split polynomials
    try:
        assert outcome(lambda: float_evaluator(polys)(point)) == expected
    finally:
        poly_module.UNIT_TERMS = saved
    for poly in polys:
        expected = outcome(lambda: reference_evaluate(poly, point))
        assert outcome(lambda: poly.evaluate(point)) == expected
        assert outcome(lambda: poly(tuple(point))) == expected


def dense_poly(n_terms, seed=12):
    rng = random.Random(seed)
    terms = {}
    while len(terms) < n_terms:
        exps = tuple(rng.randint(0, 3) for _ in range(12))
        terms[exps] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 99),
                               rng.randint(1, 99))
    return Polynomial(12, terms), [rng.uniform(-1.1, 1.1) for _ in range(12)]


def test_compiled_evaluation_of_many_terms():
    poly, point = dense_poly(12_000)
    assert outcome(lambda: poly.evaluate(point)) == \
        outcome(lambda: reference_evaluate(poly, point))


def test_compile_memory_is_bounded_by_the_unit():
    poly, _ = dense_poly(2_000)
    tracemalloc.start()
    try:
        float_evaluator([poly])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one 2 000-term unit takes about 38 MiB to compile
    assert peak < 12 * 2**20


def test_float_evaluator_edge_cases():
    assert float_evaluator([])((1.0,)) == []
    assert outcome(lambda: float_evaluator([Polynomial.zero(2)])((0.0, 0.0))) \
        == [struct.pack("<d", 0.0)]
    with pytest.raises(ValueError):
        float_evaluator([X, Polynomial.variable(2, 0)])


def test_power_shared_by_every_unit(monkeypatch):
    # x0^3 * x1 occurs in every term, so each 2-term unit binds it anew;
    # the second polynomial starts mid-unit
    shared = X**3 * Y
    polys = [Polynomial.sum(3, (shared * Z**e * (e + 1) for e in range(7))),
             Polynomial.sum(3, (shared * X**e * Fraction(1, e + 2)
                                for e in range(5)))]
    point = (1.0 / 3.0, -0.7, 1.1)
    monkeypatch.setattr(poly_module, "UNIT_TERMS", 2)
    evaluator = float_evaluator(polys)
    assert outcome(lambda: evaluator(point)) == \
        outcome(lambda: [reference_evaluate(p, point) for p in polys])
    assert len([name for name in evaluator.__globals__ if name.startswith("u")]) == 6


def test_overflow_of_a_shared_power_still_raises():
    # y^2 overflows a float at y = 1e200; it is bound once for the many
    # terms of the second polynomial, and must raise, not give inf
    polys = [X + ONE, Polynomial.sum(3, (Y**2 * X**e for e in range(10)))]
    point = (0.5, 1e200, 2.0)
    assert outcome(lambda: [reference_evaluate(p, point) for p in polys]) \
        is OverflowError
    with pytest.raises(OverflowError):
        float_evaluator(polys)(point)
    with pytest.raises(OverflowError):
        polys[1].evaluate(point)


def test_dropped_evaluator_is_freed_by_refcount():
    poly, point = dense_poly(600)
    enabled = gc.isenabled()
    gc.disable()
    try:
        evaluator = float_evaluator([poly])
        evaluator(point)
        refs = [weakref.ref(evaluator), weakref.ref(evaluator.__globals__["u0"])]
        del evaluator
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
