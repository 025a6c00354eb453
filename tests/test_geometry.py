import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polaris.checks import closed_pfaff_check, structure_checks
from polaris.geometry import (
    Chart,
    KSymplecticStructure,
    OneFormRk,
    RkMap,
    TwoForm,
    VectorField,
    canonical_theta,
    check_ksymplectic,
    differential,
    exterior_derivative_one_form,
    grid_is_zero,
    interior_product,
    is_basic,
    xi_pairing,
)
from polaris.hamiltonian import hamiltonian_field, theta_pairing
from polaris.linalg import kernel
from polaris.parsing import parse_polynomial
from polaris.poly import Polynomial
from polaris.nambu import NambuSpaceRk1
from polaris.sampling import random_basic, random_polarized

R3 = NambuSpaceRk1(2).chart


def basis_field(chart, idx):
    return VectorField.coordinate(chart, idx)


# -- chart indexing ------------------------------------------------------


def test_chart_indexing_is_bijective():
    for n, k in [(1, 1), (2, 3), (3, 2)]:
        chart = Chart(n, k)
        seen = set()
        for p in range(1, k + 1):
            for i in range(1, n + 1):
                seen.add(chart.fiber_index(p, i))
        for i in range(1, n + 1):
            seen.add(chart.leaf_index(i))
        assert seen == set(range(chart.dim))
        assert set(chart.fiber_indices).isdisjoint(chart.leaf_indices)
        for idx in range(chart.dim):
            assert chart.variable_index(chart.var_name(idx)) == idx


def test_alias_collision_rejected():
    with pytest.raises(ValueError):
        Chart(1, 2, {"q1": "x1_1"})
    with pytest.raises(ValueError):
        Chart(1, 2, {"w": "nope"})
    # harmless self-alias is allowed
    Chart(1, 2, {"z": "q1"})


# -- basic functions -----------------------------------------------------


def test_is_basic_examples():
    q1 = R3.coordinate("q1")
    assert is_basic(q1 * q1, R3)
    assert not is_basic(R3.coordinate("x1_1"), R3)
    assert is_basic(R3.constant(5), R3)


def test_basic_closed_under_ring_ops():
    rng = random.Random(42)
    for _ in range(50):
        a = random_basic(rng, R3)
        b = random_basic(rng, R3)
        assert is_basic(a + b, R3)
        assert is_basic(a * b, R3)


# -- differential --------------------------------------------------------


def test_differential_worked_example():
    H = RkMap(R3, [parse_polynomial("z*x", R3), parse_polynomial("z*y", R3)])
    dH = differential(H)
    z = R3.coordinate("q1")
    x = R3.coordinate("x")
    y = R3.coordinate("y")
    # dH^1 = z dx + x dz, dH^2 = z dy + y dz
    assert dH.entry(0, R3.variable_index("x")) == z
    assert dH.entry(0, R3.variable_index("y")).is_zero
    assert dH.entry(0, R3.variable_index("z")) == x
    assert dH.entry(1, R3.variable_index("y")) == z
    assert dH.entry(1, R3.variable_index("z")) == y


def test_differential_of_constant_map():
    H = RkMap(R3, [R3.constant(4), R3.constant(-1)])
    assert differential(H) == OneFormRk.zero(R3)


def test_differential_of_fiber_coordinates():
    # the map with components (x^{1j}, ..., x^{kj}) differentiates to
    # the forms dx^{pj}
    chart = Chart(2, 2)
    j = 2
    H = RkMap(chart, [Polynomial.variable(chart.dim, chart.fiber_index(p, j))
                      for p in (1, 2)])
    dH = differential(H)
    for p in (1, 2):
        for idx in range(chart.dim):
            expected = 1 if idx == chart.fiber_index(p, j) else 0
            assert dH.entry(p - 1, idx) == chart.constant(expected)


# -- interior product ----------------------------------------------------


def test_interior_product_reads_matrix_rows():
    theta1 = canonical_theta(R3, 1)  # dx ^ dz
    d_dx = basis_field(R3, R3.variable_index("x"))
    row = interior_product(d_dx, theta1)
    assert row[R3.variable_index("z")] == R3.constant(1)
    assert sum(1 for p in row if not p.is_zero) == 1

    zero = interior_product(VectorField.zero(R3), theta1)
    assert all(p.is_zero for p in zero)

    d_dy = basis_field(R3, R3.variable_index("y"))
    assert all(p.is_zero for p in interior_product(d_dy, theta1))


def test_interior_product_linear_in_field():
    rng = random.Random(5)
    theta = canonical_theta(R3, 2)
    for _ in range(20):
        a = random_polarized(rng, R3)
        b = random_polarized(rng, R3)
        Xa, Xb = hamiltonian_field(a), hamiltonian_field(b)
        combined = interior_product(Xa + Xb, theta)
        split = [u + v for u, v in zip(interior_product(Xa, theta),
              interior_product(Xb, theta))]
        assert list(combined) == split


# -- exterior derivative ---------------------------------------------------


def test_exterior_derivative_examples():
    zero = R3.zero()
    one = R3.constant(1)
    x = R3.coordinate("x")
    z = R3.coordinate("q1")
    # d(dz) = 0
    omega = [zero, zero, one]
    assert grid_is_zero(exterior_derivative_one_form(omega))
    # d(x dz) has the dx ^ dz slot equal to 1
    omega = [zero, zero, x]
    grid = exterior_derivative_one_form(omega)
    ix, iz = R3.variable_index("x"), R3.variable_index("z")
    assert grid[ix][iz] == one
    assert grid[iz][ix] == -one
    # exact form: d(z dx + x dz) = 0
    omega = [z, zero, x]
    assert grid_is_zero(exterior_derivative_one_form(omega))


# -- pairing ----------------------------------------------------------------


def test_xi_pairing_examples():
    K = RkMap(R3, [R3.coordinate("x"), R3.coordinate("y")])
    dK = differential(K)
    d_dz = basis_field(R3, R3.variable_index("z"))
    assert xi_pairing(dK, d_dz).is_zero

    beta = OneFormRk.basis(R3, 1, R3.variable_index("x"))
    assert xi_pairing(beta, VectorField.zero(R3)).is_zero
    paired = xi_pairing(beta, basis_field(R3, R3.variable_index("x")))
    assert paired.comps[1] == R3.constant(1)
    assert paired.comps[0].is_zero


def test_xi_pairing_bilinear():
    rng = random.Random(9)
    for _ in range(20):
        X = hamiltonian_field(random_polarized(rng, R3))
        Y = hamiltonian_field(random_polarized(rng, R3))
        beta = differential(random_polarized(rng, R3).to_map())
        gamma = differential(random_polarized(rng, R3).to_map())
        assert xi_pairing(beta, X + Y) == xi_pairing(beta, X) + xi_pairing(beta, Y)
        assert xi_pairing(beta + gamma, X) == xi_pairing(beta, X) + xi_pairing(gamma, X)


def test_xi_reads_off_components_injectively():
    # pairing against every basis form recovers the field exactly
    rng = random.Random(13)
    for _ in range(10):
        X = hamiltonian_field(random_polarized(rng, R3))
        recovered = {}
        for j in range(R3.dim):
            for p in range(R3.k):
                value = xi_pairing(OneFormRk.basis(R3, p, j), X)
                assert value.comps[p] == X.component(j)
        if X.is_zero:
            continue
        assert any(not xi_pairing(OneFormRk.basis(R3, 0, j), X).is_zero
                   for j in range(R3.dim)
                   if not X.component(j).is_zero)


# -- structure check ---------------------------------------------------------


def test_canonical_structure_n1_k2():
    report = check_ksymplectic(KSymplecticStructure.canonical(R3))
    assert report.passed
    # kernels of the individual forms single out the two fiber axes
    assert kernel(canonical_theta(R3, 1).rows()) == [(0, 1, 0)]
    assert kernel(canonical_theta(R3, 2).rows()) == [(1, 0, 0)]
    assert report.joint_kernel == ()


def test_single_form_on_odd_space_fails():
    structure = KSymplecticStructure(R3, [canonical_theta(R3, 1)])
    report = check_ksymplectic(structure)
    assert not report.passed
    assert len(report.joint_kernel) == 1


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_canonical_structures_pass(n, k):
    chart = Chart(n, k)
    report = check_ksymplectic(KSymplecticStructure.canonical(chart))
    assert report.passed


def test_vertical_isotropy_violation_detected():
    chart = Chart(1, 2)
    a, b = chart.fiber_index(1, 1), chart.fiber_index(2, 1)
    theta = TwoForm(chart.dim, canonical_theta(chart, 1).pairs + ((b, a, 3),))
    bad = KSymplecticStructure(chart, [theta, canonical_theta(chart, 2)])
    report = check_ksymplectic(bad)
    assert not report.passed
    assert report.vertical_violations == ((0, a, b, -3),)


def test_structure_rejects_non_antisymmetric():
    # a diagonal coefficient is the part of a matrix no 2-form can carry
    with pytest.raises(ValueError, match="diagonal"):
        TwoForm(3, [(0, 1, 1), (1, 1, 1)])
    with pytest.raises(ValueError, match="dimension"):
        KSymplecticStructure(R3, [TwoForm(4, [(0, 1, 1)])])


@pytest.mark.parametrize("pairs, lines", [
    # nondegenerate, but it pairs the two fiber directions
    ([(0, 1, 1), (0, 2, 1), (1, 3, 1)], [
        "PASS structure.joint-characteristic-trivial residual=0",
        "FAIL structure.vertical-isotropy residual=theta^1(x1_1,x1_2) = 1"
        " on vertical directions"]),
    # vertically isotropic, but x1_2 and q2 lie in its kernel
    ([(0, 2, 1)], [
        "FAIL structure.joint-characteristic-trivial residual=kernel dimension 2",
        "PASS structure.vertical-isotropy residual=0"]),
    ([(0, 1, 2)], [
        "FAIL structure.joint-characteristic-trivial residual=kernel dimension 2",
        "FAIL structure.vertical-isotropy residual=joint characteristic space"
        " has dimension 2; theta^1(x1_1,x1_2) = 2 on vertical directions"]),
])
def test_structure_checks_report_custom_forms(pairs, lines):
    chart = Chart(2, 1)
    results = structure_checks(KSymplecticStructure(chart, [TwoForm(4, pairs)]))
    assert [result.line() for result in results] == lines


# -- sparse 2-forms ------------------------------------------------------------


def test_two_form_stores_each_pair_once_above_the_diagonal():
    theta = TwoForm(4, [(2, 0, Fraction(1, 2)), (0, 2, 3), (3, 1, -1),
                        (1, 3, -1), (0, 1, 5), (1, 0, 5), (2, 3, 0)])
    # (2, 0) is stored negated and summed with (0, 2); (3, 1) and (1, 3)
    # cancel, and so do (0, 1) and (1, 0); a zero is dropped
    assert theta.pairs == ((0, 2, Fraction(5, 2)),)
    assert theta.rows() == ((0, 0, Fraction(5, 2), 0), (0, 0, 0, 0),
                            (Fraction(-5, 2), 0, 0, 0), (0, 0, 0, 0))
    assert TwoForm(3, []).pairs == ()
    assert TwoForm(3, [(2, 1, 1), (0, 2, 1), (0, 1, 2)]).pairs == (
        (0, 1, 2), (0, 2, 1), (1, 2, -1))


@pytest.mark.parametrize("pair", [(0, 3), (3, 0), (-1, 2), (2, -1), (5, 7)])
def test_two_form_rejects_out_of_range_pairs(pair):
    with pytest.raises(ValueError, match="out of range"):
        TwoForm(3, [(*pair, 1)])


def test_two_form_rejects_diagonal_pairs_even_with_zero_coefficient():
    with pytest.raises(ValueError, match="diagonal"):
        TwoForm(2, [(1, 1, 0)])


def test_canonical_theta_is_the_n_fiber_leaf_pairs():
    chart = Chart(3, 2)
    for p in (1, 2):
        assert canonical_theta(chart, p).pairs == tuple(
            (chart.fiber_index(p, i), chart.leaf_index(i), 1) for i in (1, 2, 3))


def dense_interior_product(X, rows):
    """The dense formula sum_i X^i theta[i][j], one slot per j."""
    dim = X.chart.dim
    return tuple(Polynomial.sum(dim, (X.component(i) * rows[i][j]
                                      for i in range(dim)))
                 for j in range(dim))


def dense_pairing(rows, X, Y):
    """The dense formula sum_ij theta[i][j] X^i Y^j."""
    dim = X.chart.dim
    return Polynomial.sum(dim, (X.component(i) * Y.component(j) * rows[i][j]
                                for i in range(dim) for j in range(dim)))


def dense_vertical_violations(thetas, chart):
    """The former dense scan: theta[a][b] for fiber indices a < b."""
    fiber = chart.fiber_indices
    grids = [theta.rows() for theta in thetas]
    return tuple((p, a, b, rows[a][b]) for p, rows in enumerate(grids)
                 for a_pos, a in enumerate(fiber) for b in fiber[a_pos + 1:]
                 if rows[a][b])


@st.composite
def sparse_forms(draw):
    """A chart, a few random sparse 2-forms with the triples that built
    them, and two random fields on the chart."""
    chart = draw(st.sampled_from([Chart(1, 1), Chart(1, 2), Chart(2, 1),
                                  Chart(2, 2), Chart(1, 3)]))
    dim = chart.dim
    index = st.integers(0, dim - 1)
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=9)
    triple = st.tuples(index, index, coeff).filter(lambda t: t[0] != t[1])
    triples = [draw(st.lists(triple, max_size=2 * dim))
               for _ in range(draw(st.integers(1, 3)))]
    polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * dim), coeff,
                            max_size=3).map(lambda terms: Polynomial(dim, terms))
    fields = [VectorField(chart, draw(st.dictionaries(index, polys, max_size=dim)))
              for _ in range(2)]
    return chart, triples, fields


@settings(max_examples=100, deadline=None)
@given(sparse_forms())
def test_sparse_operators_match_the_dense_formulas(case):
    chart, triples, (X, Y) = case
    thetas = [TwoForm(chart.dim, t) for t in triples]
    for theta, built_from in zip(thetas, triples):
        # the dense matrix sum_t c_t (E_ij - E_ji) of the triples
        rows = [[0] * chart.dim for _ in range(chart.dim)]
        for i, j, c in built_from:
            rows[i][j] += c
            rows[j][i] -= c
        assert [list(r) for r in theta.rows()] == rows
        assert interior_product(X, theta) == dense_interior_product(X, rows)
        assert theta_pairing(theta, X, Y) == dense_pairing(rows, X, Y)
    report = check_ksymplectic(KSymplecticStructure(chart, thetas))
    stacked = [row for theta in thetas for row in theta.rows()]
    assert report.joint_kernel == tuple(kernel(stacked))
    for vec in report.joint_kernel:
        assert all(sum(r * v for r, v in zip(row, vec)) == 0 for row in stacked)
    assert report.vertical_violations == dense_vertical_violations(thetas, chart)
    assert report.passed == (not report.joint_kernel
                             and not report.vertical_violations)


def test_closed_pfaff_forms_for_polarized_fields():
    rng = random.Random(21)
    for chart in (Chart(1, 2), Chart(2, 2), Chart(2, 3)):
        structure = KSymplecticStructure.canonical(chart)
        for _ in range(20):
            X = hamiltonian_field(random_polarized(rng, chart))
            for p in range(chart.k):
                grid = exterior_derivative_one_form(
                    interior_product(X, structure.theta(p)))
                assert grid_is_zero(grid)


@st.composite
def pfaff_rows(draw):
    """A chart and a few rows over it: some exact (closed), most not."""
    chart = draw(st.sampled_from([Chart(1, 1), Chart(1, 2), Chart(2, 1)]))
    dim = chart.dim
    polys = st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * dim), st.integers(-3, 3),
        max_size=4).map(lambda terms: Polynomial(dim, terms))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            potential = draw(polys)
            rows.append(tuple(potential.partial(i) for i in range(dim)))
        else:
            rows.append(tuple(draw(st.lists(polys, min_size=dim, max_size=dim))))
    return chart, rows


@settings(max_examples=150, deadline=None)
@given(pfaff_rows())
def test_closed_pfaff_witness_is_first_nonzero_entry_of_the_grid(case):
    chart, rows = case
    result = closed_pfaff_check("M", rows, chart)
    assert result.name == "closed-pfaff[M]"
    for p, row in enumerate(rows):
        nonzero = [poly for line in exterior_derivative_one_form(row)
                   for poly in line if not poly.is_zero]
        if nonzero:
            assert not result.passed
            assert result.residual == nonzero[0].to_string(chart.var_names)
            assert result.details == f"form {p + 1}"
            return
    assert result.passed and result.residual == "0" and result.details == ""
