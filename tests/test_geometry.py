import random
from fractions import Fraction

import pytest

from polaris.geometry import (
    Chart,
    KSymplecticStructure,
    OneFormRk,
    RkMap,
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
from polaris.hamiltonian import hamiltonian_field
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
    assert kernel(canonical_theta(R3, 1)) == [(Fraction(0), Fraction(1), Fraction(0))]
    assert kernel(canonical_theta(R3, 2)) == [(Fraction(1), Fraction(0), Fraction(0))]
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
    theta = canonical_theta(chart, 1)
    rows = [list(r) for r in theta.entries]
    a, b = chart.fiber_index(1, 1), chart.fiber_index(2, 1)
    rows[a][b] = Fraction(1)
    rows[b][a] = Fraction(-1)
    from polaris.linalg import RationalMatrix
    bad = KSymplecticStructure(chart, [RationalMatrix(rows),
                                       canonical_theta(chart, 2)])
    report = check_ksymplectic(bad)
    assert not report.passed
    assert report.vertical_violations


def test_structure_rejects_non_antisymmetric():
    from polaris.linalg import RationalMatrix
    with pytest.raises(ValueError):
        KSymplecticStructure(R3, [RationalMatrix.identity(3)])


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
