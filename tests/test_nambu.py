import random
from itertools import permutations

import pytest

from polaris import checks, nambu
from polaris.geometry import Chart, RkMap, VectorField, differential, xi_pairing
from polaris.hamiltonian import NotPolarized, decompose_polarized, hamiltonian_field
from polaris.nambu import (
    NambuSpaceR3n,
    NambuSpaceRk1,
    det,
    jacobian_det,
    nambu_bracket_r3n,
    nambu_field_r3n,
    nambu_field_rk1,
    verify_relation_r3n,
    verify_relation_rk1,
)
from polaris.parsing import parse_polynomial
from polaris.poly import Polynomial
from polaris.sampling import random_basic, random_polarized, random_polynomial

RK2 = NambuSpaceRk1(2)
R3 = RK2.chart


def polarized_on(space, rng, degree=2):
    return random_polarized(rng, space.chart, degree)


# -- Levi-Civita reference ------------------------------------------------------


def levi_civita(indices):
    """Sign of the permutation written in 1-based values; 0 on repeats."""
    m = len(indices)
    for idx in indices:
        if not 1 <= idx <= m:
            raise ValueError(f"index {idx} out of range 1..{m}")
    if len(set(indices)) != m:
        return 0
    sign = 1
    seq = list(indices)
    for i in range(m):
        for j in range(i + 1, m):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def levi_civita_field(H, space):
    """The Nambu field on R^(k+1) as the Levi-Civita sum

    component j = sum over tuples  e_{j i_1..i_k}  prod_m dH^m/dx^{i_m},

    run over the k! orderings of the complement of j: the definition the
    signed-minor field of `nambu_field_rk1` is checked against.
    """
    dim = space.dim
    grads = [[H[m].partial(space.coordinate_index(i)) for i in range(1, dim + 1)]
             for m in range(space.k)]
    comps = {}
    coords = list(range(1, dim + 1))
    for j in coords:
        terms = []
        for perm in permutations([i for i in coords if i != j]):
            term = Polynomial.constant(space.chart.dim, levi_civita((j,) + perm))
            for m, i in enumerate(perm):
                term = term * grads[m][i - 1]
            terms.append(term)
        comps[space.coordinate_index(j)] = Polynomial.sum(space.chart.dim, terms)
    return VectorField(space.chart, comps)


def test_levi_civita_examples():
    assert levi_civita((1, 2, 3)) == 1
    assert levi_civita((2, 1, 3)) == -1
    assert levi_civita((1, 1, 3)) == 0


def test_levi_civita_range_check():
    with pytest.raises(ValueError):
        levi_civita((0, 1, 2))
    with pytest.raises(ValueError):
        levi_civita((1, 2, 4))


def test_levi_civita_multiplicative():
    rng = random.Random(42)
    base = list(range(1, 5))
    for _ in range(100):
        sigma = rng.sample(base, 4)
        tau = rng.sample(base, 4)
        composed = [sigma[t - 1] for t in tau]
        assert levi_civita(composed) == levi_civita(sigma) * levi_civita(tau)


def test_levi_civita_counts_signs():
    signs = [levi_civita(perm) for perm in permutations(range(1, 4))]
    assert sorted(signs) == [-1, -1, -1, 1, 1, 1]


# -- Jacobian determinants -------------------------------------------------------


def test_det_is_leibniz_sum_in_few_products(monkeypatch):
    # every entry is nonzero, so no cofactor is skipped: a plain cofactor
    # expansion of this 6 x 6 matrix takes over 6! products
    m = 6
    matrix = [[Polynomial.constant(m, (3 * i + j) % 5 + 1) + Polynomial.variable(m, j)
               for j in range(m)] for i in range(m)]
    leibniz = []
    for perm in permutations(range(m)):
        term = Polynomial.constant(m, levi_civita([c + 1 for c in perm]))
        for row, col in enumerate(perm):
            term = term * matrix[row][col]
        leibniz.append(term)
    products = []
    mul = Polynomial.__mul__
    monkeypatch.setattr(Polynomial, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    value = det(matrix)
    monkeypatch.undo()
    assert value == Polynomial.sum(m, leibniz)
    assert len(products) <= m * 2 ** (m - 1)


def test_jacobian_identity():
    x = R3.coordinate("x")
    y = R3.coordinate("y")
    det = jacobian_det([x, y], [R3.variable_index("x"), R3.variable_index("y")])
    assert det == R3.constant(1)


def test_jacobian_worked_example():
    H1 = parse_polynomial("z*x", R3)
    H2 = parse_polynomial("z*y", R3)
    det = jacobian_det([H1, H2], [R3.variable_index("y"), R3.variable_index("z")])
    assert det == parse_polynomial("0 - x*z", R3)


def test_jacobian_repeated_row_vanishes():
    f = parse_polynomial("z*x + y^2", R3)
    det = jacobian_det([f, f], [R3.variable_index("x"), R3.variable_index("z")])
    assert det.is_zero


def test_jacobian_length_mismatch():
    with pytest.raises(ValueError):
        jacobian_det([R3.zero()], [0, 1])


# -- the R^(k+1) field -------------------------------------------------------------


def test_rk1_field_worked_example():
    H = RkMap(R3, [parse_polynomial("z*x", R3), parse_polynomial("z*y", R3)])
    X = nambu_field_rk1(H, RK2)
    assert X.component(R3.variable_index("x")) == parse_polynomial("0-x*z", R3)
    assert X.component(R3.variable_index("y")) == parse_polynomial("0-y*z", R3)
    assert X.component(R3.variable_index("z")) == parse_polynomial("z^2", R3)


def test_rk1_field_of_constants_vanishes():
    H = RkMap(R3, [R3.constant(3), R3.constant(-1)])
    assert nambu_field_rk1(H, RK2).is_zero


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rk1_vertical_rate(k):
    space = NambuSpaceRk1(k)
    rng = random.Random(100 + k)
    for _ in range(10):
        pf = polarized_on(space, rng)
        X = nambu_field_rk1(pf.to_map(), space)
        expected = pf.f[0] ** k
        if k % 2:
            expected = -expected
        assert X.component(space.coordinate_index(k + 1)) == expected


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rk1_relation(k):
    space = NambuSpaceRk1(k)
    rng = random.Random(200 + k)
    for _ in range(10):
        report = verify_relation_rk1(polarized_on(space, rng), space)
        assert report.passed, report.residual_text()


def test_rk1_relation_k3_scale():
    # cubic example: the proportionality factor is -z^4
    space = NambuSpaceRk1(3)
    chart = space.chart
    H = RkMap(chart, [parse_polynomial(f"z^2*x{p}", chart) for p in (1, 2, 3)])
    pf = decompose_polarized(H)
    lhs = nambu_field_rk1(H, space)
    scale = -(chart.coordinate("z") ** 4)
    assert lhs == hamiltonian_field(pf) * scale
    assert verify_relation_rk1(pf, space).passed


def test_rk1_relation_zero_f():
    space = NambuSpaceRk1(2)
    chart = space.chart
    H = RkMap(chart, [parse_polynomial("z^2 - 1", chart),
                      parse_polynomial("3*z", chart)])
    pf = decompose_polarized(H)
    assert pf.f[0].is_zero
    report = verify_relation_rk1(pf, space)
    assert report.passed
    assert report.lhs.is_zero and report.rhs.is_zero


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_rk1_field_matches_levi_civita_sum(k):
    space = NambuSpaceRk1(k)
    chart = space.chart
    rng = random.Random(500 + k)
    for _ in range(4):
        H = polarized_on(space, rng).to_map()
        assert nambu_field_rk1(H, space) == levi_civita_field(H, space)
    for _ in range(4):
        # H^m = L_m + x^m L'_m with random affine L, L': quadratic along the
        # fibers, so not polarized, and few partials vanish
        H = RkMap(chart, [random_polynomial(rng, chart, 1)
                          + chart.coordinate(f"x{m}") * random_polynomial(rng, chart, 1)
                          for m in range(1, k + 1)])
        with pytest.raises(NotPolarized):
            decompose_polarized(H)
        assert nambu_field_rk1(H, space) == levi_civita_field(H, space)


# -- the R^(3n) field ----------------------------------------------------------------


def test_r3n_matches_rk1_at_n1():
    space = NambuSpaceR3n(1)
    H1 = parse_polynomial("z*x", space.chart)
    H2 = parse_polynomial("z*y", space.chart)
    ours = nambu_field_r3n(H1, H2, space)
    twin = nambu_field_rk1(RkMap(RK2.chart, [H1, H2]), RK2)
    for idx in range(space.chart.dim):
        assert ours.component(idx) == twin.component(idx)


def test_r3n_equal_hamiltonians_freeze():
    space = NambuSpaceR3n(2)
    H = parse_polynomial("z1*x1 + z2*y2", space.chart)
    assert nambu_field_r3n(H, H, space).is_zero


@pytest.mark.parametrize("n", [1, 2, 3])
def test_r3n_vertical_rates(n):
    space = NambuSpaceR3n(n)
    rng = random.Random(300 + n)
    for _ in range(10):
        pf = polarized_on(space, rng)
        H = pf.to_map()
        X = nambu_field_r3n(H[0], H[1], space)
        for i in range(1, n + 1):
            zi = space.triple_indices(i)[2]
            assert X.component(zi) == pf.f[i - 1] * pf.f[i - 1]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_r3n_relation(n):
    space = NambuSpaceR3n(n)
    rng = random.Random(400 + n)
    for _ in range(10):
        report = verify_relation_r3n(polarized_on(space, rng), space)
        assert report.passed, report.residual_text()


def test_r3n_relation_constant_f_recovers_field():
    space = NambuSpaceR3n(2)
    chart = space.chart
    ones = [chart.constant(1)] * space.n
    g = [random_basic(random.Random(5), chart) for _ in range(2)]
    from polaris.hamiltonian import PolarizedForm
    pf = PolarizedForm(chart, ones, g)
    H = pf.to_map()
    assert nambu_field_r3n(H[0], H[1], space) == hamiltonian_field(pf)


def test_r3n_relation_linear_leaf_example():
    space = NambuSpaceR3n(2)
    chart = space.chart
    H1 = parse_polynomial("z1*x1 + z2*x2", chart)
    H2 = parse_polynomial("z1*y1 + z2*y2", chart)
    assert verify_relation_r3n(decompose_polarized(RkMap(chart, [H1, H2])),
                               space).passed


# -- the ternary bracket ---------------------------------------------------------


def test_bracket_annihilates_hamiltonians():
    space = NambuSpaceR3n(2)
    rng = random.Random(7)
    for _ in range(10):
        pf = polarized_on(space, rng)
        H = pf.to_map()
        assert nambu_bracket_r3n(H[0], H[0], H[1], space).is_zero
        assert nambu_bracket_r3n(H[1], H[0], H[1], space).is_zero


def test_bracket_vertical_and_horizontal_rates():
    space = NambuSpaceR3n(2)
    chart = space.chart
    rng = random.Random(9)
    for _ in range(10):
        pf = polarized_on(space, rng)
        H = pf.to_map()
        for i in range(1, space.n + 1):
            xi, yi, zi = space.triple_indices(i)
            z_rate = nambu_bracket_r3n(chart.coordinate(f"z{i}"), H[0], H[1], space)
            assert z_rate == pf.f[i - 1] * pf.f[i - 1]
            # the x^i rate carries -(sum_j df_j/dz^i x^j + dg^1/dz^i) f_i
            inner = chart.zero()
            for j in range(1, space.n + 1):
                inner = inner + pf.f[j - 1].partial(zi) * chart.coordinate(f"x{j}")
            inner = inner + pf.g[0].partial(zi)
            x_rate = nambu_bracket_r3n(chart.coordinate(f"x{i}"), H[0], H[1], space)
            assert x_rate == -(inner * pf.f[i - 1])


def test_bracket_antisymmetric_in_all_slots():
    space = NambuSpaceR3n(2)
    rng = random.Random(11)
    for _ in range(10):
        f = random_basic(rng, space.chart) * space.chart.coordinate("x1")
        pf = polarized_on(space, rng)
        H = pf.to_map()
        base = nambu_bracket_r3n(f, H[0], H[1], space)
        assert nambu_bracket_r3n(f, H[1], H[0], space) == -base
        assert nambu_bracket_r3n(H[0], f, H[1], space) == -base
        assert nambu_bracket_r3n(H[1], H[0], f, space) == -base


def test_first_integrals_along_polarized_flow():
    # <dH^p, X_H> = 0: both components stay constant along the field
    rng = random.Random(13)
    for space in (NambuSpaceRk1(2), NambuSpaceRk1(3), NambuSpaceR3n(2)):
        for _ in range(10):
            pf = polarized_on(space, rng)
            paired = xi_pairing(differential(pf.to_map()), hamiltonian_field(pf))
            assert paired.is_zero


@pytest.mark.parametrize("space", [NambuSpaceRk1(2), NambuSpaceRk1(3),
                                   NambuSpaceR3n(1), NambuSpaceR3n(2)],
                         ids=["rk1-k2", "rk1-k3", "r3n-n1", "r3n-n2"])
def test_relation_reads_the_held_differential(monkeypatch, space):
    verify = (verify_relation_rk1 if isinstance(space, NambuSpaceRk1)
              else verify_relation_r3n)
    pf = polarized_on(space, random.Random(space.dim))
    pf.differential()
    calls = []
    partial = Polynomial.partial

    def counted(self, var):
        calls.append(var)
        return partial(self, var)

    monkeypatch.setattr(Polynomial, "partial", counted)
    assert verify(pf, space).passed
    assert calls == []


@pytest.mark.parametrize("n", [1, 2])
def test_r3n_suite_builds_each_field_once(monkeypatch, n):
    # the first-integral lines and, at n = 1, the consistency line share it
    space = NambuSpaceR3n(n)
    rng = random.Random(n)
    named = {name: polarized_on(space, rng).to_map() for name in "HKL"}
    built = []

    def counted(H1, H2, space):
        built.append((H1, H2))
        return nambu_field_r3n(H1, H2, space)

    monkeypatch.setattr(nambu, "nambu_field_r3n", counted)
    monkeypatch.setattr(checks, "nambu_field_r3n", counted)
    results = checks.run_suite(space.chart, named, space=space, trials=1)
    assert all(r.passed for r in results)
    assert sum(r.name.startswith("nambu.first-integrals[") for r in results) == 3
    assert built == [(H[0], H[1]) for H in named.values()]


def test_space_validation():
    with pytest.raises(ValueError):
        NambuSpaceRk1(1)
    with pytest.raises(ValueError):
        NambuSpaceR3n(0)
    other = RkMap(Chart(1, 2), [Chart(1, 2).zero()] * 2)
    with pytest.raises(ValueError):
        nambu_field_rk1(other, RK2)  # aliases differ: not the space's chart
