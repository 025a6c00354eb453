import random

import pytest

from polaris import checks, geometry, hamiltonian
from polaris.geometry import (
    Chart,
    KSymplecticStructure,
    OneFormRk,
    RkMap,
    VectorField,
    differential,
    interior_product,
    xi_pairing,
)
from polaris.hamiltonian import (
    NotPolarized,
    PolarizedForm,
    bracket,
    bracket_via_theta,
    canonical_poisson_tensor,
    classical_bracket,
    decompose_polarized,
    hamiltonian_field,
    jacobi_check,
    lie_bracket,
    theta_pairing,
    zeta,
    zeta_inverse,
)
from polaris.parsing import parse_polynomial
from polaris.poly import Polynomial
from polaris.nambu import NambuSpaceRk1
from polaris.sampling import random_basic, random_polarized, random_polynomial

R3 = NambuSpaceRk1(2).chart

H_MAP = RkMap(R3, [parse_polynomial("z*x", R3), parse_polynomial("z*y", R3)])
K_MAP = RkMap(R3, [parse_polynomial("x", R3), parse_polynomial("y", R3)])
L_MAP = RkMap(R3, [parse_polynomial("z^2*x", R3), parse_polynomial("z^2*y", R3)])


def generator_map(chart, j):
    """Components (x^{1j}, ..., x^{kj})."""
    return RkMap(chart, [Polynomial.variable(chart.dim, chart.fiber_index(p, j))
                         for p in range(1, chart.k + 1)])


def momentum_map(chart, p, j):
    """Components -x^j delta^{qp}."""
    leaf = Polynomial.variable(chart.dim, chart.leaf_index(j))
    return RkMap(chart, [-leaf if q == p else chart.zero()
                         for q in range(1, chart.k + 1)])


# -- decomposition -----------------------------------------------------------


def test_decompose_worked_example():
    pf = decompose_polarized(H_MAP)
    assert pf.f == (R3.coordinate("q1"),)
    assert pf.g == (R3.zero(), R3.zero())
    assert pf.to_map() == H_MAP


def test_decompose_rejects_quadratic_fiber():
    H = RkMap(R3, [parse_polynomial("x^2", R3), parse_polynomial("y", R3)])
    with pytest.raises(NotPolarized) as err:
        decompose_polarized(H)
    assert err.value.reason == "nonlinear-in-fiber"


def test_decompose_rejects_mismatched_f():
    H = RkMap(R3, [parse_polynomial("z*x", R3), parse_polynomial("z^2*y", R3)])
    with pytest.raises(NotPolarized) as err:
        decompose_polarized(H)
    assert err.value.reason == "f-mismatch-across-components"


def test_decompose_rejects_cross_block():
    H = RkMap(R3, [parse_polynomial("y", R3), parse_polynomial("x", R3)])
    with pytest.raises(NotPolarized) as err:
        decompose_polarized(H)
    assert err.value.reason == "cross-block-fiber-variable"


def test_constructor_rejects_non_basic_coefficients():
    with pytest.raises(NotPolarized) as err:
        PolarizedForm(R3, [R3.coordinate("x")], [R3.zero(), R3.zero()])
    assert err.value.reason == "non-basic-coefficient"


def test_decompose_k1_naming():
    # at k = 1 the local form reads a(y) x + b(y) with x the fiber
    chart = Chart(1, 1)
    H = RkMap(chart, [parse_polynomial("q1^2*x1_1 + q1 - 2", chart)])
    pf = decompose_polarized(H)
    q = chart.coordinate("q1")
    assert pf.f == (q * q,)
    assert pf.g == (q - 2,)


def test_reconstruction_roundtrip_randomized():
    rng = random.Random(42)
    for chart in (Chart(1, 1), Chart(2, 2), Chart(3, 3)):
        for _ in range(25):
            pf = random_polarized(rng, chart)
            H = pf.to_map()
            back = decompose_polarized(H)
            assert back == pf
            # the split map is kept, and equals the one rebuilt from (f, g)
            assert back.to_map() is H
            rebuilt = PolarizedForm(chart, back.f, back.g).to_map()
            assert back.to_map().comps == rebuilt.comps


# -- hamiltonian fields --------------------------------------------------------


def test_field_worked_example():
    X = hamiltonian_field(decompose_polarized(H_MAP))
    assert X.component(R3.variable_index("x")) == -R3.coordinate("x")
    assert X.component(R3.variable_index("y")) == -R3.coordinate("y")
    assert X.component(R3.variable_index("z")) == R3.coordinate("q1")


def test_field_of_constant_map():
    H = RkMap(R3, [R3.constant(2), R3.constant(-7)])
    assert hamiltonian_field(decompose_polarized(H)).is_zero


@pytest.mark.parametrize("chart", [Chart(1, 2), Chart(2, 2), Chart(2, 3)])
def test_field_of_generator_maps(chart):
    for j in range(1, chart.n + 1):
        X = hamiltonian_field(decompose_polarized(generator_map(chart, j)))
        assert X == VectorField.coordinate(chart, chart.leaf_index(j))
    for p in range(1, chart.k + 1):
        for j in range(1, chart.n + 1):
            X = hamiltonian_field(decompose_polarized(momentum_map(chart, p, j)))
            assert X == VectorField.coordinate(chart, chart.fiber_index(p, j))


def test_duality_on_random_corpus():
    rng = random.Random(7)
    for chart in (Chart(1, 2), Chart(3, 2), Chart(2, 3)):
        structure = KSymplecticStructure.canonical(chart)
        for _ in range(20):
            pf = random_polarized(rng, chart)
            X = hamiltonian_field(pf)
            dH = differential(pf.to_map())
            for p in range(chart.k):
                row = interior_product(X, structure.theta(p))
                assert all(row[j] == -dH.entry(p, j) for j in range(chart.dim))


def test_bad_field_is_caught_by_the_duality_check(monkeypatch):
    # the defining equation of X_H lives in checks.duality_check alone, so
    # a wrong field must come back as a failed check, not as an exception

    def flipped_leaf(pf):
        X = hamiltonian_field(pf)
        leaf = set(pf.chart.leaf_indices)
        return VectorField(pf.chart, {i: -c if i in leaf else c
                                      for i, c in X.components()})

    monkeypatch.setattr(checks, "hamiltonian_field", flipped_leaf)
    results = checks.run_suite(R3, {"H": H_MAP, "K": K_MAP}, trials=3)
    duality = next(r for r in results if r.name == "duality[H]")
    assert duality.line().startswith("FAIL duality[H] residual=2*q1")


def test_checks_bracket_each_pair_once(monkeypatch):
    # {b,a} is read off {a,b}, and Jacobi reads the held inner brackets:
    # the named triple adds its three outer brackets, and a random trial
    # brackets {a,b}, {b,c}, {a,c} and the three outer ones
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return bracket(a, b)

    monkeypatch.setattr(checks, "bracket", counted)
    monkeypatch.setattr(hamiltonian, "bracket", counted)
    results = checks.run_suite(R3, {"H": H_MAP, "K": K_MAP, "L": L_MAP},
                               trials=4)
    assert all(r.passed for r in results)
    assert len(calls) == 3 + 3 + 4 * 6
    # calls holds every form, so no two of them share an id
    assert len({(id(a), id(b)) for a, b in calls}) == len(calls)


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (1, 2), (2, 2), (1, 3)])
@pytest.mark.parametrize("scale", ["one", "basic"])
def test_jacobi_on_held_brackets_matches_jacobi_check(monkeypatch, n, k, scale):
    # s{H,K} with a basic s is bilinear and antisymmetric but, once n >= 2,
    # breaks Jacobi, so the compared residual texts are not all zero; with
    # one leaf each component is a bracket in two variables, which always
    # satisfies Jacobi
    chart = Chart(n, k)
    s = Polynomial.constant(chart.dim, 1)
    if scale == "basic":
        s = s + Polynomial.variable(chart.dim, chart.leaf_index(1))

    def scaled(a, b):
        return s * bracket(a, b)

    monkeypatch.setattr(checks, "bracket", scaled)
    monkeypatch.setattr(hamiltonian, "bracket", scaled)
    rng = random.Random(f"held-jacobi:{n}:{k}")
    texts = set()
    for _ in range(3):
        a, b, c = (random_polarized(rng, chart, 1) for _ in range(3))
        ab, bc, ac = (decompose_polarized(scaled(x, y))
                      for x, y in ((a, b), (b, c), (a, c)))
        held = checks.jacobi_result("t", a, b, c, ab, bc, ac)
        report = jacobi_check(a, b, c)
        assert (held.passed, held.residual) == (report.passed, report.residual_text)
        texts.add(held.residual)
    zero = RkMap(chart, [chart.zero()] * k).to_string()
    assert (texts != {zero}) == (scale == "basic" and n > 1)


def test_a_triple_with_a_pair_that_does_not_close_prints_no_jacobi(monkeypatch):
    x = R3.coordinate("x")
    monkeypatch.setattr(checks, "bracket",
                        lambda a, b: RkMap(a.chart, [x * x, x * x]))
    names = [r.name for r in checks.run_suite(
        R3, {"H": H_MAP, "K": K_MAP, "L": L_MAP}, trials=2)]
    assert "closure[H,K]" in names
    assert not any(name.startswith(("jacobi[", "morphism[")) for name in names)


def test_a_bracket_that_does_not_close_is_a_failed_check(monkeypatch):
    x = R3.coordinate("x")
    monkeypatch.setattr(checks, "bracket",
                        lambda a, b: RkMap(a.chart, [x * x, x * x]))
    results = {r.name: r for r in
               checks.run_suite(R3, {"H": H_MAP, "K": K_MAP}, trials=2)}
    closure = results["closure[H,K]"]
    assert not closure.passed
    assert closure.details.startswith("nonlinear-in-fiber")
    assert "morphism[H,K]" not in results  # no field of a map that is not polarized
    assert not results["random.closure"].passed
    assert results["random.closure"].details == "2 of 2 trials failed"


def test_random_checks_count_only_the_trials_they_ran(monkeypatch):
    # no bracket closes, so no trial reaches the checks after closure
    x = R3.coordinate("x")
    monkeypatch.setattr(checks, "bracket",
                        lambda a, b: RkMap(a.chart, [x * x, x * x]))
    lines = {r.name: r.line() for r in checks.run_suite(R3, {"H": H_MAP}, trials=2)}
    assert lines["random.routes"].endswith("(2 of 2 trials failed)")
    assert lines["random.closure"].endswith("(2 of 2 trials failed)")
    for name in ("random.morphism", "random.jacobi", "random.basic-module"):
        assert lines[name] == f"PASS {name} residual=0 (trials=0)"


def test_field_and_bracket_read_the_held_differential(monkeypatch):
    rng = random.Random(3)
    a, b = (random_polarized(rng, Chart(2, 3)) for _ in range(2))
    assert a.differential() == differential(a.to_map())
    assert a.differential() is a.differential()
    b.differential()
    calls = []
    partial = Polynomial.partial
    monkeypatch.setattr(Polynomial, "partial",
                        lambda self, var: calls.append(var) or partial(self, var))
    hamiltonian_field(a)
    bracket(a, b)
    assert calls == []


def test_run_suite_differentiates_each_form_once(monkeypatch):
    # every module that holds geometry.differential counts through it; the
    # differentiated maps stay referenced, so their ids stay distinct
    original, seen = geometry.differential, []

    def counted(H):
        seen.append(H)
        return original(H)

    for module in (geometry, hamiltonian, checks):
        if getattr(module, "differential", None) is original:
            monkeypatch.setattr(module, "differential", counted)
    results = checks.run_suite(R3, {"H": H_MAP, "K": K_MAP, "L": L_MAP},
                               space=NambuSpaceRk1(2), trials=3)
    assert all(r.passed for r in results)
    assert seen
    assert len({id(H) for H in seen}) == len(seen)


# -- brackets -------------------------------------------------------------------


def test_bracket_worked_example():
    value = bracket(decompose_polarized(H_MAP), decompose_polarized(K_MAP))
    assert value == K_MAP


def test_bracket_antisymmetry_on_self():
    pf = decompose_polarized(H_MAP)
    assert bracket(pf, pf).is_zero


def test_bracket_of_generator_pairs():
    for chart in (Chart(1, 2), Chart(2, 3)):
        for p in range(1, chart.k + 1):
            for j in range(1, chart.n + 1):
                value = bracket(decompose_polarized(generator_map(chart, j)),
                                decompose_polarized(momentum_map(chart, p, j)))
                expected = RkMap(chart, [chart.constant(1 if q == p else 0)
                                         for q in range(1, chart.k + 1)])
                assert value == expected


def test_bracket_chart_mismatch():
    a = decompose_polarized(H_MAP)
    other = decompose_polarized(RkMap(Chart(1, 2), [Polynomial.zero(3)] * 2))
    with pytest.raises(ValueError):
        bracket(a, other)


def test_three_route_agreement():
    rng = random.Random(11)
    for chart in (Chart(1, 1), Chart(1, 2), Chart(2, 2), Chart(2, 3)):
        tensor = canonical_poisson_tensor(chart)
        for _ in range(25):
            a = random_polarized(rng, chart)
            b = random_polarized(rng, chart)
            coord = bracket(a, b)
            assert coord == bracket_via_theta(a, b)
            assert coord == tensor.apply(differential(a.to_map()),
                                         differential(b.to_map()))


def test_closure_and_module_structure():
    rng = random.Random(13)
    for chart in (Chart(1, 2), Chart(2, 2)):
        for _ in range(25):
            a = random_polarized(rng, chart)
            b = random_polarized(rng, chart)
            decompose_polarized(bracket(a, b))  # closure: must not raise
            scaled = random_basic(rng, chart) * a.to_map()
            decompose_polarized(scaled)  # basic scaling stays polarized


# -- Poisson tensor ---------------------------------------------------------------


def test_canonical_tensor_k1_matches_classical_bracket():
    chart = Chart(2, 1)
    tensor = canonical_poisson_tensor(chart)
    rng = random.Random(17)
    for _ in range(25):
        H = random_polynomial(rng, chart)
        K = random_polynomial(rng, chart)
        dH = OneFormRk(chart, [[H.partial(j) for j in range(chart.dim)]])
        dK = OneFormRk(chart, [[K.partial(j) for j in range(chart.dim)]])
        assert tensor.apply(dH, dK).comps[0] == classical_bracket(H, K, chart)


def test_tensor_on_basis_forms():
    chart = Chart(2, 2)
    tensor = canonical_poisson_tensor(chart)
    for p in range(chart.k):
        for i in range(1, chart.n + 1):
            alpha = OneFormRk.basis(chart, p, chart.leaf_index(i))
            beta = OneFormRk.basis(chart, p, chart.fiber_index(p + 1, i))
            value = tensor.apply(alpha, beta)
            assert value.comps[p] == chart.constant(1)
            assert all(value.comps[q].is_zero for q in range(chart.k) if q != p)
            assert tensor.apply(alpha, alpha).is_zero


def test_tensor_antisymmetric_for_any_coefficients():
    chart = Chart(1, 2)
    rng = random.Random(19)
    tensor = canonical_poisson_tensor(chart).with_entries(
        {(0, 1, 0, 1, 1): parse_polynomial("q1", chart),
         (2, 0, 1, 0, 0): 3})
    for _ in range(10):
        alpha = differential(random_polarized(rng, chart).to_map())
        beta = differential(random_polarized(rng, chart).to_map())
        assert tensor.apply(alpha, beta) == -tensor.apply(beta, alpha)


def test_wedge_keys_canonicalized():
    chart = Chart(1, 2)
    from polaris.hamiltonian import GeneralPoissonTensor
    a = GeneralPoissonTensor(chart, {(0, 2, 0, 1, 0): 1})
    b = GeneralPoissonTensor(chart, {(2, 0, 1, 0, 0): -1})
    assert a == b
    # the wedge of a slot with itself stores nothing
    assert not GeneralPoissonTensor(chart, {(1, 1, 0, 0, 0): 5}).entries()


# -- Lie algebra ---------------------------------------------------------------


def test_lie_bracket_examples():
    d_dx = VectorField.coordinate(R3, R3.variable_index("x"))
    d_dy = VectorField.coordinate(R3, R3.variable_index("y"))
    assert lie_bracket(d_dx, d_dy).is_zero

    iz = R3.variable_index("z")
    z_ddz = VectorField(R3, {iz: R3.coordinate("q1")})
    d_dz = VectorField.coordinate(R3, iz)
    assert lie_bracket(z_ddz, d_dz) == -d_dz


def test_field_map_reverses_bracket_order():
    # [X_H, X_K] = X_{K,H}; the worked pair pins the orientation
    pf_h = decompose_polarized(H_MAP)
    pf_k = decompose_polarized(K_MAP)
    lhs = lie_bracket(hamiltonian_field(pf_h), hamiltonian_field(pf_k))
    assert lhs == hamiltonian_field(decompose_polarized(bracket(pf_k, pf_h)))
    forward = hamiltonian_field(decompose_polarized(bracket(pf_h, pf_k)))
    assert lhs == -forward
    assert not lhs.is_zero


def test_reversed_bracket_is_the_negated_bracket():
    # checks.py reads {b,a} and X_{b,a} off {a,b}, which needs both
    # identities to hold exactly, term for term
    rng = random.Random(31)
    for chart in (Chart(1, 1), Chart(2, 2), Chart(1, 3)):
        for _ in range(20):
            a = random_polarized(rng, chart)
            b = random_polarized(rng, chart)
            ab = bracket(a, b)
            assert bracket(b, a) == -ab
            assert (hamiltonian_field(decompose_polarized(-ab))
                    == -hamiltonian_field(decompose_polarized(ab)))


def test_field_map_morphism_randomized():
    rng = random.Random(23)
    for chart in (Chart(1, 2), Chart(2, 2), Chart(1, 3)):
        for _ in range(20):
            a = random_polarized(rng, chart)
            b = random_polarized(rng, chart)
            lhs = lie_bracket(hamiltonian_field(a), hamiltonian_field(b))
            rhs = hamiltonian_field(decompose_polarized(bracket(b, a)))
            assert lhs == rhs


# -- pairing and tensor compatibility ----------------------------------------


def test_pairing_recovers_bracket():
    rng = random.Random(29)
    for chart in (Chart(1, 2), Chart(2, 2)):
        for _ in range(20):
            a = random_polarized(rng, chart)
            b = random_polarized(rng, chart)
            lhs = xi_pairing(differential(b.to_map()), hamiltonian_field(a))
            assert lhs == bracket(b, a)


def test_xi_tensor_identity_on_aligned_basis_forms():
    rng = random.Random(31)
    for chart in (Chart(1, 1), Chart(1, 2), Chart(2, 2)):
        tensor = canonical_poisson_tensor(chart)
        for _ in range(15):
            pf = random_polarized(rng, chart)
            X = hamiltonian_field(pf)
            dH = differential(pf.to_map())
            for p in range(chart.k):
                aligned = list(chart.leaf_indices) + list(chart.fiber_block(p + 1))
                for j in aligned:
                    beta = OneFormRk.basis(chart, p, j)
                    assert xi_pairing(beta, X) == -tensor.apply(dH, beta)


def test_xi_tensor_identity_breaks_on_mixed_fiber_forms():
    # dx^{qj} paired into slot p != q lies outside the tensor's block
    # pairing; the unrestricted identity genuinely fails there
    pf = decompose_polarized(H_MAP)
    X = hamiltonian_field(pf)
    dH = differential(H_MAP)
    tensor = canonical_poisson_tensor(R3)
    beta = OneFormRk.basis(R3, 0, R3.variable_index("y"))  # fiber block 2, slot 1
    lhs = xi_pairing(beta, X)
    assert lhs.comps[0] == -R3.coordinate("y")
    assert tensor.apply(dH, beta).is_zero
    assert lhs != -tensor.apply(dH, beta)


# -- classical k = 1 machinery -------------------------------------------------


def test_classical_bracket_examples():
    chart = Chart(1, 1)
    x = chart.coordinate("x1_1")
    y = chart.coordinate("q1")
    assert classical_bracket(y, x, chart) == chart.constant(1)
    H = random_polynomial(random.Random(1), chart)
    assert classical_bracket(H, H, chart).is_zero


def test_classical_bracket_leibniz_randomized():
    rng = random.Random(37)
    for n in (1, 2, 3):
        chart = Chart(n, 1)
        for _ in range(30):
            H = random_polynomial(rng, chart)
            K = random_polynomial(rng, chart)
            L = random_polynomial(rng, chart)
            lhs = classical_bracket(H, K * L, chart)
            rhs = classical_bracket(H, K, chart) * L + K * classical_bracket(H, L, chart)
            assert lhs == rhs


def test_classical_ops_require_k1():
    with pytest.raises(ValueError):
        classical_bracket(R3.zero(), R3.zero(), R3)
    with pytest.raises(ValueError):
        zeta(VectorField.zero(R3))


def test_zeta_sends_fiber_axes_to_leaf_forms():
    chart = Chart(2, 1)
    for i in (1, 2):
        row = zeta(VectorField.coordinate(chart, chart.fiber_index(1, i)))
        for j in range(chart.dim):
            expected = 1 if j == chart.leaf_index(i) else 0
            assert row[j] == chart.constant(expected)


def test_zeta_inverse_roundtrip_on_basis_forms():
    chart = Chart(2, 1)
    structure = KSymplecticStructure.canonical(chart)
    for j in range(chart.dim):
        row = tuple(chart.constant(1 if i == j else 0)
                    for i in range(chart.dim))
        X = zeta_inverse(row, structure)
        assert zeta(X, structure) == row


def test_tensor_matches_theta_through_zeta_inverse():
    chart = Chart(2, 1)
    structure = KSymplecticStructure.canonical(chart)
    tensor = canonical_poisson_tensor(chart)
    theta = structure.theta(0)
    for a in range(chart.dim):
        for b in range(chart.dim):
            row_a = tuple(chart.constant(1 if i == a else 0)
                          for i in range(chart.dim))
            row_b = tuple(chart.constant(1 if i == b else 0)
                          for i in range(chart.dim))
            via_theta = -theta_pairing(theta, zeta_inverse(row_a, structure),
                                       zeta_inverse(row_b, structure))
            alpha = OneFormRk(chart, [row_a])
            beta = OneFormRk(chart, [row_b])
            assert tensor.apply(alpha, beta).comps[0] == via_theta


# -- Jacobi ---------------------------------------------------------------------


def test_jacobi_worked_triple():
    a = decompose_polarized(H_MAP)
    b = decompose_polarized(K_MAP)
    c = decompose_polarized(L_MAP)
    assert jacobi_check(a, b, c).passed
    assert jacobi_check(a, a, b).passed


def test_jacobi_randomized():
    rng = random.Random(41)
    for chart in (Chart(1, 2), Chart(2, 2), Chart(2, 3)):
        for _ in range(100):
            triple = [random_polarized(rng, chart) for _ in range(3)]
            report = jacobi_check(*triple)
            assert report.passed, report.residual_text


def test_classical_jacobi_randomized():
    rng = random.Random(43)
    chart = Chart(2, 1)
    for _ in range(100):
        triple = [random_polynomial(rng, chart) for _ in range(3)]
        assert jacobi_check(*triple, chart=chart).passed
