"""Acceptance suite: one pass/fail line per criterion.

Criteria 2, 3, 5 and 6 share one seeded random corpus of 100 polarized
maps (and partner maps) per chart shape (n, k) in {1,2,3} x {1,2,3};
the corpus facts are computed once and asserted per criterion.

The Nambu flow of the worked example from (1, 1, 1) has its pole at
t = 1 (the vertical coordinate solves dz/dt = z^2 from z(0) = 1), so
criterion 10b integrates it over [0, 1/2], where the flow exists.
"""

import json
import math
import random
import subprocess
import sys

import pytest

from polaris.dynamics import compare_flows, conservation_report, rk4_integrate
from polaris.geometry import (
    Chart,
    KSymplecticStructure,
    OneFormRk,
    RkMap,
    check_ksymplectic,
    differential,
    interior_product,
    xi_pairing,
)
from polaris.hamiltonian import (
    NotPolarized,
    bracket,
    bracket_via_theta,
    canonical_poisson_tensor,
    classical_bracket,
    decompose_polarized,
    hamiltonian_field,
    jacobi_check,
    lie_bracket,
)
from polaris.nambu import (
    NambuSpaceR3n,
    NambuSpaceRk1,
    nambu_field_r3n,
    nambu_field_rk1,
    verify_relation_r3n,
    verify_relation_rk1,
)
from polaris.parsing import parse_polynomial
from polaris.sampling import random_basic, random_polarized, random_polynomial

from pfaff import exterior_derivative_one_form, grid_is_zero

SEED = 42
TRIALS = 100
GRID = [(n, k) for n in (1, 2, 3) for k in (1, 2, 3)]


def announce(number: str, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>3} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def corpus():
    """Per-chart corpus facts shared by criteria 2, 3, 5 and 6."""
    facts = {}
    for n, k in GRID:
        chart = Chart(n, k)
        structure = KSymplecticStructure.canonical(chart)
        tensor = canonical_poisson_tensor(chart)
        rng = random.Random(SEED)
        chart_facts = {
            "duality": True, "closed": True, "routes": True,
            "closure": True, "module": True, "xi": True,
        }
        for _ in range(TRIALS):
            a = random_polarized(rng, chart)
            b = random_polarized(rng, chart)
            basic = random_basic(rng, chart)
            Xa = hamiltonian_field(a)
            da = differential(a.to_map())
            for p in range(chart.k):
                row = interior_product(Xa, structure.theta(p))
                if any(row[j] != -da.entry(p, j) for j in range(chart.dim)):
                    chart_facts["duality"] = False
                if not grid_is_zero(exterior_derivative_one_form(row)):
                    chart_facts["closed"] = False
            coord = bracket(a, b)
            if coord != bracket_via_theta(a, b):
                chart_facts["routes"] = False
            if coord != tensor.apply(da, differential(b.to_map())):
                chart_facts["routes"] = False
            try:
                decompose_polarized(coord)
            except NotPolarized:
                chart_facts["closure"] = False
            try:
                decompose_polarized(basic * a.to_map())
            except NotPolarized:
                chart_facts["module"] = False
            for p in range(chart.k):
                aligned = list(chart.leaf_indices) + list(chart.fiber_block(p + 1))
                for j in aligned:
                    beta = OneFormRk.basis(chart, p, j)
                    if xi_pairing(beta, Xa) != -tensor.apply(da, beta):
                        chart_facts["xi"] = False
        facts[(n, k)] = chart_facts
    return facts


def worked_example():
    space = NambuSpaceRk1(2)
    chart = space.chart
    H = RkMap(chart, [parse_polynomial("z*x", chart),
                      parse_polynomial("z*y", chart)])
    K = RkMap(chart, [parse_polynomial("x", chart),
                      parse_polynomial("y", chart)])
    return space, chart, H, K


def test_criterion_1_structure_check():
    ok = True
    for n, k in GRID:
        report = check_ksymplectic(
            KSymplecticStructure.canonical(Chart(n, k)))
        ok = ok and report.passed
    announce("1", "structure-check", ok)
    assert ok


def test_criterion_2_duality(corpus):
    ok = all(facts["duality"] and facts["closed"]
             for facts in corpus.values())
    announce("2", "duality-and-closedness", ok,
             f"{TRIALS} maps per chart, exact")
    assert ok


def test_criterion_3_three_route_agreement(corpus):
    ok = all(facts["routes"] for facts in corpus.values())
    _, chart, H, K = worked_example()
    value = bracket(decompose_polarized(H), decompose_polarized(K))
    ok = ok and value == K
    announce("3", "three-route-bracket", ok)
    assert ok


def test_criterion_4_lie_structure():
    # the bracket formula, the duality sign of the field map and the
    # standard vector-field bracket jointly force the orientation
    # [X_H, X_K] = X_{K,H} (= -X_{H,K}); asserted in that derived form
    rng = random.Random(SEED)
    ok = True
    count = 0
    while count < TRIALS:
        for n, k in GRID:
            chart = Chart(n, k)
            a = random_polarized(rng, chart)
            b = random_polarized(rng, chart)
            c = random_polarized(rng, chart)
            lhs = lie_bracket(hamiltonian_field(a), hamiltonian_field(b))
            reversed_rhs = hamiltonian_field(decompose_polarized(bracket(b, a)))
            forward_rhs = hamiltonian_field(decompose_polarized(bracket(a, b)))
            if lhs != reversed_rhs or lhs != -forward_rhs:
                ok = False
            if not jacobi_check(a, b, c).passed:
                ok = False
            count += 1
            if count >= TRIALS:
                break
    announce("4", "lie-structure", ok,
             f"{TRIALS} triples, morphism orientation X_{{K,H}}")
    assert ok


def test_criterion_5_closure_and_module(corpus):
    ok = all(facts["closure"] and facts["module"]
             for facts in corpus.values())
    announce("5", "closure-and-module", ok)
    assert ok


def test_criterion_6_xi_tensor_proposition(corpus):
    ok = all(facts["xi"] for facts in corpus.values())

    # consequence on differentials: <dK, X_H> = {K,H} on fresh pairs
    rng = random.Random(SEED + 6)
    for n, k in GRID:
        chart = Chart(n, k)
        for _ in range(10):
            a = random_polarized(rng, chart)
            b = random_polarized(rng, chart)
            lhs = xi_pairing(differential(b.to_map()), hamiltonian_field(a))
            if lhs != bracket(b, a):
                ok = False

    # the identity is restricted to block-aligned basis forms: a mixed
    # fiber form genuinely breaks the unrestricted statement (k >= 2)
    _, chart, H, K = worked_example()
    pf = decompose_polarized(H)
    beta = OneFormRk.basis(chart, 0, chart.variable_index("y"))
    tensor = canonical_poisson_tensor(chart)
    lhs = xi_pairing(beta, hamiltonian_field(pf))
    rhs = -tensor.apply(differential(H), beta)
    ok = ok and (lhs.comps[0] == -chart.coordinate("y")) and rhs.is_zero
    announce("6", "xi-tensor-proposition", ok,
             "aligned basis forms + differentials; mixed-form gap pinned")
    assert ok


def test_criterion_7_classical_suite():
    ok = True
    for n in (1, 2, 3):
        chart = Chart(n, 1)
        rng = random.Random(SEED)
        for _ in range(TRIALS):
            H = random_polynomial(rng, chart)
            K = random_polynomial(rng, chart)
            L = random_polynomial(rng, chart)
            if not (classical_bracket(H, K, chart)
                    + classical_bracket(K, H, chart)).is_zero:
                ok = False
            leibniz = (classical_bracket(H, K * L, chart)
                       - classical_bracket(H, K, chart) * L
                       - K * classical_bracket(H, L, chart))
            if not leibniz.is_zero:
                ok = False
            if not jacobi_check(H, K, L, chart=chart).passed:
                ok = False
    announce("7", "classical-k1-suite", ok, f"{TRIALS} triples per n")
    assert ok


@pytest.mark.parametrize("k", [2, 3, 4])
def test_criterion_8_nambu_relation_rk1(k):
    space = NambuSpaceRk1(k)
    rng = random.Random(SEED)
    ok = True
    for _ in range(50):
        pf = random_polarized(rng, space.chart)
        if not verify_relation_rk1(pf, space).passed:
            ok = False
        z_rate = nambu_field_rk1(pf.to_map(), space).component(
            space.coordinate_index(k + 1))
        expected = pf.f[0] ** k
        if k % 2:
            expected = -expected
        if z_rate != expected:
            ok = False
    announce("8", f"nambu-relation-rk1(k={k})", ok)
    assert ok


@pytest.mark.parametrize("n", [1, 2, 3])
def test_criterion_9_nambu_relation_r3n(n):
    space = NambuSpaceR3n(n)
    rng = random.Random(SEED)
    ok = True
    for _ in range(50):
        pf = random_polarized(rng, space.chart)
        if not verify_relation_r3n(pf, space).passed:
            ok = False
        H = pf.to_map()
        field = nambu_field_r3n(H[0], H[1], space)
        for i in range(1, n + 1):
            zi = space.triple_indices(i)[2]
            if field.component(zi) != pf.f[i - 1] * pf.f[i - 1]:
                ok = False
    announce("9", f"nambu-relation-r3n(n={n})", ok)
    assert ok


def test_criterion_10a_conservation_along_polarized_flow():
    _, chart, H, K = worked_example()
    X = hamiltonian_field(decompose_polarized(H))
    traj = rk4_integrate(X, (1.0, 1.0, 1.0), 0.0, 1.0, 1e-3)
    expected = (math.exp(-1.0), math.exp(-1.0), math.exp(1.0))
    final_err = max(abs(g - w) for g, w in zip(traj.final_state, expected))
    drift = conservation_report(H, traj).max_drift
    ok = drift <= 1e-9 and final_err <= 1e-9
    announce("10a", "conservation-polarized-flow", ok,
             f"drift={drift:.3e}")
    assert ok


def test_criterion_10b_conservation_along_nambu_flow():
    # X_nambu = z * X_H, so from (1, 1, 1) the Nambu orbit is the polarized
    # one on the clock s = -ln(1 - t): x = y = 1 - t, z = 1 / (1 - t).  It
    # exists only for t < 1; at t = 1/2 the exact state is (1/2, 1/2, 2).
    space, chart, H, K = worked_example()
    X = nambu_field_rk1(H, space)
    traj = rk4_integrate(X, (1.0, 1.0, 1.0), 0.0, 0.5, 1e-3)
    expected = (0.5, 0.5, 2.0)
    final_err = max(abs(g - w) for g, w in zip(traj.final_state, expected))
    drift = conservation_report(H, traj).max_drift
    ok = drift <= 1e-8 and final_err <= 1e-9
    announce("10b", "conservation-nambu-flow", ok,
             f"span [0, 0.5], drift={drift:.3e}, final error={final_err:.3e}")
    assert ok, (
        f"Nambu flow over [0, 0.5] from (1,1,1): drift {drift:.3e} "
        f"(bound 1e-8), final-state error {final_err:.3e} against the "
        f"exact (1/2, 1/2, 2) (bound 1e-9).")


def test_criterion_10c_halving_improves_error():
    _, chart, H, K = worked_example()
    X = hamiltonian_field(decompose_polarized(H))
    expected = (math.exp(-1.0), math.exp(-1.0), math.exp(1.0))
    errors = []
    for h in (4e-3, 2e-3, 1e-3):
        traj = rk4_integrate(X, (1.0, 1.0, 1.0), 0.0, 1.0, h)
        errors.append(max(abs(g - w)
                          for g, w in zip(traj.final_state, expected)))
    factors = [c / f for c, f in zip(errors, errors[1:])]
    ok = all(12.0 <= factor <= 20.0 for factor in factors)
    announce("10c", "order-check", ok,
             "factors " + ", ".join(f"{f:.2f}" for f in factors))
    assert ok


def test_criterion_10_scaled_flow_comparison():
    # the exact identity X_nambu = z * X_polarized, sampled in floats on
    # a span that stays below the pole
    space, chart, H, K = worked_example()
    Xn = nambu_field_rk1(H, space)
    Xh = hamiltonian_field(decompose_polarized(H))
    report = compare_flows(Xn, Xh, chart.coordinate("q1"),
                           (1.0, 1.0, 1.0), 0.0, 0.5, 1e-3)
    ok = report.max_relative_residual <= 1e-12
    announce("10d", "scaled-flow-residual", ok,
             f"relative residual {report.max_relative_residual:.3e}")
    assert ok


def test_criterion_11_cli_determinism(tmp_path):
    problem = {
        "space": "nambu_rk1",
        "k": 2,
        "hamiltonians": {"H": ["z*x", "z*y"], "K": ["x", "y"]},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    cmd = [sys.executable, "-m", "polaris", "verify", str(path),
           "--trials", "25", "--seed", str(SEED)]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    ok = (first.returncode == 0 and second.returncode == 0
          and first.stdout == second.stdout and first.stdout)

    fault = dict(problem)
    fault["poisson_perturbation"] = [
        {"i": "q1", "j": "x1_1", "p": 1, "q": 1, "r": 1, "coeff": "1"}]
    fault_path = tmp_path / "fault.json"
    fault_path.write_text(json.dumps(fault))
    cmd = [sys.executable, "-m", "polaris", "verify", str(fault_path),
           "--trials", "25", "--json"]
    result = subprocess.run(cmd, capture_output=True)
    ok = ok and result.returncode == 1
    report = json.loads(result.stdout)
    failed = [c for c in report["checks"] if not c["passed"]]
    ok = ok and failed and all(c["residual"] not in ("0", "(0, 0)")
                               for c in failed
                               if c["name"].startswith("routes"))
    announce("11", "cli-determinism-and-fault", ok)
    assert ok
