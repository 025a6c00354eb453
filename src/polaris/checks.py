"""Named verification checks over charts, maps and Nambu spaces.

Every check returns a CheckResult carrying a stable name, a pass flag
and the residual in canonical string form, so reports are reproducible
byte for byte.  `run_suite` assembles the applicable checks for one
problem: structure first, then the named maps (sorted), their pairs and
triples, a seeded random corpus, the classical single-form suite when
k = 1, and the Nambu relations when the problem lives on one of the two
Nambu model spaces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .geometry import (
    Chart,
    KSymplecticStructure,
    OneFormRk,
    RkMap,
    VectorField,
    check_ksymplectic,
    interior_product,
    xi_pairing,
)
from .hamiltonian import (
    GeneralPoissonTensor,
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
)
from .nambu import (
    NambuSpaceR3n,
    NambuSpaceRk1,
    nambu_field_r3n,
    nambu_field_rk1,
    verify_relation_r3n,
    verify_relation_rk1,
)
from .poly import MAX_EXPONENT
from .sampling import (DEFAULT_SEED, DEFAULT_TRIALS, random_basic,
                       random_polarized, random_polynomial)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: str = "0"
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = f"{status} {self.name} residual={self.residual}"
        if self.details:
            out += f" ({self.details})"
        return out


# -- structure ---------------------------------------------------------------


def structure_checks(structure: KSymplecticStructure) -> list[CheckResult]:
    report = check_ksymplectic(structure)
    chart = structure.chart
    joint_ok = not report.joint_kernel
    vertical_ok = not report.vertical_violations
    return [
        CheckResult("structure.joint-characteristic-trivial", joint_ok,
                    "0" if joint_ok
                    else f"kernel dimension {len(report.joint_kernel)}"),
        CheckResult("structure.vertical-isotropy", vertical_ok,
                    "0" if vertical_ok else report.summary(chart)),
    ]


# -- per-map identities -------------------------------------------------------


def duality_check(name: str, rows, dH: OneFormRk) -> CheckResult:
    """i(X_H)theta^p = -dH^p, given the rows i(X_H)theta^p and dH."""
    chart = dH.chart
    for p, row in enumerate(rows):
        for j in range(chart.dim):
            delta = row[j] + dH.entry(p, j)
            if not delta.is_zero:
                return CheckResult(f"duality[{name}]", False,
                                   delta.to_string(chart.var_names),
                                   f"component {p + 1}, dx^{chart.var_name(j)}")
    return CheckResult(f"duality[{name}]", True)


def closed_pfaff_check(name: str, rows, chart: Chart) -> CheckResult:
    """Each 1-form i(X_H)theta^p is closed, given those rows."""
    # d(row) is antisymmetric with a zero diagonal, so its upper triangle
    # decides the check, and its first nonzero entry in row-major order
    # lies there: a nonzero (i, j) below the diagonal has a nonzero mirror
    # (j, i) in the earlier row j
    for p, row in enumerate(rows):
        entries = (row[j].partial(i) - row[i].partial(j)
                   for i in range(chart.dim) for j in range(i + 1, chart.dim))
        witness = next((poly for poly in entries if not poly.is_zero), None)
        if witness is not None:
            return CheckResult(f"closed-pfaff[{name}]", False,
                               witness.to_string(chart.var_names),
                               f"form {p + 1}")
    return CheckResult(f"closed-pfaff[{name}]", True)


def first_integral_check(name: str, X: VectorField, dH: OneFormRk) -> CheckResult:
    """<dH^p, X_H> = 0 for every p."""
    paired = xi_pairing(dH, X)
    return CheckResult(f"first-integral[{name}]", paired.is_zero, paired.to_string())


def aligned_basis_forms(chart: Chart):
    """Basis forms on which the pairing-tensor identity is exact.

    These are every leaf form dx^j tensor e_p and the fiber forms whose
    coordinate block matches their slot.  Mixed-block fiber forms fall
    outside the block pairing of the canonical tensor and genuinely
    break the unrestricted identity once k >= 2 (at k = 1 this set is
    all k*N basis forms).
    """
    for p in range(chart.k):
        for j in chart.leaf_indices:
            yield p, j
        for j in chart.fiber_block(p + 1):
            yield p, j


def xi_poisson_check(name: str, X: VectorField, dH: OneFormRk,
                     tensor: GeneralPoissonTensor) -> CheckResult:
    """Xi(X_H) agrees with -P(dH, .) on the aligned basis forms."""
    chart = X.chart
    for p, j in aligned_basis_forms(chart):
        beta = OneFormRk.basis(chart, p, j)
        delta = xi_pairing(beta, X) + tensor.apply(dH, beta)
        if not delta.is_zero:
            return CheckResult(
                f"xi-poisson[{name}]", False, delta.to_string(),
                f"basis form dx^{chart.var_name(j)} in slot {p + 1}")
    return CheckResult(f"xi-poisson[{name}]", True)


def map_checks(name: str, H: RkMap, tensor: GeneralPoissonTensor,
               structure: KSymplecticStructure) -> tuple[list[CheckResult],
                                                         PolarizedForm | None]:
    """The per-map identities; X_H, dH and each i(X_H)theta^p built once."""
    try:
        pf = decompose_polarized(H)
    except NotPolarized as exc:
        return [CheckResult(f"polarized[{name}]", False, "-", str(exc))], None
    chart = H.chart
    X = hamiltonian_field(pf)
    dH = pf.differential()
    rows = [interior_product(X, structure.theta(p)) for p in range(chart.k)]
    results = [
        CheckResult(f"polarized[{name}]", True, "0",
                    "f=(" + ", ".join(p.to_string(chart.var_names)
                                      for p in pf.f) + ")"),
        duality_check(name, rows, dH),
        closed_pfaff_check(name, rows, chart),
        first_integral_check(name, X, dH),
        xi_poisson_check(name, X, dH, tensor),
    ]
    return results, pf


# -- pair and triple identities ----------------------------------------------


def routes_check(label: str, a: PolarizedForm, b: PolarizedForm, ab: RkMap,
                 tensor: GeneralPoissonTensor) -> CheckResult:
    """Coordinate bracket ab = {a,b} vs 2-form contraction vs Poisson tensor."""
    routes = (("2-form", bracket_via_theta(a, b)),
              ("tensor", tensor.apply(a.differential(), b.differential())))
    for route, value in routes:
        delta = ab - value
        if not delta.is_zero:
            return CheckResult(f"routes[{label}]", False, delta.to_string(),
                               f"{route} route disagrees")
    return CheckResult(f"routes[{label}]", True)


def closure_check(label: str, ab: RkMap) -> tuple[CheckResult, PolarizedForm | None]:
    """The bracket ab = {a,b} is polarized again; returns its decomposition."""
    try:
        ab_form = decompose_polarized(ab)
    except NotPolarized as exc:
        return CheckResult(f"closure[{label}]", False, ab.to_string(),
                           str(exc)), None
    return CheckResult(f"closure[{label}]", True), ab_form


def morphism_check(label: str, a: PolarizedForm, b: PolarizedForm,
                   ab_form: PolarizedForm) -> CheckResult:
    """[X_H, X_K] = X_{K,H} under the fixed sign conventions, checked as
    [X_H, X_K] + X_{H,K} = 0; ab_form is {a,b} decomposed."""
    delta = (lie_bracket(hamiltonian_field(a), hamiltonian_field(b))
             + hamiltonian_field(ab_form))
    return CheckResult(f"morphism[{label}]", delta.is_zero, delta.to_string())


def pairing_bracket_check(label: str, a: PolarizedForm, b: PolarizedForm,
                          ab: RkMap) -> CheckResult:
    """<dK, X_H> = {K,H}, checked as <dK, X_H> + {H,K} = 0; ab = {a,b}."""
    delta = xi_pairing(b.differential(), hamiltonian_field(a)) + ab
    return CheckResult(f"pairing-bracket[{label}]", delta.is_zero, delta.to_string())


def pair_checks(label: str, a: PolarizedForm, b: PolarizedForm,
                tensor: GeneralPoissonTensor) -> tuple[list[CheckResult], RkMap,
                                                       PolarizedForm | None]:
    """Routes, closure and, when {a,b} closes, the morphism identity; returns
    them, {a,b} and its decomposition or None.  {K,H} = -{H,K} term by term
    and X_{-P} = -X_P, so the morphism, pairing and Jacobi checks read {b,a} off it."""
    ab = bracket(a, b)
    results = [routes_check(label, a, b, ab, tensor)]
    closure, ab_form = closure_check(label, ab)
    results.append(closure)
    if ab_form is not None:
        results.append(morphism_check(label, a, b, ab_form))
    return results, ab, ab_form


def jacobi_result(label: str, a: PolarizedForm, b: PolarizedForm,
                  c: PolarizedForm, ab: PolarizedForm, bc: PolarizedForm,
                  ac: PolarizedForm) -> CheckResult:
    """{ab,c} + {bc,a} + {ca,b} on the held ab = {a,b}, bc = {b,c}, ac = {a,c};
    {ca,b} = -{ac,b} term by term, so the text is `jacobi_check(a, b, c)`'s."""
    residual = bracket(ab, c) + bracket(bc, a) - bracket(ac, b)
    return CheckResult(f"jacobi[{label}]", residual.is_zero, residual.to_string())


# -- seeded trials -------------------------------------------------------------


def _trials(seed: int, trials: int, names, trial) -> list[CheckResult]:
    """One result per name over `trials` runs of `trial(rng)` on one seeded
    RNG; each run yields (name, passed, residual) for every check it runs,
    and a result counts the trials in which its check ran."""
    rng = random.Random(seed)
    ran = dict.fromkeys(names, 0)
    failures: dict[str, list[str]] = {name: [] for name in names}
    for _ in range(trials):
        for name, passed, residual in trial(rng):
            ran[name] += 1
            if not passed:
                failures[name].append(residual)
    return [CheckResult(name, False, texts[0],
                        f"{len(texts)} of {ran[name]} trials failed") if texts
            else CheckResult(name, True, "0", f"trials={ran[name]}")
            for name, texts in failures.items()]


def random_corpus_checks(chart: Chart, tensor: GeneralPoissonTensor,
                         seed: int, trials: int) -> list[CheckResult]:
    """The pair and triple checks over seeded random polarized maps.

    A trial whose bracket is not polarized stops after the closure check,
    before `random_basic` draws, so the RNG stream depends only on which
    trials close.  Jacobi runs when {b,c} and {a,c} close as well.
    """
    def trial(rng):
        a, b, c = (random_polarized(rng, chart) for _ in range(3))
        (routes, closure, *morphism), _, ab = pair_checks("random", a, b, tensor)
        yield "random.routes", routes.passed, routes.residual
        # a failed closure reports the NotPolarized message
        yield "random.closure", closure.passed, closure.details
        if not closure.passed:
            return
        yield "random.morphism", morphism[0].passed, morphism[0].residual
        _, bc = closure_check("random", bracket(b, c))
        _, ac = closure_check("random", bracket(a, c))
        if bc is not None and ac is not None:
            jacobi = jacobi_result("random", a, b, c, ab, bc, ac)
            yield "random.jacobi", jacobi.passed, jacobi.residual
        module, _ = closure_check("random", random_basic(rng, chart) * a.to_map())
        yield "random.basic-module", module.passed, module.details

    return _trials(seed, trials, [f"random.{key}" for key in (
        "routes", "closure", "morphism", "jacobi", "basic-module")], trial)


def classical_checks(chart: Chart, seed: int, trials: int) -> list[CheckResult]:
    """Antisymmetry, Leibniz and Jacobi for arbitrary functions at k = 1."""
    names = chart.var_names

    def trial(rng):
        H, K, L = (random_polynomial(rng, chart) for _ in range(3))
        delta = classical_bracket(H, K, chart) + classical_bracket(K, H, chart)
        yield "classical.antisymmetry", delta.is_zero, delta.to_string(names)
        delta = (classical_bracket(H, K * L, chart)
                 - classical_bracket(H, K, chart) * L
                 - K * classical_bracket(H, L, chart))
        yield "classical.leibniz", delta.is_zero, delta.to_string(names)
        report = jacobi_check(H, K, L, chart)
        yield "classical.jacobi", report.passed, report.residual_text

    return _trials(seed, trials, ["classical.antisymmetry", "classical.leibniz",
                                  "classical.jacobi"], trial)


# -- Nambu relations ------------------------------------------------------------


def _first_nonzero(name: str, chart: Chart, polys) -> CheckResult:
    """Passes when every poly is zero; else reports the first nonzero one."""
    witness = next((poly for poly in polys if not poly.is_zero), None)
    return CheckResult(name, witness is None, "0" if witness is None
                       else witness.to_string(chart.var_names))


def _relation_checks(kind: str, rate: str, verify,
                     space: NambuSpaceRk1 | NambuSpaceR3n,
                     polarized: Mapping[str, PolarizedForm]) -> list[CheckResult]:
    """`verify(pf, space)` on each named form, and the rate of the Nambu
    field along each q_i, which is (-1)^k f_i^k."""
    out = []
    chart = space.chart
    k = chart.k
    for name, pf in polarized.items():
        report = verify(pf, space)
        out.append(CheckResult(f"nambu.relation-{kind}[{name}]", report.passed,
                               report.residual_text()))
        out.append(_first_nonzero(f"nambu.{rate}[{name}]", chart, (
            report.lhs.component(chart.leaf_index(i)) - (-f ** k if k % 2 else f ** k)
            for i, f in enumerate(pf.f, start=1))))
    return out


def _random_relation(name: str, verify, space: NambuSpaceRk1 | NambuSpaceR3n,
                     seed: int, trials: int) -> CheckResult:
    """`verify(pf, space)` over seeded random polarized maps on the space."""
    # the q_i-rate is +-f_i^k, so f of degree above MAX_EXPONENT // k would
    # break the exponent cap; for k > MAX_EXPONENT that leaves constant maps
    # and the check passes trivially
    degree = min(2, MAX_EXPONENT // space.chart.k)

    def trial(rng):
        report = verify(random_polarized(rng, space.chart, degree), space)
        yield name, report.passed, None if report.passed else report.residual_text()

    return _trials(seed, trials, [name], trial)[0]


def nambu_rk1_checks(space: NambuSpaceRk1,
                     polarized: Mapping[str, PolarizedForm],
                     seed: int, trials: int) -> list[CheckResult]:
    out = _relation_checks("rk1", "z-component", verify_relation_rk1,
                           space, polarized)
    out.append(_random_relation("nambu.random-relation-rk1", verify_relation_rk1,
                                space, seed, trials))
    return out


def nambu_r3n_checks(space: NambuSpaceR3n, named: Mapping[str, RkMap],
                     polarized: Mapping[str, PolarizedForm],
                     seed: int, trials: int) -> list[CheckResult]:
    # the ternary bracket {f, H1, H2} is f differentiated along this field
    fields = {name: nambu_field_r3n(H[0], H[1], space)
              for name, H in named.items()}
    out = [_first_nonzero(f"nambu.first-integrals[{name}]", space.chart,
                          map(fields[name].apply_to, H.comps))
           for name, H in named.items()]
    out.extend(_relation_checks("r3n", "z-rate", verify_relation_r3n,
                                space, polarized))
    if space.n == 1:
        # one routine makes both fields, so this checks the block layout only
        twin = NambuSpaceRk1(2)
        failures = [name for name, H in named.items()
                    if fields[name].components()
                    != nambu_field_rk1(RkMap(twin.chart, H.comps), twin).components()]
        out.append(CheckResult("nambu.rk1-r3n-consistency", not failures,
                               "0" if not failures else failures[0],
                               f"maps={len(named)}"))
    out.append(_random_relation("nambu.random-relation-r3n", verify_relation_r3n,
                                space, seed, trials))
    return out


# -- suite ---------------------------------------------------------------------


def run_suite(chart: Chart, named_maps: Mapping[str, RkMap], *,
              tensor: GeneralPoissonTensor | None = None,
              space: NambuSpaceRk1 | NambuSpaceR3n | None = None,
              seed: int = DEFAULT_SEED,
              trials: int = DEFAULT_TRIALS) -> list[CheckResult]:
    """The full invariant suite for one problem, in deterministic order."""
    if tensor is None:
        tensor = canonical_poisson_tensor(chart)
    structure = KSymplecticStructure.canonical(chart)
    results = structure_checks(structure)
    polarized: dict[str, PolarizedForm] = {}  # in name order
    for name in sorted(named_maps):
        map_results, pf = map_checks(name, named_maps[name], tensor, structure)
        results.extend(map_results)
        if pf is not None:
            polarized[name] = pf
    closed: dict[tuple[str, str], PolarizedForm | None] = {}
    for a, b in combinations(polarized, 2):
        label = f"{a},{b}"
        pa, pb = polarized[a], polarized[b]
        pair, ab, closed[a, b] = pair_checks(label, pa, pb, tensor)
        results.extend(pair)
        results.append(pairing_bracket_check(label, pa, pb, ab))
    for a, b, c in combinations(polarized, 3):
        # like morphism[*], Jacobi needs brackets that are polarized again
        held = closed[a, b], closed[b, c], closed[a, c]
        if all(form is not None for form in held):
            results.append(jacobi_result(f"{a},{b},{c}", polarized[a],
                                         polarized[b], polarized[c], *held))
    if named_maps:
        results.extend(random_corpus_checks(chart, tensor, seed, trials))
        if chart.k == 1:
            results.extend(classical_checks(chart, seed, trials))
    if isinstance(space, NambuSpaceRk1):
        results.extend(nambu_rk1_checks(space, polarized, seed, trials))
    elif isinstance(space, NambuSpaceR3n):
        results.extend(nambu_r3n_checks(space, named_maps, polarized,
                                        seed, trials))
    return results
