"""Polarized Hamiltonian maps, their vector fields and brackets.

A map H into R^k is polarized on a chart when every component has the
local form

    H^p = sum_j f_j x^{pj} + g^p

with one shared tuple of basic functions f_1..f_n and basic remainders
g^1..g^k.  These maps carry the whole structure implemented here: the
associated vector field X_H, a bracket computable three independent
ways (coordinate formula, 2-form contraction, Poisson tensor), and the
classical single-form machinery at k = 1.

Sign conventions, fixed once and used everywhere:

    {H,K} = +P(dH,dK) = -theta^p(X_H,X_K)        (componentwise)
    i(X_H)theta^p = -dH^p
    [X,Y]^j = sum_i (X^i dY^j/dx^i - Y^i dX^j/dx^i)

Under these conventions the field map reverses bracket order:
[X_H, X_K] = X_{K,H}.  Equivalently <dK, X_H> = {K,H}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .geometry import (
    Chart,
    KSymplecticStructure,
    OneFormRk,
    RkMap,
    VectorField,
    interior_product,
    is_basic,
)
from .linalg import RationalMatrix, invert
from .poly import Polynomial

REASON_NONLINEAR = "nonlinear-in-fiber"
REASON_CROSS_BLOCK = "cross-block-fiber-variable"
REASON_F_MISMATCH = "f-mismatch-across-components"
REASON_NON_BASIC = "non-basic-coefficient"


class NotPolarized(ValueError):
    """A map that fails the polarized local form, with the failing reason."""

    def __init__(self, reason: str, detail: str = ""):
        message = reason if not detail else f"{reason}: {detail}"
        super().__init__(message)
        self.reason = reason


class PolarizedForm:
    """The decomposition (f_1..f_n, g^1..g^k) of a polarized map."""

    __slots__ = ("chart", "f", "g", "_map")

    def __init__(self, chart: Chart, f: Iterable[Polynomial],
                 g: Iterable[Polynomial]):
        f = tuple(f)
        g = tuple(g)
        if len(f) != chart.n or len(g) != chart.k:
            raise ValueError(
                f"expected {chart.n} f entries and {chart.k} g entries")
        for j, poly in enumerate(f, start=1):
            if poly.dim != chart.dim:
                raise ValueError("f entry dimension does not match the chart")
            if not is_basic(poly, chart):
                raise NotPolarized(REASON_NON_BASIC, f"f_{j} involves fiber variables")
        for p, poly in enumerate(g, start=1):
            if poly.dim != chart.dim:
                raise ValueError("g entry dimension does not match the chart")
            if not is_basic(poly, chart):
                raise NotPolarized(REASON_NON_BASIC, f"g^{p} involves fiber variables")
        self.chart = chart
        self.f = f
        self.g = g
        comps = []
        for p in range(1, chart.k + 1):
            total = g[p - 1]
            for j in range(1, chart.n + 1):
                xpj = Polynomial.variable(chart.dim, chart.fiber_index(p, j))
                total = total + f[j - 1] * xpj
            comps.append(total)
        self._map = RkMap(chart, comps)

    def to_map(self) -> RkMap:
        """H^p = sum_j f_j x^{pj} + g^p, built once from (f, g)."""
        return self._map

    def __eq__(self, other):
        if not isinstance(other, PolarizedForm):
            return NotImplemented
        return (self.chart, self.f, self.g) == (other.chart, other.f, other.g)

    def __repr__(self):
        names = self.chart.var_names
        fs = ", ".join(p.to_string(names) for p in self.f)
        gs = ", ".join(p.to_string(names) for p in self.g)
        return f"<polarized f=({fs}) g=({gs})>"


def decompose_polarized(H: RkMap) -> PolarizedForm:
    """Extract (f, g) from a map, or explain why none exists.

    Requirements checked in order: each component is affine in the fiber
    variables, the degree-one fiber variable of component p lies in
    block p, and the coefficient of x^{pj} agrees across components.
    """
    chart = H.chart
    dim = chart.dim
    f_per_component: list[list[Polynomial]] = []
    g: list[Polynomial] = []
    for p in range(1, chart.k + 1):
        poly = H[p - 1]
        f_terms: list[dict] = [dict() for _ in range(chart.n)]
        g_terms: dict = {}
        for exps, coeff in poly.terms.items():
            fiber_degree = sum(exps[i] for i in chart.fiber_indices)
            if fiber_degree == 0:
                g_terms[exps] = coeff
                continue
            if fiber_degree > 1:
                raise NotPolarized(
                    REASON_NONLINEAR,
                    f"component {p} has a term of fiber degree {fiber_degree}")
            idx = next(i for i in chart.fiber_indices if exps[i])
            block = chart.fiber_block_of(idx)
            if block != p:
                raise NotPolarized(
                    REASON_CROSS_BLOCK,
                    f"component {p} involves {chart.var_name(idx)}")
            j = idx - chart.fiber_index(block, 1)  # 0-based within the block
            stripped = tuple(0 if i == idx else e for i, e in enumerate(exps))
            f_terms[j][stripped] = coeff
        f_per_component.append(
            [Polynomial(dim, terms) for terms in f_terms])
        g.append(Polynomial(dim, g_terms))
    shared = f_per_component[0]
    for p in range(1, chart.k):
        if f_per_component[p] != shared:
            raise NotPolarized(
                REASON_F_MISMATCH,
                f"components 1 and {p + 1} disagree on the fiber coefficients")
    return PolarizedForm(chart, shared, g)


def hamiltonian_field(pf: PolarizedForm) -> VectorField:
    """The field X_H solving i(X_H)theta^p = -dH^p on the canonical forms.

    Built from the closed expression

        X_H = -sum_{p,s} (dH^p/dx^s) d/dx^{ps} + sum_s f_s d/dx^s

    The defining equation itself is checked in one place, not here: the
    `duality[*]` check of `polaris.checks` (acceptance criterion 2)
    compares i(X_H)theta^p with -dH^p for every map it verifies.
    """
    chart = pf.chart
    H = pf.to_map()
    comps: dict[int, Polynomial] = {}
    for p in range(1, chart.k + 1):
        for s in range(1, chart.n + 1):
            dHp_ds = H[p - 1].partial(chart.leaf_index(s))
            if not dHp_ds.is_zero:
                comps[chart.fiber_index(p, s)] = -dHp_ds
    for s in range(1, chart.n + 1):
        fs = pf.f[s - 1]
        if not fs.is_zero:
            comps[chart.leaf_index(s)] = fs
    return VectorField(chart, comps)


def bracket(H: PolarizedForm, K: PolarizedForm) -> RkMap:
    """Coordinate bracket, componentwise over the leaf variables:

    {H,K}^p = sum_s (dH^p/dx^s dK^p/dx^{ps} - dH^p/dx^{ps} dK^p/dx^s)
    """
    if H.chart != K.chart:
        raise ValueError("chart mismatch")
    chart = H.chart
    Hm, Km = H.to_map(), K.to_map()
    comps = []
    for p in range(1, chart.k + 1):
        total = chart.zero()
        for s in range(1, chart.n + 1):
            leaf = chart.leaf_index(s)
            fib = chart.fiber_index(p, s)
            total = total + (Hm[p - 1].partial(leaf) * Km[p - 1].partial(fib)
                             - Hm[p - 1].partial(fib) * Km[p - 1].partial(leaf))
        comps.append(total)
    return RkMap(chart, comps)


def theta_pairing(theta: RationalMatrix, X: VectorField,
                  Y: VectorField) -> Polynomial:
    """theta(X, Y) = sum_{ij} theta[i,j] X^i Y^j with polynomial entries."""
    if X.chart != Y.chart:
        raise ValueError("chart mismatch")
    total = Polynomial.zero(X.chart.dim)
    for i, xi in X.components():
        for j, yj in Y.components():
            coeff = theta.entry(i, j)
            if coeff:
                total = total + xi * yj * coeff
    return total


def bracket_via_theta(H: PolarizedForm, K: PolarizedForm) -> RkMap:
    """The same bracket computed as -theta^p(X_H, X_K) per component."""
    if H.chart != K.chart:
        raise ValueError("chart mismatch")
    chart = H.chart
    structure = KSymplecticStructure.canonical(chart)
    X_H = hamiltonian_field(H)
    X_K = hamiltonian_field(K)
    return RkMap(chart, [-theta_pairing(structure.theta(p), X_H, X_K)
                         for p in range(chart.k)])


# -- Poisson tensors --------------------------------------------------------


class GeneralPoissonTensor:
    """Antisymmetric bilinear map on R^k-valued 1-forms.

    Stored as sparse wedge coefficients W[(i, j, p, q, r)], acting by

        P(a, b)^r = sum W[i,j,p,q,r] (a^p_i b^q_j - b^p_i a^q_j).

    Each stored wedge is antisymmetric under swapping its two slots, so
    the induced map satisfies P(a,b) = -P(b,a) whatever the coefficients;
    keys are canonicalized so ((i,p),(j,q)) pairs are stored once.
    """

    __slots__ = ("chart", "_entries")

    def __init__(self, chart: Chart,
                 entries: Mapping[tuple[int, int, int, int, int], Polynomial | int] = ()):
        acc: dict[tuple[int, int, int, int, int], Polynomial] = {}
        for (i, j, p, q, r), coeff in dict(entries).items():
            for idx in (i, j):
                if not 0 <= idx < chart.dim:
                    raise ValueError(f"variable index {idx} out of range")
            for comp in (p, q, r):
                if not 0 <= comp < chart.k:
                    raise ValueError(f"component index {comp} out of range")
            if not isinstance(coeff, Polynomial):
                coeff = Polynomial.constant(chart.dim, coeff)
            elif coeff.dim != chart.dim:
                raise ValueError("coefficient dimension does not match the chart")
            if (i, p) == (j, q):
                continue  # wedge of a slot with itself vanishes
            if (j, q, i, p) < (i, p, j, q):
                i, j, p, q = j, i, q, p
                coeff = -coeff
            key = (i, j, p, q, r)
            total = acc.get(key, chart.zero()) + coeff
            if total.is_zero:
                acc.pop(key, None)
            else:
                acc[key] = total
        self.chart = chart
        self._entries = acc

    def entries(self) -> tuple[tuple[tuple[int, int, int, int, int], Polynomial], ...]:
        return tuple((key, self._entries[key]) for key in sorted(self._entries))

    def with_entries(self, extra: Mapping[tuple[int, int, int, int, int],
                                          Polynomial | int]) -> "GeneralPoissonTensor":
        merged: dict = dict(self._entries)
        tweak = GeneralPoissonTensor(self.chart, extra)
        for key, coeff in tweak._entries.items():
            total = merged.get(key, self.chart.zero()) + coeff
            if total.is_zero:
                merged.pop(key, None)
            else:
                merged[key] = total
        return GeneralPoissonTensor(self.chart, merged)

    def apply(self, alpha: OneFormRk, beta: OneFormRk) -> RkMap:
        chart = self.chart
        if alpha.chart != chart or beta.chart != chart:
            raise ValueError("chart mismatch")
        comps = [chart.zero() for _ in range(chart.k)]
        for (i, j, p, q, r), coeff in self._entries.items():
            wedge = (alpha.entry(p, i) * beta.entry(q, j)
                     - beta.entry(p, i) * alpha.entry(q, j))
            if not wedge.is_zero:
                comps[r] = comps[r] + coeff * wedge
        return RkMap(chart, comps)

    def __eq__(self, other):
        if not isinstance(other, GeneralPoissonTensor):
            return NotImplemented
        return self.chart == other.chart and self._entries == other._entries


def canonical_poisson_tensor(chart: Chart) -> GeneralPoissonTensor:
    """The tensor pairing each leaf direction with its p-block fiber twin.

    Entries (i = leaf i, j = x^{pi}, p, p, p) with unit coefficient; its
    action on differentials reproduces the coordinate bracket.
    """
    entries = {}
    for p in range(1, chart.k + 1):
        for i in range(1, chart.n + 1):
            key = (chart.leaf_index(i), chart.fiber_index(p, i),
                   p - 1, p - 1, p - 1)
            entries[key] = 1
    return GeneralPoissonTensor(chart, entries)


# -- vector-field algebra ----------------------------------------------------


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """[X,Y]^j = sum_i (X^i dY^j/dx^i - Y^i dX^j/dx^i)."""
    if X.chart != Y.chart:
        raise ValueError("chart mismatch")
    chart = X.chart
    comps: dict[int, Polynomial] = {}
    touched = {j for j, _ in X.components()} | {j for j, _ in Y.components()}
    for j in sorted(touched):
        value = X.apply_to(Y.component(j)) - Y.apply_to(X.component(j))
        if not value.is_zero:
            comps[j] = value
    return VectorField(chart, comps)


# -- classical machinery at k = 1 -------------------------------------------


def _require_k1(chart: Chart):
    if chart.k != 1:
        raise ValueError("this operation is defined for k = 1 charts only")


def zeta(X: VectorField,
         structure: KSymplecticStructure | None = None) -> tuple[Polynomial, ...]:
    """The duality X -> i(X)theta for the single canonical form."""
    _require_k1(X.chart)
    if structure is None:
        structure = KSymplecticStructure.canonical(X.chart)
    return interior_product(X, structure.theta(0))


def zeta_inverse(omega: Sequence[Polynomial],
                 structure: KSymplecticStructure | None = None) -> VectorField:
    """Solve i(X)theta = omega exactly for the constant invertible form."""
    if not omega:
        raise ValueError("empty one-form")
    dim = omega[0].dim
    if structure is None:
        n2, rem = divmod(dim, 2)
        if rem:
            raise ValueError("one-form length is not even")
        structure = KSymplecticStructure.canonical(Chart(n2, 1))
    chart = structure.chart
    _require_k1(chart)
    if len(omega) != chart.dim:
        raise ValueError("one-form length does not match the chart")
    # i(X)theta reads sum_i X^i theta[i,j] = omega_j, i.e. theta^T X = omega
    inverse = invert(structure.theta(0).transpose())
    comps = {}
    for i in range(chart.dim):
        total = chart.zero()
        for j in range(chart.dim):
            coeff = inverse.entry(i, j)
            if coeff:
                total = total + omega[j] * coeff
        if not total.is_zero:
            comps[i] = total
    return VectorField(chart, comps)


def classical_bracket(H: Polynomial, K: Polynomial, chart: Chart) -> Polynomial:
    """Poisson bracket of arbitrary functions at k = 1:

    {H,K} = sum_i (dH/dq_i dK/dx1_i - dH/dx1_i dK/dq_i)
    """
    _require_k1(chart)
    if H.dim != chart.dim or K.dim != chart.dim:
        raise ValueError("polynomial dimension does not match the chart")
    total = chart.zero()
    for i in range(1, chart.n + 1):
        leaf = chart.leaf_index(i)
        fib = chart.fiber_index(1, i)
        total = total + (H.partial(leaf) * K.partial(fib)
                         - H.partial(fib) * K.partial(leaf))
    return total


# -- identity checks ---------------------------------------------------------


@dataclass(frozen=True)
class JacobiReport:
    passed: bool
    residual_text: str


def jacobi_check(a, b, c, chart: Chart | None = None) -> JacobiReport:
    """Cyclic bracket sum; the residual must vanish identically.

    Accepts three polarized forms (any k) or, with a k = 1 chart, three
    plain polynomials run through the classical bracket.
    """
    if all(isinstance(x, PolarizedForm) for x in (a, b, c)):
        ab = decompose_polarized(bracket(a, b))
        bc = decompose_polarized(bracket(b, c))
        ca = decompose_polarized(bracket(c, a))
        residual = bracket(ab, c) + bracket(bc, a) + bracket(ca, b)
        return JacobiReport(residual.is_zero, residual.to_string())
    if all(isinstance(x, Polynomial) for x in (a, b, c)):
        if chart is None:
            raise ValueError("the classical path needs the chart")
        residual = (classical_bracket(classical_bracket(a, b, chart), c, chart)
                    + classical_bracket(classical_bracket(b, c, chart), a, chart)
                    + classical_bracket(classical_bracket(c, a, chart), b, chart))
        return JacobiReport(residual.is_zero, residual.to_string(chart.var_names))
    raise TypeError("arguments must be three polarized forms or three polynomials")
