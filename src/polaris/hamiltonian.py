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
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .geometry import (
    Chart,
    KSymplecticStructure,
    OneFormRk,
    RkMap,
    TwoForm,
    VectorField,
    differential,
    interior_product,
    is_basic,
)
from .linalg import invert
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
    """The decomposition (f_1..f_n, g^1..g^k) of a polarized map.

    `H`, when given, is the map sum_j f_j x^{pj} + g^p itself, which the
    caller has already split into `f` and `g`; otherwise it is built.
    The form owns that map's differential: X_H, the coordinate bracket and
    the checks all read the one grid `differential()` takes on first use.
    """

    __slots__ = ("chart", "f", "g", "_map", "_dH")

    def __init__(self, chart: Chart, f: Iterable[Polynomial],
                 g: Iterable[Polynomial], H: RkMap | None = None):
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
        self._map = H if H is not None else RkMap(chart, [
            Polynomial.sum(chart.dim, [g[p - 1]] + [
                f[j - 1] * Polynomial.variable(chart.dim, chart.fiber_index(p, j))
                for j in range(1, chart.n + 1)])
            for p in range(1, chart.k + 1)])
        self._dH = None

    def to_map(self) -> RkMap:
        """H^p = sum_j f_j x^{pj} + g^p, held since construction."""
        return self._map

    def differential(self) -> OneFormRk:
        """dH^p = sum_j (dH^p/dx^j) dx^j, taken on first use and then held."""
        if self._dH is None:
            self._dH = differential(self._map)
        return self._dH

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
    f_per_component: list[list[Polynomial]] = []
    g: list[Polynomial] = []
    for p in range(1, chart.k + 1):
        rest, parts, bad = H[p - 1].split_linear(chart.fiber_indices,
                                                 chart.fiber_block(p))
        if bad is not None:
            fiber_degree, idx = bad
            if fiber_degree > 1:
                raise NotPolarized(
                    REASON_NONLINEAR,
                    f"component {p} has a term of fiber degree {fiber_degree}")
            raise NotPolarized(
                REASON_CROSS_BLOCK,
                f"component {p} involves {chart.var_name(idx)}")
        f_per_component.append(parts)
        g.append(rest)
    shared = f_per_component[0]
    for p in range(1, chart.k):
        if f_per_component[p] != shared:
            raise NotPolarized(
                REASON_F_MISMATCH,
                f"components 1 and {p + 1} disagree on the fiber coefficients")
    return PolarizedForm(chart, shared, g, H)


def hamiltonian_field(pf: PolarizedForm) -> VectorField:
    """The field X_H solving i(X_H)theta^p = -dH^p on the canonical forms.

    Built from the closed expression

        X_H = -sum_{p,s} (dH^p/dx^s) d/dx^{ps} + sum_s f_s d/dx^s

    The defining equation itself is checked in one place, not here: the
    `duality[*]` check of `polaris.checks` (acceptance criterion 2)
    compares i(X_H)theta^p with -dH^p for every map it verifies.
    """
    chart = pf.chart
    dH = pf.differential()
    comps: dict[int, Polynomial] = {}
    for p in range(1, chart.k + 1):
        for s in range(1, chart.n + 1):
            comps[chart.fiber_index(p, s)] = -dH.entry(p - 1, chart.leaf_index(s))
    for s in range(1, chart.n + 1):
        comps[chart.leaf_index(s)] = pf.f[s - 1]
    return VectorField(chart, comps)


def _coordinate_halves(dA: Sequence[Polynomial], dB: Sequence[Polynomial],
                       chart: Chart, p: int):
    """The pairs (dA/dx^s, dB/dx^{ps}) that {A,B}^p adds and the pairs
    (dA/dx^{ps}, dB/dx^s) that it subtracts, for 1-based p, given the rows
    of partials dA[j] = dA/dx^j and dB[j] = dB/dx^j."""
    pairs = list(zip(chart.leaf_indices, chart.fiber_block(p)))
    return ([(dA[leaf], dB[fib]) for leaf, fib in pairs],
            [(dA[fib], dB[leaf]) for leaf, fib in pairs])


def bracket_sum(plus: Iterable[tuple[PolarizedForm, PolarizedForm]],
                minus: Iterable[tuple[PolarizedForm, PolarizedForm]] = ()
                ) -> RkMap:
    """The sum of {H,K} over the pairs (H, K) of `plus` less the sum over
    `minus`, by the coordinate formula: one `Polynomial.dot` per
    component accumulates every product of every bracket in the sum."""
    plus, minus = list(plus), list(minus)
    chart = (plus or minus)[0][0].chart
    if any(form.chart != chart for pair in chain(plus, minus) for form in pair):
        raise ValueError("chart mismatch")
    signed = [(H.differential().comps, K.differential().comps, negate)
              for group, negate in ((plus, False), (minus, True))
              for H, K in group]
    comps = []
    for p in range(1, chart.k + 1):
        adds: list[tuple[Polynomial, Polynomial]] = []
        subs: list[tuple[Polynomial, Polynomial]] = []
        for dH, dK, negate in signed:
            add, sub = _coordinate_halves(dH[p - 1], dK[p - 1], chart, p)
            if negate:
                add, sub = sub, add
            adds += add
            subs += sub
        comps.append(Polynomial.dot(chart.dim, adds, subs))
    return RkMap(chart, comps)


def bracket(H: PolarizedForm, K: PolarizedForm) -> RkMap:
    """Coordinate bracket, componentwise over the leaf variables:

    {H,K}^p = sum_s (dH^p/dx^s dK^p/dx^{ps} - dH^p/dx^{ps} dK^p/dx^s)
    """
    return bracket_sum(((H, K),))


def theta_pairing(theta: TwoForm, X: VectorField,
                  Y: VectorField) -> Polynomial:
    """theta(X, Y) = sum_{ij} theta[i,j] X^i Y^j with polynomial entries:
    the row i(X)theta paired with Y."""
    if X.chart != Y.chart:
        raise ValueError("chart mismatch")
    row = interior_product(X, theta)
    return Polynomial.dot(X.chart.dim, ((row[j], y) for j, y in Y.components()))


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

    def with_entries(self, extra: Mapping[tuple[int, int, int, int, int],
                                          Polynomial | int]) -> "GeneralPoissonTensor":
        tweak = GeneralPoissonTensor(self.chart, extra)._entries
        zero = self.chart.zero()
        return GeneralPoissonTensor(self.chart, {
            key: self._entries.get(key, zero) + tweak.get(key, zero)
            for key in sorted(self._entries.keys() | tweak.keys())})

    def apply(self, alpha: OneFormRk, beta: OneFormRk) -> RkMap:
        chart = self.chart
        if alpha.chart != chart or beta.chart != chart:
            raise ValueError("chart mismatch")

        def halves(r):
            # coeff * (a b - c d) as (coeff a) b added and (coeff c) d
            # subtracted, the scaled factor built only when the other one
            # is nonzero
            plus, minus = [], []
            for (i, j, p, q, s), coeff in self._entries.items():
                if s == r:
                    a, b = alpha.entry(p, i), beta.entry(q, j)
                    if a and b:
                        plus.append((coeff * a, b))
                    c, d = beta.entry(p, i), alpha.entry(q, j)
                    if c and d:
                        minus.append((coeff * c, d))
            return plus, minus

        return RkMap(chart, [Polynomial.dot(chart.dim, *halves(r))
                             for r in range(chart.k)])

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
    """[X,Y]^j = sum_i (X^i dY^j/dx^i - Y^i dX^j/dx^i), one accumulation
    per component."""
    if X.chart != Y.chart:
        raise ValueError("chart mismatch")
    chart = X.chart
    xs, ys = X.components(), Y.components()
    comps: dict[int, Polynomial] = {}
    for j in sorted({j for j, _ in xs} | {j for j, _ in ys}):
        xj, yj = X.component(j), Y.component(j)
        value = Polynomial.dot(chart.dim,
                               ((xi, yj.partial(i)) for i, xi in xs),
                               ((yi, xj.partial(i)) for i, yi in ys))
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
                 structure: KSymplecticStructure) -> VectorField:
    """Solve i(X)theta = omega exactly for the constant invertible form."""
    chart = structure.chart
    _require_k1(chart)
    if len(omega) != chart.dim:
        raise ValueError("one-form length does not match the chart")
    # i(X)theta reads sum_i X^i theta[i,j] = omega_j, i.e. theta^T X = omega
    inverse = invert(list(zip(*structure.theta(0).rows())))
    return VectorField(chart, {
        i: Polynomial.sum(chart.dim, (omega[j] * v for j, v in enumerate(row) if v))
        for i, row in enumerate(inverse)})


def classical_bracket(H: Polynomial, K: Polynomial, chart: Chart) -> Polynomial:
    """Poisson bracket of arbitrary functions at k = 1:

    {H,K} = sum_i (dH/dq_i dK/dx1_i - dH/dx1_i dK/dq_i)
    """
    _require_k1(chart)
    if H.dim != chart.dim or K.dim != chart.dim:
        raise ValueError("polynomial dimension does not match the chart")
    return Polynomial.dot(chart.dim, *_coordinate_halves(
        differential(RkMap(chart, [H])).comps[0],
        differential(RkMap(chart, [K])).comps[0], chart, 1))


# -- identity checks ---------------------------------------------------------


@dataclass(frozen=True)
class JacobiReport:
    passed: bool
    residual_text: str


def jacobi_residual(a: PolarizedForm, b: PolarizedForm, c: PolarizedForm,
                    ab: PolarizedForm, bc: PolarizedForm,
                    ac: PolarizedForm) -> RkMap:
    """{ab,c} + {bc,a} + {ca,b} given ab = {a,b}, bc = {b,c} and ac = {a,c}
    decomposed; {ca,b} = -{ac,b} term by term, so it is one `bracket_sum`."""
    return bracket_sum(((ab, c), (bc, a)), ((ac, b),))


def jacobi_check(a, b, c, chart: Chart | None = None) -> JacobiReport:
    """Cyclic bracket sum; the residual must vanish identically.

    Accepts three polarized forms (any k) or, with a k = 1 chart, three
    plain polynomials run through the classical bracket.
    """
    if all(isinstance(x, PolarizedForm) for x in (a, b, c)):
        residual = jacobi_residual(a, b, c, *(decompose_polarized(bracket(x, y))
                                              for x, y in ((a, b), (b, c), (a, c))))
        return JacobiReport(residual.is_zero, residual.to_string())
    if all(isinstance(x, Polynomial) for x in (a, b, c)):
        if chart is None:
            raise ValueError("the classical path needs the chart")
        residual = (classical_bracket(classical_bracket(a, b, chart), c, chart)
                    + classical_bracket(classical_bracket(b, c, chart), a, chart)
                    + classical_bracket(classical_bracket(c, a, chart), b, chart))
        return JacobiReport(residual.is_zero, residual.to_string(chart.var_names))
    raise TypeError("arguments must be three polarized forms or three polynomials")
