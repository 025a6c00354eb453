"""Nambu dynamics on the two canonical model spaces.

R^(k+1) with coordinates (x^1..x^k, z) carries the k canonical forms
dx^p ^ dz; the Nambu field of a map H into R^k contracts the gradient
rows of H^1..H^k with the Levi-Civita symbol.  R^(3n) with coordinates
(x^i, y^i, z^i) carries the two forms sum dx^i ^ dz^i and
sum dy^i ^ dz^i; the Nambu field of a pair (H^1, H^2) is built from
2x2 Jacobian determinants per coordinate triple, and the ternary
bracket from 3x3 determinants.

Both spaces are thin relabelings of canonical charts (n = 1 for the
first, k = 2 for the second), so every polarized-map operation applies
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

from .geometry import Chart, RkMap, VectorField
from .hamiltonian import PolarizedForm, hamiltonian_field
from .poly import Polynomial


class NambuSpaceRk1:
    """R^(k+1): fiber x^p at alias x{p}, the single leaf at alias z."""

    __slots__ = ("k", "chart")

    def __init__(self, k: int, aliases=None):
        if k < 2:
            raise ValueError("this space needs k >= 2")
        table = {f"x{p}": f"x{p}_1" for p in range(1, k + 1)}
        table["z"] = "q1"
        if k == 2:
            table["x"] = "x1_1"
            table["y"] = "x2_1"
        table.update(aliases or {})
        self.k = k
        self.chart = Chart(1, k, table)

    @property
    def dim(self) -> int:
        return self.k + 1

    def coordinate_index(self, i: int) -> int:
        """Chart index of coordinate i in the 1-based order x^1..x^k, z."""
        if not 1 <= i <= self.k + 1:
            raise ValueError(f"coordinate {i} out of range")
        if i <= self.k:
            return self.chart.fiber_index(i, 1)
        return self.chart.leaf_index(1)


class NambuSpaceR3n:
    """R^(3n): triples (x^i, y^i, z^i) on the k = 2 chart."""

    __slots__ = ("n", "chart")

    def __init__(self, n: int, aliases=None):
        if n < 1:
            raise ValueError("this space needs n >= 1")
        table = {}
        for i in range(1, n + 1):
            table[f"x{i}"] = f"x1_{i}"
            table[f"y{i}"] = f"x2_{i}"
            table[f"z{i}"] = f"q{i}"
        if n == 1:
            table.update({"x": "x1_1", "y": "x2_1", "z": "q1"})
        table.update(aliases or {})
        self.n = n
        self.chart = Chart(n, 2, table)

    @property
    def dim(self) -> int:
        return 3 * self.n

    def triple_indices(self, i: int) -> tuple[int, int, int]:
        """Chart indices of (x^i, y^i, z^i), 1-based i."""
        chart = self.chart
        return (chart.fiber_index(1, i), chart.fiber_index(2, i),
                chart.leaf_index(i))


def levi_civita(indices: Sequence[int]) -> int:
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


def jacobian_det(fs: Sequence[Polynomial], variables: Sequence[int]) -> Polynomial:
    """Exact determinant of the matrix (a,b) -> d fs_a / d x_{variables_b}."""
    if len(fs) != len(variables):
        raise ValueError("one differentiation variable per function required")
    if not fs:
        raise ValueError("empty determinant")
    rows = [[f.partial(v) for v in variables] for f in fs]

    def det(matrix):
        size = len(matrix)
        if size == 1:
            return matrix[0][0]
        cofactors = []
        for col in range(size):
            entry = matrix[0][col]
            if entry.is_zero:
                continue
            minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
            cofactor = entry * det(minor)
            cofactors.append(cofactor if col % 2 == 0 else -cofactor)
        return Polynomial.sum(matrix[0][0].dim, cofactors)

    return det(rows)


def nambu_field_rk1(H: RkMap, space: NambuSpaceRk1) -> VectorField:
    """Levi-Civita contraction field on R^(k+1):

    component j = sum over tuples  e_{j i_1..i_k}  prod_m dH^m/dx^{i_m}

    Only permutations of the complement of j contribute, so the sum runs
    over those k! orderings instead of all (k+1)^k index tuples.
    """
    if H.chart != space.chart:
        raise ValueError("map does not live on this space")
    k = space.k
    dim = space.dim
    grads = [[H[m].partial(space.coordinate_index(i)) for i in range(1, dim + 1)]
             for m in range(k)]
    comps = {}
    coords = list(range(1, dim + 1))
    for j in coords:
        rest = [i for i in coords if i != j]
        terms = []
        for perm in permutations(rest):
            factors = [grads[m][i - 1] for m, i in enumerate(perm)]
            if any(factor.is_zero for factor in factors):
                continue
            term = Polynomial.constant(space.chart.dim, levi_civita((j,) + perm))
            for factor in factors:
                term = term * factor
            terms.append(term)
        comps[space.coordinate_index(j)] = Polynomial.sum(space.chart.dim, terms)
    return VectorField(space.chart, comps)


def nambu_field_r3n(H1: Polynomial, H2: Polynomial,
                    space: NambuSpaceR3n) -> VectorField:
    """Jacobian-determinant field on R^(3n), per coordinate triple:

    dx^i/dt = D(H1,H2)/D(y^i,z^i)
    dy^i/dt = D(H1,H2)/D(z^i,x^i)
    dz^i/dt = D(H1,H2)/D(x^i,y^i)
    """
    chart = space.chart
    if H1.dim != chart.dim or H2.dim != chart.dim:
        raise ValueError("polynomial dimension does not match the space")
    comps = {}
    pair = [H1, H2]
    for i in range(1, space.n + 1):
        xi, yi, zi = space.triple_indices(i)
        for target, vars_ in ((xi, (yi, zi)), (yi, (zi, xi)), (zi, (xi, yi))):
            comps[target] = jacobian_det(pair, vars_)
    return VectorField(chart, comps)


def nambu_bracket_r3n(f: Polynomial, H1: Polynomial, H2: Polynomial,
                      space: NambuSpaceR3n) -> Polynomial:
    """The ternary bracket sum_i D(f,H1,H2)/D(x^i,y^i,z^i)."""
    chart = space.chart
    for poly in (f, H1, H2):
        if poly.dim != chart.dim:
            raise ValueError("polynomial dimension does not match the space")
    return Polynomial.sum(chart.dim,
                          (jacobian_det([f, H1, H2], space.triple_indices(i))
                           for i in range(1, space.n + 1)))


@dataclass(frozen=True)
class RelationReport:
    """Outcome of a symbolic field identity, with the residual field."""
    passed: bool
    lhs: VectorField
    rhs: VectorField

    @property
    def residual(self) -> VectorField:
        return self.lhs - self.rhs

    def residual_text(self) -> str:
        return self.residual.to_string()


def verify_relation_rk1(pf: PolarizedForm, space: NambuSpaceRk1) -> RelationReport:
    """Check that the Nambu field is (-1)^k f^(k-1) times the polarized field."""
    if pf.chart != space.chart:
        raise ValueError("form does not live on this space")
    k = space.k
    lhs = nambu_field_rk1(pf.to_map(), space)
    scale = pf.f[0] ** (k - 1)
    if k % 2:
        scale = -scale
    rhs = hamiltonian_field(pf) * scale
    return RelationReport(lhs == rhs, lhs, rhs)


def verify_relation_r3n(pf: PolarizedForm, space: NambuSpaceR3n) -> RelationReport:
    """Check that the Nambu field is sum_i f_i times the per-triple
    restriction of the polarized field."""
    if pf.chart != space.chart:
        raise ValueError("form does not live on this space")
    H = pf.to_map()
    lhs = nambu_field_r3n(H[0], H[1], space)
    X = hamiltonian_field(pf)
    rhs = VectorField.zero(space.chart)
    for i in range(1, space.n + 1):
        rhs = rhs + X.restrict(space.triple_indices(i)) * pf.f[i - 1]
    return RelationReport(lhs == rhs, lhs, rhs)
