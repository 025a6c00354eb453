"""Nambu dynamics on the two canonical model spaces.

Both spaces are canonical charts cut into blocks (x^{1i}, ..., x^{ki}, q_i):
R^(k+1), with coordinates (x^1..x^k, z), is the one block of the n = 1
chart and carries the k canonical forms dx^p ^ dz; R^(3n), with triples
(x^i, y^i, z^i), is the n blocks of the k = 2 chart and carries
sum dx^i ^ dz^i and sum dy^i ^ dz^i.  On either space the Nambu field of
a map H into R^k takes, per block, the signed maximal minors of the
k x (k+1) rows of dH on that block, all by the one determinant routine
`det`: on R^(k+1) the Levi-Civita contraction of the gradient rows, on
R^(3n) the three 2x2 Jacobian minors per triple.  The ternary bracket
{f, H1, H2} is f differentiated along the field of (H1, H2).

Both spaces are thin relabelings of canonical charts, so every
polarized-map operation applies unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .geometry import Chart, OneFormRk, RkMap, VectorField, differential
from .hamiltonian import PolarizedForm, hamiltonian_field
from .poly import Polynomial


def _block(chart: Chart, i: int) -> tuple[int, ...]:
    """Chart indices of (x^{1i}, ..., x^{ki}, q_i), 1-based i."""
    return tuple(chart.fiber_index(p, i)
                 for p in range(1, chart.k + 1)) + (chart.leaf_index(i),)


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
        return _block(self.chart, 1)[i - 1]


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
        return _block(self.chart, i)


def det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square polynomial matrix.

    Cofactor expansion down the rows, skipping zero entries.  The minor
    on the bottom rows and a given set of columns is computed once and
    reused, so an m x m determinant takes at most m 2^(m-1) products
    rather than the m! of a plain expansion.
    """
    size = len(matrix)
    dim = matrix[0][0].dim
    memo = {}

    def minor(cols):
        if len(cols) == 1:
            return matrix[-1][cols[0]]
        found = memo.get(cols)
        if found is None:
            row = matrix[size - len(cols)]
            found = memo[cols] = Polynomial.dot(dim, (
                (row[col] if pos % 2 == 0 else -row[col],
                 minor(cols[:pos] + cols[pos + 1:]))
                for pos, col in enumerate(cols) if row[col]))
        return found

    return minor(tuple(range(size)))


def _signed_minors(rows: Sequence[Sequence[Polynomial]]) -> list[Polynomial]:
    """(-1)^c times the minor without column c, for each column c of an
    m x (m+1) matrix: the contraction of its rows with the Levi-Civita
    symbol."""
    minors = (det([row[:col] + row[col + 1:] for row in rows])
              for col in range(len(rows) + 1))
    return [minor if col % 2 == 0 else -minor for col, minor in enumerate(minors)]


def jacobian_det(fs: Sequence[Polynomial], variables: Sequence[int]) -> Polynomial:
    """Exact determinant of the matrix (a,b) -> d fs_a / d x_{variables_b}."""
    if len(fs) != len(variables):
        raise ValueError("one differentiation variable per function required")
    if not fs:
        raise ValueError("empty determinant")
    return det([[f.partial(v) for v in variables] for f in fs])


def _field(dH: OneFormRk) -> VectorField:
    """The Nambu field of dH: on each block, the signed maximal minors of
    the k x (k+1) rows of dH restricted to that block."""
    chart = dH.chart
    comps = {}
    for i in range(1, chart.n + 1):
        block = _block(chart, i)
        comps.update(zip(block, _signed_minors(
            [[row[c] for c in block] for row in dH.comps])))
    return VectorField(chart, comps)


def nambu_field_rk1(H: RkMap, space: NambuSpaceRk1) -> VectorField:
    """Levi-Civita contraction field on R^(k+1): with coordinates ordered
    x^1..x^k, z, component j is (-1)^(j-1) times the minor of the k x (k+1)
    gradient matrix (dH^m/dx^i) without column j.
    """
    if H.chart != space.chart:
        raise ValueError("map does not live on this space")
    return _field(differential(H))


def nambu_field_r3n(H1: Polynomial, H2: Polynomial,
                    space: NambuSpaceR3n) -> VectorField:
    """Jacobian-determinant field on R^(3n), per coordinate triple:

    dx^i/dt = D(H1,H2)/D(y^i,z^i)
    dy^i/dt = D(H1,H2)/D(z^i,x^i)
    dz^i/dt = D(H1,H2)/D(x^i,y^i)

    that is, the signed 2x2 minors of the 2x3 gradient block of (H1, H2)
    in (x^i, y^i, z^i).
    """
    chart = space.chart
    if H1.dim != chart.dim or H2.dim != chart.dim:
        raise ValueError("polynomial dimension does not match the space")
    return _field(differential(RkMap(chart, [H1, H2])))


def nambu_bracket_r3n(f: Polynomial, H1: Polynomial, H2: Polynomial,
                      space: NambuSpaceR3n) -> Polynomial:
    """The ternary bracket sum_i D(f,H1,H2)/D(x^i,y^i,z^i): f differentiated
    along the field of (H1, H2), each determinant expanded along f's row."""
    return nambu_field_r3n(H1, H2, space).apply_to(f)


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


def _relation(pf: PolarizedForm,
              space: NambuSpaceRk1 | NambuSpaceR3n) -> RelationReport:
    """Check that the Nambu field is, on each block i, (-1)^k f_i^(k-1)
    times the polarized field."""
    if pf.chart != space.chart:
        raise ValueError("form does not live on this space")
    chart = pf.chart
    k = chart.k
    lhs = _field(pf.differential())
    X = hamiltonian_field(pf)
    comps = {}
    for i, f in enumerate(pf.f, start=1):
        scale = -f ** (k - 1) if k % 2 else f ** (k - 1)
        comps.update((idx, X.component(idx) * scale) for idx in _block(chart, i))
    rhs = VectorField(chart, comps)
    return RelationReport(lhs == rhs, lhs, rhs)


def verify_relation_rk1(pf: PolarizedForm, space: NambuSpaceRk1) -> RelationReport:
    """Check that the Nambu field is (-1)^k f^(k-1) times the polarized field."""
    return _relation(pf, space)


def verify_relation_r3n(pf: PolarizedForm, space: NambuSpaceR3n) -> RelationReport:
    """Check that the Nambu field is sum_i f_i times the per-triple
    restriction of the polarized field."""
    return _relation(pf, space)
