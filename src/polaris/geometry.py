"""Canonical charts, constant 2-forms and the basic differential operators.

The model space is R^(n(k+1)) with k fiber blocks of n variables and one
block of n leaf variables.  Fiber variable p,i (1-based) sits at index
(p-1)*n + (i-1) and is named "x{p}_{i}"; leaf variable i sits at index
k*n + (i-1) and is named "q{i}".  The vertical foliation is carried
implicitly by this index split: a function is basic when it involves no
fiber variable, and the canonical 2-forms pair each fiber block with the
leaf block.

A constant 2-form is a `TwoForm`: its nonzero coefficients, one per
pair i < j, so the canonical theta^p holds just its n fiber-leaf pairs
and every operator on it walks those.  Only the structure check and the
k = 1 inverse duality build the dense coefficient matrix, with `rows()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .linalg import kernel
from .poly import Polynomial


class Chart:
    """Coordinate model for given (n, k); owns all variable indexing."""

    __slots__ = ("n", "k", "_aliases", "_names", "_index_of")

    def __init__(self, n: int, k: int, aliases: Mapping[str, str] | None = None):
        if n < 1 or k < 1:
            raise ValueError("chart needs n >= 1 and k >= 1")
        self.n = n
        self.k = k
        names = []
        for p in range(1, k + 1):
            for i in range(1, n + 1):
                names.append(f"x{p}_{i}")
        for i in range(1, n + 1):
            names.append(f"q{i}")
        self._names = tuple(names)
        index_of = {name: idx for idx, name in enumerate(names)}
        clean_aliases = {}
        for alias, target in dict(aliases or {}).items():
            if alias in index_of and index_of.get(alias) != index_of.get(target):
                raise ValueError(f"alias {alias!r} collides with a canonical name")
            if target not in index_of:
                raise ValueError(f"alias target {target!r} is not a chart variable")
            if not alias.isidentifier() or not alias.isascii():
                raise ValueError(f"alias {alias!r} is not a valid variable token")
            clean_aliases[alias] = target
        self._aliases = clean_aliases
        for alias, target in clean_aliases.items():
            index_of[alias] = index_of[target]
        self._index_of = index_of

    @property
    def dim(self) -> int:
        return self.n * (self.k + 1)

    @property
    def var_names(self) -> tuple[str, ...]:
        return self._names

    def fiber_index(self, p: int, i: int) -> int:
        if not (1 <= p <= self.k and 1 <= i <= self.n):
            raise ValueError(f"fiber variable ({p},{i}) out of range")
        return (p - 1) * self.n + (i - 1)

    def leaf_index(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"leaf variable {i} out of range")
        return self.k * self.n + (i - 1)

    @property
    def leaf_indices(self) -> tuple[int, ...]:
        return tuple(range(self.k * self.n, self.dim))

    @property
    def fiber_indices(self) -> tuple[int, ...]:
        return tuple(range(self.k * self.n))

    def fiber_block(self, p: int) -> tuple[int, ...]:
        return tuple(self.fiber_index(p, i) for i in range(1, self.n + 1))

    def var_name(self, idx: int) -> str:
        return self._names[idx]

    def variable_index(self, name: str) -> int:
        return self._index_of[name]

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.dim)

    def constant(self, value) -> Polynomial:
        return Polynomial.constant(self.dim, value)

    def coordinate(self, name: str) -> Polynomial:
        return Polynomial.variable(self.dim, self.variable_index(name))

    def __eq__(self, other):
        if not isinstance(other, Chart):
            return NotImplemented
        return (self.n, self.k, self._aliases) == (other.n, other.k, other._aliases)

    def __hash__(self):
        return hash((self.n, self.k, tuple(sorted(self._aliases.items()))))

    def __repr__(self):
        return f"Chart(n={self.n}, k={self.k})"


def _check_same_chart(a, b):
    if a.chart != b.chart:
        raise ValueError("chart mismatch")


class RkMap:
    """A map into R^k given by k polynomial components."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps: Iterable[Polynomial]):
        comps = tuple(comps)
        if len(comps) != chart.k:
            raise ValueError(f"expected {chart.k} components, got {len(comps)}")
        if any(c.dim != chart.dim for c in comps):
            raise ValueError("component dimension does not match the chart")
        self.chart = chart
        self.comps = comps

    def __getitem__(self, p: int) -> Polynomial:
        return self.comps[p]

    def __iter__(self):
        return iter(self.comps)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def __add__(self, other: "RkMap") -> "RkMap":
        _check_same_chart(self, other)
        return RkMap(self.chart, [a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other: "RkMap") -> "RkMap":
        _check_same_chart(self, other)
        return RkMap(self.chart, [a - b for a, b in zip(self.comps, other.comps)])

    def __neg__(self) -> "RkMap":
        return RkMap(self.chart, [-c for c in self.comps])

    def __mul__(self, scalar) -> "RkMap":
        return RkMap(self.chart, [c * scalar for c in self.comps])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, RkMap):
            return NotImplemented
        return self.chart == other.chart and self.comps == other.comps

    def __hash__(self):
        return hash((self.chart, self.comps))

    def to_string(self) -> str:
        names = self.chart.var_names
        return "(" + ", ".join(c.to_string(names) for c in self.comps) + ")"

    def __repr__(self):
        return f"<rkmap {self.to_string()}>"


class VectorField:
    """Polynomial vector field; absent components are zero."""

    __slots__ = ("chart", "_comps")

    def __init__(self, chart: Chart, components: Mapping[int, Polynomial] = ()):
        comps = {}
        for idx, poly in dict(components).items():
            if not 0 <= idx < chart.dim:
                raise ValueError(f"component index {idx} out of range")
            if poly.dim != chart.dim:
                raise ValueError("component dimension does not match the chart")
            if not poly.is_zero:
                comps[idx] = poly
        self.chart = chart
        self._comps = comps

    @classmethod
    def zero(cls, chart: Chart) -> "VectorField":
        return cls(chart)

    @classmethod
    def coordinate(cls, chart: Chart, idx: int) -> "VectorField":
        """The constant field along one coordinate direction."""
        return cls(chart, {idx: chart.constant(1)})

    def component(self, idx: int) -> Polynomial:
        return self._comps.get(idx, Polynomial.zero(self.chart.dim))

    def components(self) -> tuple[tuple[int, Polynomial], ...]:
        return tuple((i, self._comps[i]) for i in sorted(self._comps))

    @property
    def is_zero(self) -> bool:
        return not self._comps

    def apply_to(self, poly: Polynomial) -> Polynomial:
        """Directional derivative sum_i X^i dp/dx^i."""
        if poly.dim != self.chart.dim:
            raise ValueError("polynomial dimension does not match the chart")
        return Polynomial.dot(self.chart.dim, ((comp, poly.partial(idx))
                                               for idx, comp in self.components()))

    def __add__(self, other: "VectorField") -> "VectorField":
        _check_same_chart(self, other)
        return VectorField(self.chart, {
            i: self.component(i) + other.component(i)
            for i in sorted(self._comps.keys() | other._comps.keys())})

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self + (-other)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, {i: -c for i, c in self._comps.items()})

    def __mul__(self, factor) -> "VectorField":
        """Scale by a rational or by a polynomial function."""
        return VectorField(self.chart,
                           {i: c * factor for i, c in self._comps.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.chart == other.chart and self._comps == other._comps

    def __hash__(self):
        return hash((self.chart, frozenset(self._comps.items())))

    def to_string(self) -> str:
        names = self.chart.var_names
        return "(" + ", ".join(
            self.component(i).to_string(names) for i in range(self.chart.dim)) + ")"

    def __repr__(self):
        return f"<field {self.to_string()}>"


class OneFormRk:
    """R^k-valued 1-form: a k x N grid of dx^j coefficients."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps: Iterable[Iterable[Polynomial]]):
        grid = tuple(tuple(row) for row in comps)
        if len(grid) != chart.k or any(len(row) != chart.dim for row in grid):
            raise ValueError(f"expected a {chart.k} x {chart.dim} grid")
        for row in grid:
            for poly in row:
                if poly.dim != chart.dim:
                    raise ValueError("entry dimension does not match the chart")
        self.chart = chart
        self.comps = grid

    @classmethod
    def zero(cls, chart: Chart) -> "OneFormRk":
        z = chart.zero()
        return cls(chart, [[z] * chart.dim for _ in range(chart.k)])

    @classmethod
    def basis(cls, chart: Chart, p: int, j: int) -> "OneFormRk":
        """dx^j tensor e_p with 0-based p and j."""
        grid = [[chart.zero()] * chart.dim for _ in range(chart.k)]
        grid[p][j] = chart.constant(1)
        return cls(chart, grid)

    def entry(self, p: int, j: int) -> Polynomial:
        return self.comps[p][j]

    def __add__(self, other: "OneFormRk") -> "OneFormRk":
        _check_same_chart(self, other)
        return OneFormRk(self.chart,
                         [[a + b for a, b in zip(ra, rb)]
                          for ra, rb in zip(self.comps, other.comps)])

    def __eq__(self, other):
        if not isinstance(other, OneFormRk):
            return NotImplemented
        return self.chart == other.chart and self.comps == other.comps

    def __repr__(self):
        names = self.chart.var_names
        rows = "; ".join(
            "(" + ", ".join(p.to_string(names) for p in row) + ")"
            for row in self.comps)
        return f"<one-form {rows}>"


# -- operators -----------------------------------------------------------


def is_basic(poly: Polynomial, chart: Chart) -> bool:
    """True when the function is constant along the fibers."""
    if poly.dim != chart.dim:
        raise ValueError("polynomial dimension does not match the chart")
    return poly.free_of(chart.fiber_indices)


def differential(H: RkMap) -> OneFormRk:
    """Componentwise exterior derivative dH^p = sum_j (dH^p/dx^j) dx^j."""
    chart = H.chart
    return OneFormRk(chart, [[H[p].partial(j) for j in range(chart.dim)]
                             for p in range(chart.k)])


def interior_product(X: VectorField, theta: TwoForm) -> tuple[Polynomial, ...]:
    """i(X)theta as a row of dx^j coefficients: sum_i X^i theta[i, j].

    A pair c dx^i ^ dx^j adds c X^i to slot j and -c X^j to slot i.
    """
    chart = X.chart
    if theta.dim != chart.dim:
        raise ValueError("form dimension does not match the chart")
    comps = dict(X.components())
    slots = [[] for _ in range(chart.dim)]
    for i, j, c in theta.pairs:
        if i in comps:
            slots[j].append(comps[i] * c)
        if j in comps:
            slots[i].append(comps[j] * -c)
    return tuple(Polynomial.sum(chart.dim, terms) for terms in slots)


def exterior_derivative_one_form(
        omega: Sequence[Polynomial]) -> tuple[tuple[Polynomial, ...], ...]:
    """d(omega) as the antisymmetric grid (i,j) -> dω_j/dx^i - dω_i/dx^j."""
    n = len(omega)
    if n == 0 or any(p.dim != omega[0].dim for p in omega):
        raise ValueError("omega must be a non-empty row over one chart")
    return tuple(
        tuple(omega[j].partial(i) - omega[i].partial(j) for j in range(n))
        for i in range(n))


def grid_is_zero(grid: Sequence[Sequence[Polynomial]]) -> bool:
    return all(p.is_zero for row in grid for p in row)


def xi_pairing(beta: OneFormRk, X: VectorField) -> RkMap:
    """The pairing <beta, X>: component p is sum_j beta^p_j X^j."""
    _check_same_chart(beta, X)
    chart = X.chart
    comps = X.components()
    return RkMap(chart, [Polynomial.dot(chart.dim, ((beta.entry(p, j), xj)
                                                    for j, xj in comps))
                         for p in range(chart.k)])


# -- k-symplectic structures ----------------------------------------------


class TwoForm:
    """Constant 2-form sum_{i<j} c_ij dx^i ^ dx^j on R^dim, kept sparse.

    Built from (i, j, c) triples: c at (j, i) is stored as -c at (i, j),
    repeated pairs add up and zero sums are dropped, so antisymmetry holds
    by construction.  `pairs` lists the nonzero (i, j, c_ij), i < j, in
    (i, j) order; the coefficient matrix has theta[i][j] = c_ij and
    theta[j][i] = -c_ij.
    """

    __slots__ = ("dim", "pairs")

    def __init__(self, dim: int, pairs: Iterable[tuple[int, int, Fraction | int]]):
        acc: dict[tuple[int, int], Fraction] = {}
        for i, j, c in pairs:
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"pair ({i}, {j}) out of range for dimension {dim}")
            if i == j:
                raise ValueError(f"diagonal pair ({i}, {j}) in a 2-form")
            key, c = ((i, j), Fraction(c)) if i < j else ((j, i), -Fraction(c))
            acc[key] = acc.get(key, 0) + c
        self.dim = dim
        self.pairs = tuple((i, j, c) for (i, j), c in sorted(acc.items()) if c)

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense antisymmetric coefficient matrix, row by row."""
        grid = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for i, j, c in self.pairs:
            grid[i][j] = c
            grid[j][i] = -c
        return tuple(map(tuple, grid))


def canonical_theta(chart: Chart, p: int) -> TwoForm:
    """sum_i dx^{pi} ^ dq^i (1-based p): n fiber-leaf pairs."""
    return TwoForm(chart.dim, [(chart.fiber_index(p, i), chart.leaf_index(i), 1)
                               for i in range(1, chart.n + 1)])


class KSymplecticStructure:
    """A chart together with constant 2-forms.

    The canonical instance carries the chart's k Darboux forms; custom
    lists (any count >= 1) are allowed so that degenerate configurations
    can be probed by the structure check.
    """

    __slots__ = ("chart", "thetas")

    def __init__(self, chart: Chart, thetas: Iterable[TwoForm]):
        thetas = tuple(thetas)
        if not thetas:
            raise ValueError("at least one 2-form required")
        if any(theta.dim != chart.dim for theta in thetas):
            raise ValueError("form dimension does not match the chart")
        self.chart = chart
        self.thetas = thetas

    @classmethod
    def canonical(cls, chart: Chart) -> "KSymplecticStructure":
        return cls(chart, [canonical_theta(chart, p)
                           for p in range(1, chart.k + 1)])

    def theta(self, p: int) -> TwoForm:
        """0-based accessor."""
        return self.thetas[p]


@dataclass(frozen=True)
class StructureReport:
    """check_ksymplectic outcome with witnesses."""
    passed: bool
    joint_kernel: tuple[tuple[Fraction, ...], ...]
    vertical_violations: tuple[tuple[int, int, int, Fraction], ...]

    def summary(self, chart: Chart) -> str:
        if self.passed:
            return "nondegenerate: joint characteristic space is trivial"
        parts = []
        if self.joint_kernel:
            parts.append(f"joint characteristic space has dimension "
                         f"{len(self.joint_kernel)}")
        if self.vertical_violations:
            p, i, j, value = self.vertical_violations[0]
            parts.append(f"theta^{p + 1}({chart.var_name(i)},{chart.var_name(j)})"
                         f" = {value} on vertical directions")
        return "; ".join(parts)


def check_ksymplectic(structure: KSymplecticStructure) -> StructureReport:
    """Exact nondegeneracy and vertical-isotropy test for constant forms.

    Constant coefficients make each characteristic space the kernel of
    the coefficient matrix, so the joint condition reduces to the kernel
    of the stacked matrices being trivial.  The second condition asks each
    form to vanish on pairs of fiber directions: no pair of its may have
    both indices in the fiber block.
    """
    chart = structure.chart
    joint = tuple(kernel([row for theta in structure.thetas
                          for row in theta.rows()]))
    # a pair i < j joins two fiber directions when j, hence i, is below k*n
    n_fiber = chart.k * chart.n
    violations = [(p, i, j, c) for p, theta in enumerate(structure.thetas)
                  for i, j, c in theta.pairs if j < n_fiber]
    return StructureReport(
        passed=not joint and not violations,
        joint_kernel=joint,
        vertical_violations=tuple(violations),
    )
