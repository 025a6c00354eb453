"""Exact rational matrices and null-space computation.

Everything here runs over `fractions.Fraction`, so results are exact.
The null-space routine clears denominators row by row and then runs
fraction-free (Bareiss-style) elimination over the integers, which keeps
intermediate entries integral instead of letting fractions churn.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, entries: Iterable[Iterable]):
        grid = tuple(tuple(Fraction(v) for v in row) for row in entries)
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one row and one column")
        width = len(grid[0])
        if any(len(row) != width for row in grid):
            raise ValueError("ragged rows")
        self.rows = len(grid)
        self.cols = width
        self._entries = grid

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls([[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> Fraction:
        return self._entries[i][j]

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._entries

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self._entries))

    def is_antisymmetric(self) -> bool:
        if self.rows != self.cols:
            return False
        return all(self._entries[i][j] == -self._entries[j][i]
                   for i in range(self.rows) for j in range(i, self.cols))

    def mul_vector(self, vector: Sequence) -> tuple[Fraction, ...]:
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        vec = [Fraction(v) for v in vector]
        return tuple(sum(r[j] * vec[j] for j in range(self.cols))
                     for r in self._entries)

    def stack(self, *others: "RationalMatrix") -> "RationalMatrix":
        """Vertical concatenation; all blocks must share the column count."""
        rows = list(self._entries)
        for m in others:
            if m.cols != self.cols:
                raise ValueError("column count mismatch in stack")
            rows.extend(m._entries)
        return RationalMatrix(rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self):
        return hash(self._entries)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self._entries)
        return f"<matrix {self.rows}x{self.cols} [{body}]>"


def _integer_rows(m: RationalMatrix) -> list[list[int]]:
    out = []
    for row in m.entries:
        scale = 1
        for v in row:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        out.append([int(v * scale) for v in row])
    return out


def _reduce_row(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        g = gcd(g, abs(v))
    if g > 1:
        return [v // g for v in row]
    return row


def kernel(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space of `m`.

    Fraction-free forward elimination on integer-scaled rows, then exact
    back-substitution per free column.  Returns one basis vector per free
    column (empty list iff the kernel is trivial); each vector is scaled
    to coprime integer entries with a positive leading nonzero.
    """
    rows = [_reduce_row(r) for r in _integer_rows(m)]
    n_cols = m.cols
    pivot_cols: list[int] = []
    pivot_rows: list[list[int]] = []
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        piv_row = rows[rank]
        piv_val = piv_row[col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor:
                rows[r] = _reduce_row(
                    [piv_val * a - factor * b for a, b in zip(rows[r], piv_row)])
        pivot_cols.append(col)
        pivot_rows.append(piv_row)
        rank += 1

    free_cols = [c for c in range(n_cols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n_cols
        vec[free] = Fraction(1)
        # echelon rows are solved bottom-up; each determines its pivot column
        for row, col in zip(reversed(pivot_rows), reversed(pivot_cols)):
            residue = sum((Fraction(row[j]) * vec[j]
                           for j in range(col + 1, n_cols) if row[j]),
                          Fraction(0))
            vec[col] = -residue / row[col]
        scale = 1
        for v in vec:
            scale = scale * v.denominator // gcd(scale, v.denominator)
        ints = [int(v * scale) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        lead = next(v for v in ints if v)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(tuple(Fraction(v) for v in ints))
    return basis


def invert(m: RationalMatrix) -> RationalMatrix:
    """Exact inverse via Gauss-Jordan; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices invert")
    n = m.rows
    work = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
            for i, row in enumerate(m.entries)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return RationalMatrix([row[n:] for row in work])
