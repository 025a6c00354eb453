"""Exact rational linear algebra: null spaces and inverses.

A matrix is a non-empty sequence of equally long, non-empty rows of
exact rationals (`int` or `fractions.Fraction`); results are exact.  The
null-space routine clears denominators row by row and then runs
fraction-free (Bareiss-style) elimination over the integers, which keeps
intermediate entries integral instead of letting fractions churn.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Rows = Sequence[Sequence]


def _grid(rows: Rows) -> list[list[Fraction]]:
    grid = [[Fraction(v) for v in row] for row in rows]
    if not grid or not grid[0]:
        raise ValueError("matrix needs at least one row and one column")
    if any(len(row) != len(grid[0]) for row in grid):
        raise ValueError("ragged rows")
    return grid


def _reduce_row(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _coprime_ints(row: Sequence[Fraction]) -> list[int]:
    """`row` scaled to coprime integers (a zero row stays zero)."""
    scale = lcm(*(v.denominator for v in row))
    return _reduce_row([int(v * scale) for v in row])


def kernel(m: Rows) -> list[tuple[Fraction, ...]]:
    """Exact basis of the null space of the matrix with rows `m`.

    Fraction-free forward elimination on integer-scaled rows, then exact
    back-substitution per free column.  Returns one basis vector per free
    column (empty list iff the kernel is trivial); each vector is scaled
    to coprime integer entries with a positive leading nonzero.
    """
    rows = [_coprime_ints(r) for r in _grid(m)]
    n_cols = len(rows[0])
    pivot_cols: list[int] = []
    pivot_rows: list[list[int]] = []
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
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
        ints = _coprime_ints(vec)
        lead = next(v for v in ints if v)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(tuple(Fraction(v) for v in ints))
    return basis


def invert(m: Rows) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of the exact inverse via Gauss-Jordan; ValueError when singular."""
    work = _grid(m)
    n = len(work)
    if len(work[0]) != n:
        raise ValueError("only square matrices invert")
    for i, row in enumerate(work):
        row.extend(Fraction(1 if i == j else 0) for j in range(n))
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
    return tuple(tuple(row[n:]) for row in work)
