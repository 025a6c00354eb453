"""Seeded random generators for property runs.

All draws go through an explicit `random.Random` so a fixed seed fixes
the whole corpus.  Coefficients are small integers and leaf degrees stay
low; that is enough to separate wrong identities from right ones while
keeping exact arithmetic fast.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from .geometry import Chart
from .hamiltonian import PolarizedForm
from .poly import Polynomial

DEFAULT_SEED = 42
DEFAULT_TRIALS = 100
COEFF_RANGE = (-3, 3)


def _monomials(dim: int, indices, max_degree: int):
    """Exponent tuples over the given variable indices, ordered and
    including the constant monomial."""
    out = [tuple(0 for _ in range(dim))]
    for degree in range(1, max_degree + 1):
        for combo in combinations_with_replacement(indices, degree):
            exps = [0] * dim
            for idx in combo:
                exps[idx] += 1
            out.append(tuple(exps))
    return out


def _draw(rng: random.Random, chart: Chart, indices, degree: int) -> Polynomial:
    """One coefficient per monomial over the given variables, in order;
    the polynomial drops the zero ones."""
    lo, hi = COEFF_RANGE
    return Polynomial(chart.dim, {exps: rng.randint(lo, hi)
                                  for exps in _monomials(chart.dim, indices, degree)})


def random_basic(rng: random.Random, chart: Chart, degree: int = 2) -> Polynomial:
    """A random polynomial in the leaf variables only."""
    return _draw(rng, chart, chart.leaf_indices, degree)


def random_polynomial(rng: random.Random, chart: Chart, degree: int = 2) -> Polynomial:
    """A random polynomial over all chart variables."""
    return _draw(rng, chart, range(chart.dim), degree)


def random_polarized(rng: random.Random, chart: Chart,
                     degree: int = 2) -> PolarizedForm:
    """A random polarized form with shared basic f and basic g."""
    f = [random_basic(rng, chart, degree) for _ in range(chart.n)]
    g = [random_basic(rng, chart, degree) for _ in range(chart.k)]
    return PolarizedForm(chart, f, g)
