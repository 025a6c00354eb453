"""Sparse multivariate polynomials with exact rational coefficients.

Coefficients are `fractions.Fraction` values, which keep themselves in
lowest terms with a positive denominator, so every stored number is an
exact rational.  A polynomial is a finite map from exponent vectors
(dense tuples of non-negative ints, one slot per chart variable) to
nonzero coefficients; the zero polynomial has an empty term map.

Term order is descending lexicographic on exponent vectors.  Printing,
iteration and float evaluation all follow this one order, so equal
polynomials print identically and float sums are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence
from types import MappingProxyType

# Hard per-variable exponent cap; exceeding it aborts the computation
# instead of letting symbolic growth run away.
MAX_EXPONENT = 32

Coefficient = Fraction | int


class DegreeOverflowError(ValueError):
    """Raised when an operation would push an exponent past MAX_EXPONENT."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Polynomial:
    """Immutable sparse polynomial over `dim` variables."""

    __slots__ = ("dim", "_terms", "_hash", "_ordered")

    def __init__(self, dim: int, terms: Mapping[tuple[int, ...], Coefficient] = ()):
        if dim < 1:
            raise ValueError("polynomial needs at least one variable")
        clean: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != dim:
                raise ValueError(f"exponent vector {exps} does not have length {dim}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if any(e > MAX_EXPONENT for e in exps):
                raise DegreeOverflowError(
                    f"exponent above cap {MAX_EXPONENT} in {exps}")
            coeff = _as_fraction(coeff)
            if coeff:
                clean[exps] = coeff
        self.dim = dim
        self._terms = clean
        self._hash = None
        self._ordered = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _raw(cls, dim: int, terms: dict) -> "Polynomial":
        # internal fast path: the caller guarantees canonical terms and
        # hands over ownership of the dict
        self = object.__new__(cls)
        self.dim = dim
        self._terms = terms
        self._hash = None
        self._ordered = None
        return self

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value: Coefficient) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        exps = tuple(1 if i == index else 0 for i in range(dim))
        return cls(dim, {exps: 1})

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only view of the term map."""
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def ordered_terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Terms in canonical (descending lexicographic) order."""
        if self._ordered is None:
            self._ordered = tuple(
                (e, self._terms[e]) for e in sorted(self._terms, reverse=True))
        return self._ordered

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def constant_value(self) -> Fraction:
        """The coefficient of the constant term."""
        return self._terms.get((0,) * self.dim, Fraction(0))

    # -- ring operations ------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError(
                f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        acc = dict(self._terms)
        for exps, coeff in other._terms.items():
            total = acc.get(exps, Fraction(0)) + coeff
            if total:
                acc[exps] = total
            else:
                acc.pop(exps, None)
        return Polynomial._raw(self.dim, acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.dim,
                               {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            scalar = _as_fraction(other)
            if not scalar:
                return Polynomial.zero(self.dim)
            return Polynomial._raw(
                self.dim, {e: c * scalar for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        # cheap sufficient bound: per-variable maxima decide whether any
        # product term could break the exponent cap
        check_cap = False
        if self._terms and other._terms:
            for i in range(self.dim):
                peak = (max(e[i] for e in self._terms)
                        + max(e[i] for e in other._terms))
                if peak > MAX_EXPONENT:
                    check_cap = True
                    break
        acc: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self._terms.items():
            for eb, cb in other._terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if check_cap and any(e > MAX_EXPONENT for e in exps):
                    raise DegreeOverflowError(
                        f"product exponent above cap {MAX_EXPONENT}")
                total = acc.get(exps, Fraction(0)) + ca * cb
                if total:
                    acc[exps] = total
                else:
                    acc.pop(exps, None)
        return Polynomial._raw(self.dim, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take non-negative integers")
        result = Polynomial.constant(self.dim, 1)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus and evaluation -----------------------------------------

    def partial(self, var: int) -> "Polynomial":
        """Formal partial derivative with respect to variable `var`."""
        if not 0 <= var < self.dim:
            raise ValueError(f"variable index {var} out of range for dim {self.dim}")
        acc: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self._terms.items():
            e = exps[var]
            if e:
                lowered = exps[:var] + (e - 1,) + exps[var + 1:]
                acc[lowered] = acc.get(lowered, Fraction(0)) + coeff * e
        return Polynomial._raw(self.dim, acc)

    def evaluate(self, point: Sequence[float]) -> float:
        """Float64 value at `point`, summed in canonical term order."""
        if len(point) != self.dim:
            raise ValueError(
                f"point length {len(point)} does not match dim {self.dim}")
        total = 0.0
        for exps, coeff in self.ordered_terms():
            value = float(coeff)
            for i, e in enumerate(exps):
                if e:
                    value *= point[i] ** e
            total += value
        return total

    __call__ = evaluate

    # -- comparison and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self._terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._terms)

    def to_string(self, names: Sequence[str] | None = None) -> str:
        """Canonical display, parseable back with the same variable names."""
        if names is None:
            names = [f"v{i}" for i in range(self.dim)]
        if len(names) != self.dim:
            raise ValueError("one name per variable required")
        if not self._terms:
            return "0"
        pieces = []
        for exps, coeff in self.ordered_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            magnitude = abs(coeff)
            if not factors:
                body = str(magnitude)
            elif magnitude == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(magnitude)] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"<poly {self.to_string()}>"
