"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial over `dim` variables is held as one dict from packed
monomials to nonzero `int` numerators, all over one positive `int`
denominator.  Its form is canonical: the gcd of the denominator and all
numerators is 1, and the zero polynomial (an empty dict) has denominator
1, so equal polynomials are equal structurally and hash alike.

A monomial is packed into one int with `FIELD_BITS` bits per variable,
variable 0 in the most significant field.  Multiplying monomials adds
their packed ints, and descending packed-int order is descending
lexicographic order on exponent vectors.  Each field has room for the
sum of two capped exponents plus a bias that carries any exponent above
`MAX_EXPONENT` into the field's top (guard) bit, so the cap check on a
product is one add-and-mask.  Packed exponent vectors follow Monagan &
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors" (CASC 2007); with them and integer numerators the
ring operations are int additions and multiplications, not tuple and
`Fraction` arithmetic.

Signed sums of products have one kernel, `Polynomial.dot`, and `*` is
its one-pair case.  In the spirit of the same paper's merge of all the
products of a sum, every term pair of every product adds its numerator
into one map, and a second group of pairs subtracts into the same map,
so a bracket, pairing, Lie bracket or Jacobi sum never builds its
products, their negations or their partial differences one by one.

Zero costs nothing where it is common: `a - b` subtracts into one copy
of `a`, and `partial` along a variable that no term involves returns
the shared zero of its `dim` without a scan, reading the OR of the
packed keys that each polynomial takes on first use and then holds.

The packed format stays inside this module.  Callers see exponent
tuples and `Fraction` coefficients through `terms` and `ordered_terms`,
views built on demand, and test or split polynomials by variables with
`free_of` and `split_linear`.

Term order is descending lexicographic on exponent vectors.  Printing,
iteration and float evaluation all follow this one order, so equal
polynomials print identically and float sums are reproducible.

Float evaluation has one path, `float_evaluator`: it compiles
polynomials to straight-line Python once, so repeated evaluation does
not re-read the exact term maps on every call.  Each compiled unit
raises every power it needs once and shares it among its terms; `**` is
a pure function, so the values keep the bits of raising each power per
term.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence
from types import MappingProxyType

# Hard per-variable exponent cap; exceeding it aborts the computation
# instead of letting symbolic growth run away.
MAX_EXPONENT = 32

# Terms per separately compiled unit of a float evaluator; this bounds the
# compiler's transient memory, which grows with the source it is given.
UNIT_TERMS = 256

# Bits per variable in a packed monomial.  The top bit of a field is its
# guard: adding _BIAS to a field sets the guard exactly when the field
# holds more than MAX_EXPONENT.
FIELD_BITS = 7
_FIELD = (1 << FIELD_BITS) - 1
_GUARD = 1 << (FIELD_BITS - 1)
_BIAS = _GUARD - MAX_EXPONENT - 1

# A product's field holds the sum of two capped exponents; with the bias
# added it must still fit, or it would carry into the next variable.
if not (_BIAS >= 0 and 2 * MAX_EXPONENT + _BIAS < 1 << FIELD_BITS):
    raise ImportError(f"{FIELD_BITS}-bit monomial fields cannot hold "
                      f"exponents up to {MAX_EXPONENT}")

Coefficient = Fraction | int


class DegreeOverflowError(ValueError):
    """Raised when an operation would push an exponent past MAX_EXPONENT."""


class UnprintableCoefficientError(ValueError):
    """Raised by `to_string` for a coefficient with more digits than Python
    converts to text (`sys.get_int_max_str_digits()`)."""


def _digits(value: Fraction) -> str:
    try:
        return str(value)
    except ValueError:
        raise UnprintableCoefficientError(
            f"coefficient too long to print (over "
            f"{sys.get_int_max_str_digits()} digits)") from None


@lru_cache(maxsize=128)
def _layout(dim: int) -> tuple[tuple[int, ...], int, int]:
    """Field shift of each variable, then the bias and guard of all fields."""
    shifts = tuple(FIELD_BITS * (dim - 1 - i) for i in range(dim))
    ones = sum(1 << s for s in shifts)
    return shifts, _BIAS * ones, _GUARD * ones


def _pack(exps: Sequence[int]) -> int:
    m = 0
    for e in exps:
        m = m << FIELD_BITS | e
    return m


def _unpack(dim: int, m: int) -> tuple[int, ...]:
    return tuple(m >> s & _FIELD for s in _layout(dim)[0])


@lru_cache(maxsize=128)
def _mask(dim: int, variables: tuple[int, ...]) -> int:
    """All bits of the fields of `variables`."""
    shifts = _layout(dim)[0]
    return sum(_FIELD << shifts[v] for v in variables)


def _ratio(value) -> tuple[int, int]:
    """Numerator and positive denominator of an exact rational, coprime."""
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _canonical(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Divide nonzero numerators and their denominator by their gcd."""
    if den == 1 or not num:
        return num, 1
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {m: c // g for m, c in num.items()}, den // g


class Polynomial:
    """Immutable sparse polynomial over `dim` variables."""

    __slots__ = ("dim", "_num", "_den", "_support")

    def __init__(self, dim: int, terms: Mapping[tuple[int, ...], Coefficient] = ()):
        if dim < 1:
            raise ValueError("polynomial needs at least one variable")
        ratios: dict[int, tuple[int, int]] = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(exps)
            if len(exps) != dim:
                raise ValueError(f"exponent vector {exps} does not have length {dim}")
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            if max(exps) > MAX_EXPONENT:
                raise DegreeOverflowError(
                    f"exponent above cap {MAX_EXPONENT} in {exps}")
            p, q = _ratio(coeff)
            if p:
                ratios[_pack(exps)] = p, q
        den = lcm(*(q for _, q in ratios.values()))
        self.dim = dim
        self._num, self._den = _canonical(
            {m: p * (den // q) for m, (p, q) in ratios.items()}, den)
        self._support = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def _make(cls, dim: int, num: dict[int, int], den: int) -> "Polynomial":
        # internal fast path: takes ownership of `num`, nonzero numerators
        # over the positive `den`, and reduces them to the canonical form
        self = object.__new__(cls)
        self.dim = dim
        if den == 1:
            self._num, self._den = num, 1
        else:
            self._num, self._den = _canonical(num, den)
        self._support = None
        return self

    @classmethod
    @lru_cache(maxsize=128)
    def zero(cls, dim: int) -> "Polynomial":
        """One shared zero per `dim`; no operation writes into an operand's map."""
        if dim < 1:
            raise ValueError("polynomial needs at least one variable")
        return cls._make(dim, {}, 1)

    @classmethod
    def sum(cls, dim: int, polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of `polys`, all over `dim` variables; `+` delegates here.

        All numerators go into one map over the lcm of the denominators, a
        copy of the first operand's map, so a sum of m operands copies one
        map instead of m - 1 partial sums.
        """
        acc = None
        den = 1
        for poly in polys:
            if poly.dim != dim:
                raise ValueError(f"dimension mismatch: {dim} vs {poly.dim}")
            d = poly._den
            if acc is None:
                acc = dict(poly._num)
                den = d
                continue
            items = poly._num.items()
            if d != den:
                common = lcm(den, d)
                if common != den:
                    up = common // den
                    acc = {m: c * up for m, c in acc.items()}
                    den = common
                if d != den:
                    up = den // d
                    items = [(m, c * up) for m, c in items]
            for m, c in items:
                old = acc.get(m)
                if old is None:
                    acc[m] = c
                else:
                    total = old + c
                    if total:
                        acc[m] = total
                    else:
                        del acc[m]
        return cls._make(dim, {} if acc is None else acc, den)

    @classmethod
    def dot(cls, dim: int, pairs: Iterable[tuple["Polynomial", "Polynomial"]],
            minus: Iterable[tuple["Polynomial", "Polynomial"]] = ()
            ) -> "Polynomial":
        """The sum of `a * b` over `pairs` less the sum of `a * b` over
        `minus`, all over `dim` variables; `*` delegates here.

        Every term pair of every product adds its numerator straight into
        one map over the lcm of the products' denominators, so no product
        is built on its own; a pair of `minus` folds its sign into the
        scale of its rows, so no negated operand is built either.  Pairs
        are read one at a time, `pairs` first, and skipped when an
        operand is zero.  Keys are never deleted while the map is filled:
        the cap check runs once over every key, and a product past the
        cap raises even when its terms cancel, within it or against other
        pairs of either group.
        """
        num: dict[int, int] = {}
        get = num.get
        den = 1
        for sign, group in ((1, pairs), (-1, minus)):
            for a, b in group:
                if a.dim != dim or b.dim != dim:
                    raise ValueError(f"dimension mismatch: {dim} vs "
                                     f"{b.dim if a.dim == dim else a.dim}")
                if not a._num or not b._num:
                    continue
                d = a._den * b._den
                up = sign
                if not num:
                    den = d
                elif d != den:
                    common = lcm(den, d)
                    if common != den:
                        scale = common // den
                        num = {m: c * scale for m, c in num.items()}
                        get = num.get
                        den = common
                    up = sign * (den // d)
                bterms = tuple(b._num.items())
                for ma, ca in a._num.items():
                    ca *= up
                    for mb, cb in bterms:
                        m = ma + mb
                        num[m] = get(m, 0) + ca * cb
        _, bias, guard = _layout(dim)
        # a plain loop: `any` over a generator takes about three times as
        # long on the few keys that most calls fill
        for m in num:
            if (m + bias) & guard:
                raise DegreeOverflowError(f"product exponent above cap {MAX_EXPONENT}")
        if 0 in num.values():
            num = {m: c for m, c in num.items() if c}
        return cls._make(dim, num, den)

    @classmethod
    def constant(cls, dim: int, value: Coefficient) -> "Polynomial":
        p, q = _ratio(value)
        if dim < 1 or not p:
            return cls.zero(dim)
        return cls._make(dim, {0: p}, q)

    @classmethod
    def variable(cls, dim: int, index: int) -> "Polynomial":
        if not 0 <= index < dim:
            raise ValueError(f"variable index {index} out of range for dim {dim}")
        return cls._make(dim, {1 << _layout(dim)[0][index]: 1}, 1)

    # -- inspection -----------------------------------------------------

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only map from exponent vectors to coefficients, built on demand."""
        dim, den = self.dim, self._den
        return MappingProxyType({_unpack(dim, m): Fraction(c, den)
                                 for m, c in self._num.items()})

    @property
    def is_zero(self) -> bool:
        return not self._num

    def ordered_terms(self) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
        """Terms in canonical (descending lexicographic) order."""
        dim, den, num = self.dim, self._den, self._num
        return tuple((_unpack(dim, m), Fraction(num[m], den))
                     for m in sorted(num, reverse=True))

    def _involved(self) -> int:
        """The OR of the packed keys: a field is nonzero exactly when some
        term involves its variable.  Taken on first use and then held."""
        support = self._support
        if support is None:
            support = 0
            for m in self._num:
                support |= m
            self._support = support
        return support

    def free_of(self, variables: Iterable[int]) -> bool:
        """True when no term involves any of `variables`."""
        return not self._involved() & _mask(self.dim, tuple(variables))

    def split_linear(self, variables: Sequence[int], linear: Sequence[int]):
        """Split into `rest + sum_i x_linear[i] * parts[i]` in one pass.

        `linear` is a subset of `variables`, and `rest` and every part are
        free of `variables`.  Returns `(rest, parts, None)` when every term
        has degree 0 in `variables` or degree 1 in one variable of
        `linear`.  Otherwise returns `(None, None, (degree, var))` for the
        first other term in canonical order: its total degree in
        `variables` and the first of `variables` that it involves.
        """
        dim, den = self.dim, self._den
        shifts = _layout(dim)[0]
        mask = _mask(dim, tuple(variables))
        slot = {1 << shifts[v]: i for i, v in enumerate(linear)}
        rest: dict[int, int] = {}
        parts: list[dict[int, int]] = [{} for _ in linear]
        bad = 0  # the largest key that fits neither; 0 always fits
        for m, c in self._num.items():
            hit = m & mask
            if not hit:
                rest[m] = c
                continue
            i = slot.get(hit)
            if i is None:
                bad = max(bad, m)
            else:
                parts[i][m - hit] = c
        if bad:
            exps = _unpack(dim, bad)
            return None, None, (sum(exps[v] for v in variables),
                                next(v for v in variables if exps[v]))
        return (Polynomial._make(dim, rest, den),
                [Polynomial._make(dim, part, den) for part in parts], None)

    # -- ring operations ------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return Polynomial.sum(self.dim, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._make(self.dim, {m: -c for m, c in self._num.items()},
                                self._den)

    def __sub__(self, other) -> "Polynomial":
        """`self - other`, subtracted into one copy of `self`'s map."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        den = lcm(self._den, other._den)
        up, down = den // self._den, den // other._den
        num = ({m: c * up for m, c in self._num.items()} if up != 1
               else dict(self._num))
        get = num.get
        for m, c in other._num.items():
            total = get(m, 0) - c * down
            if total:
                num[m] = total
            else:
                del num[m]
        return Polynomial._make(self.dim, num, den)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            p, q = _ratio(other)
            if not p:
                return Polynomial.zero(self.dim)
            return Polynomial._make(
                self.dim, {m: c * p for m, c in self._num.items()}, self._den * q)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dot(self.dim, ((self, other),))

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
        shift = _layout(self.dim)[0][var]
        if not self._involved() >> shift & _FIELD:
            return Polynomial.zero(self.dim)
        unit = 1 << shift
        num: dict[int, int] = {}
        for m, c in self._num.items():
            e = m >> shift & _FIELD
            if e:
                num[m - unit] = c * e  # lowering one exponent is injective
        return Polynomial._make(self.dim, num, self._den)

    def evaluate(self, point: Sequence[float]) -> float:
        """Float64 value at `point`, summed in canonical term order, by a
        `float_evaluator` compiled for this one call."""
        if len(point) != self.dim:
            raise ValueError(
                f"point length {len(point)} does not match dim {self.dim}")
        return float_evaluator([self])(point)[0]

    __call__ = evaluate

    # -- comparison and display -------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.dim, self._den, frozenset(self._num.items())))

    def __bool__(self) -> bool:
        return bool(self._num)

    def to_string(self, names: Sequence[str] | None = None) -> str:
        """Canonical display, parseable back with the same variable names."""
        if names is None:
            names = [f"v{i}" for i in range(self.dim)]
        if len(names) != self.dim:
            raise ValueError("one name per variable required")
        if not self._num:
            return "0"
        pieces = []
        for exps, coeff in self.ordered_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            magnitude = _digits(abs(coeff))
            if not factors:
                body = magnitude
            elif magnitude == "1":
                body = "*".join(factors)
            else:
                body = "*".join([magnitude] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"<poly {self.to_string()}>"


def float_evaluator(polys: Sequence[Polynomial]):
    """Compile `polys` once into `point -> list[float]`, one value each.

    Every value is the float64 sum over the canonical term order of
    `float(c) * p[i]**e * ...`, with factors in variable order and only
    for e > 0: the same operations in the same order for every call, so
    results are reproducible bit for bit.  `** e` is kept rather than a
    chain of products, which can round differently.  NaN payloads are not
    reproducible: CPython's specialised float operations may propagate a
    different NaN operand than its generic ones, so a NaN is only a NaN.

    Each term is one `t += ...` statement, because a single expression
    of many thousand terms overflows the compiler's recursion limit.
    Compiling takes over 10 KiB of transient memory per term, so the
    statements go into units of at most `UNIT_TERMS` terms, each compiled
    on its own, that the evaluator calls in turn.  Only integer indices,
    exponents and counters enter the source text; each coefficient is
    bound as a float under a generated name.

    A unit computes each power `p[i]**e` that its terms use once, into
    the local `v{i}_{e}`, before its first term, and the terms multiply
    those locals.  `**` is a pure function of its operands, so every
    factor, product and sum has the bits it would have if each term
    raised its own powers; a power that overflows still raises
    `OverflowError` in the same call.  A first power is bound as `p[i]`
    itself: `x**1` is `x` bit for bit, signed zeros, infinities and
    subnormals included.
    """
    polys = list(polys)
    if len({poly.dim for poly in polys}) > 1:
        raise ValueError("polynomials of one evaluator must share a dim")
    # each unit: its power bindings (a dict, so each is bound once and in
    # order of first use) and its statements
    units: list[tuple[dict[str, str], list[str]]] = [({}, [])]
    used = 0
    coeffs: dict = {}
    for poly in polys:
        powers, body = units[-1]
        body.append("t = 0.0")
        for exps, coeff in poly.ordered_terms():
            if used == UNIT_TERMS:
                powers, body = {}, []
                units.append((powers, body))
                used = 0
            name = f"c{len(coeffs):d}"
            coeffs[name] = float(coeff)
            factors = ""
            for i, e in enumerate(exps):
                if e:
                    power = f"v{i:d}_{e:d}"
                    powers[power] = (f"{power} = p[{i:d}]" if e == 1
                                     else f"{power} = p[{i:d}]**{e:d}")
                    factors += "*" + power
            body.append(f"t += {name}{factors}")
            used += 1
        body.append("out.append(t)")
    # the units see only the coefficients and the evaluator only the units;
    # popping each function out of the dict it ran in leaves no function ->
    # globals -> function cycle, so an evaluator is freed by refcount
    calls: dict = {}
    for k, (powers, body) in enumerate(units):
        source = ("def unit(p, out, t):\n    "
                  + "\n    ".join([*powers.values(), *body]) + "\n    return t")
        exec(compile(source, "<float_evaluator>", "exec"), coeffs)
        calls[f"u{k:d}"] = coeffs.pop("unit")
    source = ("def evaluate(p):\n    out = []\n    t = 0.0\n"
              + "".join(f"    t = u{k:d}(p, out, t)\n" for k in range(len(units)))
              + "    return out")
    exec(compile(source, "<float_evaluator>", "exec"), calls)
    return calls.pop("evaluate")
