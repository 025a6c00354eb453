"""Recursive-descent parser for polynomial expressions.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' uint)?
    atom   := rational | variable | '(' expr ')'

Rational literals are integers ("12"), integer fractions ("1/2", no
spaces around the slash) or decimals ("0.25"), converted exactly: an
integer by one int call, the others by one Fraction call.  A digit run
past the interpreter's int-conversion limit (4300 digits by default) is
a "number too long" error.
Variables resolve against a chart's naming table: fiber variables are
"x{p}_{i}", leaf variables "q{i}", and charts may register aliases.
Multiplication is always explicit ("2x" is an error) and exponents are
plain non-negative integers.  Parentheses and unary minus nest at most
MAX_NESTING levels deep.  Every error carries the byte offset where it
was detected.

A term that starts with plain factors (numbers and variables, each maybe
raised to a power, with at most one unary minus before it) folds them
into one coefficient and one exponent vector, and each expression level
adds its flat terms into one map that becomes one Polynomial.  Only
parenthesised groups, nested unary minus and the factors after them in a
term are multiplied as Polynomials, left to right.  The fold raises the
same errors at the same offsets as that product: the degree cap is
passed at the '*' where the nonzero product so far first exceeds it.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import MAX_EXPONENT, DegreeOverflowError, Polynomial

MAX_NESTING = 100

# One token per match, after optional whitespace: (space, number, name,
# operator, bad character), with all four token groups empty at the end of
# the input.  Matches follow each other without gaps, so offsets add up.
# A literal may end in a bare "." or "/" so that the error can point past
# it; a bad character is any other character.
_TOKEN = re.compile(r"""([ \t\r\n]*)(?:
    ([0-9]+(?:[./][0-9]*)?)
  | ([A-Za-z_][A-Za-z0-9_]*)
  | ([-+*^()])
  | (.)
  | \Z
)""", re.VERBOSE | re.DOTALL)


class ParseError(ValueError):
    """Syntax or naming problem, positioned at a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


def _number(word: str, offset: int) -> Fraction | int:
    """The exact value of the literal `word` at `offset`: an int for an
    integer, one Fraction call for a fraction or decimal."""
    if word[-1] == ".":
        raise ParseError("digits required after decimal point", offset + len(word))
    if word[-1] == "/":
        raise ParseError("digits required after '/'", offset + len(word))
    try:
        return int(word) if word.isdigit() else Fraction(word)
    except ZeroDivisionError:
        raise ParseError("zero denominator", offset + word.index("/") + 1) from None
    except ValueError:  # a digit run past the int-conversion limit
        raise ParseError("number too long", offset) from None


def _tokenize(text: str) -> list[tuple]:
    """(kind, text, offset, value) tuples; an operator is its own kind."""
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError("non-ASCII input", bad)
    tokens = []
    append = tokens.append
    offset = 0
    for space, number, name, op, bad in _TOKEN.findall(text):
        offset += len(space)
        if op:
            append((op, op, offset, None))
            offset += 1
        elif name:
            append(("IDENT", name, offset, None))
            offset += len(name)
        elif number:
            append(("NUMBER", number, offset, _number(number, offset)))
            offset += len(number)
        elif bad:
            raise ParseError(f"unexpected character {bad!r}", offset)
        else:
            append(("END", "", offset, None))
            return tokens


class _Parser:
    def __init__(self, tokens: list[tuple], chart):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.dim = chart.dim
        self.depth = 0

    @property
    def kind(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def nest(self, offset: int):
        """One more level of '(' or unary '-', opened at `offset`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", offset)

    def parse_expr(self) -> Polynomial:
        """Flat terms add up in one map, which makes one Polynomial; the
        other terms join it in one sum."""
        flat: dict[tuple[int, ...], Fraction | int] = {}
        others = []
        negate = False
        while True:
            term = self.parse_term()
            if type(term) is tuple:
                coeff, exps = term
                if coeff:
                    if negate:
                        coeff = -coeff
                    key = tuple(exps)
                    old = flat.get(key)
                    flat[key] = coeff if old is None else old + coeff
            else:
                others.append(-term if negate else term)
            kind = self.kind
            if kind != "+" and kind != "-":
                break
            negate = kind == "-"
            self.pos += 1
        value = Polynomial(self.dim, flat)
        return Polynomial.sum(self.dim, [value, *others]) if others else value

    def parse_term(self):
        """A flat term as (coefficient, exponent list), else a Polynomial.

        The plain factors that start the term fold into one coefficient
        and one exponent list.  From the first other factor on, the term
        is the left-to-right product of Polynomials that the grammar reads.
        """
        coeff, exps, star = 1, [0] * self.dim, None
        while self.plain():
            coeff = self.fold(coeff, exps, star)
            if self.kind != "*":
                return coeff, exps
            star = self.advance()[2]
        value = self.parse_factor()
        if star is not None:
            value = self.times(self.monomial(coeff, exps), value, star)
        while self.kind == "*":
            star = self.advance()[2]
            value = self.times(value, self.parse_factor(), star)
        return value

    def plain(self) -> bool:
        """Whether a plain factor starts at the cursor: a number or a
        variable, maybe raised to a power, after at most one unary '-'."""
        kind = self.tokens[self.pos][0]
        if kind == "-":
            kind = self.tokens[self.pos + 1][0]
        return kind == "NUMBER" or kind == "IDENT"

    def fold(self, coeff, exps: list[int], star: int | None):
        """Multiply the plain factor at the cursor into `coeff * x^exps`:
        add its exponent into `exps`, return the new coefficient.

        Errors come in the order and at the offsets of a product of
        Polynomials: the degree cap is passed at `star` when the product
        so far is nonzero.
        """
        kind, text, offset, number = self.advance()
        negate = kind == "-"
        if negate:
            if self.depth >= MAX_NESTING:
                raise ParseError("expression nested too deeply", offset)
            kind, text, offset, number = self.advance()
        if kind == "IDENT":
            try:
                index = self.chart.variable_index(text)
            except KeyError:
                raise ParseError(f"unknown variable {text!r}", offset) from None
        power = self.exponent() if self.kind == "^" else 1
        if kind == "NUMBER":
            if power != 1:
                number **= power
            # `1 * Fraction` would build a new Fraction
            coeff = number if type(coeff) is int and coeff == 1 else coeff * number
        else:
            exps[index] += power
            if exps[index] > MAX_EXPONENT and coeff:
                raise ParseError("product overflows the degree cap", star)
        return -coeff if negate else coeff

    def monomial(self, coeff, exps: list[int]) -> Polynomial:
        return Polynomial(self.dim, {tuple(exps): coeff} if coeff else {})

    def times(self, value: Polynomial, rhs: Polynomial, star: int) -> Polynomial:
        try:
            return value * rhs
        except DegreeOverflowError:
            raise ParseError("product overflows the degree cap", star) from None

    def parse_factor(self) -> Polynomial:
        if self.plain():
            exps = [0] * self.dim
            return self.monomial(self.fold(1, exps, None), exps)
        if self.kind == "-":
            self.nest(self.advance()[2])
            value = -self.parse_factor()
            self.depth -= 1
            return value
        value = self.parse_atom()
        if self.kind == "^":
            caret = self.tokens[self.pos][2]
            power = self.exponent()
            try:
                value = value ** power
            except DegreeOverflowError:
                raise ParseError("exponentiation overflows the degree cap",
                                 caret) from None
        return value

    def exponent(self) -> int:
        """The exponent after the '^' at the cursor."""
        self.pos += 1
        kind, _, offset, exponent = self.advance()
        if kind == "-":
            raise ParseError("negative exponent", offset)
        if kind != "NUMBER" or exponent.denominator != 1:
            raise ParseError("exponent must be a plain non-negative integer",
                             offset)
        if exponent > MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} above cap {MAX_EXPONENT}",
                             offset)
        return int(exponent)

    def parse_atom(self) -> Polynomial:
        """The atom that is not a plain factor: a parenthesised group."""
        kind, text, offset, _ = self.advance()
        if kind == "(":
            self.nest(offset)
            value = self.parse_expr()
            if self.kind != ")":
                raise ParseError("unbalanced parentheses", offset)
            self.advance()
            self.depth -= 1
            return value
        if kind == ")":
            raise ParseError("unbalanced parentheses", offset)
        raise ParseError(f"expected a value, found {text or 'end of input'!r}",
                         offset)


def parse_polynomial(text: str, chart) -> Polynomial:
    """Parse `text` into an exact polynomial over `chart`'s variables."""
    parser = _Parser(_tokenize(text), chart)
    value = parser.parse_expr()
    kind, trailing, offset, _ = parser.tokens[parser.pos]
    if kind != "END":
        raise ParseError(f"unexpected trailing input {trailing!r}", offset)
    return value
