"""Recursive-descent parser for polynomial expressions.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' uint)?
    atom   := rational | variable | '(' expr ')'

Rational literals are integers ("12"), integer fractions ("1/2", no
spaces around the slash) or decimals ("0.25"), each converted exactly by
one Fraction call; a digit run past the interpreter's int-conversion
limit (4300 digits by default) is a "number too long" error.
Variables resolve against a chart's naming table: fiber variables are
"x{p}_{i}", leaf variables "q{i}", and charts may register aliases.
Multiplication is always explicit ("2x" is an error) and exponents are
plain non-negative integers.  Parentheses and unary minus nest at most
MAX_NESTING levels deep.  Every error carries the byte offset where it
was detected.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import MAX_EXPONENT, DegreeOverflowError, Polynomial

MAX_NESTING = 100

# One token per match, after optional whitespace.  A literal may end in a
# bare "." or "/" so that the error can point past it; BAD is any other
# character.
_TOKEN = re.compile(r"""[ \t\r\n]*(?:
    (?P<NUMBER>[0-9]+(?:\.(?P<frac>[0-9]*)|/(?P<den>[0-9]*))?)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<OP>[-+*^()])
  | (?P<END>\Z)
  | (?P<BAD>.)
)""", re.VERBOSE | re.DOTALL)


class ParseError(ValueError):
    """Syntax or naming problem, positioned at a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


def _tokenize(text: str) -> list[tuple]:
    """(kind, text, offset, value) tuples; an operator is its own kind."""
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError("non-ASCII input", bad)
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        word, start = m[kind], m.start(kind)
        if kind == "NUMBER":
            if m["frac"] == "":
                raise ParseError("digits required after decimal point", m.end())
            if m["den"] == "":
                raise ParseError("digits required after '/'", m.end())
            try:
                value = Fraction(word)
            except ZeroDivisionError:
                raise ParseError("zero denominator", m.start("den")) from None
            except ValueError:  # a digit run past the int-conversion limit
                raise ParseError("number too long", start) from None
            tokens.append((kind, word, start, value))
        elif kind == "BAD":
            raise ParseError(f"unexpected character {word!r}", start)
        else:
            tokens.append((word if kind == "OP" else kind, word, start, None))
            if kind == "END":
                return tokens


class _Parser:
    def __init__(self, tokens: list[tuple], chart):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
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
        summands = [self.parse_term()]
        while self.kind in "+-":
            op = self.advance()[0]
            rhs = self.parse_term()
            summands.append(rhs if op == "+" else -rhs)
        return Polynomial.sum(self.chart.dim, summands)

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while self.kind == "*":
            star = self.advance()[2]
            rhs = self.parse_factor()
            try:
                value = value * rhs
            except DegreeOverflowError:
                raise ParseError("product overflows the degree cap", star) from None
        return value

    def parse_factor(self) -> Polynomial:
        if self.kind == "-":
            self.nest(self.advance()[2])
            value = -self.parse_factor()
            self.depth -= 1
            return value
        value = self.parse_atom()
        if self.kind == "^":
            caret = self.advance()[2]
            kind, _, offset, exponent = self.advance()
            if kind == "-":
                raise ParseError("negative exponent", offset)
            if kind != "NUMBER" or exponent.denominator != 1:
                raise ParseError("exponent must be a plain non-negative integer",
                                 offset)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} above cap {MAX_EXPONENT}", offset)
            try:
                value = value ** int(exponent)
            except DegreeOverflowError:
                raise ParseError("exponentiation overflows the degree cap",
                                 caret) from None
        return value

    def parse_atom(self) -> Polynomial:
        kind, text, offset, number = self.advance()
        if kind == "NUMBER":
            return Polynomial.constant(self.chart.dim, number)
        if kind == "IDENT":
            try:
                index = self.chart.variable_index(text)
            except KeyError:
                raise ParseError(f"unknown variable {text!r}", offset) from None
            return Polynomial.variable(self.chart.dim, index)
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
