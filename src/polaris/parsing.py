"""Recursive-descent parser for polynomial expressions.

Grammar:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' uint)?
    atom   := rational | variable | '(' expr ')'

Rational literals are integers ("12"), integer fractions ("1/2", no
spaces around the slash) or decimals ("0.25"), all converted exactly.
Variables resolve against a chart's naming table: fiber variables are
"x{p}_{i}", leaf variables "q{i}", and charts may register aliases.
Multiplication is always explicit ("2x" is an error) and exponents are
plain non-negative integers.  Parentheses and unary minus nest at most
MAX_NESTING levels deep.  Every error carries the byte offset where it
was detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import MAX_EXPONENT, DegreeOverflowError, Polynomial

MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax or naming problem, positioned at a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.message = message
        self.offset = offset


@dataclass(frozen=True)
class _Token:
    kind: str   # NUMBER IDENT + - * ^ ( ) END
    text: str
    offset: int
    value: Fraction | None = None


def _tokenize(text: str) -> list[_Token]:
    if not text.isascii():
        bad = next(i for i, ch in enumerate(text) if not ch.isascii())
        raise ParseError("non-ASCII input", bad)
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise ParseError("digits required after decimal point", i)
                while i < n and text[i].isdigit():
                    i += 1
                value = Fraction(text[start:i])  # exact base-10 expansion
            elif i < n and text[i] == "/":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise ParseError("digits required after '/'", i)
                den_start = i
                while i < n and text[i].isdigit():
                    i += 1
                den = int(text[den_start:i])
                if den == 0:
                    raise ParseError("zero denominator", den_start)
                value = Fraction(int(text[start:den_start - 1]), den)
            else:
                value = Fraction(text[start:i])
            tokens.append(_Token("NUMBER", text[start:i], start, value))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], chart):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.depth = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def descend(self) -> _Token:
        """Consume a '(' or unary '-', one more level of nesting."""
        tok = self.advance()
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", tok.offset)
        return tok

    def parse_expr(self) -> Polynomial:
        summands = [self.parse_term()]
        while self.current.kind in "+-":
            op = self.advance()
            rhs = self.parse_term()
            summands.append(rhs if op.kind == "+" else -rhs)
        return Polynomial.sum(self.chart.dim, summands)

    def parse_term(self) -> Polynomial:
        value = self.parse_factor()
        while self.current.kind == "*":
            star = self.advance()
            rhs = self.parse_factor()
            try:
                value = value * rhs
            except DegreeOverflowError:
                raise ParseError("product overflows the degree cap",
                                 star.offset) from None
        return value

    def parse_factor(self) -> Polynomial:
        if self.current.kind == "-":
            self.descend()
            value = -self.parse_factor()
            self.depth -= 1
            return value
        value = self.parse_atom()
        if self.current.kind == "^":
            caret = self.advance()
            tok = self.current
            if tok.kind == "-":
                raise ParseError("negative exponent", tok.offset)
            if tok.kind != "NUMBER" or tok.value.denominator != 1:
                raise ParseError("exponent must be a plain non-negative integer",
                                 tok.offset)
            self.advance()
            exponent = int(tok.value)
            if exponent > MAX_EXPONENT:
                raise ParseError(
                    f"exponent {exponent} above cap {MAX_EXPONENT}", tok.offset)
            try:
                value = value ** exponent
            except DegreeOverflowError:
                raise ParseError("exponentiation overflows the degree cap",
                                 caret.offset) from None
        return value

    def parse_atom(self) -> Polynomial:
        tok = self.current
        if tok.kind == "NUMBER":
            self.advance()
            return Polynomial.constant(self.chart.dim, tok.value)
        if tok.kind == "IDENT":
            self.advance()
            try:
                index = self.chart.variable_index(tok.text)
            except KeyError:
                raise ParseError(f"unknown variable {tok.text!r}", tok.offset) from None
            return Polynomial.variable(self.chart.dim, index)
        if tok.kind == "(":
            open_tok = self.descend()
            value = self.parse_expr()
            if self.current.kind != ")":
                raise ParseError("unbalanced parentheses", open_tok.offset)
            self.advance()
            self.depth -= 1
            return value
        if tok.kind == ")":
            raise ParseError("unbalanced parentheses", tok.offset)
        raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}",
                         tok.offset)


def parse_polynomial(text: str, chart) -> Polynomial:
    """Parse `text` into an exact polynomial over `chart`'s variables."""
    parser = _Parser(_tokenize(text), chart)
    value = parser.parse_expr()
    trailing = parser.current
    if trailing.kind != "END":
        raise ParseError(f"unexpected trailing input {trailing.text!r}",
                         trailing.offset)
    return value
