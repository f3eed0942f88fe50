"""Text syntax for manifold expressions.

Grammar::

    expr := term ('x' term)*          products
    term := atom ('#' atom)*          connected sums ('#' binds tighter)
    atom := 'K(' int ';' int ')'      circle bundle: K(base genus; Euler number)
          | 'S(' nat ')'              surface of given genus
          | 'S1'                      the circle
          | '(' expr ')'

Whitespace is insignificant.  Parsing normalizes the result, and
:func:`print_expr` emits the canonical text, so
``parse_expr(print_expr(e)) == normalize(e)`` for every well-formed ``e``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .manifold import (
    CIRCLE,
    Circle,
    CircleBundle,
    ConnSum,
    MalformedExpr,
    ManifoldExpr,
    Product,
    Surface,
    normalize,
)


class ParseError(ValueError):
    """Syntax error, with position and the tokens that would have been legal."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        suffix = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{suffix}")


class SemanticError(ValueError):
    """The text parses but denotes an invalid manifold."""


@dataclass(frozen=True)
class _Token:
    kind: str  # 'K' | 'S' | 'S1' | 'x' | '#' | '(' | ')' | ';' | 'int' | 'end'
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if c in "#();,":
            tokens.append(_Token(c, c, line, start_col))
            i += 1
            col += 1
            continue
        if c == "-" or c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            word = text[i:j]
            if word == "-":
                raise ParseError("lone '-'", line, start_col, ("integer",))
            tokens.append(_Token("int", word, line, start_col))
            col += j - i
            i = j
            continue
        if c.isalpha():
            j = i + 1
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word in ("K", "S", "S1", "x"):
                tokens.append(_Token(word, word, line, start_col))
                col += j - i
                i = j
                continue
            raise ParseError(f"unknown name {word!r}", line, start_col, ("K", "S", "S1", "x"))
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    tokens.append(_Token("end", "", line, col))
    return tokens


# Deepest parenthesis nesting accepted: parsing and the tree walks recurse per level.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"unexpected {tok.kind if tok.kind != 'end' else 'end of input'}",
                tok.line,
                tok.column,
                (kind,),
            )
        self.pos += 1
        return tok

    def parse_expr(self) -> ManifoldExpr:
        factors = [self.parse_term()]
        while self.peek().kind == "x":
            self.take("x")
            factors.append(self.parse_term())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_term(self) -> ManifoldExpr:
        summands = [self.parse_atom()]
        while self.peek().kind == "#":
            self.take("#")
            summands.append(self.parse_atom())
        if len(summands) == 1:
            return summands[0]
        return ConnSum(tuple(summands))

    def parse_atom(self) -> ManifoldExpr:
        tok = self.peek()
        if tok.kind == "S1":
            self.take("S1")
            return CIRCLE
        if tok.kind == "S":
            self.take("S")
            self.take("(")
            genus = int(self.take("int").text)
            self.take(")")
            if genus < 0:
                raise SemanticError(f"surface genus must be >= 0, got {genus}")
            return Surface(genus)
        if tok.kind == "K":
            self.take("K")
            self.take("(")
            genus = int(self.take("int").text)
            self.take(";")
            euler = int(self.take("int").text)
            self.take(")")
            if genus < 2:
                raise SemanticError(f"circle bundle base genus must be >= 2, got {genus}")
            return CircleBundle(genus, euler)
        if tok.kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", tok.line, tok.column
                )
            self.take("(")
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.take(")")
            return inner
        raise ParseError(
            f"unexpected {tok.kind if tok.kind != 'end' else 'end of input'}",
            tok.line,
            tok.column,
            ("K", "S", "S1", "("),
        )


def parse_expr(text: str) -> ManifoldExpr:
    """Parse and normalize a manifold expression."""
    parser = _Parser(_tokenize(text))
    try:
        expr = parser.parse_expr()
        end = parser.peek()
        if end.kind != "end":
            raise ParseError(
                f"trailing input {end.text!r}", end.line, end.column, ("end of input",)
            )
        return normalize(expr)
    except MalformedExpr as exc:
        raise SemanticError(str(exc)) from exc


def print_expr(m: ManifoldExpr) -> str:
    """Canonical text for an expression (normalizes first)."""
    return _print(normalize(m))


def _print(m: ManifoldExpr) -> str:
    if isinstance(m, Circle):
        return "S1"
    if isinstance(m, Surface):
        return f"S({m.genus})"
    if isinstance(m, CircleBundle):
        return f"K({m.base_genus};{m.euler})"
    if isinstance(m, ConnSum):
        parts = [
            f"({_print(s)})" if isinstance(s, Product) else _print(s) for s in m.summands
        ]
        return " # ".join(parts)
    return " x ".join(_print(f) for f in m.factors)
