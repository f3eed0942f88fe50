"""Text syntax for manifold expressions.

Grammar::

    expr := term ('x' term)*          products
    term := atom ('#' atom)*          connected sums ('#' binds tighter)
    atom := 'K(' int ';' int ')'      circle bundle: K(base genus; Euler number)
          | 'S(' nat ')'              surface of given genus
          | 'S1'                      the circle
          | '(' expr ')'
    int  := '-'? [0-9]+               ASCII digits only

Whitespace is insignificant.  Parsed expressions are canonical as built, and
:func:`print_expr` emits the canonical text, so ``parse_expr(print_expr(e)) == e``
for every ``e`` whose text nests parentheses at most :data:`MAX_NESTING` deep;
a text print_expr computed parses back to that very object while it is in
the one table of texts that printing and parsing fill.
"""

from __future__ import annotations

import re

from ._memo import memo
from .manifold import (
    CIRCLE,
    Circle,
    CircleBundle,
    ConnSum,
    MalformedExpr,
    ManifoldExpr,
    Product,
    Surface,
    normalize,  # held by perfbench/tests (traced_run)
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


# One alternative per token class; a '-' with no digit after it falls to 'other'.
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<space>[^\S\n]+)|(?P<int>-?[0-9]+)"
    r"|(?P<name>[^\W\d_][^\W_]*)|(?P<punct>[#();,])|(?P<other>.)"
)
_NAMES = ("K", "S", "S1", "x")

# (kind, text, line, column); kind is the text for names and punctuation,
# else 'int' or 'end'
_Token = tuple[str, str, int, int]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
        kind, word = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "name" and word not in _NAMES:
            raise ParseError(f"unknown name {word!r}", line, column, _NAMES)
        elif kind == "other" and word == "-":
            raise ParseError("lone '-'", line, column, ("integer",))
        elif kind == "other":
            raise ParseError(f"unexpected character {word!r}", line, column)
        elif kind != "space":
            tokens.append((kind if kind == "int" else word, word, line, column))
    tokens.append(("end", "", line, len(text) - line_start + 1))
    return tokens


# Deepest parenthesis nesting accepted: parsing and the tree walks recurse per level.
MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def unexpected(self, expected: tuple[str, ...]) -> ParseError:
        kind, _, line, column = self.tokens[self.pos]
        return ParseError(
            f"unexpected {kind if kind != 'end' else 'end of input'}", line, column, expected
        )

    def take(self, kind: str) -> str:
        """Consume a token of this kind and return its text."""
        if self.peek() != kind:
            raise self.unexpected((kind,))
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def take_int(self) -> int:
        _, _, line, column = self.tokens[self.pos]
        text = self.take("int")
        try:
            return int(text)
        except ValueError:  # beyond Python's limit on int() digits
            raise ParseError(
                f"integer of {len(text.lstrip('-'))} digits is too long", line, column
            ) from None

    def parse_expr(self) -> ManifoldExpr:
        factors = [self.parse_term()]
        while self.peek() == "x":
            self.take("x")
            factors.append(self.parse_term())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_term(self) -> ManifoldExpr:
        summands = [self.parse_atom()]
        while self.peek() == "#":
            self.take("#")
            summands.append(self.parse_atom())
        if len(summands) == 1:
            return summands[0]
        return ConnSum(tuple(summands))

    def parse_atom(self) -> ManifoldExpr:
        kind, _, line, column = self.tokens[self.pos]
        if kind == "S1":
            self.take("S1")
            return CIRCLE
        if kind == "S":
            self.take("S")
            self.take("(")
            genus = self.take_int()
            self.take(")")
            return Surface(genus)
        if kind == "K":
            self.take("K")
            self.take("(")
            genus = self.take_int()
            self.take(";")
            euler = self.take_int()
            self.take(")")
            return CircleBundle(genus, euler)
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING}", line, column)
            self.take("(")
            self.depth += 1
            inner = self.parse_expr()
            self.depth -= 1
            self.take(")")
            return inner
        raise self.unexpected(("K", "S", "S1", "("))


def parse_expr(text: str) -> ManifoldExpr:
    """Parse a manifold expression.  A text in print_expr's layout is looked up
    in one table of texts, which :func:`print_expr` fills with the object it
    wrote a text for and a parse with the object it built; while a text is
    there it parses to that object, equal to what the tokenizer gives."""
    if type(text) is str:
        try:
            return _parse_canonical(text)
        except MalformedExpr:  # not in that layout, or no manifold
            pass
    return _parse_tokens(text)


# One atom as print_expr writes it.  A longer integer takes the tokenizer path,
# which reports one too long for int() with its column.
_ATOM_RE = re.compile(r"K\([0-9]{1,18};-?[0-9]{1,18}\)|S\([0-9]{1,18}\)|S1")

# The table keeps no longer text: such a text is parsed at every call.
_TEXT_MAX = 4096


@memo()
def _box(text: str) -> list[ManifoldExpr]:
    """The table: a box for the expression of a text in print_expr's layout,
    empty until print_expr writes the text or _parse_canonical parses it."""
    return []


def _parse_canonical(text: str) -> ManifoldExpr:
    """The expression of a text in print_expr's layout without parentheses
    (atoms joined by " # " into terms, terms joined by " x "), such as a
    certificate's M and N, each term and atom text parsed through the table,
    so that a text in it is parsed once.  MalformedExpr if the text is not in
    that layout or names no manifold; its box is then left empty."""
    box = _box(text) if len(text) <= _TEXT_MAX else []
    if not box:
        if " x " in text:
            box.append(Product(tuple(map(_parse_canonical, text.split(" x ")))))
        elif " # " in text:
            # "K(2;1)" and "K(2;01)" are one atom: the sum counts per atom, not per text
            box.append(ConnSum(map(_parse_canonical, text.split(" # "))))
        elif _ATOM_RE.fullmatch(text):
            box.append(_Parser(_tokenize(text)).parse_atom())
        else:
            raise MalformedExpr("not in print_expr's layout")
    return box[0]


def _parse_tokens(text: str) -> ManifoldExpr:
    """Parse a manifold expression through the tokenizer: any text, with
    positioned errors.  The reference for the canonical path."""
    parser = _Parser(_tokenize(text))
    try:
        expr = parser.parse_expr()
        kind, word, line, column = parser.tokens[parser.pos]
        if kind != "end":
            raise ParseError(f"trailing input {word!r}", line, column, ("end of input",))
        return expr
    except MalformedExpr as exc:
        raise SemanticError(str(exc)) from exc


def print_expr(m: ManifoldExpr) -> str:
    """Canonical text for an expression, computed on the first call for an
    object and kept on it; a sum or product joins its parts' kept texts.  A
    computed text is put in :func:`parse_expr`'s table, so that it parses
    back to ``m``."""
    text = getattr(m, "_text", None)
    if text is not None:
        return text
    if isinstance(m, Circle):
        text = "S1"
    elif isinstance(m, Surface):
        text = f"S({m.genus})"
    elif isinstance(m, CircleBundle):
        text = f"K({m.base_genus};{m.euler})"
    elif isinstance(m, ConnSum):
        parts: list[str] = []
        for s, count in m.counts:
            text = print_expr(s)
            parts += [f"({text})" if isinstance(s, Product) else text] * count
        text = " # ".join(parts)
    elif isinstance(m, Product):
        text = " x ".join(map(print_expr, m.factors))
    else:
        raise MalformedExpr(f"not a manifold expression: {m!r}")
    object.__setattr__(m, "_text", text)
    # no text with a group (a "(" first or after a space), which might nest
    # too deep to parse, is put in the table
    if len(text) <= _TEXT_MAX and text[0] != "(" and " (" not in text:
        _box(text)[:] = [m]
    return text
