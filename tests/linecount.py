"""Count the lines of each ``src/degreecalc`` module by kind.

Run from the root of a checkout::

    python tests/linecount.py

It prints one row per module and a total row: all lines, then code,
docstring, comment and blank lines, which add up to all lines.  Each line
gets exactly one kind, the first that applies:

* docstring -- the line lies within a module, class or function docstring,
  from its opening quotes to its closing ones.  A blank line inside a
  docstring is a docstring line, not a blank one;
* code -- the line holds a token other than a comment, such as a line of a
  string that is not a docstring;
* comment -- the line holds a comment and nothing else;
* blank -- the line holds only whitespace.

Standard library only (``ast`` and ``tokenize``); pytest does not collect
this file.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "degreecalc"
KINDS = ("code", "docstring", "comment", "blank")
# Tokens that are not code: comments, line ends, indentation and the end of input.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    total = len(source.splitlines())
    docstring = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comment: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring
    comment -= docstring | code
    counts = {"code": len(code), "docstring": len(docstring), "comment": len(comment)}
    counts["blank"] = total - sum(counts.values())
    return {"total": total, **counts}


def main() -> int:
    header = ("module", "total", *KINDS)
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        rows.append((path.name, *(counts[k] for k in header[1:])))
    rows.append(("total", *(sum(r[i] for r in rows) for i in range(1, len(header)))))
    print(f"{header[0]:<14}" + "".join(f"{h:>11}" for h in header[1:]))
    for name, *numbers in rows:
        print(f"{name:<14}" + "".join(f"{x:>11,}" for x in numbers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
