"""Code size of the kineticlines package, by one stated rule, as JSON.

A token is a Python `tokenize` token that is not a comment, a docstring
(the string statement that opens a module, class or function) or layout:
no NEWLINE, NL, INDENT, DEDENT, ENCODING or ENDMARKER. An f-string is one
token, as Python 3.11 and earlier tokenize it. A code line is a line on
which some token starts.

    python tools/size.py [PACKAGE_DIR]

prints {"modules": {name: {"lines": ..., "tokens": ...}}, "lines": ...,
"tokens": ...} for every *.py file of PACKAGE_DIR, src/kineticlines by
default.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kineticlines"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
# Python 3.12 splits an f-string into these and the tokens between them
_FSTRING_START = getattr(tokenize, "FSTRING_START", None)
_FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """The (row, col) where each docstring of source starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> dict[str, int]:
    """{"lines": code lines, "tokens": tokens} of one module's source."""
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    tokens = depth = 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if depth:  # inside an f-string, whose start was counted
            depth += (tok.type == _FSTRING_START) - (tok.type == _FSTRING_END)
            continue
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        depth = int(tok.type == _FSTRING_START)
        tokens += 1
        lines.add(tok.start[0])
    return {"lines": len(lines), "tokens": tokens}


def package_size(package: Path = PACKAGE) -> dict:
    """count() of every module of package, and the totals."""
    modules = {path.stem: count(path.read_text()) for path in sorted(package.glob("*.py"))}
    return {
        "modules": modules,
        "lines": sum(m["lines"] for m in modules.values()),
        "tokens": sum(m["tokens"] for m in modules.values()),
    }


if __name__ == "__main__":
    print(json.dumps(package_size(Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE), indent=2))
