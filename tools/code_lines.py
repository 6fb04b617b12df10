"""Count the code lines of the spsqkd package, per module and in total.

A code line is a source line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) do not count, and a token that spans
lines (a string, say) counts on every line it spans.  ``line_tokens``
gives the tokens that start on each code line, which the tests' check
for code written twice compares.  Only the standard library is used.

    python3 tools/code_lines.py [package directory, default src/spsqkd]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import defaultdict
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_tokens(source: str) -> list[tokenize.TokenInfo]:
    """The tokens of code in one module's source, docstrings left out."""
    docs = docstring_lines(ast.parse(source))
    return [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type not in _NOT_CODE and tok.start[0] not in docs]


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    return len({n for tok in code_tokens(source)
                for n in range(tok.start[0], tok.end[0] + 1)})


def line_tokens(source: str) -> list[tuple[int, tuple[str, ...]]]:
    """(line number, tokens) of each line on which a code token starts."""
    lines = defaultdict(list)
    for tok in code_tokens(source):
        lines[tok.start[0]].append(tok.string)
    return [(n, tuple(lines[n])) for n in sorted(lines)]


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/spsqkd")
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
