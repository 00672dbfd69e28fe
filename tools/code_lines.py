"""Count the code lines of a Python package: lines that hold a code token,
not counting docstrings (module, class and function), comments or blank
lines. Standard library only (`ast` and `tokenize`).

    python3 tools/code_lines.py [DIR]    # default: src/evosim

Prints one `<count> <module>` line per module, in name order, then the
total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that are not code: layout and comments.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree):
    """The (line, column) where each docstring of the tree starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def code_lines(path):
    """The number of lines of the file at `path` that hold a code token."""
    source = Path(path).read_bytes()
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING
                                     and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/evosim")
    counts = {path.name: code_lines(path) for path in sorted(root.glob("*.py"))}
    width = len(f"{sum(counts.values()):,}")
    for name, count in counts.items():
        print(f"{count:>{width},} {name}")
    print(f"{sum(counts.values()):>{width},} total")


if __name__ == "__main__":
    main(sys.argv)
