"""Print the code lines of each module in a package directory, and their total.

A code line holds a token that is neither a comment nor part of a
docstring (the string that opens a module, class or function body).
Blank lines do not count.  Usage::

    python tools/code_lines.py src/corrgen
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(root: str) -> None:
    counts = {p.name: code_lines(p) for p in sorted(Path(root).glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:20} {n:5}")
    print(f"{'total':20} {sum(counts.values()):5}")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/corrgen")
