"""The size of the package's source, per module and in total.

    python tools/src_size.py [ROOT]

ROOT is a directory (default: ``src`` beside this script's folder). For
every ``.py`` file under it, in path order, the script prints three counts,
then their totals:

- ``lines``: physical lines;
- ``doc``: lines that belong to a docstring (of the module, a class or a
  function) or hold nothing but a comment;
- ``stmts``: statements of the syntax tree (every ``ast.stmt`` node, nested
  ones included), docstrings left out.

The statement count does not move when lines are joined or split, so it
tells a cut in code from a change of layout. Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path


def _docstring(node: ast.AST) -> ast.Expr | None:
    """The docstring statement of a module, class or function, if it has one."""
    body = getattr(node, "body", None)
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
        first = body[0]
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
            return first
    return None


_LAYOUT = (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def measure(source: str) -> tuple[int, int, int]:
    """(physical lines, docstring and comment lines, statements) of one module's source."""
    tree = ast.parse(source)
    docstrings = [doc for doc in map(_docstring, ast.walk(tree)) if doc is not None]
    doc_lines = {line for doc in docstrings for line in range(doc.lineno, doc.end_lineno + 1)}
    comments, code = set(), set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comments.add(token.start[0])
        elif token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    statements = sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docstrings)
    return len(source.splitlines()), len(doc_lines | (comments - code)), statements


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src"
    files = sorted(root.rglob("*.py"))
    if not files:
        print(f"no .py files under {root}", file=sys.stderr)
        return 1
    width = max(len(str(path.relative_to(root))) for path in files)
    print(f"{'module':<{width}} {'lines':>6} {'doc':>6} {'stmts':>6}")
    totals = [0, 0, 0]
    for path in files:
        counts = measure(path.read_text(encoding="utf-8"))
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{str(path.relative_to(root)):<{width}} {counts[0]:>6} {counts[1]:>6} {counts[2]:>6}")
    print(f"{'total':<{width}} {totals[0]:>6} {totals[1]:>6} {totals[2]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
