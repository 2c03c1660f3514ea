"""The statements of the package that no tier-1 test executes.

    python tools/line_trace.py [PYTEST_ARGS ...]

Runs the tier-1 suite (``pytest -q`` on ``tests/``, or on PYTEST_ARGS when
given) in this interpreter under ``sys.settrace``, with ``spandist``
imported from ``src/`` beside this script's folder. Only frames whose code
lies in ``src/spandist`` are traced line by line. Afterwards it prints, per
module in path order, each statement that never ran, as its line number
and first line of source, then one total line, after pytest's own output.

A statement is one ``ast.stmt`` node, docstrings left out by the rule of
``tools/src_size.py``, so the statements walked here are the ones it
counts. A simple statement ran when a line event fell on any of its lines.
A compound one (``def``, ``if``, ``try``, ``with`` ...)
ran when an event fell on its header, from its first decorator to the line
before its body, or when any statement of its body ran: ``try:`` and
``else:`` lines get no event of their own. A child process the suite forks
(a campaign worker) keeps tracing and writes each line it runs for the
first time to a file of its own at once, so a worker that is killed hands
its lines back too; a process started by ``subprocess`` is not traced. A
statement whose first line is marked ``# pragma: no cover`` is not
reported, nor is any statement inside it.

Exit status: pytest's, so a failing suite is not mistaken for a trace.
Standard library only, besides pytest itself; ``coverage`` is not needed.
The traced suite runs a few times slower than the plain one.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
import threading
from pathlib import Path
from typing import Iterator

from src_size import _docstring  # this script's folder is first on sys.path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spandist"


class _Tracer:
    """The lines run in frames of the package, per file. In a forked child
    each line seen for the first time is also written at once to ``sink``,
    a file of the child's own, so that a child that is killed or leaves
    through ``os._exit`` has handed back every line it ran."""

    def __init__(self, prefix: str, folder: str) -> None:
        self.prefix, self.folder = prefix, folder
        self.lines: dict[str, set[int]] = {}
        self.sink: int | None = None

    def in_child(self) -> None:
        path = os.path.join(self.folder, f"{os.getpid()}.lines")
        self.sink = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)

    def global_trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(self.prefix):
            return None
        lines = self.lines.setdefault(filename, set())

        def local_trace(frame, event, arg):
            if event == "line" and frame.f_lineno not in lines:
                lines.add(frame.f_lineno)
                if self.sink is not None:
                    os.write(self.sink, f"{frame.f_lineno}\t{filename}\n".encode())
            return local_trace

        return local_trace

    def hand_back(self) -> None:
        """Add the lines that forked children wrote."""
        for path in Path(self.folder).glob("*.lines"):
            for record in path.read_text().splitlines():
                line, filename = record.split("\t", 1)
                self.lines.setdefault(filename, set()).add(int(line))


def _blocks(node: ast.AST) -> list[list[ast.stmt]]:
    """The statement lists directly inside a module or a compound statement."""
    blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
    return blocks + [block.body for block in (*getattr(node, "handlers", []), *getattr(node, "cases", []))]


def _statements(node: ast.AST) -> Iterator[ast.stmt]:
    """Every statement inside ``node`` in source order, docstrings left out."""
    doc = _docstring(node)
    for block in _blocks(node):
        for child in block:
            if child is not doc:
                yield child
                yield from _statements(child)


def missed(source: str, ran: set[int]) -> list[int]:
    """The first line of each statement of ``source`` that did not run,
    given the lines ``ran`` that got a line event; a statement whose first
    line, or that of a statement around it, says ``pragma: no cover`` is
    left out."""
    tree = ast.parse(source)
    text = source.splitlines()
    executed: dict[int, bool] = {}

    def did_run(node: ast.stmt) -> bool:
        if id(node) not in executed:
            children = [child for block in _blocks(node) for child in block]
            first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
            last = children[0].lineno - 1 if children else node.end_lineno
            header = any(line in ran for line in range(first, max(first, last) + 1))
            executed[id(node)] = header or any(did_run(child) for child in children)
        return executed[id(node)]

    statements = list(_statements(tree))
    skipped = {line for node in statements if "pragma: no cover" in text[node.lineno - 1]
               for line in range(node.lineno, node.end_lineno + 1)}
    return [node.lineno for node in statements if node.lineno not in skipped and not did_run(node)]


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as folder:
        tracer = _Tracer(str(PACKAGE) + os.sep, folder)
        os.register_at_fork(after_in_child=tracer.in_child)
        threading.settrace(tracer.global_trace)
        sys.settrace(tracer.global_trace)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        tracer.hand_back()
    total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = missed(source, tracer.lines.get(str(path), set()))
        total += len(lines)
        if lines:
            print(path.relative_to(ROOT / "src"))
            text = source.splitlines()
            for line in lines:
                print(f"  {line:>5}  {text[line - 1].strip()}")
    print(f"statements not executed: {total}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
