"""List the `src/clusternets` lines that no test runs in-process.

    python tests/unrun_lines.py [pytest options]

Stdlib only. A tracer set by `sys.settrace` and `threading.settrace`
records the line events of frames under `src/clusternets` while
`pytest.main` runs `tests/`. A module's executable lines are the lines of
its code objects, nested ones included (`co_lines()`), minus `def`,
`class`, decorator and docstring lines. The exit code is pytest's when a
test fails, else 1 for an unrun line missing from SUBPROCESS_ONLY or an
entry there that names no unrun line, else 0. pytest collects only
`test_*.py`, so this file is no test.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clusternets"

# Lines that tests run only in a child process, keyed by file and stripped
# source text (line numbers move), each with the test that reaches it.
SUBPROCESS_ONLY = {
    # bench/replay.py reads a layer's name from cli before a run binds it
    ("cli.py", "_bind(layer)"): "test_bench.py (bench/replay.py)",
    ("cli.py", "return globals()[name]"): "test_bench.py (bench/replay.py)",
    # a payload write that fails part way, under RLIMIT_FSIZE in a child
    ("cli.py", "Path(path).unlink()"): "test_cli.py::test_payload_cut_short_leaves_no_file",
    ("cli.py", "sys.exit(main())"): "test_cli.py (python -m clusternets.cli)",
    ("__init__.py", "return sorted({*globals(), *__all__})"):
        "test_cli.py::test_package_names_resolve_to_their_modules",
}


def executable_lines(path: Path) -> set[int]:
    """Lines that hold bytecode, minus def, class, decorator and docstring lines."""
    source = path.read_text()
    lines: set[int] = set()
    todo = [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        body = node.body
        if not isinstance(node, ast.Module):
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            lines.difference_update(range(first, body[0].lineno))
        doc = body[0]
        if isinstance(doc, ast.Expr) and isinstance(doc.value, ast.Constant) \
                and isinstance(doc.value.value, str):
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = os.path.join(PACKAGE, "")
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set())
        return local(frame, event, arg)

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main([str(ROOT / "tests"), "-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if code != 0:
        return int(code)
    problems, expected = [], dict(SUBPROCESS_ONLY)
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            key = (path.name, text[line - 1].strip())
            if expected.pop(key, None) is None:
                problems.append(f"unrun: {path.relative_to(ROOT)}:{line}: {key[1]}")
    for (name, source), where in expected.items():
        problems.append(f"SUBPROCESS_ONLY names no unrun line: {name}: {source} ({where})")
    summary = f"{len(problems)} problems; {len(SUBPROCESS_ONLY)} lines listed as run in a child"
    print("\n".join([*problems, summary]))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
