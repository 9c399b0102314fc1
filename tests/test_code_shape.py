"""Code-shape guard: no function or method in ``src/repro`` is too long.

The replay compiler used to be one ~800-line function; it is now a table
of per-op lowerings plus separate passes.  This guard keeps any single
top-level function or method from growing back past the limit.
"""

from __future__ import annotations

import ast
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE_ROOT = REPO_ROOT / "src" / "repro"

#: longest top-level function or method body allowed, in source lines
MAX_FUNCTION_LINES = 200


def _functions(tree: ast.Module):
    """Top-level functions and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


def _long_functions(limit: int):
    found = []
    for path in sorted(SOURCE_ROOT.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for name, node in _functions(tree):
            length = node.end_lineno - node.lineno + 1
            if length > limit:
                where = path.relative_to(REPO_ROOT)
                found.append(f"{where}:{node.lineno} {name} ({length} lines)")
    return found


def test_no_function_exceeds_the_line_limit():
    too_long = _long_functions(MAX_FUNCTION_LINES)
    assert not too_long, "functions over the limit: " + "; ".join(too_long)


def test_guard_sees_source_functions():
    # the scan must actually reach the package (an empty scan passes
    # vacuously): at a limit of one line every function is reported
    assert len(_long_functions(1)) > 100
