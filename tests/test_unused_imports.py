"""No ``src`` module imports a name at top level that it never uses.

A name counts as used when the module refers to it anywhere: a bare name
(in code or in an annotation) or a name inside a string annotation.
Package ``__init__`` modules are skipped, because their imports are
re-exports.  ``RE_EXPORTS`` lists the names another file reads from a
module's namespace on purpose, each with the reader.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, Set, Tuple

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

RE_EXPORTS = {
    ("repro.core.online", "resolve_kernel_addresses"):
        "bench/tracing.py wraps it in this module's namespace",
}


def _used_names(tree: ast.AST) -> Set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(name.id for name in ast.walk(expression)
                        if isinstance(name, ast.Name))
    return used


def _imported_names(tree: ast.Module) -> Iterator[str]:
    """The names the module's top-level imports bind."""
    for statement in tree.body:
        if isinstance(statement, ast.ImportFrom) \
                and statement.module == "__future__":
            continue
        if isinstance(statement, (ast.Import, ast.ImportFrom)):
            for alias in statement.names:
                yield alias.asname or alias.name.split(".")[0]


def unused_imports() -> Set[Tuple[str, str]]:
    """``(module, name)`` of every unused top-level import under ``src``."""
    unused = set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        used = _used_names(tree)
        unused.update((module, name) for name in _imported_names(tree)
                      if name not in used)
    return unused


def test_no_unused_top_level_imports():
    assert sorted(unused_imports() - RE_EXPORTS.keys()) == [], (
        "unused imports: drop them, or list a deliberate re-export in "
        "RE_EXPORTS with its reader")


def test_every_listed_re_export_is_unused_here():
    assert sorted(RE_EXPORTS.keys() - unused_imports()) == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Optional\n"
                     "x: 'Optional[int]' = None\n")
    used = _used_names(tree)
    assert [name for name in _imported_names(tree) if name not in used] \
        == ["os", "List"]
