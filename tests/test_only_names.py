"""The ledger of ``src`` names that only tests reach.

A name is *reached* when some program file refers to it: a ``src``
module other than a package ``__init__`` (whose imports are re-exports),
or any file under ``bench``, ``benchmarks``, ``scripts`` or
``examples``.  A reference is a bare name, an attribute, or a string
that is exactly the identifier (``getattr`` keys).  The scan is by name,
so two defs that share a name are reached together.

Every function, method and class defined under ``src`` that is not
reached is listed in ``test_only_names.json`` with the reason it stays.
A change that leaves a def unreached either deletes it, with the tests
of it alone, or lists it and says why in CHANGES.md.  A listed name that
is reached again, or no longer exists, leaves the ledger.
"""

from __future__ import annotations

import ast
import json
import pathlib
from typing import Dict, Iterator, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PROGRAM_DIRS = ("bench", "benchmarks", "scripts", "examples")
LEDGER = pathlib.Path(__file__).with_name("test_only_names.json")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _defs(tree: ast.AST, prefix: str) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every def, methods included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qualified = f"{prefix}.{node.name}"
            yield qualified, node.name
            if isinstance(node, ast.ClassDef):
                yield from _defs(node, qualified)


def _references(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def unreached_names() -> Set[str]:
    """Qualified names of the ``src`` defs no program file refers to."""
    defs: Dict[str, str] = {}
    referenced: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        defs.update(_defs(tree, module.removesuffix(".__init__")))
        if path.name != "__init__.py":
            referenced.update(_references(tree))
    for directory in PROGRAM_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            referenced.update(_references(tree))
    return {qualified for qualified, name in defs.items()
            if name not in referenced
            and not (name.startswith("__") and name.endswith("__"))}


def test_unreached_names_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    unreached = unreached_names()
    assert all(reason.strip() for reason in ledger.values())
    assert sorted(unreached - ledger.keys()) == [], (
        "src defs no program file reaches: delete them with the tests of "
        "them alone, or list them in test_only_names.json with a reason")
    assert sorted(ledger.keys() - unreached) == [], (
        "ledger names that are reached again or no longer exist: remove "
        "them from test_only_names.json")
