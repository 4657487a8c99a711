"""The ledger of ``src`` names that only tests reach.

A name is *reached* when some program file refers to it: a ``src``
module other than a package ``__init__`` (whose imports are re-exports),
or any file under ``bench``, ``benchmarks``, ``scripts`` or
``examples``.  A reference is a bare name, an attribute, or a string
that is exactly the identifier (``getattr`` keys).  The scan is by name,
so two defs that share a name are reached together.

Every function, method and class defined under ``src``, and every
module-level UPPER_CASE constant, that is not reached is listed in
``test_only_names.json`` with the reason it stays.  Binding a constant
is not a reference to it: only a read is.
A change that leaves a def unreached either deletes it, with the tests
of it alone, or lists it and says why in CHANGES.md.  A listed name that
is reached again, or no longer exists, leaves the ledger.

Modules get the same ledger, keyed by module name.  A module is
*imported* when a program file imports it, or imports a name a package
re-exports from it (``from repro.faults import FaultPlan`` imports
``repro.faults.plan``); the imports of a package ``__init__`` are those
re-exports, not uses.  ``__main__`` modules are run, never imported.
The scan by name above cannot see a module no program file imports, as
long as the module refers to its own defs.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PROGRAM_DIRS = ("bench", "benchmarks", "scripts", "examples")
LEDGER = pathlib.Path(__file__).with_name("test_only_names.json")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]*$")


def program_paths(repo: pathlib.Path) -> List[pathlib.Path]:
    """Every program file under ``repo``: a ``src`` module other than a
    package ``__init__``, or any file under :data:`PROGRAM_DIRS`."""
    paths = [path for path in sorted((repo / "src").rglob("*.py"))
             if path.name != "__init__.py"]
    for directory in PROGRAM_DIRS:
        paths += sorted((repo / directory).rglob("*.py"))
    return paths


def _defs(tree: ast.AST, prefix: str) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every def, methods included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qualified = f"{prefix}.{node.name}"
            yield qualified, node.name
            if isinstance(node, ast.ClassDef):
                yield from _defs(node, qualified)


def _constants(tree: ast.Module, prefix: str) -> Iterator[Tuple[str, str]]:
    """``(qualified name, bare name)`` of every module-level UPPER_CASE
    name an assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and _CONSTANT.match(name.id):
                    yield f"{prefix}.{name.id}", name.id


def _references(tree: ast.AST) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def unreached_names() -> Set[str]:
    """Qualified names of the ``src`` defs and constants no program file
    refers to."""
    defs: Dict[str, str] = {}
    referenced: Set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        defs.update(_defs(tree, module.removesuffix(".__init__")))
        defs.update(_constants(tree, module.removesuffix(".__init__")))
    for path in program_paths(REPO):
        tree = ast.parse(path.read_text(), filename=str(path))
        referenced.update(_references(tree))
    return {qualified for qualified, name in defs.items()
            if name not in referenced
            and not (name.startswith("__") and name.endswith("__"))}


def _module(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.AST, module: str, is_package: bool
             ) -> Iterator[Tuple[str, Optional[str], str]]:
    """``(source module, imported name or None, bound name)`` of every
    import in ``tree``, which is ``module``'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None, alias.asname or alias.name
        elif isinstance(node, ast.ImportFrom):
            source = node.module
            if node.level:
                parts = module.split(".")
                keep = len(parts) - node.level + is_package
                source = ".".join(parts[:keep] + [node.module or ""]
                                  ).rstrip(".")
            for alias in node.names:
                yield source, alias.name, alias.asname or alias.name


def unimported_modules() -> Set[str]:
    """The ``src`` modules no program file imports."""
    paths = {_module(path): path for path in sorted(SRC.rglob("*.py"))}
    packages = {module for module, path in paths.items()
                if path.name == "__init__.py"}
    exports = {
        package: {bound: (source, name) for source, name, bound in _imports(
                      ast.parse(paths[package].read_text()), package, True)
                  if name is not None}
        for package in packages}

    def resolve(module: str, name: str) -> str:
        """The module that defines what ``from module import name``
        binds, through package re-exports."""
        while f"{module}.{name}" not in paths and name in exports.get(
                module, {}):
            module, name = exports[module][name]
        return f"{module}.{name}" if f"{module}.{name}" in paths else module

    imported: Set[str] = set()
    for path in program_paths(REPO):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = _module(path) if path.is_relative_to(SRC) else ""
        used = set(_references(tree))
        for source, name, _bound in _imports(tree, module, False):
            target = source if name is None else resolve(source, name)
            imported.add(target)
            # A package bound as a module object reaches what it
            # re-exports under each attribute the file uses.
            imported.update(resolve(target, attribute)
                            for attribute in exports.get(target, {})
                            if attribute in used)
    return {module for module, path in paths.items()
            if module not in imported and module not in packages
            and path.stem != "__main__"}


def test_unreached_names_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    modules = {_module(path) for path in SRC.rglob("*.py")}
    ledger = {key: reason for key, reason in ledger.items()
              if key not in modules}
    unreached = unreached_names()
    assert all(reason.strip() for reason in ledger.values())
    assert sorted(unreached - ledger.keys()) == [], (
        "src defs no program file reaches: delete them with the tests of "
        "them alone, or list them in test_only_names.json with a reason")
    assert sorted(ledger.keys() - unreached) == [], (
        "ledger names that are reached again or no longer exist: remove "
        "them from test_only_names.json")


def test_unimported_modules_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    modules = {_module(path) for path in SRC.rglob("*.py")}
    listed = {key for key in ledger if key in modules}
    unimported = unimported_modules()
    assert sorted(unimported - listed) == [], (
        "src modules no program file imports: delete them with the tests "
        "of them alone, or list them in test_only_names.json with a reason")
    assert sorted(listed - unimported) == [], (
        "ledger modules that are imported again: remove them from "
        "test_only_names.json")


def test_the_module_check_sees_an_unimported_module(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.shown import visible\nfrom pkg.hidden import hidden\n")
    (package / "shown.py").write_text("def visible(): pass\n")
    (package / "hidden.py").write_text("def hidden(): hidden()\n")
    (package / "used.py").write_text("from pkg import visible\nvisible()\n")
    (package / "__main__.py").write_text("import pkg.used\n")
    monkeypatch.setitem(globals(), "REPO", tmp_path)
    monkeypatch.setitem(globals(), "SRC", tmp_path / "src")
    assert unimported_modules() == {"pkg.hidden"}


def test_the_name_check_sees_an_unread_constant(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from pkg.consts import UNREAD\n")
    (package / "consts.py").write_text(
        "READ = 1\nUNREAD: int = 2\nPAIR_A, PAIR_B = 3, 4\n"
        "lower = READ + PAIR_A\n"
        "def uses():\n    return lower\n")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "from pkg.consts import uses\nuses()\n")
    monkeypatch.setitem(globals(), "REPO", tmp_path)
    monkeypatch.setitem(globals(), "SRC", tmp_path / "src")
    assert unreached_names() == {"pkg.consts.UNREAD", "pkg.consts.PAIR_B"}

