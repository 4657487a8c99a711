"""The ledger of ``src`` options no program file sets.

An *option* is a defaulted parameter of a function, a method or an
``__init__`` under ``src`` (dataclass fields are not options here).  It
is *set* when a program file (see ``test_only_names.py``) calls a callee
of its def's bare name and passes the parameter by keyword or by
position.  The callee of an ``__init__`` is its class's name, or the
name of a subclass that defines no ``__init__`` of its own; a
``super().__init__(...)`` call reaches the bases' ``__init__``.  The
scan is by bare name, so two defs that share a name are set together.

A value that is the caller's own parameter, forwarded unchanged by name
or through the caller's ``**kwargs``, sets the option only if the
caller's parameter is itself set: a required parameter always is, an
option when some program call sets it.  ``repro simulate``'s
``trace=True`` thus reaches ``MultiModelCluster(trace=)`` through
``ClusterSimulator(**pool_kwargs)``.  A ``**mapping`` that is not the
caller's own ``**`` parameter could hold any key, so it sets every
parameter of its callee.

Every option no program sets is deleted, with the code only its other
values reached, or listed in ``test_only_options.json`` with the reason
it stays.  A listed option that is set again, or no longer exists,
leaves the ledger.
"""

from __future__ import annotations

import ast
import json
import pathlib
from typing import Dict, Iterator, List, Optional, Set, Tuple

from tests.test_only_names import REPO, program_paths

LEDGER = pathlib.Path(__file__).with_name("test_only_options.json")

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _bare(expression: ast.AST) -> Optional[str]:
    if isinstance(expression, ast.Name):
        return expression.id
    if isinstance(expression, ast.Attribute):
        return expression.attr
    return None


def _own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``node``'s body, not of the defs nested in it."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _FUNCTIONS + (ast.ClassDef, ast.Lambda)):
            yield from _own_nodes(child)


class _Def:
    """One function, method or ``__init__`` and its parameters."""

    def __init__(self, node: ast.FunctionDef, qualified: str,
                 owner: Optional[ast.ClassDef]):
        self.name = node.name
        self.qualified = qualified
        self.owner = owner
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(_bare(decorator) == "staticmethod"
                     for decorator in node.decorator_list)
        skip = 1 if owner is not None and not static else 0
        #: The parameters a call's positional arguments fill, in order.
        self.positional = [arg.arg for arg in positional[skip:]]
        self.defaulted = {arg.arg for arg in
                          positional[len(positional) - len(args.defaults):]}
        self.defaulted |= {arg.arg for arg, default in zip(
            args.kwonlyargs, args.kw_defaults) if default is not None}
        self.kwarg = args.kwarg.arg if args.kwarg else None
        self.named = {arg.arg for arg in positional + args.kwonlyargs}
        self.named |= {arg.arg for arg in (args.vararg, args.kwarg) if arg}
        #: Names the body binds: a parameter rebound here is no longer
        #: forwarded unchanged.
        self.rebound = {name.id for name in _own_nodes(node)
                        if isinstance(name, ast.Name)
                        and isinstance(name.ctx, ast.Store)}


class _Scan(ast.NodeVisitor):
    """The defs and classes of one file, and its calls with the defs
    that enclose each, innermost first."""

    def __init__(self, prefix: str):
        self.prefix = [prefix]
        self.defs: List[_Def] = []
        self.classes: List[ast.ClassDef] = []
        self.calls: List[Tuple[ast.Call, List[_Def],
                               Optional[ast.ClassDef]]] = []
        self._enclosing: List[_Def] = []
        self._class: Optional[ast.ClassDef] = None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.classes.append(node)
        self.prefix.append(node.name)
        outer, self._class = self._class, node
        self.generic_visit(node)
        self._class = outer
        self.prefix.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        definition = _Def(node, ".".join(self.prefix + [node.name]),
                          self._class)
        self.defs.append(definition)
        self.prefix.append(node.name)
        self._enclosing.insert(0, definition)
        outer, self._class = self._class, None
        self.generic_visit(node)
        self._class = outer
        self._enclosing.pop(0)
        self.prefix.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node: ast.Call) -> None:
        owner = self._enclosing[0].owner if self._enclosing else None
        self.calls.append((node, list(self._enclosing), owner))
        self.generic_visit(node)


def unset_options(repo: pathlib.Path = REPO) -> Set[str]:
    """``module.Qual.def(param=)`` of every ``src`` option no program
    file sets."""
    src = repo / "src"
    programs = set(program_paths(repo))
    scans: Dict[pathlib.Path, _Scan] = {}
    for path in sorted(src.rglob("*.py")) + sorted(programs):
        if path in scans:
            continue
        prefix = ".".join(path.relative_to(src).with_suffix("").parts
                          ).removesuffix(".__init__") \
            if path.is_relative_to(src) else str(path.relative_to(repo))
        scans[path] = _Scan(prefix)
        scans[path].visit(ast.parse(path.read_text(), filename=str(path)))

    functions: Dict[str, List[_Def]] = {}
    classes: Dict[str, List[ast.ClassDef]] = {}
    inits: Dict[int, _Def] = {}
    for scan in scans.values():
        for definition in scan.defs:
            if definition.name == "__init__" and definition.owner:
                inits[id(definition.owner)] = definition
            else:
                functions.setdefault(definition.name, []).append(definition)
        for node in scan.classes:
            classes.setdefault(node.name, []).append(node)

    def constructors(names: List[Optional[str]]) -> List[_Def]:
        """The ``__init__`` a call to each class name runs."""
        found: List[_Def] = []
        for name in names:
            for node in classes.get(name, []):
                if id(node) in inits:
                    found.append(inits[id(node)])
                else:
                    found += constructors([_bare(base)
                                           for base in node.bases])
        return found

    calls = []
    for path in sorted(programs):
        for call, enclosing, owner in scans[path].calls:
            function = call.func
            if (isinstance(function, ast.Attribute)
                    and function.attr == "__init__"
                    and isinstance(function.value, ast.Call)
                    and _bare(function.value.func) == "super"):
                targets = constructors([_bare(base) for base in
                                        owner.bases]) if owner else []
            else:
                name = _bare(function)
                targets = functions.get(name, []) + constructors([name])
            if targets:
                calls.append((call, enclosing, targets))

    is_set: Set[Tuple[int, str]] = set()
    spilled: Dict[int, Set[str]] = {}   # keywords reaching a ``**``

    def passes(value: ast.AST, enclosing: List[_Def]) -> bool:
        """Whether ``value`` sets what it is passed to."""
        if isinstance(value, ast.Name):
            for caller in enclosing:
                if value.id in caller.rebound:
                    return True
                if value.id in caller.named:
                    return (value.id not in caller.defaulted
                            or (id(caller), value.id) in is_set)
        return True

    def mark(target: _Def, param: str) -> bool:
        if param in target.named and param != target.kwarg:
            new = (id(target), param) not in is_set
            is_set.add((id(target), param))
            return new
        if target.kwarg is None:
            return False
        keywords = spilled.setdefault(id(target), set())
        new = param not in keywords
        keywords.add(param)
        return new

    changed = True
    while changed:
        changed = False
        for call, enclosing, targets in calls:
            caller = enclosing[0] if enclosing else None
            for target in targets:
                for index, argument in enumerate(call.args):
                    if isinstance(argument, ast.Starred):
                        for param in target.positional[index:]:
                            changed |= mark(target, param)
                        break
                    if index < len(target.positional) and \
                            passes(argument, enclosing):
                        changed |= mark(target, target.positional[index])
                for keyword in call.keywords:
                    if keyword.arg is not None:
                        if passes(keyword.value, enclosing):
                            changed |= mark(target, keyword.arg)
                    elif (caller is not None
                          and isinstance(keyword.value, ast.Name)
                          and keyword.value.id == caller.kwarg
                          and keyword.value.id not in caller.rebound):
                        for param in sorted(spilled.get(id(caller), ())):
                            changed |= mark(target, param)
                    else:
                        for param in sorted(target.named):
                            changed |= mark(target, param)

    return {f"{definition.qualified}({param}=)"
            for path, scan in scans.items() if path.is_relative_to(src)
            for definition in scan.defs
            for param in sorted(definition.defaulted)
            if (id(definition), param) not in is_set}


def test_unset_options_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    unset = unset_options()
    assert all(reason.strip() for reason in ledger.values())
    assert sorted(unset - ledger.keys()) == [], (
        "src options no program file sets: delete them with the code "
        "only their other values reach, or list them in "
        "test_only_options.json with a reason")
    assert sorted(ledger.keys() - unset) == [], (
        "ledger options that are set again or no longer exist: remove "
        "them from test_only_options.json")


def test_the_option_check_sees_an_unset_option(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "pool.py").write_text(
        "class Pool:\n"
        "    def __init__(self, size, trace=False, drain=True):\n"
        "        self.size = size\n"
        "\n"
        "class Single(Pool):\n"
        "    def __init__(self, size, **pool_kwargs):\n"
        "        super().__init__(size, **pool_kwargs)\n"
        "\n"
        "def build(size, label=None, tier=None):\n"
        "    return Pool(size, drain=tier)\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text(
        "from pkg.pool import Single, build\n"
        "Single(4, trace=True)\n"
        "build(2, 'label')\n")
    # ``trace`` is set through ``**pool_kwargs``; ``drain`` is forwarded
    # from ``build``'s ``tier``, which no program sets.
    assert unset_options(tmp_path) == {
        "pkg.pool.Pool.__init__(drain=)", "pkg.pool.build(tier=)"}
