"""Meta tests: the documentation deliverable is enforced, not aspirational."""

import importlib
import inspect
import pathlib
import pkgutil

import pytest

import repro

REPO = pathlib.Path(repro.__file__).resolve().parent.parent.parent


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.endswith("__main__"):
            continue   # importing it runs the CLI
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_modules())


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES,
                             ids=lambda m: m.__name__)
    def test_every_module_has_a_docstring(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    def test_every_public_class_documented(self):
        undocumented = []
        for module in ALL_MODULES:
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue   # re-export
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, undocumented

    def test_every_public_function_documented(self):
        undocumented = []
        for module in ALL_MODULES:
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, undocumented


class TestProjectDocs:
    @pytest.mark.parametrize("name", [
        "README.md", "DESIGN.md", "EXPERIMENTS.md",
        "docs/MECHANISM.md", "docs/COSTMODEL.md", "docs/API.md",
    ])
    def test_document_exists_and_is_substantial(self, name):
        path = REPO / name
        assert path.exists(), name
        assert len(path.read_text()) > 1500, f"{name} looks like a stub"

    def test_experiments_covers_every_figure_and_table(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for item in ("Table 1", "Figure 1", "Figure 2", "Figure 3",
                     "Figure 7", "Figure 8", "Figure 9", "Figure 10",
                     "Figure 11"):
            assert item in text, item

    def test_readme_quickstart_names_real_api(self):
        text = (REPO / "README.md").read_text()
        for symbol in ("run_offline", "medusa_cold_start", "LLMEngine",
                       "Strategy"):
            assert symbol in text
            assert hasattr(repro, symbol)

    def test_design_module_tree_matches_src(self):
        """DESIGN.md's module tree names every module under ``src/repro``
        (package ``__init__`` files aside), and no module that is not."""
        text = (REPO / "DESIGN.md").read_text()
        tree = text[text.index("```\nsrc/repro/\n") + 4:]
        tree = tree[:tree.index("```")].splitlines()[1:]
        named, parents = set(), []
        for line in tree:
            entry = line.split(maxsplit=1)[0] if line.strip() else ""
            depth = (len(line) - len(line.lstrip())) // 2
            if not entry.endswith(("/", ".py")) or depth > 4:
                continue   # a description's continuation line
            del parents[depth - 1:]
            if entry.endswith("/"):
                parents.append(entry)
            else:
                named.add("".join(parents) + entry)
        src = REPO / "src" / "repro"
        modules = {str(path.relative_to(src)) for path in src.rglob("*.py")
                   if path.name != "__init__.py"}
        assert sorted(named - modules) == [], "named but not in src"
        assert sorted(modules - named) == [], "in src but not named"
