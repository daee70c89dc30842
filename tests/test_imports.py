"""Source hygiene of the package, read from its syntax trees.

No linter ships with the test environment, so these checks stand in for
one: a module of ``src/mwsync`` uses every name it imports, and every
``__all__`` entry names an attribute of its module.  The package
``__init__`` star-imports the modules, so only its ``__all__`` is
checked, and it must be exactly the modules' ``__all__`` lists in turn.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mwsync"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            for element in node.value.elts:
                yield element.value


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_imported_name_is_used(module):
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(_exported(tree))
    assert sorted(set(_imported(tree)) - used) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_all_entry_resolves(module):
    name = "mwsync" if module == "__init__" else f"mwsync.{module}"
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert [entry for entry in exported if not hasattr(mod, entry)] == []


def test_the_package_exports_exactly_its_modules_public_names():
    import mwsync

    names = [
        name
        for module in MODULES
        if module not in ("__init__", "cli")
        for name in importlib.import_module(f"mwsync.{module}").__all__
    ]
    assert len(names) == len(set(names)) == 81
    assert mwsync.__all__ == names
