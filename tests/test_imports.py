"""No module of the package imports a name that it never uses, and no
module of it goes unimported.

The package __init__ re-exports by importing, so it is not scanned, and
a name imported on a line marked "# noqa: F401" is an intended
re-export.  A name counts as used when it is read anywhere in the
module, annotations included.  For the same reason a module that only
__init__ imports counts as unimported: a module the package never calls
belongs with the tests that use it, or nowhere.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "idealbar"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    exempt = {i for i, line in enumerate(source.splitlines(), 1)
              if "# noqa: F401" in line}
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.lineno not in exempt:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = ("from os import path, sep  # noqa: F401\n"
              "from sys import argv, exit\n"
              "import json\n"
              "exit(argv)\n")
    assert unused_imports(source) == [(3, "json")]


def imported_modules(source):
    """The package modules a module imports: from .x import and
    from . import x."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module.split(".")[0]] if node.module
                       else (alias.name for alias in node.names))
    return out


def test_every_module_is_imported_by_another():
    imports = {p.stem: imported_modules(p.read_text()) for p in MODULES}
    unimported = [name for name in imports if name != "__main__"
                  and not any(name in used for other, used in imports.items()
                              if other != name)]
    assert unimported == []
