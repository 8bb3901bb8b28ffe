"""Every module of the package uses each name it imports (CI runs no linter)."""

import ast

import pytest

import capauct
from conftest import REPO_ROOT

MODULES = sorted(p for p in (REPO_ROOT / "src" / "capauct").glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line it is bound on; ``__future__`` imports bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # a quoted annotation's names are not read, so quote no imported name
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports but never uses: {unused}"


def test_the_package_exports_each_name_it_imports_once():
    path = REPO_ROOT / "src" / "capauct" / "__init__.py"
    imported = set(imported_names(ast.parse(path.read_text(), filename=str(path))))
    exported = capauct.__all__
    assert len(set(exported)) == len(exported), sorted({n for n in exported if exported.count(n) > 1})
    missing, extra = sorted(imported - set(exported)), sorted(set(exported) - imported)
    assert not missing and not extra, f"not exported: {missing}; exported, not imported: {extra}"
