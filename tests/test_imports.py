"""Every module of the package uses each name it imports and reads each private name it defines.

CI runs no linter.
"""

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


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each private (``_x``, not dunder) name a module binds at top level, with its statement."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        names.update((name, node) for name in bound if name.startswith("_") and not name.endswith("__"))
    return names


def reads(node: ast.AST) -> list[str]:
    """The names a piece of code reads, as bare names or as attributes."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)]


def test_every_private_name_is_read_outside_its_own_definition():
    trees = [ast.parse(p.read_text(), filename=str(p))
             for p in sorted((REPO_ROOT / "src" / "capauct").glob("*.py"))]
    everywhere = [name for tree in trees for name in reads(tree)]
    definitions = {name: node for tree in trees for name, node in private_definitions(tree).items()}
    assert definitions
    dead = sorted(name for name, node in definitions.items()
                  if everywhere.count(name) == reads(node).count(name))
    assert not dead, f"private names that nothing in src/ reads: {dead}"
