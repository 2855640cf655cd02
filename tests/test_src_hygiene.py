"""Static hygiene of the package source, checked with ast and one import.

No module other than __init__.py may import a name it never uses, no
module may define a module-level _private name that nothing in the
package references, and no def or lambda may take a parameter its body
never reads. The package's __all__ must list exactly the public names
__init__.py imports, eagerly or through its lazy table, plus
__version__. Deletions then cannot leave dead imports, dead helpers,
dead parameters or stale exports behind.
"""

from __future__ import annotations

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "spectral_abstraction")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _tree(name: str) -> ast.Module:
    with open(os.path.join(SRC, name), encoding="utf-8") as handle:
        return ast.parse(handle.read(), filename=name)


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        annotations = []
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level _private names bound by def, class or assignment."""
    defined = {}
    for node in tree.body:
        targets = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads or imports from a sibling module."""
    refs = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            refs |= {alias.name for alias in node.names}
    return refs


@pytest.mark.parametrize("name", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_used(name):
    tree = _tree(name)
    used = _used_names(tree)
    unused = {n: line for n, line in _imported(tree).items() if n not in used}
    assert not unused, f"{name} imports names it never uses: {unused}"


def test_every_private_module_name_is_referenced():
    trees = {name: _tree(name) for name in MODULES}
    references = set().union(*(_references(tree) for tree in trees.values()))
    dead = {
        f"{name}:{line}": private
        for name, tree in trees.items()
        for private, line in _private_definitions(tree).items()
        if private not in references
    }
    assert not dead, f"module-level private names nothing references: {dead}"


def _parameters(node) -> list[str]:
    a = node.args
    named = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
    return [arg.arg for arg in named]


@pytest.mark.parametrize("name", MODULES)
def test_every_parameter_is_read(name):
    unread = {}
    for node in ast.walk(_tree(name)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        for param in _parameters(node):
            # a method's receiver is there by calling convention, read or not
            if param not in read and param not in ("self", "cls"):
                unread[f"{name}:{node.lineno}"] = param
    assert not unread, f"{name} has parameters their body never reads: {unread}"


def test_all_lists_exactly_the_public_imports():
    import spectral_abstraction as sa

    assert len(sa.__all__) == len(set(sa.__all__)), "__all__ lists a name twice"
    unresolved = [name for name in sa.__all__ if not hasattr(sa, name)]
    assert not unresolved, f"__all__ names what the package does not define: {unresolved}"
    # the lazy table's names are imported too, on first use
    public = {name for name in _imported(_tree("__init__.py")) if not name.startswith("_")} | set(sa._LAZY)
    assert "errors" in public
    assert set(sa.__all__) == public | {"__version__"}
