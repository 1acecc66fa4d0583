import ast
import re
import sys
from pathlib import Path

import pytest

import diotrans

ROOT = Path(__file__).resolve().parents[1]


def _imported_distributions():
    """Top-level names of the absolute imports in src/diotrans/*.py, less the
    standard library and the package itself."""
    names = set()
    for path in (ROOT / "src" / "diotrans").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"diotrans"}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower()
                for dep in project["dependencies"]}
    assert declared == _imported_distributions()


# Module-level names in src/ that nothing in src/ references and that
# diotrans.__all__ does not export, each with the reason it stays.
REACHED_FROM_OUTSIDE_SRC = {
    "radicals.exact_min": "bench/spans.py traces it as a radicals.compare span",
}


def _definitions(tree):
    """(name, first line, last line) of each module-level function, class
    and constant, dunder names aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def _references(tree):
    """(name, line) of each name read or attribute accessed."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_library_definition_is_reached_from_the_library():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "diotrans").glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    unreached = []
    for module, tree in trees.items():
        for name, first, last in _definitions(tree):
            reached = any(
                ref == name and (other != module or not first <= line <= last)
                for other, module_refs in refs.items() for ref, line in module_refs
            )
            if not reached and name not in diotrans.__all__:
                unreached.append(f"{module}.{name}")
    assert sorted(unreached) == sorted(REACHED_FROM_OUTSIDE_SRC)
