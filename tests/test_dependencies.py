import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

import diotrans

ROOT = Path(__file__).resolve().parents[1]


def _imported_distributions(directory):
    """Top-level names of the absolute imports in directory/*.py, less the
    standard library and the package itself."""
    names = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"diotrans"}


def _declared(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower() for dep in requirements}


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert _declared(project["dependencies"]) == _imported_distributions(ROOT / "src" / "diotrans")


def test_test_extra_declares_every_import_of_the_tests():
    # mpmath is a test oracle only (quadosc, and the exp/ln enclosure checks)
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    imported = _imported_distributions(ROOT / "tests")
    assert {"mpmath", "pytest", "hypothesis"} <= imported
    assert _declared(project["optional-dependencies"]["test"]) == imported


# Module-level names and class methods in src/ that nothing in src/
# references and that diotrans.__all__ does not export, each with the reason
# it stays.
REACHED_FROM_OUTSIDE_SRC = {
    "radicals.exact_min": "bench/spans.py traces it as a radicals.compare span",
    "exactlinalg.Lattice.contains": "the membership reference of the HNF and LLL tests",
    "geometry.System.transposed": "the tests build the dual side's primal twin with it",
    "geometry.enumerate_nonzero": "bench/spans.py binds it; tests use it as the listing reference",
    "geometry.System.dual_values": "bench/spans.py traces it as geometry.residual",
    "geometry.box_contains": "bench/spans.py traces it",
}


def _traced():
    """bench/spans.py's TRACED entries (module, attribute, group), read from
    its source so that no bench/ code is imported."""
    for node in ast.parse((ROOT / "bench" / "spans.py").read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py assigns no TRACED list")


def test_every_traced_name_resolves():
    # the tracer getattrs each entry, so a name deleted from src/ crashes
    # every traced benchmark run; a method must be the class's own
    unresolved = []
    for module, attr, _ in _traced():
        owner = importlib.import_module(f"diotrans.{module}")
        cls, _, name = attr.rpartition(".")
        if cls:
            owner = getattr(owner, cls, None)
            ok = isinstance(owner, type) and name in vars(owner)
        else:
            ok = hasattr(owner, name)
        if not ok:
            unresolved.append(f"{module}.{attr}")
    assert unresolved == []


def _library_bindings(tree):
    """What each attribute of bench/workloads.py's ``Library`` is bound to,
    as a dotted diotrans path, read from the imports and assignments of its
    ``__init__``."""
    (init,) = [f for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Library"
               for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
    imported, bindings = {}, {}
    for node in ast.walk(init):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update((alias.asname or alias.name, f"{node.module}.{alias.name}")
                            for alias in node.names)
        elif isinstance(node, ast.Assign):
            (target,) = node.targets
            pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                     else [(target, node.value)])
            bindings.update((t.attr, imported[v.id]) for t, v in pairs)
    return bindings


def _chain(node):
    """(root, attributes) of an attribute chain such as lib.a.b; the root is
    None unless the chain starts at a name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return getattr(node, "id", None), attrs[::-1]


def _library_chains(tree):
    """Each lib.<attribute>... chain of bench/workloads.py as a list of names,
    also through a local bound to one (``h = lib.harness``, then ``h.x``)."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        aliases = {"lib": []}
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
                    and _chain(node.value)[0] == "lib"):
                aliases[node.targets[0].id] = _chain(node.value)[1]
        for node in ast.walk(func):
            root, attrs = _chain(node)
            if attrs and root in aliases:
                yield aliases[root] + attrs


def test_every_benchmark_library_name_resolves():
    # bench/test_bench.py is not collected with these tests, so a library
    # name the workloads call, private ones included, must resolve here
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    bindings = _library_bindings(tree)
    chains = list(_library_chains(tree))
    assert ["harness", "_witness_pair"] in chains and ["harness", "CORE_FAMILIES"] in chains
    unresolved = []
    for first, *rest in chains:
        if first not in bindings:
            unresolved.append(".".join(["lib", first, *rest]))
            continue
        module, _, name = bindings[first].rpartition(".")
        try:
            owner = importlib.import_module(bindings[first])
        except ImportError:
            owner = getattr(importlib.import_module(module), name, None)
        for attr in rest:
            owner = getattr(owner, attr, None)
        if owner is None:
            unresolved.append(".".join(["lib", first, *rest]))
    assert unresolved == []


def test_names_kept_for_the_tracer_are_traced():
    traced = {f"{module}.{attr}" for module, attr, _ in _traced()}
    kept = {name for name, reason in REACHED_FROM_OUTSIDE_SRC.items() if "bench/spans.py" in reason}
    assert kept and kept <= traced


def _definitions(tree):
    """(name, first line, last line) of each module-level function, class
    and constant, and of each method as Class.method, dunder names aside."""
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
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


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
                ref == name.split(".")[-1] and (other != module or not first <= line <= last)
                for other, module_refs in refs.items() for ref, line in module_refs
            )
            if not reached and name not in diotrans.__all__:
                unreached.append(f"{module}.{name}")
    assert sorted(unreached) == sorted(REACHED_FROM_OUTSIDE_SRC)


# Every parameter in src/ that has a default, as module.scope.name (lambdas
# as <lambda>).  A new library knob needs an entry here.
LIBRARY_DEFAULTS = {
    "cli.run.argv",
    "geometry.enumerate_nonzero.budget",
    "geometry.enumerate_nonzero_general.budget",
    "geometry.least_point.accept",
    "geometry.least_point.budget",
    "harness.CampaignResult.record.detail",
    "harness._below.note",
    "harness.campaign_covolumes.seed",
    "harness.campaign_covolumes.trials",
    "harness.campaign_cube_sections.seed",
    "harness.campaign_cube_sections.trials",
    "harness.campaign_dominions.seed",
    "harness.campaign_dominions.trials",
    "harness.campaign_inequalities.seed",
    "harness.campaign_inequalities.trials",
    "harness.campaign_jarnik_equality.count",
    "harness.campaign_mahler.<lambda>.k",
    "harness.campaign_mahler.dims",
    "harness.campaign_mahler.seed",
    "harness.campaign_mahler.trials_per_dim",
    "harness.campaign_main_lemma.dims",
    "harness.campaign_main_lemma.seed",
    "harness.campaign_main_lemma.trials",
    "harness.campaign_main_lemma_gap.seed",
    "harness.campaign_main_lemma_gap.trials",
    "intervals.Enclosure.__init__.hi",
    "radicals.Radical.__init__.index",
    "transfer.alphas_core.budget",
    "transfer.mahler_transfer.budget",
    "transfer.mahler_transfer_asymmetric.budget",
    "transfer.main_lemma_transfer.budget",
    "transfer.main_lemma_transfer_3d.budget",
    "transfer.semicore.budget",
}


def _defaulted_parameters(node, prefix):
    """prefix + scope.name of each parameter with a default under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scope = f"{prefix}{getattr(child, 'name', '<lambda>')}."
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] + [
                arg for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None]
            yield from (scope + arg.arg for arg in defaulted)
            yield from _defaulted_parameters(child, scope)
        elif isinstance(child, ast.ClassDef):
            yield from _defaulted_parameters(child, f"{prefix}{child.name}.")
        else:
            yield from _defaulted_parameters(child, prefix)


def test_library_defaults_are_pinned():
    found = [name for path in sorted((ROOT / "src" / "diotrans").glob("*.py"))
             for name in _defaulted_parameters(ast.parse(path.read_text()), f"{path.stem}.")]
    assert len(found) == len(set(found))
    assert set(found) == LIBRARY_DEFAULTS
