"""Module boundaries of the package, checked on the source text alone.

No pesvlab module reaches into another one's private names, every name a
module exports in ``__all__`` exists, every pesvlab name the demos use
resolves, and the benchmark calls only exported names.  The checks parse
the files and execute none of them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pesvlab"
TREES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def top_level_nodes(body):
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from top_level_nodes(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            yield from top_level_nodes(node.body + node.orelse + node.finalbody)


def bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level."""
    names = set()
    for node in top_level_nodes(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.asname or a.name for a in node.names)
    return names


BOUND = {name: bound_names(tree) for name, tree in TREES.items()}


def target_module(node: ast.ImportFrom) -> str | None:
    """The pesvlab module an import reads from (``__init__`` for the
    package), or None for a module outside the package."""
    if node.level == 1:
        return node.module or "__init__"
    if node.level == 0 and node.module and node.module.split(".")[0] == "pesvlab":
        parts = node.module.split(".")
        return parts[1] if len(parts) > 1 else "__init__"
    return None


def pesvlab_uses(tree: ast.Module):
    """Yield ``(module, name, line)`` for every name read from a pesvlab
    module: names imported from one, and attributes of a name bound to one."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := target_module(node)):
            for a in node.names:
                if mod == "__init__" and a.name in TREES:
                    aliases[a.asname or a.name] = a.name
                else:
                    yield mod, a.name, node.lineno
        elif isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "pesvlab" and len(parts) == 2 and a.asname:
                    aliases[a.asname] = parts[1]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            yield aliases[node.value.id], node.attr, node.lineno


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_private_access_across_modules(module):
    leaks = [
        f"{module}.py:{line} uses {other}.{name}"
        for other, name, line in pesvlab_uses(TREES[module])
        if other != module and is_private(name)
    ]
    assert not leaks


def exported(module: str) -> list[str]:
    """The names a module lists in ``__all__``, or none without one."""
    for node in TREES[module].body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("module", sorted(TREES))
def test_all_names_exist(module):
    missing = [name for name in exported(module) if name not in BOUND[module]]
    assert not missing


def test_package_exports_are_module_exports():
    """Every name the package imports from a module is in that module's
    ``__all__``, so a name removed from a module leaves the package too."""
    unlisted = [
        f"__init__.py:{node.lineno} imports {node.module}.{a.name}"
        for node in TREES["__init__"].body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for a in node.names
        if a.name not in exported(node.module)
    ]
    assert not unlisted


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_names_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    unresolved = [
        f"{demo.name}:{line} uses {module}.{name}"
        for module, name, line in pesvlab_uses(tree)
        if module not in TREES
        or not (name in BOUND[module] or (module == "__init__" and name in TREES))
    ]
    assert not unresolved


@pytest.mark.parametrize("script", PERFBENCH, ids=lambda p: p.name)
def test_benchmark_uses_only_exported_names(script):
    """The benchmark calls only names in a module's ``__all__``, plus
    ``cli.main``, so a change to ``__all__`` that breaks it shows here."""
    tree = ast.parse(script.read_text(), filename=str(script))
    unexported = [
        f"{script.name}:{line} uses {module}.{name}"
        for module, name, line in pesvlab_uses(tree)
        if (module, name) != ("cli", "main")
        and not (module in TREES and name in exported(module))
        and not (module == "__init__" and name in TREES)
    ]
    assert not unexported


def test_cli_trains_and_measures_only_through_fit_and_measure():
    """The CLI parses and writes: it reaches training and measurement only
    through ``erm.fit_and_measure`` and does not import ``norms``."""
    tree = TREES["cli"]
    uses = {(module, name) for module, name, _ in pesvlab_uses(tree)}
    steps = {
        "train", "train_many", "sample_dataset", "init_params", "empirical_error",
        "generalization_error_mc",
    }
    assert ("erm", "fit_and_measure") in uses
    assert not [f"{module}.{name}" for module, name in uses if name in steps]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := target_module(node)):
            imported.add(mod)
            if mod == "__init__":
                imported.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not imported & {"norms", "pesvlab.norms"}


def test_cli_builds_process_pools_in_one_function():
    """``sweep`` and ``verify`` share one task runner: ``cli.py`` constructs
    ``ProcessPoolExecutor`` in exactly one function, ``_run_tasks``."""
    builders = set()
    for node in TREES["cli"].body:
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and "ProcessPoolExecutor" in (
                getattr(call.func, "id", None), getattr(call.func, "attr", None)
            ):
                builders.add(getattr(node, "name", f"line {node.lineno}"))
    assert builders == {"_run_tasks"}
