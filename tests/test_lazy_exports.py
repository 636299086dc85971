"""The lazy package ``__init__`` modules keep the eager public surface.

Every package re-exports its names on first access (PEP 562) instead
of importing its submodules up front.  These tests pin what the eager
imports gave: each name in ``__all__`` resolves to the object its
submodule defines, ``dir()`` and ``from pkg import *`` see all of them,
unknown names still raise ``AttributeError``, and a re-exported name
reads the submodule's current binding, so a function rebound in its
submodule (and restored) is seen through the package and never left
behind in it.  The last test reads the same tables from the source,
importing nothing, to check that every module runs outside the tests.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro
from repro._version import tool_version

SRC = str(Path(repro.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def _defined_in(package: types.ModuleType, name: str, obj) -> bool:
    """Whether ``obj`` is what a module of ``package`` binds to ``name``."""
    if isinstance(obj, (type, types.FunctionType)):
        return getattr(importlib.import_module(obj.__module__), obj.__name__) is obj
    prefix = package.__name__ + "."
    return any(
        vars(module).get(name) is obj
        for module_name, module in list(sys.modules.items())
        if module_name == package.__name__ or module_name.startswith(prefix)
    )


def test_every_subpackage_is_covered():
    assert len(PACKAGES) > 12
    assert "repro.core" in PACKAGES and "repro.serve" in PACKAGES


@pytest.mark.parametrize("name", PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(name):
    package = importlib.import_module(name)
    assert package.__all__
    for public in package.__all__:
        obj = getattr(package, public)
        assert _defined_in(package, public, obj), f"{name}.{public}"


def test_root_names_are_the_subpackage_objects():
    for public in repro.__all__:
        obj = getattr(repro, public)
        if isinstance(obj, (type, types.FunctionType)):
            subpackage = importlib.import_module(
                ".".join(obj.__module__.split(".")[:2])
            )
            assert getattr(subpackage, public) is obj, public


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_lists_all_public_names(name):
    package = importlib.import_module(name)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_binds_all_public_names(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    package = importlib.import_module(name)
    for public in package.__all__:
        assert namespace[public] is getattr(package, public), public


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_attribute_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_version_is_the_tool_version():
    assert repro.__version__ == tool_version()


def test_a_rebound_function_shows_through_and_is_never_cached(monkeypatch):
    """The traced benchmark rebinds layer functions in their modules and
    restores them; the packages must follow both ways."""
    import repro.core
    import repro.core.validation as validation
    import repro.queueing
    import repro.queueing.plan as plan

    original = validation.compare_feature_stats
    assert repro.core.compare_feature_stats is original

    def wrapper(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(validation, "compare_feature_stats", wrapper)
    assert repro.core.compare_feature_stats is wrapper
    assert repro.compare_feature_stats is wrapper
    monkeypatch.undo()
    assert repro.core.compare_feature_stats is original
    assert repro.compare_feature_stats is original
    assert repro.queueing.plan_sweep is plan.plan_sweep
    for package, public in ((repro, "compare_feature_stats"),
                            (repro.core, "compare_feature_stats"),
                            (repro.queueing, "plan_sweep")):
        assert public not in vars(package)


def test_a_spawned_worker_pool_collects_the_same_store(tmp_path):
    """Pool tasks pickle by module path: a worker started from a fresh
    interpreter imports them through the lazy packages."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    argv = ["collect", "--app", "gfs", "--requests", "150", "--replicas", "2"]
    code = textwrap.dedent(f"""
        import multiprocessing
        from repro.cli import main
        multiprocessing.set_start_method("spawn")
        assert main({argv + ["--workers", "2", "--out", "pooled"]!r}) == 0
        assert main({argv + ["--workers", "1", "--out", "serial"]!r}) == 0
    """)
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr[-2000:]
    for shard in sorted((tmp_path / "serial").glob("shard-*")):
        for path in sorted(shard.iterdir()):
            pooled = tmp_path / "pooled" / shard.name / path.name
            assert pooled.read_bytes() == path.read_bytes(), pooled
    assert json.loads((tmp_path / "pooled" / "shard-00000001" / "manifest.json")
                      .read_text())["index"] == 1


# -- static reachability ---------------------------------------------------

#: What runs the library outside the tests: the ``repro`` command and
#: every file of the benches, the perfbench harness and the examples.
ENTRY_MODULES = ("repro.cli", "repro.__main__")
ENTRY_DIRS = ("benchmarks", "perfbench", "examples")


def _module_name(path: Path, base: Path) -> str:
    parts = path.relative_to(base).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _lazy_table(tree: ast.Module, package: str) -> dict[str, str]:
    """Each name of a package's ``_lazy_exports`` table -> its submodule."""
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lazy_exports":
            exports = node.args[1]
            for key, names in zip(exports.keys, exports.values):
                for name in ast.literal_eval(names):
                    table[name] = package + key.value
    return table


def _references(tree, name, is_package, modules, lazy) -> set[str]:
    """The ``repro`` modules a file imports, read from its AST alone.

    Imports anywhere in the file count, and a name imported from a lazy
    package counts as its defining submodule.
    """
    refs: set[str] = set()

    def load(module):
        parts = module.split(".")
        refs.update(
            ".".join(parts[:i]) for i in range(1, len(parts) + 1)
            if ".".join(parts[:i]) in modules
        )

    package = name.split(".") if is_package else name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                load(alias.name)
        elif isinstance(node, ast.ImportFrom):
            parts = package[: len(package) - node.level + 1] if node.level else []
            base = ".".join(parts + ([node.module] if node.module else []))
            load(base)
            for alias in node.names:
                load(lazy.get(base, {}).get(alias.name, f"{base}.{alias.name}"))
    return refs


def _import_graph():
    """(repro module -> modules it loads, entry file -> modules it loads)."""
    files = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        files[_module_name(path, ROOT / "src")] = (path, path.name == "__init__.py")
    trees = {name: ast.parse(path.read_text()) for name, (path, _) in files.items()}
    lazy = {name: _lazy_table(trees[name], name)
            for name, (_, is_package) in files.items() if is_package}
    graph = {
        name: _references(trees[name], name, files[name][1], files, lazy)
        for name in files
    }
    entries = {}
    for directory in ENTRY_DIRS + ("tests",):
        for path in sorted((ROOT / directory).rglob("*.py")):
            name = _module_name(path, ROOT)
            tree = ast.parse(path.read_text())
            entries[name] = _references(
                tree, name, path.name == "__init__.py", files, lazy
            )
    return graph, entries


def _closure(graph, start):
    seen, todo = set(), list(start)
    while todo:
        module = todo.pop()
        if module not in seen:
            seen.add(module)
            todo.extend(graph[module])
    return seen


def test_every_module_is_reachable_outside_the_tests():
    """No library module may be run by the tests alone: each one must be
    reachable from the command, a bench, perfbench or an example."""
    graph, entries = _import_graph()
    start = set(ENTRY_MODULES)
    for name, refs in entries.items():
        if name.split(".")[0] in ENTRY_DIRS:
            start |= refs
    reached = _closure(graph, start)
    unreached = set(graph) - reached
    tests_reach = _closure(graph, set().union(*(
        refs for name, refs in entries.items() if name.split(".")[0] == "tests"
    )))
    only_tests = sorted(unreached & tests_reach)
    assert not only_tests, f"modules only tests/ import: {only_tests}"
    assert not unreached, f"modules nothing imports: {sorted(unreached)}"
