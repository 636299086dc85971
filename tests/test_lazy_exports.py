"""The lazy package ``__init__`` modules keep the eager public surface.

Every package re-exports its names on first access (PEP 562) instead
of importing its submodules up front.  These tests pin what the eager
imports gave: each name in ``__all__`` resolves to the object its
submodule defines, ``dir()`` and ``from pkg import *`` see all of them,
unknown names still raise ``AttributeError``, and a re-exported name
reads the submodule's current binding, so a function rebound in its
submodule (and restored) is seen through the package and never left
behind in it.
"""

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
