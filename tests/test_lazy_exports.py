"""The public surface of the packages that export lazily.

``repro`` and the subpackages on the ``repro detect`` path import only
what that command runs and export every other ``__all__`` name through
a PEP 562 ``__getattr__`` (``repro._lazy_exports``).  These tests pin
that every public name still resolves where it did: to the object its
defining module binds, through ``getattr``, ``dir`` and
``from pkg import *``, both in this process and in a fresh interpreter
where nothing has been resolved yet.
"""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

LAZY_PACKAGES = [
    "repro",
    "repro.metrics",
    "repro.obs",
    "repro.platform",
    "repro.resilience",
    "repro.util",
]

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_fresh(code, *args):
    env = {**os.environ, "PYTHONPATH": os.path.join(_ROOT, "src")}
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def definitions():
    """``{(module, name): object}`` for every name a leaf module lists
    in its ``__all__``."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg or info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for name in module.__all__:
            found[info.name, name] = vars(module)[name]
    return found


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_all_names_are_their_defining_modules_objects(package, definitions):
    pkg = importlib.import_module(package)
    subpackages = {
        info.name for info in pkgutil.iter_modules(pkg.__path__) if info.ispkg
    }
    for name in pkg.__all__:
        if name == "__version__":
            continue
        if name in subpackages:
            expected = {id(importlib.import_module(f"{package}.{name}"))}
        else:
            expected = {
                id(obj)
                for (module, n), obj in definitions.items()
                if n == name and module.startswith(package + ".")
            }
        assert len(expected) == 1, (package, name)
        assert {id(getattr(pkg, name))} == expected, (package, name)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_surface_resolves_in_a_fresh_interpreter(package):
    code = """
import importlib, sys

pkg = importlib.import_module(sys.argv[1])
assert not hasattr(pkg, "no_such_name")  # False only on AttributeError
listed = dir(pkg)
missing = [name for name in pkg.__all__ if name not in listed]
assert not missing, f"not in dir(): {missing}"
ns = {}
exec(f"from {sys.argv[1]} import *", ns)
missing = [name for name in pkg.__all__ if name not in ns]
assert not missing, f"not bound by import *: {missing}"
for name in pkg.__all__:
    assert getattr(pkg, name) is ns[name], name
    assert name in vars(pkg), f"{name} not cached on the package"
print("ok")
"""
    proc = _run_fresh(code, package)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_library_quickstart_runs_fresh():
    code = (
        "import repro; "
        "g = repro.generators.planted_partition_graph(600, seed=3); "
        "r = repro.detect_communities(g); "
        "print(r.n_communities, repro.modularity(g, r.partition))"
    )
    proc = _run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    n_communities, q = proc.stdout.split()
    assert int(n_communities) > 0
    assert 0.0 < float(q) <= 1.0
