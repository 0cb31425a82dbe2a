"""Public-API surface tests: every advertised name exists and imports.

Guards against accidental API breakage: everything in each package's
``__all__`` must resolve, and the documented top-level entry points
must stay available.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"

#: Refuses every module outside the standard library, the package and
#: the dependencies pyproject.toml declares, then imports the package
#: and its CLI.
_IMPORT_ON_DECLARED_DEPENDENCIES = """
import sys

ALLOWED = {"repro", "numpy"}


class RefuseUndeclared:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top in ALLOWED or top in sys.stdlib_module_names:
            return None
        raise ModuleNotFoundError(f"{name} is not a declared dependency")


sys.meta_path.insert(0, RefuseUndeclared())
import repro, repro.cli
"""

PACKAGES = [
    "repro",
    "repro.core",
    "repro.multicast",
    "repro.simulator",
    "repro.collectives",
    "repro.analysis",
    "repro.obs",
    "repro.parallel",
    "repro.service",
    "repro.faults",
    "repro.lint",
]


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_names_resolve(pkg):
    mod = importlib.import_module(pkg)
    assert hasattr(mod, "__all__") and mod.__all__
    for name in mod.__all__:
        assert hasattr(mod, name), f"{pkg}.__all__ lists missing name {name!r}"


@pytest.mark.parametrize("pkg", PACKAGES)
def test_all_is_sorted_and_unique(pkg):
    mod = importlib.import_module(pkg)
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_readme_quickstart_names():
    """The names used in README's quickstart exist at the documented
    locations."""
    from repro import ALL_PORT, UCube, WSort  # noqa: F401
    from repro.collectives import HypercubeCollectives  # noqa: F401
    from repro.simulator import NCUBE2, simulate_multicast  # noqa: F401


def test_imports_on_its_declared_dependencies_alone():
    """``import repro`` and the CLI need nothing pyproject.toml does not
    declare (CI's lint job installs numpy alone)."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_ON_DECLARED_DEPENDENCIES],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_version():
    import repro

    assert repro.__version__


def test_readme_quickstart_snippet_behaviour():
    """Run the README quickstart verbatim and check its stated outputs."""
    from repro import ALL_PORT, WSort
    from repro.simulator import NCUBE2, simulate_multicast

    dests = [0b0001, 0b0011, 0b0101, 0b0111, 0b1011, 0b1100, 0b1110, 0b1111]
    tree = WSort().build_tree(n=4, source=0, destinations=dests)
    sched = tree.schedule(ALL_PORT)
    assert sched.max_step == 2
    assert sched.check_contention()
    res = simulate_multicast(tree, size=4096, timings=NCUBE2, ports=ALL_PORT)
    assert res.total_blocked_time == 0.0
