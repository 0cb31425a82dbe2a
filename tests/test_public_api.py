"""Public-API surface tests: every advertised name exists and imports.

Guards against accidental API breakage: everything in each package's
``__all__`` must resolve, and the documented top-level entry points
must stay available.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src"
_PERFBENCH = _SRC.parent / "perfbench"

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


#: The modules ``repro serve`` loads, then the ones its build workers
#: load while they build each kind of response.
_SERVE_PATH_IMPORTS = """
import sys
import repro.cli, repro.service.app
from repro.service import planner
from repro.service.protocol import parse_plan_request

doc = {"algorithm": "wsort", "n": 6, "destinations": [1, 3, 5, 9, 17, 33]}
for build, kind in ((planner._schedule, "schedule"), (planner._verify, "verify"),
                    (planner._simulate, "simulate")):
    build(parse_plan_request(doc, kind))
heavy = sorted(m for m in sys.modules
               if m.partition(".")[0] == "numpy" or m.startswith("repro.analysis"))
assert not heavy, heavy
"""


def test_serve_and_its_builds_import_neither_numpy_nor_the_analysis_harness():
    """``repro serve`` starts lean, and so do the workers it forks."""
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_PATH_IMPORTS],
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


def _perfbench_repro_imports() -> list[tuple[str, str, str | None]]:
    """``(file, module, name)`` for every ``from repro... import name``
    (``name`` None for ``import repro...``) in perfbench, at module level
    or inside a function."""
    found = []
    for path in sorted(_PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [(path.name, a.name, None) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found += [(path.name, node.module, a.name) for a in node.names]
    return [(where, module, name) for where, module, name in found
            if module.partition(".")[0] == "repro"]


def test_every_repro_name_perfbench_imports_resolves():
    """The benchmark reaches the program through these names only, some
    of them imported inside the functions that use them."""
    imports = _perfbench_repro_imports()
    assert {"library.py", "traced.py", "figures_trace.py", "sweep_child.py"} <= {
        where for where, _, _ in imports
    }
    missing = []
    for where, module, name in imports:
        try:
            mod = importlib.import_module(module)
            if name is not None and not hasattr(mod, name):
                importlib.import_module(f"{module}.{name}")  # a submodule
        except ImportError as exc:
            missing.append(f"{where}: from {module} import {name} ({exc})")
    assert not missing


def test_request_keeps_the_positional_fields_perfbench_builds():
    """perfbench/traced.py builds ``Request(method, path, query, headers,
    body, client)`` positionally."""
    from repro.service.http import Request

    assert [f.name for f in dataclasses.fields(Request)] == [
        "method", "path", "query", "headers", "body", "client"
    ]
