"""Public-API surface tests: every advertised name exists and imports.

Guards against accidental API breakage: everything in each package's
``__all__`` must resolve, and the documented top-level entry points
must stay available.
"""

from __future__ import annotations

import importlib

import pytest

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
