"""Nothing cold leaves cyclic garbage.

Garbage in a reference cycle waits for the cyclic collector, whose
passes grow with a long-lived server's heap.  Every tree builder and
every cold service request must free what it made on its last
reference, so these tests run with the collector off.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro.core.paths import ResolutionOrder
from repro.multicast.ports import ALL_PORT
from repro.multicast.registry import ALGORITHMS, get_algorithm
from repro.multicast.verify import verify_multicast
from repro.parallel.cache import compute_delay_stats, compute_schedule_table
from repro.simulator.params import NCUBE2


@pytest.fixture
def collector_off():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("order", list(ResolutionOrder), ids=lambda o: o.name.lower())
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_a_built_tree_is_freed_on_its_last_reference(collector_off, name, order):
    tree = ALGORITHMS[name]().build_tree(6, 5, [0, 1, 7, 18, 33, 40, 60], order)
    assert tree.sends
    ref = weakref.ref(tree)
    del tree
    assert ref() is None


def _cold_sets(count: int) -> list[list[int]]:
    rng = random.Random(2024)
    return [sorted(rng.sample(range(1, 1 << 10), rng.randint(200, 400))) for _ in range(count)]


REQUESTS = {
    "schedule": lambda dests: compute_schedule_table("wsort", 10, 0, dests, ALL_PORT),
    "simulate": lambda dests: compute_delay_stats("wsort", 10, 0, dests, 4096, NCUBE2, ALL_PORT),
    "verify": lambda dests: verify_multicast(get_algorithm("wsort"), 10, 0, dests, ALL_PORT),
}


@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_a_cold_request_leaves_no_cyclic_garbage(collector_off, kind):
    """What the service computes for a destination set it has not seen."""
    warm, cold = _cold_sets(2)
    REQUESTS[kind](warm)  # lazy imports and route tables are not garbage
    gc.collect()
    REQUESTS[kind](cold)
    assert gc.collect() == 0
