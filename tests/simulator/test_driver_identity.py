"""Output identity of the six simulate entry points.

Every entry point runs a seeded grid, and what the runs expose -- the
delays, event counts, blocked time, each worm's (uid, state, blocked
time, inject time, deliver time), telemetry records and metrics
snapshots -- is folded into one sha256 per entry point.  The digests
below were recorded before the entry points shared one simulation
driver; a mismatch means the driver no longer reproduces the harnesses
it replaced.  Do not regenerate them to make a refactor pass.

Wall-clock fields (``run_id``, ``started_at``, ``wall_seconds`` and
the ``sim.wall`` timer) are stripped before hashing.  Every network
the entry points build is captured by wrapping
:meth:`WormholeNetwork.__init__`, so worms are hashed even for result
types that do not expose the network.
"""

from __future__ import annotations

import enum
import hashlib
import json
import random

import pytest

from repro.analysis.calibration import measure_unicast_samples
from repro.collectives import HypercubeCollectives
from repro.collectives.graph import simulate_comm
from repro.collectives.scatter import scatter_graph
from repro.core.subcube import Subcube
from repro.faults import (
    DegradedHypercube,
    FaultScenario,
    LinkFault,
    repair_multicast,
    simulate_degraded_multicast,
)
from repro.multicast.base import MulticastTree
from repro.multicast.ports import ALL_PORT, ONE_PORT, k_port
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import capture
from repro.simulator.multirun import simulate_concurrent_multicasts
from repro.simulator.network import WormholeNetwork
from repro.simulator.params import NCUBE2, STEP
from repro.simulator.run import simulate_multicast
from repro.simulator.traffic import simulate_multicast_under_load

PORTS = (ONE_PORT, k_port(2), ALL_PORT)

EXPECTED = {
    "simulate_multicast": "83f88b5d735ed3e012a889eedf036f04c0a70495eea6d67d4d1604e484a65417",
    "simulate_concurrent_multicasts": "7655580bfa81ce4974708c32831f79e460abbe3c84954db803c48b71f825fe33",
    "simulate_multicast_under_load": "a67e29b9058b3a8ce43933eef12e19ce96977ed5ef33180ca06b808ce4d03a1d",
    "simulate_degraded_multicast": "9fa94fd9ee7be24883a79f653d7cefd127eed02b505b0191be54e023acd8f28d",
    "simulate_comm": "e7baf7e6e70b34a064916a81957fe320b0b2fee182ec7e83a32296385cd442ed",
    "measure_unicast_samples": "923f285fcad5ad06c11d0c3a33d455459fae7fbba88fc295b56a70114f0c90d4",
}


def _canon(obj):
    """A JSON-ready form that keeps dict insertion order and exact floats."""
    if isinstance(obj, dict):
        return [[_canon(k), _canon(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [_canon(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(_canon(x) for x in obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


class _Digest:
    """sha256 over labelled values plus the worms of every new network."""

    def __init__(self, networks: list[WormholeNetwork]) -> None:
        self._sha = hashlib.sha256()
        self._networks = networks

    def add(self, label: str, value: object) -> None:
        self._sha.update(json.dumps([label, _canon(value)]).encode())
        self._sha.update(b"\n")

    def worms(self) -> None:
        """Fold in the worms of every network built since the last call."""
        for net in self._networks:
            self.add(
                "worms",
                [
                    (w.uid, w.state, w.blocked_time, w.t_injected, w.t_delivered)
                    for w in net.worms
                ],
            )
        self._networks.clear()

    def records(self, sink, registry: MetricsRegistry) -> None:
        for rec in sink.records:
            data = rec.to_dict()
            for key in ("run_id", "started_at", "wall_seconds"):
                data.pop(key)
            data["metrics"] = _strip_wall(data["metrics"])
            self.add("record", data)
        self.add("snapshot", _strip_wall(registry.snapshot()))

    def hexdigest(self) -> str:
        return self._sha.hexdigest()


def _strip_wall(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot.items() if k != "sim.wall"}


@pytest.fixture
def digest(monkeypatch) -> _Digest:
    networks: list[WormholeNetwork] = []
    init = WormholeNetwork.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        networks.append(self)

    monkeypatch.setattr(WormholeNetwork, "__init__", tracking_init)
    return _Digest(networks)


def _pick(n: int, m: int, seed: int) -> tuple[int, list[int]]:
    """A seeded source and ``m`` distinct destinations in an n-cube."""
    rng = random.Random(seed)
    source = rng.randrange(1 << n)
    dests = rng.sample([u for u in range(1 << n) if u != source], m)
    return source, dests


def _double_receipt_tree() -> MulticastTree:
    """Node 3 receives twice (from 1 and from 2) and forwards to 7."""
    tree = MulticastTree(3, 0, [1, 2, 3, 7])
    for src, dst in ((0, 1), (0, 2), (1, 3), (2, 3), (3, 7)):
        tree.add_send(src, dst)
    return tree


def test_simulate_multicast(digest):
    for a, name in enumerate(PAPER_ALGORITHMS):
        for p, ports in enumerate(PORTS):
            for n in (4, 6):
                for m in (1, 5, 15):
                    source, dests = _pick(n, m, seed=1000 * a + 100 * p + 10 * n + m)
                    tree = get_algorithm(name).build_tree(n, source, dests)
                    res = simulate_multicast(tree, 4096, NCUBE2, ports, trace=n == 4)
                    digest.add("delays", res.delays)
                    digest.add("totals", (res.events, res.total_blocked_time))
                    digest.add(
                        "trace",
                        [
                            (o.arc, o.worm_uid, o.t_start, o.t_end)
                            for o in res.network.trace.records
                        ],
                    )
                    digest.worms()
    step = simulate_multicast(get_algorithm("wsort").build_tree(5, 0, [3, 9, 17, 30]), 64, STEP)
    digest.add("step", (step.delays, step.events, step.total_blocked_time))
    res = simulate_multicast(_double_receipt_tree())
    digest.add("double", (res.delays, res.events, res.total_blocked_time))
    digest.worms()

    registry = MetricsRegistry()
    tree = get_algorithm("combine").build_tree(5, 0, [1, 6, 11, 19, 26, 31])
    with capture() as sink:
        simulate_multicast(tree, 1024, ports=ONE_PORT, metrics=registry, label="combine")
        simulate_multicast(tree, 2048, metrics=registry)
    digest.records(sink, registry)
    digest.worms()
    assert digest.hexdigest() == EXPECTED["simulate_multicast"]


def test_simulate_concurrent_multicasts(digest):
    for a, name in enumerate(PAPER_ALGORITHMS):
        for ports in (ONE_PORT, ALL_PORT):
            trees = []
            for op in range(4):
                source, dests = _pick(6, 7, seed=500 + 10 * a + op)
                trees.append(get_algorithm(name).build_tree(6, source, dests))
            for starts in (None, [0.0, 37.5, 75.0, 400.0]):
                res = simulate_concurrent_multicasts(trees, 2048, NCUBE2, ports, starts)
                digest.add("delays", res.delays)
                digest.add("starts", res.start_times)
                digest.add("totals", (res.events, res.total_blocked_time, res.makespan))
                digest.worms()
    # a tree with no sends is skipped at injection
    empty = MulticastTree(6, 5, [])
    res = simulate_concurrent_multicasts([empty, trees[0]], start_times=[10.0, 20.0])
    digest.add("empty", (res.delays, res.events))
    digest.worms()

    registry = MetricsRegistry()
    with capture() as sink:
        simulate_concurrent_multicasts(
            trees[:3], 1024, start_times=[0.0, 5.0, 10.0], metrics=registry, label="wsort"
        )
    digest.records(sink, registry)
    digest.worms()
    assert digest.hexdigest() == EXPECTED["simulate_concurrent_multicasts"]


def test_simulate_multicast_under_load(digest):
    for a, name in enumerate(PAPER_ALGORITHMS):
        for ports in (ONE_PORT, ALL_PORT):
            for rate in (0.0, 0.003):
                source, dests = _pick(6, 9, seed=700 + a)
                tree = get_algorithm(name).build_tree(6, source, dests)
                res = simulate_multicast_under_load(
                    tree, 4096, NCUBE2, ports, background_rate=rate, seed=a
                )
                digest.add(
                    "loaded",
                    (
                        res.delays,
                        res.avg_delay,
                        res.max_delay,
                        res.multicast_blocked_time,
                        res.background_messages,
                        res.background_mean_latency,
                    ),
                )
                digest.worms()
    assert digest.hexdigest() == EXPECTED["simulate_multicast_under_load"]


def _degraded(digest: _Digest, res) -> None:
    digest.add(
        "degraded",
        (
            res.delays,
            res.undelivered,
            res.unreachable,
            res.aborted_worms,
            res.retries,
            res.gave_up,
            res.deadline_us,
            res.deadlock,
            res.total_blocked_time,
            res.events,
            res.sim_time_us,
            res.delivery_ratio,
        ),
    )
    digest.worms()


def test_simulate_degraded_multicast(digest):
    for a, name in enumerate(PAPER_ALGORITHMS):
        for m in (5, 15):
            source, dests = _pick(6, m, seed=900 + 10 * a + m)
            tree = get_algorithm(name).build_tree(6, source, dests)
            _degraded(digest, simulate_degraded_multicast(tree, None))
        for k in (1, 2, 3):
            scenario = FaultScenario.random_links(4, k, seed=40 + 10 * a + k)
            _, dests = _pick(4, 10, seed=950 + 10 * a + k)
            dests = [d for d in dests if d != 0]
            tree = get_algorithm(name).build_tree(4, 0, dests)
            _degraded(digest, simulate_degraded_multicast(tree, scenario))
            _degraded(
                digest,
                simulate_degraded_multicast(tree, scenario, ports=ONE_PORT, max_retries=0),
            )
            report = repair_multicast(name, DegradedHypercube(4, scenario), 4, 0, dests)
            for deadline in (None, 2500.0):
                _degraded(
                    digest,
                    simulate_degraded_multicast(
                        report.tree,
                        scenario,
                        deadline_us=deadline,
                        unreachable_hint=report.unreachable,
                    ),
                )
        timed = FaultScenario.random_links(4, 2, seed=80 + a, t_fail=200.0)
        tree = get_algorithm(name).build_tree(4, 0, [3, 5, 6, 9, 10, 12, 15])
        _degraded(digest, simulate_degraded_multicast(tree, timed))
    # node 15 cut off: unreachable in the plain and the repaired tree
    isolated = FaultScenario(4, links=tuple(LinkFault(15, d) for d in range(4)))
    tree = get_algorithm("wsort").build_tree(4, 0, [3, 7, 12, 15])
    _degraded(digest, simulate_degraded_multicast(tree, isolated, deadline_us=5000.0))
    report = repair_multicast("wsort", DegradedHypercube(4, isolated), 4, 0, [3, 7, 12, 15])
    _degraded(
        digest,
        simulate_degraded_multicast(report.tree, isolated, unreachable_hint=report.unreachable),
    )
    _degraded(digest, simulate_degraded_multicast(_double_receipt_tree(), None))

    registry = MetricsRegistry()
    tree = get_algorithm("wsort").build_tree(6, 0, [5, 13, 21, 31, 38, 42, 57, 63])
    with capture() as sink:
        simulate_degraded_multicast(
            tree, FaultScenario.random_links(6, 3, seed=7), metrics=registry, label="wsort"
        )
    digest.records(sink, registry)
    digest.worms()
    assert digest.hexdigest() == EXPECTED["simulate_degraded_multicast"]


def _comm(digest: _Digest, res) -> None:
    digest.add(
        "comm",
        (
            res.send_received_at,
            res.node_done_at,
            res.final_blocks,
            res.total_blocked_time,
            res.events,
        ),
    )
    digest.worms()


def test_simulate_comm(digest):
    for n in (3, 5):
        for ports in (ONE_PORT, ALL_PORT):
            comm = HypercubeCollectives(n, ports=ports)
            _comm(digest, comm.broadcast_esbt(1, 2048))
            _comm(digest, comm.multicast_pipelined(0, [3, 5, 6, (1 << n) - 1], 4096))
            _comm(digest, comm.scatter(2, 512))
            _comm(digest, comm.gather(0, 512))
            _comm(digest, comm.allgather(256))
            _comm(digest, comm.reduce(0, 1024))
            _comm(digest, comm.allreduce(1024))
            _comm(digest, comm.alltoall(128))
            _comm(digest, comm.alltoall(128, direct=True))
            _comm(digest, comm.barrier())
            sub = comm.subcube(Subcube.containing(1, 2, n))
            _comm(digest, sub.allreduce(512))
    _comm(digest, simulate_comm(scatter_graph(4, 0, 100), STEP, trace=True))

    registry = MetricsRegistry()
    comm = HypercubeCollectives(4, metrics=registry)
    with capture() as sink:
        comm.scatter(0, 256)
        comm.allreduce(512)
    digest.records(sink, registry)
    digest.worms()
    assert digest.hexdigest() == EXPECTED["simulate_comm"]


def test_measure_unicast_samples(digest):
    digest.add("default", measure_unicast_samples(6, NCUBE2))
    digest.worms()
    digest.add("custom", measure_unicast_samples(4, NCUBE2, sizes=(64, 128), max_hops=3))
    digest.worms()
    assert digest.hexdigest() == EXPECTED["measure_unicast_samples"]


def test_double_receipt_semantics():
    """The plain driver re-forwards on every receipt and keeps the last
    receipt time; the fault driver forwards once and keeps the first."""
    tree = _double_receipt_tree()
    plain = simulate_multicast(tree)
    degraded = simulate_degraded_multicast(tree, None)
    assert len(plain.network.worms) == 6
    assert len(degraded.network.worms) == 5
    receipts = [w.t_received for w in plain.network.worms if w.dst == 3]
    assert len(receipts) == 2 and receipts[0] < receipts[1]
    assert plain.delays[3] == receipts[1]
    assert degraded.delays[3] == receipts[0]
