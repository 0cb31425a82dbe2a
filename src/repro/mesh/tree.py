"""Mesh multicast trees: scheduling, verification, simulation.

The mesh analogue of :class:`repro.multicast.base.MulticastTree`,
sharing the greedy step scheduler and the Definition 4 contention
verifier (both are topology-agnostic given the channel sets) and
running on the same wormhole network model with XY routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean
from typing import Iterable, Sequence

from repro.core.contention import ContentionReport, Unicast, check_contention_free
from repro.mesh.routing import xy_arcs
from repro.mesh.topology import Mesh2D
from repro.multicast._scheduling import greedy_steps
from repro.multicast.ports import ALL_PORT, PortModel
from repro.simulator.engine import Simulator
from repro.simulator.message import Worm
from repro.simulator.network import WormholeNetwork
from repro.simulator.node import HostNode
from repro.simulator.params import NCUBE2, Timings
from repro.simulator.run import Machine

__all__ = ["MeshNetwork", "MeshResult", "MeshSchedule", "MeshTree", "simulate_mesh_multicast"]


@dataclass(frozen=True, slots=True)
class MeshSend:
    src: int
    dst: int
    seq: int


class MeshTree:
    """A tree of unicasts implementing one multicast on a 2D mesh."""

    def __init__(self, mesh: Mesh2D, source: int, destinations: Iterable[int]) -> None:
        self.mesh = mesh
        self.source = source
        self.destinations = frozenset(destinations)
        self._sends: list[MeshSend] = []
        self._by_sender: dict[int, list[MeshSend]] = {}

    def add_send(self, src: int, dst: int) -> MeshSend:
        self.mesh.validate_node(src, "sender")
        self.mesh.validate_node(dst, "receiver")
        if src == dst:
            raise ValueError(f"node {src} cannot send to itself")
        send = MeshSend(src, dst, len(self._sends))
        self._sends.append(send)
        self._by_sender.setdefault(src, []).append(send)
        return send

    @property
    def sends(self) -> list[MeshSend]:
        return list(self._sends)

    def sends_from(self, node: int) -> list[MeshSend]:
        return list(self._by_sender.get(node, ()))

    @property
    def relay_nodes(self) -> set[int]:
        involved = {s.src for s in self._sends} | {s.dst for s in self._sends}
        return involved - self.destinations - {self.source}

    def total_hops(self) -> int:
        return sum(self.mesh.distance(s.src, s.dst) for s in self._sends)

    def arcs_of(self, src: int, dst: int):
        return xy_arcs(self.mesh, src, dst)

    def schedule(self, ports: PortModel = ALL_PORT) -> "MeshSchedule":
        """Greedy step schedule; all-port on a mesh means 4 ports."""
        limit = 4 if ports.is_all_port else ports.limit(4)
        steps = greedy_steps(
            self.source,
            [(s.seq, s.src, s.dst) for s in self._sends],
            self.arcs_of,
            limit,
        )
        return MeshSchedule(self, ports, steps)


@dataclass(slots=True)
class MeshSchedule:
    tree: MeshTree
    ports: PortModel
    _steps: dict[int, int] = field(repr=False)

    @property
    def unicasts(self) -> list[Unicast]:
        out = [Unicast(s.src, s.dst, self._steps[s.seq]) for s in self.tree.sends]
        out.sort(key=lambda u: (u.step, u.src, u.dst))
        return out

    @property
    def max_step(self) -> int:
        return max(self._steps.values(), default=0)

    @property
    def dest_steps(self) -> dict[int, int]:
        return {s.dst: self._steps[s.seq] for s in self.tree.sends}

    def check_contention(self) -> ContentionReport:
        """Definition 4 with XY channel sets."""
        return check_contention_free(
            self.tree.source, self.unicasts, arcs_of=self.tree.arcs_of
        )


class MeshNetwork(WormholeNetwork):
    """The wormhole network model wired for a 2D mesh."""

    def __init__(self, sim: Simulator, mesh: Mesh2D, timings: Timings = NCUBE2, **kw) -> None:
        super().__init__(
            sim,
            n=1,  # unused; mesh validators below take over
            timings=timings,
            route=lambda u, v: xy_arcs(mesh, u, v),
            **kw,
        )
        self.mesh = mesh

    def validate_node(self, node: int, what: str) -> None:
        self.mesh.validate_node(node, what)

    def validate_arc(self, arc) -> None:
        self.mesh.validate_arc(arc)


@dataclass(slots=True)
class MeshResult:
    """Outcome of one simulated mesh multicast."""

    tree: MeshTree
    delays: dict[int, float]
    total_blocked_time: float
    events: int

    @property
    def avg_delay(self) -> float:
        d = self.tree.destinations
        return mean(self.delays[x] for x in d) if d else 0.0

    @property
    def max_delay(self) -> float:
        return max((self.delays[x] for x in self.tree.destinations), default=0.0)


def simulate_mesh_multicast(
    tree: MeshTree,
    size: int = 4096,
    timings: Timings = NCUBE2,
    ports: PortModel = ALL_PORT,
    max_events: int | None = 10_000_000,
) -> MeshResult:
    """Run a mesh multicast tree through the wormhole model."""
    delays: dict[int, float] = {}

    def on_receive(host: HostNode, worm: Worm) -> None:
        delays[host.address] = sim.now
        sends = [(s.dst, size, None) for s in tree.sends_from(host.address)]
        if sends:
            host.submit_sends(sends, sim.now)

    limit = 4 if ports.is_all_port else ports.limit(4)
    machine = Machine(tree.mesh, timings, limit, on_receive, network=MeshNetwork)
    sim, network = machine.sim, machine.network
    machine.send(tree.source, [(s.dst, size, None) for s in tree.sends_from(tree.source)])
    sim.run(max_events=max_events)
    network.assert_quiescent()

    missing = tree.destinations - delays.keys()
    if missing:
        raise AssertionError(f"mesh multicast never reached {sorted(missing)}")
    return MeshResult(
        tree=tree,
        delays=delays,
        total_blocked_time=network.total_blocked_time,
        events=sim.events_processed,
    )
