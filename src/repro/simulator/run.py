"""The simulation driver, and the multicast entry point built on it.

:class:`Machine` is the one harness every simulate entry point runs on
(multicast, concurrent multicasts, background traffic, faults,
collectives, calibration).  It owns the event kernel, the network, and
the host nodes, wires deliveries to them, and records each finished
run once into the ``sim.*`` metrics and a telemetry
:class:`~repro.obs.telemetry.RunRecord`.  An entry point supplies only
its receive handler, its first injections, and its result type.

:func:`simulate_multicast` is the bridge between the abstract algorithm
layer (a :class:`~repro.multicast.base.MulticastTree`) and the timed
network model, and is what the delay experiments of Figures 11-14 run.
The source node starts issuing its sends at ``t = 0``.  Every node
that receives the message looks up its own forwarding responsibilities
in the tree and issues them; per-destination *delay* is the time at
which the destination CPU has fully received the message -- exactly the
quantity the paper measures ("the delay between the sending of a
multicast message and its receipt at the destination").
"""

from __future__ import annotations

import weakref
from dataclasses import asdict, dataclass, field
from statistics import mean
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.core.paths import Arc, ResolutionOrder
from repro.multicast.base import MulticastTree
from repro.multicast.ports import ALL_PORT, PortModel
from repro.obs import sink as _telemetry_sink
from repro.obs import trace_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunRecord, new_run_id
from repro.simulator.engine import Simulator
from repro.simulator.message import Worm
from repro.simulator.network import WormholeNetwork
from repro.simulator.node import HostNode
from repro.simulator.params import NCUBE2, Timings

if TYPE_CHECKING:  # pragma: no cover - type-only
    from repro.obs.probes import Probe

__all__ = ["Machine", "MulticastResult", "simulate_multicast"]


class Machine:
    """One simulated machine: event kernel, network, and host nodes.

    Host nodes are built on first use.  When the network delivers a
    worm, the sender's injection port is freed and the receiver's CPU
    takes the message, firing ``on_receive`` after ``t_recv``.

    Args:
        n: cube dimension.
        timings: cost model.
        port_limit: concurrent injections per node.
        on_receive: ``(node, worm)`` callback for every received message.
        order: E-cube resolution order.
        trace: record channel occupancies.
        probes: optional event-kernel profiling probes.
        route, on_aborted: passed to :class:`WormholeNetwork` (the
            faults driver's detours and retries).
    """

    def __init__(
        self,
        n: int,
        timings: Timings,
        port_limit: int,
        on_receive: Callable[[HostNode, Worm], None],
        *,
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
        trace: bool = False,
        probes: "Sequence[Probe] | None" = None,
        route: Callable[[int, int], list[Arc]] | None = None,
        on_aborted: Callable[[Worm], None] | None = None,
    ) -> None:
        self._wall_start = perf_counter()
        self.sim = Simulator(probes)
        self.port_limit = port_limit
        self.on_receive = on_receive
        self.nodes: dict[int, HostNode] = {}
        # Every host holds the network, so a network that held this
        # machine would close a reference cycle, and a finished run
        # would wait for the cyclic collector; it holds it weakly.
        machine = weakref.ref(self)
        self.network = WormholeNetwork(
            self.sim,
            n,
            timings=timings,
            order=order,
            trace=trace,
            on_delivered=lambda worm: machine()._delivered(worm),
            route=route,
            on_aborted=on_aborted,
        )

    def node(self, address: int) -> HostNode:
        """The host at ``address``, built on first use."""
        node = self.nodes.get(address)
        if node is None:
            node = self.nodes[address] = HostNode(
                self.network, address, self.port_limit, self.on_receive
            )
        return node

    def send(self, src: int, sends: list[tuple[int, int, Any]]) -> None:
        """Queue ``(dst, size, payload)`` sends at ``src``, its CPU ready
        now; schedulable as an event."""
        self.node(src).submit_sends(sends, self.sim.now)

    def _delivered(self, worm: Worm) -> None:
        self.nodes[worm.src].release_port()  # the sender built the worm
        self.node(worm.dst).deliver(worm)

    def record(
        self,
        metrics: MetricsRegistry | None,
        *,
        kind: str,
        label: str | None,
        ports: PortModel,
        size: int | None,
        delays: Iterable[float],
        completion_us: float,
        extra: Callable[[], dict[str, object]],
    ) -> None:
        """Record the finished run into ``metrics`` and, while a telemetry
        sink is active, as one ``kind`` RunRecord.

        Metric names are documented in docs/OBSERVABILITY.md; registries
        shared across runs (e.g. one per :class:`HypercubeCollectives`)
        aggregate every entry point the same way.  ``delays`` is read
        only with a registry attached, and ``extra`` is called only when
        a record is written.
        """
        wall_seconds = perf_counter() - self._wall_start
        network = self.network
        events = self.sim.events_processed
        if metrics is not None:
            metrics.counter("sim.runs").inc()
            metrics.counter("sim.events").inc(events)
            metrics.counter("sim.worms").inc(len(network.worms))
            metrics.counter("sim.blocked_us").inc(network.total_blocked_time)
            metrics.gauge("sim.completion_us").set(completion_us)
            metrics.timer("sim.wall").record(wall_seconds)
            observed = list(delays)
            if observed:
                delay_hist = metrics.histogram("sim.delay_us")
                for d in observed:
                    delay_hist.observe(d)
            blocked_hist = metrics.histogram("sim.worm_blocked_us")
            for w in network.worms:
                if w.blocked_time > 0:
                    blocked_hist.observe(w.blocked_time)
        telemetry = _telemetry_sink.get_sink()
        if telemetry is not None:
            telemetry.write(
                RunRecord(
                    run_id=new_run_id(),
                    kind=kind,
                    n=network.n,
                    algorithm=label,
                    ports=ports.name,
                    size=size,
                    timings=asdict(network.timings),
                    wall_seconds=wall_seconds,
                    sim_time_us=self.sim.now,
                    events=events,
                    metrics=metrics.snapshot() if metrics is not None else {},
                    extra=extra(),
                    trace_id=trace_spans.current_trace_id(),
                )
            )


@dataclass(slots=True)
class MulticastResult:
    """Outcome of one simulated multicast."""

    tree: MulticastTree
    size: int
    timings: Timings
    ports: PortModel
    delays: dict[int, float]
    total_blocked_time: float
    events: int
    network: WormholeNetwork = field(repr=False)

    @property
    def max_delay(self) -> float:
        """Maximum delay across destinations (Figures 12 and 14)."""
        return max((self.delays[d] for d in self.tree.destinations), default=0.0)

    @property
    def avg_delay(self) -> float:
        """Average delay across destinations (Figures 11 and 13)."""
        dests = self.tree.destinations
        return mean(self.delays[d] for d in dests) if dests else 0.0

    @property
    def completion_time(self) -> float:
        """Time at which the last receiving CPU (destination or relay)
        holds the message."""
        return max(self.delays.values(), default=0.0)


def simulate_multicast(
    tree: MulticastTree,
    size: int = 4096,
    timings: Timings = NCUBE2,
    ports: PortModel = ALL_PORT,
    trace: bool = False,
    max_events: int | None = 10_000_000,
    metrics: MetricsRegistry | None = None,
    probes: "Sequence[Probe] | None" = None,
    label: str | None = None,
) -> MulticastResult:
    """Run one multicast tree through the wormhole network model.

    Args:
        tree: who forwards to whom (any MulticastAlgorithm output, or a
            hand-built tree).
        size: message length in bytes (the paper uses 4096).
        timings: cost model; ``STEP`` turns the run into a step-semantics
            cross-check.
        ports: injection-port model for every node.
        trace: record channel occupancies for auditing.
        metrics: optional registry to record run metrics into.
        probes: optional event-kernel profiling probes.
        label: algorithm/operation name stamped on exported telemetry.

    Returns:
        Per-destination delays plus blocking/trace instrumentation.

    When a telemetry sink is active (``REPRO_TELEMETRY`` or
    :func:`repro.obs.sink.configure`) one ``kind="multicast"``
    :class:`~repro.obs.telemetry.RunRecord` is emitted per call; with no
    sink, no registry, and no probes the run is bit-identical to the
    un-instrumented driver.

    While a tracer is installed (see :mod:`repro.obs.trace_spans`) the
    run records one ``simulate`` span with event/delay/blocking totals
    -- and probe rollups, when probes are attached -- plus a nested
    ``verify.delivery`` span over the quiescence and coverage checks.
    """
    with trace_spans.span(
        "simulate", n=tree.n, algorithm=label, size=size, ports=ports.name
    ) as _span:
        delays: dict[int, float] = {}
        # every node's (dst, size, payload) sends, in the order it sends them
        plan: dict[int, list[tuple[int, int, None]]] = {}
        for s in tree.sends:
            plan.setdefault(s.src, []).append((s.dst, size, None))

        def on_receive(host: HostNode, worm: Worm) -> None:
            now = delays[host.address] = sim._now
            sends = plan.get(host.address)
            if sends:
                host.submit_sends(sends, now)

        machine = Machine(
            tree.n,
            timings,
            ports.limit(tree.n),
            on_receive,
            order=tree.order,
            trace=trace,
            probes=probes,
        )
        sim, network = machine.sim, machine.network
        machine.send(tree.source, plan.get(tree.source, []))
        sim.run(max_events=max_events)
        with trace_spans.span("verify.delivery", n=tree.n) as vsp:
            network.assert_quiescent()
            missing = tree.destinations - delays.keys()
            if missing:
                raise AssertionError(
                    f"simulation ended with undelivered destinations: {sorted(missing)}"
                )
            if vsp is not None:
                vsp.set(delivered=len(delays))

        result = MulticastResult(
            tree=tree,
            size=size,
            timings=timings,
            ports=ports,
            delays=delays,
            total_blocked_time=network.total_blocked_time,
            events=sim.events_processed,
            network=network,
        )
        machine.record(
            metrics,
            kind="multicast",
            label=label,
            ports=ports,
            size=size,
            delays=delays.values(),
            completion_us=result.completion_time,
            extra=lambda: {
                "destinations": len(tree.destinations),
                "avg_delay_us": result.avg_delay,
                "max_delay_us": result.max_delay,
                "completion_us": result.completion_time,
                "total_blocked_us": result.total_blocked_time,
                "worms": len(network.worms),
            },
        )
        if _span is not None:
            _span.set(
                events=result.events,
                completion_us=result.completion_time,
                avg_delay_us=result.avg_delay,
                total_blocked_us=result.total_blocked_time,
                worms=len(network.worms),
            )
            if probes:
                from repro.obs.probes import probe_summaries

                _span.set(probes=probe_summaries(probes))
        return result
