"""The simulation driver, and the multicast entry point built on it.

:class:`Machine` is the one harness every simulate entry point runs on
(multicast, concurrent multicasts, background traffic, faults,
collectives, calibration).  It owns the event kernel and the network,
runs the host model of every node (CPU setup time, injection ports,
receive time), and records each finished run once into the ``sim.*``
metrics and a telemetry :class:`~repro.obs.telemetry.RunRecord`.  An
entry point supplies only its receive handler, which returns the
receiver's sends, its first injections, and its result type.

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
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import partial
from itertools import repeat
from math import frexp, isfinite, ldexp
from statistics import mean
from time import perf_counter
from typing import Any, Callable, Iterable

from repro.core.addressing import require_address
from repro.core.paths import Arc, ResolutionOrder
from repro.multicast.base import MulticastTree
from repro.multicast.ports import ALL_PORT, PortModel
from repro.obs import sink as _telemetry_sink
from repro.obs import trace_spans
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunRecord, new_run_id
from repro.simulator.engine import Simulator
from repro.simulator.message import Worm, WormState
from repro.simulator.network import WormholeNetwork
from repro.simulator.params import NCUBE2, Timings

__all__ = ["Machine", "MulticastResult", "simulate_multicast"]

# bound to a module name: reading a member off an Enum class is slow
_RECEIVED = WormState.RECEIVED


class Machine:
    """One simulated machine: the event kernel, the network, and the host
    model of every node.

    A node's CPU issues its sends back to back, spending ``t_setup`` on
    each, from when :meth:`send` makes it ready (or when it frees up, if
    later); each send then needs one of the node's ``port_limit``
    injection ports, and waits for one in the node's FIFO queue.  The
    port model gives a node 1 (one-port), ``k``, or ``n`` (all-port)
    ports.  A port is held from injection until the worm is delivered
    or aborts on a dead channel -- the same conservatism as channel
    release, and exactly what serializes successive sends on a one-port
    node the way the paper's step model assumes.  The receiving CPU has
    the message ``t_recv`` after its tail drains; then ``on_receive``
    returns the receiver's sends, which it issues at once.

    Args:
        n: cube dimension.
        timings: cost model.
        port_limit: concurrent injections per node.
        on_receive: ``(worm) -> sends or None`` for every received
            message; ``worm.dst`` is the receiver and ``worm.t_received``
            the time.
        order: E-cube resolution order.
        trace: record channel occupancies.
        route: passed to :class:`WormholeNetwork` (the faults driver's
            detours).
        on_aborted: ``(machine, worm)`` callback for a worm aborted on a
            dead channel, once its sender's port is free (the faults
            driver's retries).
    """

    def __init__(
        self,
        n: int,
        timings: Timings,
        port_limit: int,
        on_receive: Callable[[Worm], list[tuple[int, int, Any]] | None],
        *,
        order: ResolutionOrder = ResolutionOrder.DESCENDING,
        trace: bool = False,
        route: Callable[[int, int], list[Arc]] | None = None,
        on_aborted: Callable[[Machine, Worm], None] | None = None,
    ) -> None:
        self._wall_start = perf_counter()
        self.sim = Simulator()
        self.on_receive = on_receive
        self.on_aborted = on_aborted
        # The machine holds the network, so a network that held the
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
            on_aborted=lambda worm: machine()._aborted(worm),
        )
        # per node: when its CPU is next free, its free ports, and the
        # sends waiting for a port (a deque built on first use)
        nodes = 1 << n
        self._cpu_free_at = [0.0] * nodes
        self._free_ports = [port_limit] * nodes
        self._awaiting_port: list[deque[tuple[int, int, Any]] | tuple[()]] = [()] * nodes

    def send(self, src: int, sends: list[tuple[int, int, Any]]) -> None:
        """Issue ``(dst, size, payload)`` sends at ``src``, its CPU ready
        now; schedulable as an event.

        Each send enters the network as soon as its setup is done and a
        port is free.
        """
        cpu_free_at = self._cpu_free_at
        if not (type(src) is int and 0 <= src < len(cpu_free_at)):
            require_address(src, self.network.n, "worm source")
        sim = self.sim
        now = sim._now
        t_setup = self.network.timings.t_setup
        t = max(cpu_free_at[src], now)
        setup_done = partial(self._setup_done, src)
        due = sim._due
        for send in sends:
            t += t_setup
            # fires at now + (t - now), as schedule_at(t, ...) would
            due[now + (t - now)].append((setup_done, send))
        cpu_free_at[src] = t

    def _setup_done(self, src: int, dst: int, size: int, payload: Any) -> None:
        """Inject the send if a port of ``src`` is free, else queue it
        for one."""
        free_ports = self._free_ports
        if free_ports[src] > 0:
            free_ports[src] -= 1
            network = self.network
            network.inject(network.make_worm(src, dst, size, payload))
        else:
            awaiting = self._awaiting_port[src]
            if not awaiting:
                awaiting = self._awaiting_port[src] = deque()
            awaiting.append((dst, size, payload))

    def _release_port(self, src: int) -> None:
        """Free one of ``src``'s ports; its first waiting send takes it."""
        self._free_ports[src] += 1
        awaiting = self._awaiting_port[src]
        if awaiting:
            self._setup_done(src, *awaiting.popleft())

    def _delivered(self, worm: Worm) -> None:
        self._release_port(worm.src)
        sim = self.sim
        sim._due[sim._now + self.network.timings.t_recv].append((self._received, (worm,)))

    def _aborted(self, worm: Worm) -> None:
        self._release_port(worm.src)
        if self.on_aborted is not None:
            self.on_aborted(self, worm)

    def _received(self, worm: Worm) -> None:
        worm.state = _RECEIVED
        worm.t_received = self.sim._now
        sends = self.on_receive(worm)
        if sends:
            self.send(worm.dst, sends)

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
        return _mean([self.delays[d] for d in dests]) if dests else 0.0

    @property
    def completion_time(self) -> float:
        """Time at which the last receiving CPU (destination or relay)
        holds the message."""
        return max(self.delays.values(), default=0.0)


def _mean(values: list[float]) -> float:
    """``statistics.mean(values)`` bit for bit, minus its fractions:
    scaled by ``2**k``, positive floats are integers, and one int
    division rounds their exact mean once, as ``statistics.mean`` does."""
    lo = min(values)
    if 0.0 < lo and isfinite(sum(values)):
        e = frexp(lo)[1]
        if frexp(max(values))[1] - e < 970:  # else the scaling could overflow
            k = max(53 - e, 0)
            return sum(map(int, map(ldexp, values, repeat(k)))) / (len(values) << k)
    return mean(values)


def _send_plan(
    tree: MulticastTree, size: int, payload: Any
) -> dict[int, list[tuple[int, int, Any]]]:
    """Every sender's ``(dst, size, payload)`` sends, in the order it
    issues them (read from the tree's columns, no ``Send`` records)."""
    dst = tree._dst
    return {
        node: [(dst[i], size, payload) for i in seqs] for node, seqs in tree._by_sender.items()
    }


def simulate_multicast(
    tree: MulticastTree,
    size: int = 4096,
    timings: Timings = NCUBE2,
    ports: PortModel = ALL_PORT,
    trace: bool = False,
    max_events: int | None = 10_000_000,
    metrics: MetricsRegistry | None = None,
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
        label: algorithm/operation name stamped on exported telemetry.

    Returns:
        Per-destination delays plus blocking/trace instrumentation.

    When a telemetry sink is active (``REPRO_TELEMETRY`` or
    :func:`repro.obs.sink.configure`) one ``kind="multicast"``
    :class:`~repro.obs.telemetry.RunRecord` is emitted per call; with no
    sink and no registry the run is bit-identical to the un-instrumented
    driver.

    While a tracer is installed (see :mod:`repro.obs.trace_spans`) the
    run records one ``simulate`` span with event/delay/blocking totals,
    plus a nested ``verify.delivery`` span over the quiescence and
    coverage checks.
    """
    with trace_spans.span(
        "simulate", n=tree.n, algorithm=label, size=size, ports=ports.name
    ) as _span:
        delays: dict[int, float] = {}
        plan = _send_plan(tree, size, None)

        def on_receive(worm: Worm) -> list[tuple[int, int, None]] | None:
            delays[worm.dst] = worm.t_received
            return plan.get(worm.dst)

        machine = Machine(
            tree.n,
            timings,
            ports.limit(tree.n),
            on_receive,
            order=tree.order,
            trace=trace,
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
        return result
