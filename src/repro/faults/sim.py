"""Timed simulation of multicasts on a faulty wormhole network.

:func:`simulate_degraded_multicast` mirrors
:func:`repro.simulator.run.simulate_multicast` but drives the network
with a :class:`~repro.faults.model.FaultScenario` applied:

- static faults are marked dead before injection; timed faults are
  scheduled as :meth:`~repro.simulator.network.WormholeNetwork.fail_arc`
  events at their ``t_fail``;
- a worm that attempts to acquire a dead channel **aborts** (releasing
  every channel it holds -- the stall cascade a dead arc would
  otherwise cause is cut short);
- the source of an aborted worm **retries** with capped exponential
  backoff, re-routing around the channels known dead at retry time
  (the "detection by failed acquisition" model: senders are E-cube
  oblivious until a send bounces);
- an optional **delivery deadline** stops the run at a fixed simulated
  time; whatever has not arrived by then is counted undelivered.

Fault counters (aborted worms, retries, undelivered destinations) flow
into the shared metrics names and the exported
``kind="degraded-multicast"`` :class:`~repro.obs.telemetry.RunRecord`,
which also embeds the deadlock detector's verdict
(:func:`repro.simulator.deadlock.stall_report`) so a fault-stalled run
is distinguishable from ordinary contention in JSONL.

With a fault-free scenario the event sequence is identical to
:func:`simulate_multicast` -- the regression tests assert bit-identical
delays and event counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.paths import Arc, ecube_arcs
from repro.faults.degraded import DegradedHypercube, detour_path
from repro.faults.model import FaultScenario
from repro.multicast.base import MulticastTree
from repro.multicast.ports import ALL_PORT, PortModel
from repro.obs.metrics import MetricsRegistry
from repro.simulator.deadlock import stall_report
from repro.simulator.message import Worm
from repro.simulator.network import WormholeNetwork
from repro.simulator.params import NCUBE2, Timings
from repro.simulator.run import Machine, _mean, _send_plan

__all__ = ["DegradedResult", "simulate_degraded_multicast"]


@dataclass(slots=True)
class DegradedResult:
    """Outcome of one simulated multicast on a degraded cube."""

    tree: MulticastTree
    scenario: FaultScenario
    size: int
    timings: Timings
    ports: PortModel
    #: receipt time for every node that got the message (destinations
    #: and detour relays alike)
    delays: dict[int, float]
    #: requested destinations that never received the message
    undelivered: tuple[int, ...]
    #: subset of ``undelivered`` with no surviving path from the source
    #: under the static faults (nothing could ever deliver to them)
    unreachable: tuple[int, ...]
    aborted_worms: int
    retries: int
    #: sends abandoned after exhausting retries (or losing their route)
    gave_up: int
    deadline_us: float | None
    #: verdict of the deadlock detector at end of run (see
    #: :func:`repro.simulator.deadlock.stall_report`)
    deadlock: dict = field(repr=False)
    total_blocked_time: float
    events: int
    sim_time_us: float
    network: WormholeNetwork = field(repr=False)

    @property
    def delivered(self) -> frozenset[int]:
        return frozenset(self.tree.destinations & self.delays.keys())

    @property
    def delivery_ratio(self) -> float:
        """Delivered fraction of the *requested* destinations (1.0 for
        an empty destination set)."""
        total = len(self.tree.destinations | set(self.unreachable))
        if total == 0:
            return 1.0
        return len(self.delivered) / total

    @property
    def avg_delay(self) -> float:
        """Average delay over the destinations actually delivered."""
        got = self.delivered
        return _mean([self.delays[d] for d in got]) if got else 0.0

    @property
    def max_delay(self) -> float:
        return max((self.delays[d] for d in self.delivered), default=0.0)

    @property
    def completion_time(self) -> float:
        return max(self.delays.values(), default=0.0)


def simulate_degraded_multicast(
    tree: MulticastTree,
    scenario: FaultScenario | None = None,
    size: int = 4096,
    timings: Timings = NCUBE2,
    ports: PortModel = ALL_PORT,
    *,
    max_retries: int = 3,
    backoff_us: float = 50.0,
    backoff_cap_us: float = 800.0,
    deadline_us: float | None = None,
    trace: bool = False,
    max_events: int | None = 10_000_000,
    metrics: MetricsRegistry | None = None,
    label: str | None = None,
    unreachable_hint: Sequence[int] = (),
) -> DegradedResult:
    """Run one multicast tree through the wormhole model with faults.

    Args:
        tree: any multicast tree -- a plain registry tree (sends may
            abort and retry) or a :func:`~repro.faults.repair.repair_multicast`
            output (whose sends avoid all static dead arcs).
        scenario: the faults to inject; None means fault-free.
        max_retries: per-send cap on retransmissions after aborts
            (``>= 0``).
        backoff_us: base retry backoff (``>= 0``); attempt ``k`` waits
            ``min(backoff_us * 2**(k-1), backoff_cap_us)``.
        backoff_cap_us: the longest wait between retries (``>= 0``).
        deadline_us: optional hard stop (``> 0``); undelivered
            destinations are reported rather than raising.
        unreachable_hint: destinations the caller already dropped from
            the tree as unreachable (e.g. from a
            :class:`~repro.faults.repair.RepairReport`); folded into the
            result's accounting so delivery ratios stay comparable.

    The remaining arguments match :func:`~repro.simulator.run.simulate_multicast`.

    Raises:
        ValueError: for a negative ``max_retries``, a ``backoff_us`` or
            ``backoff_cap_us`` that is not ``>= 0`` or a ``deadline_us``
            that is not ``> 0`` (NaN included), or a scenario for
            another cube.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    # negated comparisons, so that NaN fails them too
    for name, value in (("backoff_us", backoff_us), ("backoff_cap_us", backoff_cap_us)):
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
    if deadline_us is not None and not deadline_us > 0:
        raise ValueError(f"deadline_us must be > 0, got {deadline_us}")
    if scenario is None:
        scenario = FaultScenario(tree.n)
    if scenario.n != tree.n:
        raise ValueError(f"scenario is for a {scenario.n}-cube, not a {tree.n}-cube")

    static_view = DegradedHypercube(tree.n, scenario, tree.order, at=0.0)

    delays: dict[int, float] = {}
    forwarded: set[int] = set()
    attempts: dict[tuple[int, int], int] = {}
    route_overrides: dict[tuple[int, int], list[Arc]] = {}
    counters = {"retries": 0, "gave_up": 0}
    plan = _send_plan(tree, size, None)

    def route(u: int, v: int) -> list[Arc]:
        override = route_overrides.pop((u, v), None)
        return override if override is not None else ecube_arcs(u, v, tree.order)

    def on_receive(worm: Worm) -> list[tuple[int, int, None]] | None:
        node = worm.dst
        delays.setdefault(node, worm.t_received)
        if node in forwarded:
            return None  # duplicate receipt (detour overlap): forward once
        forwarded.add(node)
        return plan.get(node)

    def on_aborted(machine: Machine, worm: Worm) -> None:
        """Retry the worm's send after backoff, around every channel
        known dead now, or give it up."""
        key = (worm.src, worm.dst)
        attempt = attempts.get(key, 0) + 1
        attempts[key] = attempt
        if attempt > max_retries:
            counters["gave_up"] += 1
            return
        # re-route around every channel known dead *now* (timed faults
        # discovered so far included)
        path = detour_path(tree.n, worm.src, worm.dst, machine.network.dead_arcs, tree.order)
        if path is None:
            counters["gave_up"] += 1
            return
        counters["retries"] += 1
        route_overrides[key] = [
            (a, (a ^ b).bit_length() - 1) for a, b in zip(path, path[1:])
        ]
        backoff = min(backoff_us * (2 ** (attempt - 1)), backoff_cap_us)
        machine.sim.schedule(backoff, machine.send, worm.src, [(worm.dst, size, None)])

    machine = Machine(
        tree.n,
        timings,
        ports.limit(tree.n),
        on_receive,
        order=tree.order,
        trace=trace,
        route=route,
        on_aborted=on_aborted,
    )
    sim, network = machine.sim, machine.network
    for arc in sorted(scenario.dead_arcs(at=0.0)):
        network.fail_arc(arc)
    for t_fail, arc in scenario.timed_events():
        sim.schedule_at(t_fail, network.fail_arc, arc)

    machine.send(tree.source, plan.get(tree.source, []))
    forwarded.add(tree.source)
    sim.run(until=deadline_us, max_events=max_events)

    deadlock = stall_report(network)
    if deadline_us is None:
        network.assert_quiescent()
    else:
        sim.drop_pending()

    reachable = static_view.reachable_from(tree.source)
    unreachable = sorted(
        set(unreachable_hint) | {d for d in tree.destinations if d not in reachable}
    )
    undelivered = sorted(
        (set(tree.destinations) | set(unreachable_hint)) - delays.keys()
    )

    result = DegradedResult(
        tree=tree,
        scenario=scenario,
        size=size,
        timings=timings,
        ports=ports,
        delays=delays,
        undelivered=tuple(undelivered),
        unreachable=tuple(unreachable),
        aborted_worms=network.aborted_count,
        retries=counters["retries"],
        gave_up=counters["gave_up"],
        deadline_us=deadline_us,
        deadlock=deadlock,
        total_blocked_time=network.total_blocked_time,
        events=sim.events_processed,
        sim_time_us=sim.now,
        network=network,
    )

    if metrics is not None:
        metrics.counter("sim.faults.dead_arcs").inc(len(scenario.dead_arcs()))
        metrics.counter("sim.faults.aborted_worms").inc(result.aborted_worms)
        metrics.counter("sim.faults.retries").inc(result.retries)
        metrics.counter("sim.faults.gave_up").inc(result.gave_up)
        metrics.counter("sim.faults.undelivered").inc(len(result.undelivered))
    machine.record(
        metrics,
        kind="degraded-multicast",
        label=label,
        ports=ports,
        size=size,
        delays=delays.values(),
        completion_us=result.completion_time,
        extra=lambda: {
            "scenario": scenario.describe(),
            "seed": scenario.seed,
            "failed_links": len(scenario.links),
            "failed_nodes": len(scenario.nodes),
            "dead_arcs": len(scenario.dead_arcs()),
            "destinations": len(tree.destinations) + len(unreachable_hint),
            "delivered": len(result.delivered),
            "delivery_ratio": result.delivery_ratio,
            "undelivered": list(result.undelivered),
            "unreachable": list(result.unreachable),
            "aborted_worms": result.aborted_worms,
            "retries": result.retries,
            "gave_up": result.gave_up,
            "deadline_us": deadline_us,
            "deadlock": deadlock,
            "avg_delay_us": result.avg_delay,
            "max_delay_us": result.max_delay,
            "completion_us": result.completion_time,
            "total_blocked_us": result.total_blocked_time,
            "worms": len(network.worms),
        },
    )
    return result
