"""Concurrent multicasts: collective *data distribution* at large.

The paper's title problem is broader than a single multicast: in real
redistribution phases several nodes multicast at once (e.g. every
producer broadcasts its boundary data).  Each algorithm guarantees its
*own* unicasts are contention-free; concurrent operations still compete
for channels.  This driver runs any number of multicast trees in one
network so that cross-operation interference can be measured -- the
operations with fewer channel-hops and fewer steps interfere less,
which is an additional (unproven in the paper) advantage of the
contention-aware algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.multicast.base import MulticastTree
from repro.multicast.ports import ALL_PORT, PortModel
from repro.obs import trace_spans
from repro.obs.metrics import MetricsRegistry
from repro.simulator.message import Worm
from repro.simulator.params import NCUBE2, Timings
from repro.simulator.run import Machine, _mean, _send_plan

__all__ = ["ConcurrentResult", "simulate_concurrent_multicasts"]


@dataclass(slots=True)
class ConcurrentResult:
    """Outcome of several multicasts sharing the network."""

    trees: list[MulticastTree]
    #: per multicast: destination -> delay from that multicast's start
    delays: list[dict[int, float]]
    start_times: list[float]
    total_blocked_time: float
    events: int

    @property
    def avg_delays(self) -> list[float]:
        return [
            _mean([d[x] for x in t.destinations]) if t.destinations else 0.0
            for t, d in zip(self.trees, self.delays)
        ]

    @property
    def max_delays(self) -> list[float]:
        return [
            max((d[x] for x in t.destinations), default=0.0)
            for t, d in zip(self.trees, self.delays)
        ]

    @property
    def makespan(self) -> float:
        """Time from the first start until the last delivery."""
        finish = [
            s + mx for s, mx in zip(self.start_times, self.max_delays)
        ]
        return max(finish, default=0.0) - min(self.start_times, default=0.0)


def simulate_concurrent_multicasts(
    trees: Sequence[MulticastTree],
    size: int = 4096,
    timings: Timings = NCUBE2,
    ports: PortModel = ALL_PORT,
    start_times: Sequence[float] | None = None,
    max_events: int | None = 10_000_000,
    metrics: MetricsRegistry | None = None,
    label: str | None = None,
) -> ConcurrentResult:
    """Run several multicast trees over one wormhole network.

    All trees must share the cube dimension and resolution order.  A
    node may appear in any role in any number of the operations; its
    injection ports are shared across them.

    Args:
        start_times: per-tree injection start, finite and ``>= 0``
            (default: all at 0.0).
        metrics: optional registry to record run metrics into.
        label: algorithm/operation name stamped on exported telemetry.

    When a telemetry sink is active, one ``kind="concurrent"``
    :class:`~repro.obs.telemetry.RunRecord` is emitted per call.
    """
    if not trees:
        raise ValueError("need at least one multicast tree")
    n = trees[0].n
    order = trees[0].order
    for t in trees:
        if t.n != n or t.order is not order:
            raise ValueError("all trees must share cube size and resolution order")
    starts = list(start_times) if start_times is not None else [0.0] * len(trees)
    if len(starts) != len(trees):
        raise ValueError("start_times must match trees")
    for i, s in enumerate(starts):
        if not 0 <= s < math.inf:  # NaN fails it too
            raise ValueError(f"start_times[{i}] must be finite and >= 0, got {s}")

    with trace_spans.span(
        "simulate.concurrent", n=n, operations=len(trees), size=size, ports=ports.name
    ) as _span:
        delays: list[dict[int, float]] = [{} for _ in trees]
        plans = [_send_plan(tree, size, ti) for ti, tree in enumerate(trees)]

        def on_receive(worm: Worm) -> list[tuple[int, int, int]] | None:
            ti = worm.payload
            delays[ti][worm.dst] = worm.t_received - starts[ti]
            return plans[ti].get(worm.dst)

        machine = Machine(n, timings, ports.limit(n), on_receive, order=order)
        sim, network = machine.sim, machine.network
        for ti, tree in enumerate(trees):
            sends = plans[ti].get(tree.source)
            if sends:
                sim.schedule(starts[ti], machine.send, tree.source, sends)
        sim.run(max_events=max_events)
        with trace_spans.span("verify.delivery", n=n) as vsp:
            network.assert_quiescent()
            for ti, tree in enumerate(trees):
                missing = tree.destinations - delays[ti].keys()
                if missing:
                    raise AssertionError(
                        f"multicast {ti} never reached destinations {sorted(missing)}"
                    )
            if vsp is not None:
                vsp.set(operations=len(trees))

        result = ConcurrentResult(
            trees=list(trees),
            delays=delays,
            start_times=starts,
            total_blocked_time=network.total_blocked_time,
            events=sim.events_processed,
        )
        machine.record(
            metrics,
            kind="concurrent",
            label=label,
            ports=ports,
            size=size,
            delays=(d for per in delays for d in per.values()),
            completion_us=result.makespan,
            extra=lambda: {
                "operations": len(trees),
                "start_times": starts,
                "avg_delays_us": result.avg_delays,
                "max_delays_us": result.max_delays,
                "makespan_us": result.makespan,
                "total_blocked_us": result.total_blocked_time,
                "worms": len(network.worms),
            },
        )
        if _span is not None:
            _span.set(
                events=result.events,
                makespan_us=result.makespan,
                total_blocked_us=result.total_blocked_time,
            )
        return result
