"""Background traffic: multicast performance on a loaded network.

The paper evaluates multicasts on an otherwise idle machine; a natural
question (and the kind of study MultiSim was built for) is how the
algorithms degrade when the network also carries unrelated point-to-
point traffic.  This module injects a Poisson-like stream of random
unicasts around a multicast and measures the slowdown.

The random stream is generated up front from a seeded ``numpy``
generator, so runs are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.multicast.base import MulticastTree
from repro.multicast.ports import ALL_PORT, PortModel
from repro.simulator.message import Worm
from repro.simulator.params import NCUBE2, Timings
from repro.simulator.run import Machine, _mean, _send_plan

__all__ = ["LoadedResult", "simulate_multicast_under_load"]


@dataclass(slots=True)
class LoadedResult:
    """Multicast delays in the presence of background unicasts."""

    delays: dict[int, float]
    avg_delay: float
    max_delay: float
    multicast_blocked_time: float
    background_messages: int
    background_mean_latency: float


def simulate_multicast_under_load(
    tree: MulticastTree,
    size: int = 4096,
    timings: Timings = NCUBE2,
    ports: PortModel = ALL_PORT,
    background_rate: float = 0.001,
    background_size: int = 1024,
    horizon: float = 20_000.0,
    seed: int = 0,
    max_events: int | None = 10_000_000,
) -> LoadedResult:
    """Run a multicast while random unicasts load the network.

    Args:
        background_rate: expected background messages per microsecond,
            machine-wide (exponential inter-arrival times); finite and
            ``>= 0``.
        background_size: bytes per background message.
        horizon: injection window for background traffic (us), finite
            and ``>= 0``; the multicast starts at ``horizon / 4`` so
            traffic is already flowing.

    Returns:
        Multicast per-destination delays (measured from the multicast's
        start time) and background statistics.
    """
    # the arrival loop below ends only once the clock passes a finite
    # horizon, which an infinite rate never lets it do
    for name, value in (("background_rate", background_rate), ("horizon", horizon)):
        if not 0 <= value < math.inf:  # NaN fails it too
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    import numpy as np

    rng = np.random.default_rng(seed)
    n_nodes = 1 << tree.n
    start_time = horizon / 4

    delays: dict[int, float] = {}
    bg_latencies: list[float] = []
    plan = _send_plan(tree, size, "mc")

    def on_receive(worm: Worm) -> list[tuple[int, int, str]] | None:
        if worm.payload == "mc":
            delays[worm.dst] = worm.t_received - start_time
            return plan.get(worm.dst)
        bg_latencies.append(worm.t_received - worm.t_created)
        return None

    machine = Machine(tree.n, timings, ports.limit(tree.n), on_receive, order=tree.order)
    sim, network = machine.sim, machine.network

    # --- background stream ----------------------------------------------
    bg_count = 0
    if background_rate > 0:
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / background_rate))
            if t >= horizon:
                break
            src = int(rng.integers(0, n_nodes))
            dst = int(rng.integers(0, n_nodes - 1))
            if dst >= src:
                dst += 1
            bg_count += 1
            sim.schedule(t, machine.send, src, [(dst, background_size, "bg")])

    # --- the multicast ----------------------------------------------------
    sim.schedule(start_time, machine.send, tree.source, plan.get(tree.source, []))
    sim.run(max_events=max_events)
    network.assert_quiescent()

    missing = tree.destinations - delays.keys()
    if missing:
        raise AssertionError(f"multicast never completed at: {sorted(missing)}")

    mc_blocked = sum(w.blocked_time for w in network.worms if w.payload == "mc")
    dest_delays = [delays[d] for d in tree.destinations]
    return LoadedResult(
        delays=delays,
        avg_delay=_mean(dest_delays) if dest_delays else 0.0,
        max_delay=max(dest_delays, default=0.0),
        multicast_blocked_time=mc_blocked,
        background_messages=bg_count,
        background_mean_latency=_mean(bg_latencies) if bg_latencies else 0.0,
    )
