"""Why dimension-ordered routing: deadlock, demonstrated and detected.

Wormhole routing's blocked worms hold their channels, so routing
functions with cyclic channel dependencies can deadlock the network --
the reason E-cube routing restricts paths to a fixed dimension
order.  This example:

1. proves E-cube safe by building its channel-dependency graph
   (Dally & Seitz) and checking acyclicity;
2. exhibits a dependency cycle for random minimal (unordered) routing;
3. actually *runs* four worms into a circular wait under a cyclic
   route set, and shows the library detecting the live deadlock.

Run:  python examples/deadlock_demo.py
"""

from __future__ import annotations

from repro.simulator import Simulator, Timings, WormholeNetwork
from repro.simulator.deadlock import (
    find_dependency_cycle,
    is_deadlock_free,
    waiting_cycle,
)
from repro.simulator.routing import ecube_routing, random_minimal_routing


def main() -> None:
    n = 4
    print(f"-- static analysis ({n}-cube, all source/destination pairs) --")
    print(f"E-cube routing deadlock-free: {is_deadlock_free(n, ecube_routing())}")
    cycle = find_dependency_cycle(n, random_minimal_routing(seed=0))
    print(f"random minimal routing dependency cycle: {cycle}")

    print("\n-- live deadlock under a cyclic route set (2-cube ring) --")
    ring = [0b00, 0b01, 0b11, 0b10]
    routes = {}
    for i in range(4):
        a, b, c = ring[i], ring[(i + 1) % 4], ring[(i + 2) % 4]
        routes[(a, c)] = [
            (a, (a ^ b).bit_length() - 1),
            (b, (b ^ c).bit_length() - 1),
        ]
    sim = Simulator()
    net = WormholeNetwork(
        sim,
        2,
        timings=Timings(t_setup=0, t_recv=0, t_byte=1000.0, t_hop=1.0),
        route=lambda u, v: list(routes[(u, v)]),
    )
    for i in range(4):
        net.inject(net.make_worm(ring[i], ring[(i + 2) % 4], size=10))
    sim.run()
    undelivered = [w.uid for w in net.worms if w.t_delivered < 0]
    print(f"worms injected: 4, undelivered after the event queue drained: {undelivered}")
    print(f"circular wait among worms: {waiting_cycle(net)}")
    print()
    print("Every multicast algorithm in this library rides on E-cube routes,")
    print("so none of this can happen to them -- and the test suite keeps the")
    print("static check wired to the routing function to make sure.")


if __name__ == "__main__":
    main()
