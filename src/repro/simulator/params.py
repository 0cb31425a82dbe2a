"""Timing parameters for the wormhole network model.

The defaults approximate the nCUBE-2, the machine the paper measured on
and validated MultiSim against.  Published nCUBE-2 characteristics:
per-channel DMA bandwidth of roughly 2.2 Mbytes/s (about 0.45 us/byte)
and a software messaging overhead on the order of 100-160 us per
send/receive pair.  The absolute values only scale the delay curves;
the *shapes* the paper reports (U-cube's staircase, the roughly 2x gain
of the all-port algorithms, the broadcast-vs-multicast anomaly) come
from the startup/port/contention structure, which is what the
reproduction asserts.  See DESIGN.md Section 4 (substitutions).

All times are in microseconds.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NCUBE2", "STEP", "Timings"]


@dataclass(frozen=True, slots=True)
class Timings:
    """Cost model for one wormhole unicast.

    An unblocked unicast of ``L`` bytes over ``h`` hops, issued by a
    CPU that is ready at time ``T``, is delivered to the receiving CPU
    at ``T + t_setup + h * t_hop + L * t_byte + t_recv``.

    Attributes:
        t_setup: software cost for the sending CPU to initiate one send
            (buffer registration, address-field construction, DMA
            kick-off).  Successive sends from one CPU are issued
            ``t_setup`` apart even on an all-port node.
        t_recv: software cost at the receiving CPU between the worm's
            tail arriving and the message being available for
            forwarding.
        t_byte: per-byte transmission time of a channel (inverse DMA
            bandwidth).
        t_hop: per-hop routing latency of the header flit.
    """

    t_setup: float = 85.0
    t_recv: float = 75.0
    t_byte: float = 0.45
    t_hop: float = 2.0

    def __post_init__(self) -> None:
        for name in ("t_setup", "t_recv", "t_byte", "t_hop"):
            # a negated comparison, so that NaN fails it too
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")

    def unicast_latency(self, size: int, hops: int) -> float:
        """Contention-free latency of one unicast (CPU to CPU)."""
        return self.t_setup + hops * self.t_hop + size * self.t_byte + self.t_recv

    def network_time(self, size: int, hops: int) -> float:
        """Network portion of the latency (no software overheads)."""
        return hops * self.t_hop + size * self.t_byte


#: nCUBE-2-like constants used by the delay experiments (Figures 11-14).
NCUBE2 = Timings()

#: Unit-cost timings: each unicast costs exactly one time unit and all
#: software/header overheads vanish.  Under STEP timings the simulated
#: delivery time of each destination equals its abstract step number,
#: which the test suite uses to cross-validate the simulator against
#: the step scheduler.
STEP = Timings(t_setup=0.0, t_recv=0.0, t_byte=1.0, t_hop=0.0)
