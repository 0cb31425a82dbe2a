"""Discrete-event simulator for wormhole-routed hypercubes.

This subpackage stands in for both pieces of the paper's evaluation
infrastructure that cannot be reproduced directly:

- the 64-node **nCUBE-2** the measurements of Section 5.2 ran on, and
- **MultiSim** [McKinley & Trefftz 1993], the CSIM-based simulator used
  for the larger cubes of Section 5.3.

The model (see DESIGN.md Section 3): a unicast's worm acquires the
channels of its E-cube path hop by hop; blocked headers wait FIFO on
the busy channel while holding all upstream channels; data pipelines
behind the header, so an unblocked ``L``-byte unicast over ``h`` hops
costs ``t_setup + h * t_hop + L * t_byte`` of network time -- nearly
distance-insensitive, as wormhole routing requires.  Injection ports
are a per-node resource implementing the one-port/all-port/k-port
models.

The timing constants default to nCUBE-2-like values
(:data:`repro.simulator.params.NCUBE2`); :data:`~repro.simulator.params.STEP`
gives unit-cost timings under which delivery times coincide with the
abstract step schedule, which the test suite uses for cross-validation.
"""

from repro.simulator.deadlock import is_deadlock_free, stall_report, waiting_cycle
from repro.simulator.engine import Simulator
from repro.simulator.flitlevel import FlitLevelNetwork
from repro.simulator.message import Worm, WormState
from repro.simulator.multirun import ConcurrentResult, simulate_concurrent_multicasts
from repro.simulator.network import WormholeNetwork
from repro.simulator.params import NCUBE2, STEP, Timings
from repro.simulator.routing import ecube_routing, random_minimal_routing
from repro.simulator.run import MulticastResult, simulate_multicast
from repro.simulator.timeline import render_timeline
from repro.simulator.trace import ChannelTrace, Occupancy
from repro.simulator.traffic import LoadedResult, simulate_multicast_under_load
from repro.simulator.validation import validate_against_model

__all__ = [
    "ChannelTrace",
    "ConcurrentResult",
    "FlitLevelNetwork",
    "LoadedResult",
    "MulticastResult",
    "NCUBE2",
    "Occupancy",
    "STEP",
    "Simulator",
    "Timings",
    "Worm",
    "WormState",
    "WormholeNetwork",
    "ecube_routing",
    "is_deadlock_free",
    "random_minimal_routing",
    "render_timeline",
    "simulate_concurrent_multicasts",
    "simulate_multicast",
    "simulate_multicast_under_load",
    "stall_report",
    "validate_against_model",
    "waiting_cycle",
]
