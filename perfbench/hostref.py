"""The host reference: a fixed pure-Python loop, timed on this host.

On a shared virtual machine the host's speed is not constant.  On the
2-vCPU VM this benchmark was sized on, a figure sweep took 10-11 s for
several minutes and then 7-8 s for the next several, with no change to
anything in the run, and one run's sweeps could differ by 40 %.  A
ten-run set that spans such a change spreads past any bound.  The gated
timings are therefore ratios: each stretch of the program's work (a
sweep, or one part of a closed loop) is timed in units of this loop,
timed in a block just before and just after the stretch.  The program
is paused while a block runs, so the two do not compete for a CPU.
"""

from __future__ import annotations

import time
from statistics import mean

#: Loops timed per block.
BLOCK_LOOPS = 2


def loop_ms() -> float:
    """Wall time of one fixed pure-Python loop, in ms."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed * 1e3


def block() -> list[float]:
    """One block of :data:`BLOCK_LOOPS` timed loops (ms each)."""
    return [loop_ms() for _ in range(BLOCK_LOOPS)]


def stretch_refs(blocks: list[list[float]]) -> list[float]:
    """The reference for each stretch between consecutive blocks: the
    mean loop of the block before it and the block after it (ms)."""
    return [mean(before + after) for before, after in zip(blocks, blocks[1:])]
