"""Calibration: fitting the wormhole cost model to measurements.

The paper's simulator credibility rests on calibration against a real
nCUBE-2.  This module provides the same workflow for users with their
own latency measurements: given samples of contention-free unicast
delay as a function of message size and hop count, recover the model
constants by linear least squares,

    delay = t_sw + hops * t_hop + size * t_byte

where ``t_sw`` is the combined software overhead (``t_setup + t_recv``
is not separable from one-way delay measurements alone; the split is a
free parameter).  The round-trip test -- measure the simulator, fit,
recover the constants -- is in ``tests/analysis/test_calibration.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.simulator.params import Timings
from repro.simulator.run import Machine

__all__ = ["CalibrationFit", "fit_timings", "measure_unicast_samples"]


@dataclass(frozen=True, slots=True)
class CalibrationFit:
    """Result of fitting the affine cost model.

    Attributes:
        t_software: combined per-message software overhead (us).
        t_hop: per-hop header routing latency (us).
        t_byte: per-byte channel time (us).
        residual_rms: root-mean-square fit residual (us).
    """

    t_software: float
    t_hop: float
    t_byte: float
    residual_rms: float

    def to_timings(self, recv_fraction: float = 0.5) -> Timings:
        """Materialize :class:`Timings`, splitting the software overhead.

        Args:
            recv_fraction: share of ``t_software`` assigned to the
                receive side (the split is unobservable from one-way
                delays; 0.5 by default).
        """
        if not 0.0 <= recv_fraction <= 1.0:
            raise ValueError("recv_fraction must be in [0, 1]")
        return Timings(
            t_setup=self.t_software * (1.0 - recv_fraction),
            t_recv=self.t_software * recv_fraction,
            t_byte=self.t_byte,
            t_hop=self.t_hop,
        )


def fit_timings(samples: Sequence[tuple[int, int, float]]) -> CalibrationFit:
    """Least-squares fit of ``(size_bytes, hops, delay_us)`` samples.

    Requires at least three samples spanning more than one size and
    more than one hop count (otherwise the system is singular).

    Raises:
        ValueError: on insufficient or degenerate sample sets.
    """
    if len(samples) < 3:
        raise ValueError("need at least 3 samples to fit 3 coefficients")
    sizes = {s for s, _, _ in samples}
    hops = {h for _, h, _ in samples}
    if len(sizes) < 2 or len(hops) < 2:
        raise ValueError("samples must span at least two sizes and two hop counts")
    a = np.array([[1.0, float(h), float(s)] for s, h, _ in samples])
    y = np.array([d for _, _, d in samples])
    coef, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
    t_sw, t_hop, t_byte = (float(c) for c in coef)
    resid = a @ coef - y
    rms = float(np.sqrt(np.mean(resid**2)))
    if t_byte < 0 or t_hop < -1e-9 or t_sw < -1e-9:
        raise ValueError(
            f"fit produced negative constants (t_sw={t_sw:.3g}, t_hop={t_hop:.3g}, "
            f"t_byte={t_byte:.3g}); the samples do not look like wormhole latencies"
        )
    return CalibrationFit(
        t_software=max(0.0, t_sw),
        t_hop=max(0.0, t_hop),
        t_byte=t_byte,
        residual_rms=rms,
    )


def measure_unicast_samples(
    n: int,
    timings: Timings,
    sizes: Sequence[int] = (64, 512, 4096),
    max_hops: int | None = None,
) -> list[tuple[int, int, float]]:
    """Generate calibration samples by 'measuring' the simulator itself.

    One isolated unicast per (size, hops) combination from node 0 to
    the all-ones node of the first ``hops`` dimensions.
    """
    out: list[tuple[int, int, float]] = []
    for size in sizes:
        for h in range(1, (max_hops or n) + 1):
            received: list[float] = []
            machine = Machine(n, timings, 1, lambda worm: received.append(worm.t_received))
            machine.send(0, [((1 << h) - 1, size, None)])
            machine.sim.run()
            out.append((size, h, received[0]))
    return out
