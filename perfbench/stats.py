"""The benchmark's own arithmetic: percentiles, rung choice, self time.

Everything here is a pure function over raw samples, so the self-tests
(``test_perfbench.py``) pin it without a server or a sweep.
"""

from __future__ import annotations

import math
from statistics import median
from typing import Iterable, Mapping, Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it, so one outlier cannot be the reported tail.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Exact nearest-rank ``q``-th percentile of raw samples.

    Raises:
        ValueError: when fewer than :data:`MIN_BEYOND` samples lie
            above the chosen rank (for p99 that needs ≥ 1000 samples).
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need {MIN_BEYOND}"
        )
    return ordered[rank - 1]


def fail_ratio(attempted: int, failed: int) -> float:
    """Failed (or refused) operations over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def attempted_failed(statuses: Sequence[int | None]) -> tuple[int, int]:
    """``(attempted, failed)`` over the statuses of requests sent.

    Anything but 200 failed: ``None`` stands for a transport error (no
    response at all), and refusals (429, 503) count as failures too.
    """
    return len(statuses), sum(1 for s in statuses if s != 200)


def windowed_p99(latencies_ms: Sequence[float], window: int) -> float:
    """Median of the p99s of consecutive ``window``-sample windows (a
    trailing partial window joins the one before it), so a burst of
    host noise moves one window's p99 and not the reported one."""
    count = max(1, len(latencies_ms) // window)
    bounds = [k * window for k in range(count)] + [len(latencies_ms)]
    return median(
        [percentile(latencies_ms[lo:hi], 99) for lo, hi in zip(bounds, bounds[1:])]
    )


def rung_passes(rung: Mapping[str, float], limit_ms: float, keep_up: float) -> bool:
    """One ladder rung meets the limit: nothing failed, p99 within
    ``limit_ms``, and no growing backlog -- the rung's requests were
    all answered within ``1 / keep_up`` of the time they took to arrive.

    ``rung`` maps ``p99_ms``, ``failed``, ``arrival_s`` (first to last
    due time) and ``drain_s`` (first due time to last completion).
    """
    return (
        rung["failed"] == 0
        and rung["p99_ms"] <= limit_ms
        and rung["arrival_s"] >= keep_up * rung["drain_s"]
    )


#: The ladder stops after this many failed rungs in a row; one failed
#: rung below capacity is host noise more often than a limit.
LADDER_PATIENCE = 2


def choose_max_rps(rungs: Sequence[Mapping[str, float]], limit_ms: float,
                   keep_up: float) -> float:
    """The highest passing rate of an ascending ladder, looking no
    further than :data:`LADDER_PATIENCE` failed rungs in a row;
    ``0.0`` when no rung passes.  Each rung also maps its ``rate``."""
    best = 0.0
    misses = 0
    for rung in sorted(rungs, key=lambda r: r["rate"]):
        if rung_passes(rung, limit_ms, keep_up):
            best, misses = rung["rate"], 0
        else:
            misses += 1
            if misses >= LADDER_PATIENCE:
                break
    return best


def ladder_done(rungs: Sequence[Mapping[str, float]], limit_ms: float,
                keep_up: float) -> bool:
    """Whether the last :data:`LADDER_PATIENCE` rungs all failed."""
    tail = rungs[-LADDER_PATIENCE:]
    return len(tail) == LADDER_PATIENCE and not any(
        rung_passes(r, limit_ms, keep_up) for r in tail
    )


def self_times(spans: Iterable[Mapping]) -> dict[str, float]:
    """Self time (µs) of every finished span, keyed by span id.

    A span's self time is its duration minus the part of its interval
    that its children cover.  Children may overlap one another (worker
    chunks replayed under one dispatch span), so their intervals are
    merged before subtracting, and clipped to the parent's interval.
    """
    spans = [s for s in spans if s.get("end_us") is not None]
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append((s["start_us"], s["end_us"]))
    out: dict[str, float] = {}
    for s in spans:
        start, end = s["start_us"], s["end_us"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(s["span_id"], ())):
            lo, hi = max(c_start, cursor), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["span_id"]] = max(0.0, (end - start) - covered)
    return out


def rollup(spans: Sequence[Mapping]) -> dict[str, dict[str, float]]:
    """Per span name: ``count``, total ``self_us`` and total ``total_us``."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        if s["span_id"] not in own:
            continue
        agg = out.setdefault(s["name"], {"count": 0, "self_us": 0.0, "total_us": 0.0})
        agg["count"] += 1
        agg["self_us"] += own[s["span_id"]]
        agg["total_us"] += s["end_us"] - s["start_us"]
    return out
