"""The ``serve-cold`` and ``serve-warm`` workloads.

Both start ``repro serve --port 0`` as a child process, drive it over
loopback from this process with at most two keep-alive connections,
and stop it with SIGTERM.  Inputs come from the seed; the server only
ever sees the generated request bodies.
"""

from __future__ import annotations

import json
import math
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median

from perfbench import hostref, library, stats
from perfbench.loadgen import Call, Connection, Samples, closed_loop, open_loop
from perfbench.procs import Child, peak_rss_mb

#: Load comes from one process over at most this many connections.
CONNECTIONS = 2
#: Requests a timed phase needs, so ≥ 10 samples lie beyond its p99.
MIN_TIMED = 1000
#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_ROUNDS = 3

ENDPOINTS = ("/v1/schedule", "/v1/simulate", "/v1/verify")
COLD_N = 10
COLD_M = (16, 512)
#: serve-cold times a fixed number of requests, ``--seconds`` times
#: this rate (what two clients completed per second on a 2-vCPU VM), so
#: the server's unbounded schedule cache holds the same number of
#: entries at the end of every run and ``peak_rss_mb`` does not follow
#: throughput.  A traced run times MIN_TIMED requests: it replays each
#: of them in-process afterwards, and its numbers are not gated.
COLD_RATE = 65.0
#: serve-cold's timed requests are sent in this many consecutive parts,
#: with a block of the host reference loop before the first and after
#: each, while the server is idle.
COLD_PARTS = 5
#: Requests (two per endpoint) that load a cold server's lazy imports.
WARMUP_REQUESTS = 6
#: Cold requests whose result is recomputed in an untraced run (every
#: k-th); a traced run recomputes all of them.
COLD_CHECK_EVERY = 16

WARM_N = (6, 7, 8, 9, 10)
WARM_KEYS_PER_CLASS = 10
WARM_ZIPF = 1.1
#: Shares of ``--seconds`` for serve-warm's closed loop (where its
#: end-to-end metrics come from) and its open loop at the nominal rate;
#: the ladder follows.
WARM_CLOSED_SHARE = 0.4
WARM_OPEN_SHARE = 0.3
#: Open-loop nominal rate (requests/s): about a third of what two
#: connections sustained on a 2-vCPU VM.
WARM_RATE = 800.0
#: Rate ladder for ``max_rps``: rungs LADDER_FROM * LADDER_STEP**k of
#: MIN_TIMED requests each (see stats.rung_passes for the limit).
LADDER_FROM = 1000.0
LADDER_STEP = 1.1
LADDER_RUNGS = 25
LATENCY_LIMIT_MS = 50.0
KEEP_UP = 0.95


class RunFailure(Exception):
    """The run cannot produce metrics (server did not start, ...)."""


@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``.

    ``e2e`` holds the gated end-to-end metrics, ``layers`` the
    per-layer ones (traced runs), ``reported`` figures printed with
    their unit but not gated, as ``name -> (value, unit)``.
    """

    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    reported: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        """Every output check passed and no operation failed."""
        return not self.problems and not self.failed


# -- inputs ------------------------------------------------------------


def _body(n: int, dests: list[int]) -> bytes:
    return json.dumps({"algorithm": "wsort", "n": n, "destinations": dests}).encode()


def cold_calls(seed: int, count: int, warmup: int) -> tuple[list[Call], list[Call]]:
    """``warmup`` + ``count`` requests, each with a destination set used
    by no other; endpoints interleave schedule/simulate/verify 1:1:1."""
    rng = random.Random(f"serve-cold/{seed}")
    seen: set[tuple[int, ...]] = set()
    calls = []
    nodes = range(1, 1 << COLD_N)
    while len(calls) < warmup + count:
        dests = tuple(sorted(rng.sample(nodes, rng.randint(*COLD_M))))
        if dests in seen:
            continue
        seen.add(dests)
        calls.append(Call(ENDPOINTS[len(calls) % 3], _body(COLD_N, list(dests))))
    return calls[:warmup], calls[warmup:]


def warm_pool(seed: int) -> list[Call]:
    """Distinct keys over n = 6..10 and all three endpoints.

    The pool's order is the Zipf rank.  Classes (n, endpoint) repeat in
    a fixed cycle down the ranks and m stays within a band per n, so
    the hot keys cost about the same under every seed; the seed picks
    m inside the band and the destination sets.
    """
    rng = random.Random(f"serve-warm/{seed}")
    classes = [(n, path) for path in ENDPOINTS for n in WARM_N]
    pool: list[Call] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    while len(pool) < WARM_KEYS_PER_CLASS * len(classes):
        n, path = classes[len(pool) % len(classes)]
        cap = min((1 << n) - 1, 512)
        dests = tuple(sorted(rng.sample(range(1, 1 << n), rng.randint(cap // 4, cap // 2))))
        if (n, dests) in seen:
            continue
        seen.add((n, dests))
        pool.append(Call(path, _body(n, list(dests))))
    return pool


def zipf_picks(rng: random.Random, pool: list[Call], count: int) -> list[Call]:
    weights = [1.0 / (k ** WARM_ZIPF) for k in range(1, len(pool) + 1)]
    return rng.choices(pool, weights=weights, k=count)


def poisson_offsets(rng: random.Random, rate: float, count: int) -> list[float]:
    offsets, t = [], 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


# -- the server --------------------------------------------------------


@dataclass
class Server:
    """One ``repro serve --port 0`` child process."""

    out_dir: Path
    tag: str
    child: Child | None = None
    port: int = 0
    #: how the stopped server ended, for the run's notes
    ending: str = ""

    def start(self) -> None:
        self.child = child = Child(
            ["-m", "repro", "serve", "--port", "0"],
            label="repro serve",
            stderr_path=self.out_dir / f"serve-{self.tag}.stderr",
        )
        # a server that hangs before its banner is killed, so the
        # readline below always returns
        watchdog = threading.Timer(60.0, child.proc.kill)
        watchdog.start()
        try:
            line = child.readline()
        finally:
            watchdog.cancel()
        if not line.startswith("serving on "):
            rc, err, _ = child.finish(None, 10.0)
            raise RunFailure(f"server did not start (rc={rc}): {err.strip()[-500:]}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def scrape(self) -> dict[str, float]:
        """Unlabelled samples of ``/metrics``."""
        conn = Connection("127.0.0.1", self.port)
        try:
            status, body = conn.request("GET", "/metrics")
        finally:
            conn.close()
        if status != 200:
            raise RunFailure(f"/metrics answered {status}")
        out = {}
        for line in body.decode().splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, value = line.rsplit(" ", 1)
                out[name] = float(value)
        return out

    def peak_rss_mb(self) -> float:
        assert self.child is not None
        return peak_rss_mb(self.child.pid)

    def stop(self) -> list[str]:
        """SIGTERM and reap; returns the problems found (empty if clean)."""
        assert self.child is not None
        rc, err, problems = self.child.finish(signal.SIGTERM, 30.0)
        drain = [ln for ln in err.splitlines() if ln.startswith("drained:")]
        if rc != 0:
            problems.append(f"server exited {rc}: {err.strip()[-300:]}")
        if not drain or not drain[-1].startswith("drained: clean"):
            problems.append(f"no clean drain line from the server: {drain}")
        self.ending = f"exit {rc}, {drain[-1] if drain else 'no drain line'}"
        self.child = None
        return problems

    def kill(self) -> None:
        if self.child is not None:
            self.child.kill()
            self.child = None


def _metric(after: dict, before: dict, name: str) -> float:
    full = f"repro_{name}"
    return after.get(full, 0.0) - before.get(full, 0.0)


def server_deltas(before: dict, after: dict, requests: int) -> dict[str, float]:
    """Server-side numbers for the requests between two ``/metrics`` scrapes."""
    lat_sum = _metric(after, before, "sim_service_latency_ms_sum")
    lat_count = _metric(after, before, "sim_service_latency_ms_count")
    builds = _metric(after, before, "sim_service_build_seconds_seconds_count")
    hits = _metric(after, before, "sim_parallel_cache_hits")
    misses = _metric(after, before, "sim_parallel_cache_misses")
    return {
        "server_ms": lat_sum / lat_count if lat_count > 0 else 0.0,
        "builds": _metric(after, before, "sim_service_builds"),
        "coalesced": _metric(after, before, "sim_service_coalesced"),
        "build_ms": (_metric(after, before, "sim_service_build_seconds_seconds_sum") / builds * 1e3)
        if builds else 0.0,
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_puts": _metric(after, before, "sim_parallel_cache_puts"),
        "cache_disk_hits": _metric(after, before, "sim_parallel_cache_disk_hits"),
        "hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "bytes_out": _metric(after, before, "sim_service_bytes_out") / requests
        if requests else 0.0,
        "rejected": _metric(after, before, "sim_service_rejected_rate")
        + _metric(after, before, "sim_service_rejected_capacity"),
    }


# -- shared run plumbing -----------------------------------------------


def _setup(out_dir: Path, prepare, label: str) -> tuple[Server, list[float], list[str]]:
    """``SETUP_ROUNDS`` set-ups (launch + ``prepare``); all but the last
    server are stopped.  Returns the live server and the set-up times."""
    times: list[float] = []
    problems: list[str] = []
    for round_no in range(SETUP_ROUNDS):
        server = Server(out_dir, f"{label}-{round_no}")
        try:
            server.start()
            prepare(server)
            assert server.child is not None
            times.append(time.perf_counter() - server.child.launched)
        except BaseException:
            server.kill()
            raise
        if round_no < SETUP_ROUNDS - 1:
            problems.extend(server.stop())
    return server, times, problems


def _closed(server: Server, calls: list[Call], seconds: float, min_requests: int) -> Samples:
    return closed_loop("127.0.0.1", server.port, calls, CONNECTIONS, seconds, min_requests)


def require_ok(label: str, samples: Samples, problems: list[str], need: int = 0) -> list[int]:
    """Indices of the requests sent that were answered 200.

    Every other request sent -- refused (429, 503), failed (500, 504) or
    lost in transport (no status) -- is a problem and fails the run;
    timings come from the 200 responses only.

    Raises:
        RunFailure: when fewer than ``need`` were answered 200, too few
            for the phase's percentiles.
    """
    sent = samples.sent_indices()
    ok = samples.ok_indices()
    if len(ok) < len(sent):
        statuses = sorted({str(samples.status[i]) for i in sent} - {"200"})
        problems.append(
            f"{label}: {len(sent) - len(ok)} of {len(sent)} request(s) not answered 200 "
            f"(status {', '.join(statuses)}) {samples.errors[:3]}"
        )
    if len(ok) < need:
        raise RunFailure(f"{label}: {len(ok)} request(s) answered 200, {need} needed: {problems}")
    return ok


def _statuses(samples: Samples, indices: list[int]) -> tuple[int, int]:
    return stats.attempted_failed([samples.status[i] for i in indices])


def closed_summary(label: str, parts: list[Samples],
                   problems: list[str]) -> tuple[Samples, list[int], list[float], float]:
    """The 200 responses of a closed loop sent in ``parts``: all the
    samples as one, the indices and latencies from send (ms) of the 200
    responses, and how many completed per second the parts were busy."""
    samples = Samples.concat(parts)
    ok = require_ok(label, samples, problems, need=MIN_TIMED)
    busy = sum(p.busy_s() for p in parts)
    return samples, ok, samples.latencies_ms(ok, from_due=False), len(ok) / busy


def ref_summary(parts: list[Samples], blocks: list[list[float]]) -> tuple[float, float]:
    """``(p50_ref, throughput_ref)`` of a closed loop sent in ``parts``,
    with a block of the host reference loop before the first part and
    after each: every latency of a 200 response and every part's busy
    time in units of the reference loop timed next to its part."""
    lat: list[float] = []
    busy = 0.0
    for part, ref in zip(parts, hostref.stretch_refs(blocks)):
        lat += [ms / ref for ms in part.latencies_ms(part.ok_indices(), from_due=False)]
        busy += part.busy_s() * 1e3 / ref
    return median(lat), len(lat) / busy


def _lag_p99(samples: Samples, sent: list[int]) -> float:
    """The load generator's own lateness at p99, in ms."""
    return stats.percentile([samples.lag[i] * 1e3 for i in sent], 99)


# -- serve-cold ----------------------------------------------------------


def run_cold(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    count = MIN_TIMED if trace else max(MIN_TIMED, round(seconds * COLD_RATE))
    warmup, calls = cold_calls(seed, count, warmup=WARMUP_REQUESTS * SETUP_ROUNDS)
    batches = iter([warmup[k:k + WARMUP_REQUESTS] for k in range(0, len(warmup), WARMUP_REQUESTS)])
    problems: list[str] = []

    def prepare(server: Server) -> None:
        # lazy imports load on a server's first requests; these keys
        # are outside the timed set, one batch per set-up round
        batch = next(batches)
        require_ok("warm-up", _closed(server, batch, 0.0, len(batch)), problems)

    server, setup_times, setup_problems = _setup(out_dir, prepare, "cold")
    problems.extend(setup_problems)
    cuts = [len(calls) * k // COLD_PARTS for k in range(COLD_PARTS + 1)]
    parts: list[Samples] = []
    try:
        before = server.scrape()
        blocks = [hostref.block()]
        for lo, hi in zip(cuts, cuts[1:]):
            parts.append(_closed(server, calls[lo:hi], 0.0, hi - lo))
            blocks.append(hostref.block())
        after = server.scrape()
        rss = server.peak_rss_mb()
    finally:
        problems.extend(server.stop())

    samples, ok, lat, rps = closed_summary("timed", parts, problems)
    attempted, failed = _statuses(samples, samples.sent_indices())
    p50_ref, throughput_ref = ref_summary(parts, blocks)
    e2e = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        "p50_ref": p50_ref,
        "throughput_ref": throughput_ref,
    }
    reported = {
        "p50_ms": (median(lat), "ms"),
        "p90_ms": (stats.percentile(lat, 90), "ms"),
        "p99_ms": (stats.percentile(lat, 99), "ms"),
        "rps": (rps, "req/s"),
        "host.ref_ms": (mean(loop for b in blocks for loop in b), "ms"),
        "fail_ratio": (stats.fail_ratio(attempted, failed), "ratio"),
    }
    server_side = server_deltas(before, after, attempted)
    server_side["client_ms"] = sum(lat) / len(lat)
    checked = ok if trace else ok[::COLD_CHECK_EVERY]
    layers: dict[str, float] = {}
    if trace:
        from perfbench import traced

        layers = traced.replay_service(
            calls, samples, ok, "build", server_side, seed,
            out_dir / "trace-serve-cold.json", lag_ms=_lag_p99(samples, ok), problems=problems,
        )
    else:
        _check_cold(calls, samples, ok, checked, problems)
    notes = [
        f"{attempted} timed requests from {CONNECTIONS} closed-loop clients, {failed} failed",
        f"server: {server.ending}",
        f"checked {len(checked)} response(s) byte for byte against the library",
    ]
    return Outcome(e2e, layers, attempted, failed, problems, notes, reported)


def _check_cold(calls, samples, ok, checked, problems) -> None:
    """Key and source of every 200 response; full bytes for ``checked``."""
    wanted = set(checked)
    for i in ok:
        body = samples.body[i]
        req = library.parse(calls[i].path, calls[i].body)
        key = library.cache_key(req)
        if i in wanted:
            expect = library.encode(req, key, "build", library.compute(req))
            if body != expect:
                problems.append(f"cold request {i}: response differs from the library value")
        else:
            doc = json.loads(body)
            if doc.get("key") != key or doc.get("source") != "build":
                problems.append(f"cold request {i}: wrong key or source {doc.get('source')!r}")


# -- serve-warm ----------------------------------------------------------


def _rung_summary(rate: float, s: Samples) -> dict[str, float]:
    sent = s.sent_indices()
    ok = s.ok_indices()
    first_due = min(s.due[i] for i in sent)
    return {
        "rate": rate,
        "p99_ms": stats.percentile(s.latencies_ms(ok, from_due=True), 99)
        if len(ok) == len(sent) else math.inf,
        "failed": float(len(sent) - len(ok)),
        "arrival_s": max(s.due[i] for i in sent) - first_due,
        "drain_s": max((s.done[i] for i in ok), default=math.inf) - first_due,
    }


def run_warm(seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    pool = warm_pool(seed)
    rng = random.Random(f"serve-warm/arrivals/{seed}")
    # enough picks for the closed loop at 10k req/s; it stops on time
    closed_calls = zipf_picks(rng, pool, max(MIN_TIMED, int(10_000 * seconds * WARM_CLOSED_SHARE)))
    open_count = max(MIN_TIMED, int(WARM_RATE * seconds * WARM_OPEN_SHARE))
    open_phases = [
        (rate, zipf_picks(rng, pool, count), poisson_offsets(rng, rate, count))
        for rate, count in [(WARM_RATE, open_count)]
        + [(LADDER_FROM * LADDER_STEP ** k, MIN_TIMED) for k in range(LADDER_RUNGS)]
    ]
    problems: list[str] = []

    def prepare(server: Server) -> None:
        require_ok("pool fill", _closed(server, pool, 0.0, len(pool)), problems)

    server, setup_times, setup_problems = _setup(out_dir, prepare, "warm")
    problems.extend(setup_problems)
    rungs: list[dict[str, float]] = []
    phases: list[tuple[str, list[Call], Samples]] = []
    try:
        before = server.scrape()
        blocks = [hostref.block()]
        closed = _closed(server, closed_calls, seconds * WARM_CLOSED_SHARE, MIN_TIMED)
        blocks.append(hostref.block())
        after = server.scrape()
        phases.append(("closed loop", closed_calls, closed))
        # the nominal rate is the ladder's first rung
        for rate, calls, offsets in open_phases:
            if stats.ladder_done(rungs, LATENCY_LIMIT_MS, KEEP_UP):
                break
            time.sleep(0.1)  # let the previous phase's queue drain
            samples = open_loop("127.0.0.1", server.port, calls, offsets, CONNECTIONS)
            phases.append((f"open loop at {rate:.0f}/s", calls, samples))
            rungs.append(_rung_summary(rate, samples))
        end = server.scrape()
        rss = server.peak_rss_mb()
    finally:
        problems.extend(server.stop())

    attempted = failed = 0
    for _, _, s in phases:
        at, fa = _statuses(s, s.sent_indices())
        attempted, failed = attempted + at, failed + fa
    _, ok, lat, rps = closed_summary("closed loop", [closed], problems)
    for label, _, s in phases[2:]:
        require_ok(label, s, problems)
    label, _, nominal = phases[1]
    nominal_ok = require_ok(label, nominal, problems, need=MIN_TIMED)
    open_lat = nominal.latencies_ms(nominal_ok, from_due=True)
    lag_p99 = _lag_p99(nominal, nominal.sent_indices())
    p50_ref, throughput_ref = ref_summary([closed], blocks)
    e2e = {
        "setup_s": median(setup_times),
        "peak_rss_mb": rss,
        "p50_ref": p50_ref,
        "throughput_ref": throughput_ref,
    }
    reported = {
        "p50_ms": (median(lat), "ms"),
        "p90_ms": (stats.percentile(lat, 90), "ms"),
        "p99_ms": (stats.percentile(lat, 99), "ms"),
        "throughput": (rps, "1/s"),
        "host.ref_ms": (mean(loop for b in blocks for loop in b), "ms"),
        "open_p50_ms": (median(open_lat), "ms"),
        "open_p99_ms": (stats.windowed_p99(open_lat, MIN_TIMED), "ms"),
        "max_rps": (stats.choose_max_rps(rungs, LATENCY_LIMIT_MS, KEEP_UP), "req/s"),
        "loadgen.lag_p99_ms": (lag_p99, "ms"),
        "fail_ratio": (stats.fail_ratio(attempted, failed), "ratio"),
    }
    server_side = server_deltas(before, after, len(closed.sent_indices()))
    server_side["client_ms"] = sum(lat) / len(lat)
    server_side["rejected"] = server_deltas(before, end, 1)["rejected"]
    layers: dict[str, float] = {}
    if trace:
        from perfbench import traced

        layers = traced.replay_service(
            closed_calls, closed, ok, "cache", server_side, seed,
            out_dir / "trace-serve-warm.json", lag_ms=lag_p99, problems=problems,
        )
    checked = _check_warm(phases, problems)
    ladder_text = ", ".join(
        f"{r['rate']:.0f}/s p99={r['p99_ms']:.2f}ms"
        f"{'' if stats.rung_passes(r, LATENCY_LIMIT_MS, KEEP_UP) else ' (missed)'}"
        for r in rungs
    )
    notes = [
        f"{len(closed.sent_indices())} requests from {CONNECTIONS} closed-loop clients, then "
        f"{len(nominal.sent_indices())} Poisson arrivals at {WARM_RATE:g}/s and the ladder; "
        f"{attempted} in all, {failed} failed",
        f"ladder (limit p99 <= {LATENCY_LIMIT_MS:g} ms, keep-up {KEEP_UP:g}): {ladder_text}",
        f"server: {server.ending}",
        f"checked {checked} distinct key(s) against the library",
    ]
    return Outcome(e2e, layers, attempted, failed, problems, notes, reported)


def _check_warm(phases: list[tuple[str, list[Call], Samples]], problems: list[str]) -> int:
    """Every 200 response of one key is the same bytes, and those bytes
    are the library's value for the key (each distinct key computed
    once).  Returns the number of keys checked."""
    bodies: dict[tuple[str, bytes], bytes] = {}
    for _, calls, s in phases:
        for i in s.ok_indices():
            body = s.body[i]
            ident = (calls[i].path, calls[i].body)
            if body != bodies.setdefault(ident, body):
                problems.append(f"warm key {calls[i].path}: responses differ between requests")
    for (path, req_body), body in bodies.items():
        req = library.parse(path, req_body)
        expect = library.encode(req, library.cache_key(req), "cache", library.compute(req))
        if body != expect:
            problems.append(f"warm key {path}: response differs from the library value")
    return len(bodies)
