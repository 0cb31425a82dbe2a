"""The arc-indexed Definition-4 verifier against an all-pairs reference.

:func:`check_contention_free` examines only the unicast pairs that share
an arc.  The reference below is the verifier as it was before that
index: every pair ``(i, j)``, ``i < j``, through
:func:`pair_contention_free` (or the same test on the channel sets an
``arcs_of`` override gives).  Both must agree on ``ok``, on the
violations -- their order and witness arcs -- and on the causality
errors, for the paper's schedules and for malformed ones.

The E-cube route table behind :func:`ecube_dims` and :func:`ecube_arcs`
is checked against the bit-scan formula it replaced.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core import paths
from repro.core.contention import (
    ContentionReport,
    Unicast,
    check_contention_free,
    pair_contention_free,
    reachable_sets,
)
from repro.core.paths import ResolutionOrder, ecube_arcs, ecube_dims
from repro.mesh import Mesh2D, UMesh
from repro.multicast.ports import ALL_PORT, ONE_PORT
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm

DESC = ResolutionOrder.DESCENDING
ASC = ResolutionOrder.ASCENDING


def _reference_pair(a, b, reach, order, arcs_of):
    if arcs_of is None:
        return pair_contention_free(a, b, reach, order)
    # pair_contention_free's test, on the override's channel sets
    if b.step < a.step:
        a, b = b, a
    shared = set(arcs_of(a.src, a.dst)) & set(arcs_of(b.src, b.dst))
    if not shared:
        return True, None
    if a.step < b.step and b.src in reach.get(a.src, set()):
        return True, None
    return False, min(shared)


def reference(source, unicasts, order=DESC, arcs_of=None) -> ContentionReport:
    """Definition 4 over all pairs, plus the same causality checks."""
    report = ContentionReport(ok=True)
    recv_step = {source: 0}
    for uc in unicasts:
        if uc.dst in recv_step:
            report.ok = False
            report.causality_errors.append(f"node {uc.dst} receives the message more than once")
        else:
            recv_step[uc.dst] = uc.step
    for uc in unicasts:
        got = recv_step.get(uc.src)
        if got is None:
            report.ok = False
            report.causality_errors.append(
                f"node {uc.src} sends at step {uc.step} without ever receiving"
            )
        elif got >= uc.step:
            report.ok = False
            report.causality_errors.append(
                f"node {uc.src} sends at step {uc.step} but only receives at step {got}"
            )
    reach = reachable_sets(source, unicasts)
    for i, a in enumerate(unicasts):
        for b in unicasts[i + 1 :]:
            ok, witness = _reference_pair(a, b, reach, order, arcs_of)
            if not ok:
                report.ok = False
                report.violations.append((a, b, witness))
    return report


def assert_same(source, unicasts, order=DESC, arcs_of=None) -> ContentionReport:
    got = check_contention_free(source, unicasts, order, arcs_of=arcs_of)
    want = reference(source, unicasts, order, arcs_of)
    assert got.ok == want.ok
    assert got.violations == want.violations
    assert got.causality_errors == want.causality_errors
    return got


def _pick(n: int, rng: random.Random) -> tuple[int, list[int]]:
    source = rng.randrange(1 << n)
    m = rng.randint(1, min(1 << (n - 1), 96))
    return source, rng.sample([u for u in range(1 << n) if u != source], m)


def _shifted(unicasts, rng: random.Random) -> list[Unicast]:
    """The schedule with each step moved by -1, 0 or +1 (at least 1)."""
    return [Unicast(u.src, u.dst, max(1, u.step + rng.randint(-1, 1))) for u in unicasts]


class TestPaperSchedules:
    @pytest.mark.parametrize("order", [DESC, ASC], ids=["desc", "asc"])
    @pytest.mark.parametrize("ports", [ONE_PORT, ALL_PORT], ids=["one-port", "all-port"])
    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("algorithm", PAPER_ALGORITHMS)
    def test_matches_reference(self, algorithm, n, ports, order):
        rng = random.Random(f"{algorithm}/{n}/{ports.name}/{order.name}")
        for _ in range(2):
            source, dests = _pick(n, rng)
            schedule = get_algorithm(algorithm).build_tree(n, source, dests, order).schedule(ports)
            unicasts = schedule.unicasts
            assert_same(source, unicasts, order)
            assert_same(source, _shifted(unicasts, rng), order)

    def test_shifted_schedules_do_violate(self):
        """The oracle is not vacuous: shifted steps break Definition 4."""
        rng = random.Random(7)
        violations = causality = 0
        for algorithm in PAPER_ALGORITHMS:
            for n in (4, 6):
                source, dests = _pick(n, rng)
                unicasts = get_algorithm(algorithm).schedule(n, source, dests).unicasts
                report = assert_same(source, _shifted(unicasts, rng))
                violations += len(report.violations)
                causality += len(report.causality_errors)
        assert violations > 0 and causality > 0


def test_violations_come_in_pair_order():
    """Pair (0, 2) shares the first arc of unicast 0 and pair (0, 1) a
    later one; the report still lists (0, 1) first."""
    a, b, c = Unicast(0, 6, 1), Unicast(4, 7, 1), Unicast(0, 5, 1)
    report = assert_same(0, [a, b, c])
    assert report.violations == [(a, b, (4, 1)), (a, c, (0, 2))]


@settings(max_examples=120, deadline=None)
@given(
    algorithm=st.sampled_from(PAPER_ALGORITHMS),
    n=st.integers(3, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_perturbed_steps_match_reference(algorithm, n, seed, data):
    source, dests = _pick(n, random.Random(seed))
    unicasts = get_algorithm(algorithm).schedule(n, source, dests).unicasts
    steps = data.draw(st.lists(st.integers(1, 5), min_size=len(unicasts), max_size=len(unicasts)))
    assert_same(source, [Unicast(u.src, u.dst, s) for u, s in zip(unicasts, steps)])


@pytest.mark.parametrize("seed", range(8))
def test_duplicate_receivers_match_reference(seed):
    rng = random.Random(seed)
    source, dests = _pick(6, rng)
    unicasts = get_algorithm("wsort").schedule(6, source, dests).unicasts
    receivers = [u.dst for u in unicasts]
    extra = [
        Unicast(src, dst, rng.randint(1, 6))
        for src, dst in (rng.sample([source, *receivers], 2) for _ in range(len(unicasts) // 2))
    ]
    assert_same(source, unicasts + extra)


@pytest.mark.parametrize("cols,rows", [(4, 4), (8, 3), (5, 7)])
def test_mesh_channel_sets_match_reference(cols, rows):
    mesh = Mesh2D(cols, rows)
    rng = random.Random(f"mesh/{cols}x{rows}")
    for _ in range(3):
        source = rng.randrange(mesh.size)
        others = [u for u in range(mesh.size) if u != source]
        dests = rng.sample(others, rng.randint(1, len(others)))
        tree = UMesh().build_tree(mesh, source, dests)
        unicasts = tree.schedule(ALL_PORT).unicasts
        assert_same(source, unicasts, arcs_of=tree.arcs_of)
        assert_same(source, _shifted(unicasts, rng), arcs_of=tree.arcs_of)


@pytest.mark.parametrize("seed", range(6))
def test_repeated_arc_counts_once_per_unicast(seed):
    def revisiting(u: int, v: int) -> list:
        arcs = ecube_arcs(u, v)
        return arcs + arcs[:1]  # the first channel listed again

    rng = random.Random(seed)
    source, dests = _pick(5, rng)
    unicasts = get_algorithm("ucube").schedule(5, source, dests).unicasts
    assert_same(source, _shifted(unicasts, rng), arcs_of=revisiting)


class TestRouteTable:
    @staticmethod
    def bit_scan_dims(x: int, order: ResolutionOrder) -> list[int]:
        dims = [d for d in range(x.bit_length()) if (x >> d) & 1]
        if order is DESC:
            dims.reverse()
        return dims

    @pytest.mark.parametrize("order", [DESC, ASC], ids=["desc", "asc"])
    def test_matches_bit_scan_and_stays_within_two_to_the_n(self, order, monkeypatch):
        monkeypatch.setattr(paths, "_DESCENDING_ROUTES", {0: ()})
        monkeypatch.setattr(paths, "_ASCENDING_ROUTES", {0: ()})
        table = paths._DESCENDING_ROUTES if order is DESC else paths._ASCENDING_ROUTES
        rng = random.Random(order.name)
        for n in range(1, 13):
            for x in range(1 << n):
                u = rng.randrange(1 << n)
                dims = self.bit_scan_dims(x, order)
                assert ecube_dims(u, u ^ x, order) == dims
                cur, arcs = u, []
                for d in dims:
                    arcs.append((cur, d))
                    cur ^= 1 << d
                assert ecube_arcs(u, u ^ x, order) == arcs
            assert len(table) <= 1 << n

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ecube_arcs(-3, 4)
