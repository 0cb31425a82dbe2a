"""Output identity of tree build, greedy schedule and Definition-4 verify.

The four paper algorithms run in both resolution orders on seeded
sources and destination sets, from a single destination up to the
whole cube, at n = 3, 6 and 10.  Everything the three kernels expose
is folded into one sha256:

- each send's ``(src, dst, seq, chain)``, in construction order;
- the greedy steps under one-port, two-port and all-port;
- each schedule's ``check_contention`` report: its verdict, the
  violating pairs with their witness arcs, and the causality errors;
- the report on the all-port schedule with every step halved (rounded
  up), a malformed schedule whose violations and witness arcs the
  paper's schedules never produce.

The digest was recorded before the kernels read routes as arc ids; a
mismatch means a kernel no longer builds, schedules or verifies what it
did.  Do not regenerate to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.core.contention import Unicast, check_contention_free
from repro.core.paths import ResolutionOrder
from repro.multicast.ports import ALL_PORT, ONE_PORT, k_port
from repro.multicast.registry import PAPER_ALGORITHMS, get_algorithm

EXPECTED = "252f06749eb8d748dcf6051a5e0013eb88b7e63646eb6063d764dfa6afa89def"

PORTS = (ONE_PORT, k_port(2), ALL_PORT)

#: destination counts per cube dimension, 1 to 2**n - 1
SIZES = {
    3: range(1, 8),
    6: (1, 2, 5, 13, 31, 32, 47, 63),
    10: (1, 3, 64, 257, 512, 700, 1023),
}


def _cases():
    rng = random.Random(1993)
    for n, sizes in SIZES.items():
        for m in sizes:
            source = rng.randrange(1 << n)
            dests = rng.sample([x for x in range(1 << n) if x != source], m)
            yield n, source, dests


def _uc(u):
    return [u.src, u.dst, u.step]


def _report(report):
    return [
        report.ok,
        [[_uc(a), _uc(b), list(arc)] for a, b, arc in report.violations],
        report.causality_errors,
    ]


def test_build_schedule_verify_digest():
    sha = hashlib.sha256()

    def add(label, value):
        sha.update(json.dumps([label, value]).encode())
        sha.update(b"\n")

    for n, source, dests in _cases():
        for name in PAPER_ALGORITHMS:
            for order in ResolutionOrder:
                tree = get_algorithm(name).build_tree(n, source, dests, order)
                add("case", [name, order.value, n, source, sorted(dests)])
                add("sends", [[s.src, s.dst, s.seq, list(s.chain)] for s in tree.sends])
                for ports in PORTS:
                    sched = tree.schedule(ports)
                    add("steps", [ports.name, [sched.step_of(s) for s in tree.sends]])
                    add("report", _report(sched.check_contention()))
                # sched is the all-port schedule, the last of PORTS
                halved = [Unicast(u.src, u.dst, (u.step + 1) // 2) for u in sched.unicasts]
                add("halved", _report(check_contention_free(source, halved, order)))
    assert sha.hexdigest() == EXPECTED
