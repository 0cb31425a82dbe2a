"""Unit tests for the REP001..REP006 rule implementations."""

from __future__ import annotations

import textwrap

from repro.lint.engine import lint_source


def _findings(source: str, rule: str | None = None):
    found, _waived = lint_source(textwrap.dedent(source), "snippet.py")
    if rule is None:
        return found
    return [f for f in found if f.rule == rule]


class TestRep001Determinism:
    def test_flags_global_random_calls(self):
        found = _findings(
            """
            import random

            def pick(xs):
                return xs[random.randint(0, len(xs) - 1)]
            """,
            "REP001",
        )
        assert len(found) == 1
        assert "random.randint" in found[0].message

    def test_seeded_instances_are_fine(self):
        assert not _findings(
            """
            import random

            def pick(xs, seed):
                rng = random.Random(seed)
                return rng.choice(xs)
            """,
            "REP001",
        )

    def test_flags_legacy_numpy_global_rng(self):
        found = _findings(
            """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
            "REP001",
        )
        assert len(found) == 1
        assert "numpy" in found[0].message

    def test_flags_legacy_numpy_global_rng_imported_in_the_function(self):
        """numpy is imported where it is used (``repro serve`` never
        loads it), and the rule still resolves the alias."""
        found = _findings(
            """
            def noise(n):
                import numpy as np

                return np.random.rand(n)
            """,
            "REP001",
        )
        assert len(found) == 1
        assert "numpy.random.rand" in found[0].message

    def test_default_rng_is_fine(self):
        assert not _findings(
            """
            import numpy as np

            def noise(n, seed):
                return np.random.default_rng(seed).random(n)
            """,
            "REP001",
        )

    def test_flags_builtin_hash(self):
        found = _findings(
            """
            def key(spec):
                return hash(spec)
            """,
            "REP001",
        )
        assert len(found) == 1
        assert "salted per process" in found[0].message

    def test_method_named_hash_is_fine(self):
        assert not _findings(
            """
            def key(spec):
                return spec.hash()
            """,
            "REP001",
        )

    def test_flags_set_iteration(self):
        found = _findings(
            """
            def schedule(dests):
                return [d for d in set(dests)]
            """,
            "REP001",
        )
        assert len(found) == 1
        assert "sorted()" in found[0].message

    def test_flags_set_literal_for_loop(self):
        assert _findings(
            """
            def walk():
                for d in {3, 1, 2}:
                    yield d
            """,
            "REP001",
        )

    def test_sorted_set_is_fine(self):
        assert not _findings(
            """
            def schedule(dests):
                return [d for d in sorted(set(dests))]
            """,
            "REP001",
        )


class TestRep002Timing:
    def test_flags_wall_clock(self):
        found = _findings(
            """
            import time

            def uptime(start):
                return time.time() - start
            """,
            "REP002",
        )
        assert len(found) == 1

    def test_resolves_module_alias(self):
        assert _findings(
            """
            import time as _time

            def now():
                return _time.time()
            """,
            "REP002",
        )

    def test_resolves_from_import(self):
        assert _findings(
            """
            from time import time

            def now():
                return time()
            """,
            "REP002",
        )

    def test_monotonic_is_fine(self):
        assert not _findings(
            """
            import time

            def uptime(start):
                return time.monotonic() - start
            """,
            "REP002",
        )

    def test_unrelated_time_attribute_is_fine(self):
        assert not _findings(
            """
            def sample(clock):
                return clock.time()
            """,
            "REP002",
        )


class TestRep003AsyncHygiene:
    def test_flags_sleep_in_async_def(self):
        found = _findings(
            """
            import time

            async def handler():
                time.sleep(1.0)
            """,
            "REP003",
        )
        assert len(found) == 1
        assert "run_in_executor" in found[0].message

    def test_flags_subprocess_and_open(self):
        found = _findings(
            """
            import subprocess

            async def handler(path):
                subprocess.run(["ls"])
                with open(path) as f:
                    return f.read()
            """,
            "REP003",
        )
        assert {f.snippet.split("(")[0] for f in found} >= {"subprocess.run"}
        assert len(found) == 2

    def test_asyncio_sleep_is_fine(self):
        assert not _findings(
            """
            import asyncio

            async def handler():
                await asyncio.sleep(1.0)
            """,
            "REP003",
        )

    def test_sync_def_nested_in_async_is_off_loop(self):
        # a sync helper defined inside an async def runs via the
        # executor / a callback, not on the loop
        assert not _findings(
            """
            import time

            async def handler(loop):
                def blocking():
                    time.sleep(1.0)
                await loop.run_in_executor(None, blocking)
            """,
            "REP003",
        )

    def test_blocking_outside_async_is_fine(self):
        assert not _findings(
            """
            import time

            def retry_backoff():
                time.sleep(0.5)
            """,
            "REP003",
        )


class TestRep004ExceptionHygiene:
    def test_flags_silent_blanket_except(self):
        found = _findings(
            """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    pass
            """,
            "REP004",
        )
        assert len(found) == 1

    def test_flags_bare_except(self):
        assert _findings(
            """
            def load(path):
                try:
                    return parse(path)
                except:
                    return None
            """,
            "REP004",
        )

    def test_reraise_is_fine(self):
        assert not _findings(
            """
            def load(path):
                try:
                    return parse(path)
                except Exception:
                    raise
            """,
            "REP004",
        )

    def test_metric_emission_is_fine(self):
        assert not _findings(
            """
            def load(path, metrics):
                try:
                    return parse(path)
                except Exception:
                    metrics.counter("sim.resilience.load_errors").inc()
                    return None
            """,
            "REP004",
        )

    def test_specific_exception_is_fine(self):
        assert not _findings(
            """
            def load(path):
                try:
                    return parse(path)
                except FileNotFoundError:
                    return None
            """,
            "REP004",
        )


class TestRep005ExitCodes:
    def test_flags_unknown_constant_code(self):
        found = _findings(
            """
            import sys

            def main():
                sys.exit(3)
            """,
            "REP005",
        )
        assert len(found) == 1
        assert "0, 1, 2, 130" in found[0].message

    def test_flags_negative_and_systemexit(self):
        assert _findings("import sys\nsys.exit(-1)\n", "REP005")
        assert _findings("raise SystemExit(77)\n", "REP005")

    def test_contract_codes_are_fine(self):
        for code in (0, 1, 2, 130):
            assert not _findings(f"import sys\nsys.exit({code})\n", "REP005")

    def test_dynamic_code_is_fine(self):
        assert not _findings(
            """
            import sys

            def main(run):
                sys.exit(run())
            """,
            "REP005",
        )


class TestRep006TelemetryNaming:
    def test_flags_unregistered_metric_literal(self):
        found = _findings(
            """
            def record(registry):
                registry.counter("sim.bogus.things").inc()
            """,
            "REP006",
        )
        assert len(found) == 1
        assert "sim.bogus.things" in found[0].message

    def test_registered_families_and_core_names_are_fine(self):
        assert not _findings(
            """
            def record(registry):
                registry.counter("sim.parallel.points_total").inc()
                registry.gauge("sim.service.cache_hit_ratio").set(1.0)
                registry.timer("sim.wall").record(0.1)
            """,
            "REP006",
        )

    def test_fstring_prefix_checked(self):
        assert _findings(
            """
            def record(registry, label):
                registry.counter(f"sim.nope.{label}").inc()
            """,
            "REP006",
        )
        assert not _findings(
            """
            def record(registry, label):
                registry.counter(f"sim.parallel.points.{label}").inc()
            """,
            "REP006",
        )

    def test_flags_unregistered_runrecord_kind(self):
        found = _findings(
            """
            from repro.obs.telemetry import RunRecord

            def emit():
                return RunRecord(run_id="x", kind="mystery-run", n=4)
            """,
            "REP006",
        )
        assert len(found) == 1
        assert "mystery-run" in found[0].message

    def test_registered_kind_is_fine(self):
        assert not _findings(
            """
            from repro.obs.telemetry import RunRecord

            def emit():
                return RunRecord(run_id="x", kind="experiment-point", n=4)
            """,
            "REP006",
        )

    def test_flags_unregistered_kind_at_any_call(self):
        """Helpers that build the record from a ``kind=`` argument
        (``Machine.record``, ``emit_event``) are checked too."""
        found = _findings(
            """
            from repro.obs.sink import emit_event

            def emit(machine):
                machine.record(None, kind="mystery-run")
                emit_event("host-lost", kind="fabric-event")
            """,
            "REP006",
        )
        assert len(found) == 1
        assert "mystery-run" in found[0].message

    def test_flags_unregistered_event_counter(self):
        """``emit_event(counter=...)`` names the metric it counts, so the
        literal is checked like an instrument name."""
        found = _findings(
            """
            from repro.obs.sink import emit_event

            def emit(metrics):
                emit_event("host-lost", kind="fabric-event",
                           counter="sim.fabric.hosts_lost", metrics=metrics)
                emit_event("host-lost", kind="fabric-event",
                           counter="fabric.hosts_lost", metrics=metrics)
            """,
            "REP006",
        )
        assert len(found) == 1
        assert "fabric.hosts_lost" in found[0].message
        assert found[0].message.startswith("counter name")


class TestRep000Integrity:
    def test_syntax_error_is_a_finding_not_a_crash(self):
        found = _findings("def broken(:\n")
        assert [f.rule for f in found] == ["REP000"]
        assert "does not parse" in found[0].message

    def test_findings_are_sorted_and_fingerprinted(self):
        found = _findings(
            """
            import time

            def b():
                return time.time()

            def a():
                return time.time()
            """
        )
        assert [f.line for f in found] == sorted(f.line for f in found)
