"""Fixtures shared by the service tests."""

from __future__ import annotations

import time

import pytest

from repro.service import planner


@pytest.fixture
def slow_builds(monkeypatch):
    """``slow_builds(delay_s)`` makes every schedule build sleep
    ``delay_s`` first: it widens the coalescing window, and keeps a build
    running while a test drains or times out, without changing any
    computed value."""
    build = planner.compute_schedule_table

    def install(delay_s: float) -> None:
        def slow(*args, **kwargs):
            time.sleep(delay_s)
            return build(*args, **kwargs)

        monkeypatch.setattr(planner, "compute_schedule_table", slow)

    return install
