import itertools
from types import SimpleNamespace

import pytest

import firebreak.solve


@pytest.fixture
def ticking_clock(monkeypatch):
    """The solver's clock, advanced 10 ms by every read, so that a budget of
    budget_ms allows budget_ms / 10 reads after the deadline is set, on any
    machine."""
    ticks = itertools.count()
    monkeypatch.setattr(firebreak.solve, "time", SimpleNamespace(perf_counter=lambda: next(ticks) / 100))
