"""Helpers shared by the test modules."""

import pytest

import emitterfisher.geometry as geometry


@pytest.fixture
def cold_loads(monkeypatch):
    """Scenario loads in the test start from an empty memo.

    load_scenario hands every load of the same bytes one shared Scenario,
    which earlier tests may have warmed (amplitudes, SVD and digest kept on
    it).  With an empty memo the test's first load of a file builds a new
    Scenario with nothing kept, and its later loads, in-process CLI runs
    included, share that one.
    """
    monkeypatch.setattr(geometry, "_loaded", geometry._LoadedScenarios(geometry._loaded.max_bytes))
