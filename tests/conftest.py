"""Fixtures shared by more than one test package."""

from functools import cache

import pytest

from repro.workload.presets import make_trace


@pytest.fixture(scope="session")
def trace_named():
    """``trace_named(name)``: the scale-0.03, seed-7 trace ``name``, built once a session."""
    return cache(lambda name: make_trace(name, scale=0.03, seed=7))
