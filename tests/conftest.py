"""Shared fixtures."""

import dataclasses

import pytest

from sampled_pmp import parking


@pytest.fixture
def parking_f_calls(monkeypatch):
    """Count calls to the dynamics ``f`` of every problem that
    ``parking.parking_problem`` builds from now on; returns the reader."""
    calls = 0
    factory = parking.parking_problem

    def counting_factory(*args, **kwargs):
        problem = factory(*args, **kwargs)
        f = problem.f

        def f_counted(t, q, u):
            nonlocal calls
            calls += 1
            return f(t, q, u)

        return dataclasses.replace(problem, f=f_counted)

    monkeypatch.setattr(parking, "parking_problem", counting_factory)
    return lambda: calls
