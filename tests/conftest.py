"""Shared fixtures."""

import dataclasses

import pytest

from sampled_pmp import parking, solver


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


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` in a call counter; returns the reader."""
    calls = 0
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return lambda: calls


@pytest.fixture
def gbar_calls(monkeypatch):
    """Count calls to ``solver._interval_average_gradient``, one interval
    integration and averaged-gradient evaluation each; returns the reader."""
    return _count_calls(monkeypatch, solver, "_interval_average_gradient")


@pytest.fixture
def residual_evals(monkeypatch):
    """Count calls to ``solver._propagate``, one shooting-residual evaluation
    each; returns the reader."""
    return _count_calls(monkeypatch, solver, "_propagate")
