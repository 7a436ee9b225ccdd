"""Shared fixtures and problem factories."""

import dataclasses
import importlib

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp import parking, solver

# the package exports the function ``simulate`` under the module's name
simulate = importlib.import_module("sampled_pmp.simulate")


# the parking endpoints from M = 2, and the free-end condition from the same
# start, for double_integrator
FIXED_ENDS = sp.FixedEndpoints(q0=[2.0, 0.0], qf=[0.0, 0.0])
FREE_END = sp.FixedInitialFreeFinal(q0=[2.0, 0.0])


def double_integrator(terminal, final_time, position_weight=0.0):
    """Parking's double integrator under another terminal condition or
    final-time mode: the data of ``parking.parking_problem`` (A, B, R = 1,
    Box(-1, 1), name "parking") with Q = diag(w, 0) for ``position_weight``
    w, which adds w q_1^2 to the running cost and couples the adjoint to the
    state."""
    Q = [[float(position_weight), 0.0], [0.0, 0.0]]
    return sp.lti_problem(
        *parking.DOUBLE_INTEGRATOR, Q, [[1.0]],
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=terminal, final_time=final_time, name="parking")


def _count_parking_callback(monkeypatch, name):
    """Count calls to the callback ``name`` of every problem that
    ``parking.parking_problem`` builds from now on; returns the reader."""
    calls = 0
    factory = parking.parking_problem

    def counting_factory(*args, **kwargs):
        problem = factory(*args, **kwargs)
        fn = getattr(problem, name)

        def counted(t, q, u):
            nonlocal calls
            calls += 1
            return fn(t, q, u)

        return dataclasses.replace(problem, **{name: counted})

    monkeypatch.setattr(parking, "parking_problem", counting_factory)
    return lambda: calls


@pytest.fixture
def parking_f_calls(monkeypatch):
    """Count calls to the dynamics ``f`` of every parking problem built from
    now on; returns the reader."""
    return _count_parking_callback(monkeypatch, "f")


@pytest.fixture
def parking_f0_calls(monkeypatch):
    """Count calls to the running cost ``f0`` of every parking problem built
    from now on; returns the reader."""
    return _count_parking_callback(monkeypatch, "f0")


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
def interval_integrations(monkeypatch):
    """Count calls to ``simulate._extremal_interval``, the one interval
    integrator, by either path (callbacks or linear-quadratic matrices);
    returns the reader."""
    read = _count_calls(monkeypatch, simulate, "_extremal_interval")
    # the solver holds its own reference; count it with the same counter
    monkeypatch.setattr(solver, "_extremal_interval",
                        simulate._extremal_interval)
    return read


@pytest.fixture
def gbar_calls(monkeypatch):
    """Count calls to ``solver._interval_average_gradient``, one interval
    integration and averaged-gradient evaluation each, made only on the
    callback path; returns the reader."""
    return _count_calls(monkeypatch, solver, "_interval_average_gradient")


@pytest.fixture
def residual_evals(monkeypatch):
    """Count calls to ``solver._propagate``, one shooting-residual evaluation
    each; returns the reader."""
    return _count_calls(monkeypatch, solver, "_propagate")


@pytest.fixture
def failing_certificate(monkeypatch):
    """Make ``module.check_certificate`` return a failing certificate; call
    the returned function with each module to patch."""
    def fail_in(module):
        check = module.check_certificate

        def check_and_fail(problem, extremal):
            return dataclasses.replace(check(problem, extremal), passed=False,
                                       violations=("forced failure",))

        monkeypatch.setattr(module, "check_certificate", check_and_fail)

    return fail_in
