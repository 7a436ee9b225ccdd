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


def scalar_lti(a, q0, t_f):
    """dq/dt = a q + u with running cost q^2 / 2 + u^2 under Box(-1, 1),
    from ``q0`` to 0 at the fixed final time ``t_f``."""
    return sp.lti_problem(
        np.array([[a]]), np.array([[1.0]]), np.array([[0.5]]),
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedEndpoints(q0=np.array([q0]), qf=np.zeros(1)),
        final_time=sp.FixedTime(t_f))


def pendulum(bound):
    """The swing-up of a pendulum: q1' = q2, q2' = -sin q1 + u with running
    cost u^2, from rest at the bottom (0, 0) to rest at the top (pi, 0) at
    t_f = 6, under Box(-bound, bound).  Nonlinear, so every interval runs on
    the callbacks, which broadcast over stacked points."""
    def f(t, q, u):
        return np.stack([q[..., 1], u[..., 0] - np.sin(q[..., 0])], axis=-1)

    def f_q(t, q, u):
        J = np.zeros(q.shape[:-1] + (2, 2))
        J[..., 0, 1] = 1.0
        J[..., 1, 0] = -np.cos(q[..., 0])
        return J

    return sp.ProblemDefinition(
        n=2, m=1, f=f, f_q=f_q, f_u=lambda t, q, u: np.array([[0.0], [1.0]]),
        f0=lambda t, q, u: u[..., 0] ** 2,
        f0_q=lambda t, q, u: np.zeros_like(q),
        f0_u=lambda t, q, u: 2.0 * u,
        control_set=sp.Box(lower=np.array([-bound]), upper=np.array([bound])),
        terminal=sp.FixedEndpoints(q0=[0.0, 0.0], qf=[np.pi, 0.0]),
        final_time=sp.FixedTime(6.0), name="pendulum")


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
    """Count integrated intervals by either path: the rows of every
    ``simulate._lq_nodes`` batch on the linear-quadratic matrices, the
    solver's one-row calls on a blown interval end included, and the calls
    to ``simulate._rk4`` on the callbacks (one per interval, a stack of
    arcs of one interval counting once); returns the reader."""
    rows = 0
    lq_nodes = simulate._lq_nodes

    def counted_rows(maps, t0, delta, starts, controls):
        nonlocal rows
        rows += len(starts)
        return lq_nodes(maps, t0, delta, starts, controls)

    for module in (simulate, solver):
        monkeypatch.setattr(module, "_lq_nodes", counted_rows)
    rk4_calls = _count_calls(monkeypatch, simulate, "_rk4")
    return lambda: rows + rk4_calls()


@pytest.fixture
def gbar_calls(monkeypatch):
    """Count calls to ``solver._interval_average_gradient``, one stacked
    callback integration of an interval's base and difference arcs each,
    made only off the ``lq`` matrices; returns the reader."""
    return _count_calls(monkeypatch, solver, "_interval_average_gradient")


@pytest.fixture
def walk_solve(monkeypatch):
    """``sp.solve`` with the closed-form shooting map switched off, so every
    residual walks the intervals by ``solver._propagate``; returns that
    function."""
    def solve_by_walk(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_shooting_map", lambda problem, grid: None)
            return sp.solve(*args, **kwargs)

    return solve_by_walk


@pytest.fixture
def newton_calls(monkeypatch):
    """Count calls to ``solver._damped_newton``: one per outer shooting
    solve and one per interval solved by semismooth Newton; returns the
    reader."""
    return _count_calls(monkeypatch, solver, "_damped_newton")


@pytest.fixture
def residual_evals(monkeypatch):
    """Count shooting-residual evaluations on either path: the calls to
    ``solver._propagate``, the walk over the intervals, and to
    ``solver._map_residual``, the closed-form map; returns the reader."""
    walks = _count_calls(monkeypatch, solver, "_propagate")
    maps = _count_calls(monkeypatch, solver, "_map_residual")
    return lambda: walks() + maps()


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
