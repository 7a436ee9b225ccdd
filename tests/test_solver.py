"""Indirect shooting: inner semismooth Newton, outer damped Newton."""

import dataclasses

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp import parking, solver
from sampled_pmp.parking import initial_adjoint_guess, parking_problem
from sampled_pmp.simulate import (LQMaps, _extremal_interval, _lq_maps,
                                  _lq_nodes, _node_mean, _node_times,
                                  integrate_extremal_forward)

from conftest import (FIXED_ENDS, FREE_END, _count_calls, double_integrator,
                      pendulum, scalar_lti)

PARKING4 = parking_problem(2.0, 4.0)
# parking (2, 4) with the final time free, its guess 4
FREE_TIME4 = double_integrator(FIXED_ENDS, sp.FreeTime(4.0))
GRID4 = sp.build_grid(4.0, 2.0)
Q0 = np.array([2.0, 0.0])
# p(0) of parking (2, 4) at T = 2, whose controls are (-0.5, 0.5)
P_STAR = np.array([-1.0, -2.0])
Z_STAR = np.concatenate([Q0, P_STAR])


def _scalar_transfer(tf_guess):
    """dq/dt = u, cost u^2 + 1, q: 0 -> 1, free final time (optimum t_f = 1).

    The callbacks broadcast over stacked points, as the problem contract
    asks; the Jacobians are constant and returned unbroadcast.
    """
    return sp.ProblemDefinition(
        n=1, m=1, f=lambda t, q, u: u.copy(),
        f_q=lambda t, q, u: np.array([[0.0]]),
        f_u=lambda t, q, u: np.array([[1.0]]),
        f0=lambda t, q, u: u[..., 0] ** 2 + 1.0,
        f0_q=lambda t, q, u: np.zeros_like(q),
        f0_u=lambda t, q, u: 2.0 * u,
        control_set=sp.Box(lower=np.array([-5.0]), upper=np.array([5.0])),
        terminal=sp.FixedEndpoints(q0=np.zeros(1), qf=np.ones(1)),
        final_time=sp.FreeTime(tf_guess), name="transfer")


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------

def test_solve_interval_control_finds_interior_root():
    u, _, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Z_STAR,
                                        np.array([0.0]))
    assert u[0] == pytest.approx(-0.5, abs=1e-11)
    # the returned control satisfies its own fixed-point condition
    gbar = sp.average_u_gradient(
        PARKING4,
        sp.integrate_extremal_forward(PARKING4, GRID4, np.array([[u[0]], [0.5]]),
                                      Q0, P_STAR, -1.0), 0)
    moved = PARKING4.control_set.project(u + 0.25 * gbar)
    assert np.linalg.norm(moved - u) <= solver.INNER_TOL


def test_solve_interval_control_judges_its_arc_on_both_paths():
    # on the lq maps as on the callbacks the solver returns the interval's
    # end, judged by the blow-up rule: the state of dq/dt = 40 q + u passes
    # BLOWUP_NORM at t = 1.0 on [0.25, 1.25], not after it.  The lq end
    # breaks the rule, so its nodes are evaluated and raise at the first
    # blown one; the callbacks judge every node as they integrate
    problem = scalar_lti(40.0, 1.0, 3.5)
    twin = dataclasses.replace(problem, lq=None)
    for P in (problem, twin):
        with pytest.raises(sp.IntegrationBlowUp) as exc:
            sp.solve_interval_control(P, 0.25, 1.0, [1.0, 0.5], [0.0])
        assert exc.value.time == 1.0
        u, end, _ = sp.solve_interval_control(P, 0.25, 0.1, [1.0, 0.5],
                                              [0.0])
        assert end.shape == (2,)
        # the end node of the arc at the solved control, on the callbacks
        arc = _extremal_interval(twin, 0.25, 0.1, np.array([1.0, 0.5]), u,
                                 -1.0)[1]
        assert np.max(np.abs(end - arc[-1])) <= 1e-12 * np.max(np.abs(arc[-1]))


def _record_accepted_steps(monkeypatch):
    """The iterates the Newton driver moves to, read off its line search."""
    accepted = []
    search = solver._search_decrease

    def recording(*args):
        found = search(*args)
        if found is not None:
            accepted.append(found[0].copy())
        return found

    monkeypatch.setattr(solver, "_search_decrease", recording)
    return accepted


def test_solve_interval_control_accepts_stationary_start(monkeypatch):
    # on the callback twin: the lq maps solve this interval in closed form,
    # with no Newton iterate to accept
    accepted = _record_accepted_steps(monkeypatch)
    u, _, _ = sp.solve_interval_control(dataclasses.replace(PARKING4, lq=None),
                                        0.0, 2.0, Z_STAR, np.array([-0.5]))
    assert u[0] == -0.5
    assert accepted == []


def test_solve_interval_control_clamps_to_bound():
    # p = (0, 3) constant: root of 3 - 2u is 1.5, outside the box
    u, _, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0,
                                        np.concatenate([Q0, [0.0, 3.0]]),
                                        np.array([0.0]))
    assert u[0] == pytest.approx(1.0, abs=1e-12)


def test_solve_interval_control_reports_stall(monkeypatch):
    # on the callback twin: the exact Jacobian of the lq path solves this
    # interval within the two iterations
    monkeypatch.setattr(solver, "INNER_MAX_ITER", 2)
    with pytest.raises(sp.NonConvergence) as exc:
        sp.solve_interval_control(dataclasses.replace(PARKING4, lq=None), 0.0,
                                  2.0, Z_STAR, np.array([1.0]))
    assert exc.value.iterate is not None
    assert exc.value.residual_norm > solver.INNER_TOL


def test_inner_iterates_ascend_average_hamiltonian(monkeypatch):
    # against the converged arc, the average Hamiltonian is concave in the
    # control slot and the inner Newton iterates climb it monotonically (on
    # the callback twin, since the lq maps take no Newton iterate here)
    accepted = _record_accepted_steps(monkeypatch)
    for u0 in (0.0, 1.0, -1.0, 0.8):
        accepted.clear()
        u, _, _ = sp.solve_interval_control(
            dataclasses.replace(PARKING4, lq=None), 0.0, 2.0, Z_STAR,
            np.array([u0]))
        iterates = [np.array([u0])] + accepted
        assert len(iterates) >= 2 and np.array_equal(iterates[-1], u)
        ext = sp.integrate_extremal_forward(PARKING4, GRID4,
                                            np.array([[u[0]], [0.5]]), Q0,
                                            P_STAR, -1.0)
        vals = [sp.average_hamiltonian(PARKING4, ext, 0, it) for it in iterates]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_warm_start_independence():
    rng = np.random.default_rng(9)
    u_ref, _, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Z_STAR,
                                            np.array([0.0]))
    for _ in range(5):
        u_init = PARKING4.control_set.project(rng.normal(scale=2.0, size=1))
        u, _, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Z_STAR, u_init)
        assert abs(u[0] - u_ref[0]) <= 1e-9


def _random_lq_interval(rng, state_cost):
    """One random LTI interval: problem, interval length, q_k, p_k, u_init."""
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    L = rng.normal(size=(m, m))
    R = L @ L.T + 0.1 * np.eye(m)
    Q = None
    if state_cost:
        S = rng.normal(size=(n, n))
        Q = 0.5 * (S + S.T)
    if rng.random() < 0.5:
        lower = -rng.uniform(0.2, 2.0, size=m)
        cs = sp.Box(lower=lower, upper=lower + rng.uniform(0.2, 3.0, size=m))
    else:
        cs = sp.Ball(center=rng.normal(scale=0.5, size=m),
                     radius=float(rng.uniform(0.2, 2.0)))
    prob = sp.lti_problem(rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                          Q, R, control_set=cs,
                          terminal=sp.FixedEndpoints(q0=np.zeros(n),
                                                     qf=np.zeros(n)),
                          final_time=sp.FixedTime(1.0))
    return (prob, float(rng.uniform(0.1, 2.0)), rng.normal(size=n),
            rng.normal(scale=3.0, size=n), rng.normal(scale=2.0, size=m))


def _assert_solves_interval(prob, delta, q, p, u):
    # the variational inequality, checked on an independent integration
    ext = sp.integrate_extremal_forward(prob, sp.build_grid(delta, delta),
                                        u[None, :], q, p, -1.0)
    gbar = sp.average_u_gradient(prob, ext, 0)
    assert prob.control_set.contains(u)
    assert prob.control_set.support_gap(gbar, u) \
        <= 1e-9 * (1.0 + np.linalg.norm(gbar))


def test_interval_control_solves_random_monotone_lq_intervals():
    # Q = 0: the adjoint ignores the control, so Gbar is affine with
    # derivative -2R and the inequality has one solution the solve must find
    rng = np.random.default_rng(2024)
    for _ in range(100):
        prob, delta, q, p, u_init = _random_lq_interval(rng, state_cost=False)
        u, _, _ = sp.solve_interval_control(prob, 0.0, delta,
                                            np.concatenate([q, p]), u_init)
        _assert_solves_interval(prob, delta, q, p, u)


def _differenced_interval(problem, t_k, delta, z, u, p0):
    """``solver._interval_average_gradient``'s ``(gbar, maps, end)`` at the
    cost multiplier ``p0``, built as it builds them: one stacked callback
    integration of the base arc and of one step FD_STEP (1 + |(z, u)|)
    along each component of (z, u), Gbar from ``_node_mean``."""
    n = problem.n
    x = np.concatenate([z, u])
    h = solver.FD_STEP * (1.0 + float(np.linalg.norm(x)))
    stack = x + np.vstack([np.zeros(x.size), h * np.eye(x.size)])
    times, nodes = _extremal_interval(problem, t_k, delta, stack[:, :2 * n],
                                      stack[:, 2 * n:], p0)
    gbar = _node_mean(problem.hamiltonian_u,
                      np.broadcast_to(times, nodes.shape[:2]),
                      nodes[..., :n], nodes[..., n:], p0, stack[:, 2 * n:])
    d_gbar = ((gbar[1:] - gbar[0]) / h).T
    d_end = ((nodes[1:, -1] - nodes[0, -1]) / h).T
    maps = LQMaps(None, None, d_gbar[:, :2 * n], d_gbar[:, 2 * n:],
                  d_end[:, :2 * n], d_end[:, 2 * n:])
    return gbar[0], maps, nodes[0, -1]


def test_lq_matrices_match_callbacks_on_random_intervals():
    # nodes and Gbar of the lq path against the callback twin: mixed-sign Q,
    # Box and Ball sets, interval lengths in [0.1, 2].  The lq path's Gbar
    # is the cached affine map Ga z + G u, with no integration, and its
    # derivatives are the twin's forward differences up to their truncation
    # error (7.5e-9 relative at worst on these draws).  The solver's twin
    # runs at p0 = P0; at p0 = -0.5 its values are rebuilt the same way
    rng = np.random.default_rng(2026)
    for _ in range(100):
        prob, delta, q, p, u = _random_lq_interval(rng, state_cost=True)
        twin = dataclasses.replace(prob, lq=None)
        z = np.concatenate([q, p])
        for p0 in (solver.P0, -0.5):
            want, twin_maps, end = \
                _differenced_interval(twin, 0.3, delta, z, u, p0)
            if p0 == solver.P0:
                got = solver._interval_average_gradient(twin, 0.3, delta, z, u)
                np.testing.assert_array_equal(got[0], want)
                np.testing.assert_array_equal(got[2], end)
                for a, b in zip(got[1], twin_maps):
                    np.testing.assert_array_equal(a, b)
            # the base arc of a stacked integration, on its own
            times, nodes = _extremal_interval(twin, 0.3, delta, z, u, p0)
            assert np.max(np.abs(end - nodes[-1])) <= 1e-13 * np.max(
                np.abs(nodes[-1]))
            maps = _lq_maps(prob.lq, delta, p0)
            got_nodes = _lq_nodes(maps, [0.3], delta, z[None], u[None])[0]
            np.testing.assert_array_equal(_node_times(0.3, delta), times)
            for a, b in ((maps.ga @ z + maps.g @ u, want), (got_nodes, nodes)):
                assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            for name in ("ga", "g", "phi_end", "gamma_end"):
                a, b = getattr(twin_maps, name), getattr(maps, name)
                assert np.max(np.abs(a - b)) <= 1e-6 * np.max(np.abs(b)), name
        # the arc ``simulate`` integrates: zero adjoint, p0 = 0
        z = np.concatenate([q, np.zeros_like(q)])
        got = _lq_nodes(_lq_maps(prob.lq, delta, 0.0), [0.3], delta, z[None],
                        u[None])[0]
        want = _extremal_interval(twin, 0.3, delta, z, u, 0.0)[1]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("problem, grid, x", [
    (sp.lti_problem(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]),
                    control_set=sp.Box(lower=np.array([-2.0]),
                                       upper=np.array([2.0])),
                    terminal=sp.FixedEndpoints(q0=np.array([1.0, 0.0]),
                                               qf=np.zeros(2)),
                    final_time=sp.FixedTime(3.0)),
     sp.build_grid(3.0, 0.5), None),
    (double_integrator(sp.Periodic(), sp.FixedTime(2.0)),
     sp.build_grid(2.0, 0.5), [0.1, -0.2, 0.7, 0.3]),
    (sp.lti_problem(np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
                    control_set=sp.Box(lower=np.array([-5.0]),
                                       upper=np.array([5.0])),
                    terminal=sp.FixedEndpoints(q0=np.ones(1),
                                               qf=2.0 * np.ones(1)),
                    final_time=sp.FreeTime(1.4)),
     sp.build_grid(1.4, 0.3), [1.0, 1.4]),
], ids=["oscillator", "periodic", "free-time"])
def test_lq_matrices_and_callbacks_solve_alike(problem, grid, x):
    # demo 05's oscillator and periodic solves, and a free horizon whose
    # trial final times give a new last-interval length at every residual
    ext, cert = sp.solve(problem, grid, initial_unknowns=x)
    twin, twin_cert = sp.solve(dataclasses.replace(problem, lq=None), grid,
                               initial_unknowns=x)
    assert cert.passed and twin_cert.passed
    assert ext.grid.n_intervals == twin.grid.n_intervals
    assert abs(ext.grid.t_f - twin.grid.t_f) <= 1e-10
    assert np.max(np.abs(ext.controls.values - twin.controls.values)) <= 1e-10


def test_interval_control_never_returns_a_wrong_answer():
    # with a state cost Gbar may be non-monotone in u: the solve either
    # returns a solution or reports NonConvergence
    rng = np.random.default_rng(2025)
    for _ in range(100):
        prob, delta, q, p, u_init = _random_lq_interval(rng, state_cost=True)
        try:
            u, _, _ = sp.solve_interval_control(
                prob, 0.0, delta, np.concatenate([q, p]), u_init)
        except sp.NonConvergence:
            continue
        _assert_solves_interval(prob, delta, q, p, u)


def _decoupled_lq_interval(rng, kind):
    """One random LTI interval whose G is a negative diagonal, returned as
    by :func:`_random_lq_interval`.  ``kind`` "scalar": m = 1 with a
    mixed-sign Q on a Box or a Ball, redrawn until G < 0; "box": Q = 0 and a
    diagonal R on a Box, m = 2-3; "ball": Q = 0 and R = r I on a Ball,
    m = 2-3."""
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = 1 if kind == "scalar" else int(rng.integers(2, 4))
        Q = None
        if kind == "scalar":
            S = rng.normal(size=(n, n))
            Q = 0.5 * (S + S.T)
        R = np.diag(rng.uniform(0.1, 2.0, size=m)) if kind == "box" \
            else rng.uniform(0.1, 2.0) * np.eye(m)
        if kind == "box" or (kind == "scalar" and rng.random() < 0.5):
            lower = -rng.uniform(0.2, 2.0, size=m)
            cs = sp.Box(lower=lower,
                        upper=lower + rng.uniform(0.2, 3.0, size=m))
        else:
            cs = sp.Ball(center=rng.normal(scale=0.5, size=m),
                         radius=float(rng.uniform(0.2, 2.0)))
        prob = sp.lti_problem(rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                              Q, R, control_set=cs,
                              terminal=sp.FixedEndpoints(q0=np.zeros(n),
                                                         qf=np.zeros(n)),
                              final_time=sp.FixedTime(1.0))
        delta = float(rng.uniform(0.1, 2.0))
        draw = (prob, delta, rng.normal(size=n), rng.normal(scale=3.0, size=n),
                rng.normal(scale=2.0, size=m))
        if _lq_maps(prob.lq, delta, -1.0).decoupled is not None:
            return draw
    raise AssertionError(f"no {kind} draw with a negative diagonal G")


@pytest.mark.parametrize("kind, seed", [("scalar", 11), ("box", 12),
                                        ("ball", 13)])
def test_decoupled_lq_interval_takes_the_projected_root(kind, seed,
                                                        newton_calls):
    # G = -diag(gain) with gain > 0 (on a Ball, gain = gamma 1): the
    # inequality's one solution is the projected root P(Ga z / gain),
    # taken without any Newton step, whatever u_init, with an exact tangent
    rng = np.random.default_rng(seed)
    for _ in range(30):
        prob, delta, q, p, u_init = _decoupled_lq_interval(rng, kind)
        z = np.concatenate([q, p])
        before = newton_calls()
        u, _, tangent = sp.solve_interval_control(prob, 0.0, delta, z, u_init)
        assert newton_calls() == before
        _assert_solves_interval(prob, delta, q, p, u)
        again, _, _ = sp.solve_interval_control(prob, 0.0, delta, z,
                                                np.zeros(prob.m))
        assert np.array_equal(again, u)
        twin, _, _ = sp.solve_interval_control(
            dataclasses.replace(prob, lq=None), 0.0, delta, z, u_init)
        assert np.max(np.abs(twin - u)) <= 1e-10
        fd = _central_differences(
            lambda v: sp.solve_interval_control(prob, 0.0, delta, v,
                                                u_init)[1], z)
        assert np.max(np.abs(tangent - fd)) \
            <= 1e-6 * max(1.0, np.max(np.abs(fd)))


def test_zero_radius_ball_closed_form_has_the_free_tangent():
    # on a radius-0 ball centered at 0 with Q = 0, z = 0 puts the decoupled
    # closed form's root on the center: the control cannot move, du/dz = 0,
    # and the tangent is the interval's free transition phi_end alone
    prob = sp.lti_problem(*parking.DOUBLE_INTEGRATOR,
                          control_set=sp.Ball(center=np.zeros(1), radius=0.0),
                          terminal=sp.FixedEndpoints(q0=np.zeros(2),
                                                     qf=np.zeros(2)),
                          final_time=sp.FixedTime(1.0))
    maps = _lq_maps(prob.lq, 0.5, -1.0)
    assert maps.decoupled is not None
    u, _, tangent = sp.solve_interval_control(prob, 0.0, 0.5, np.zeros(4),
                                              np.zeros(1))
    np.testing.assert_array_equal(u, [0.0])
    np.testing.assert_array_equal(tangent, maps.phi_end)


def test_coupled_lq_intervals_keep_the_newton_solve(newton_calls):
    # a non-diagonal R couples the components on a Box, and unequal gains
    # leave a Ball's projected root off the inequality: both stay on the
    # semismooth Newton and still solve it
    rng = np.random.default_rng(14)
    for R, cs in (([[2.0, 0.8], [0.8, 1.0]],
                   sp.Box(lower=-0.5 * np.ones(2), upper=0.5 * np.ones(2))),
                  (np.diag([0.5, 2.0]), sp.Ball(center=np.zeros(2),
                                                radius=0.5))):
        prob = sp.lti_problem(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)),
                              None, R, control_set=cs,
                              terminal=sp.FixedEndpoints(q0=np.zeros(2),
                                                         qf=np.zeros(2)),
                              final_time=sp.FixedTime(1.0))
        q, p = rng.normal(size=2), rng.normal(scale=3.0, size=2)
        before = newton_calls()
        u, _, _ = sp.solve_interval_control(
            prob, 0.0, 1.0, np.concatenate([q, p]), np.zeros(2))
        assert newton_calls() - before == 1
        _assert_solves_interval(prob, 1.0, q, p, u)


def test_generic_shoot_solves_run_only_the_outer_newton(newton_calls):
    # every interval of the benchmark's generic-shoot parking and disc
    # members is decoupled, so each solve's one Newton is the shooting's
    for prob, guess in ((parking_problem(2.0, 3.0),
                         initial_adjoint_guess(2.0, 3.0)),
                        (_planar_disc(), None)):
        before = newton_calls()
        _, cert = sp.solve(prob, sp.build_grid(3.0, 3.0 / 8),
                           initial_unknowns=guess)
        assert cert.passed and newton_calls() - before == 1


# ---------------------------------------------------------------------------
# shooting residual
# ---------------------------------------------------------------------------

def test_shooting_residual_values():
    r = sp.shooting_residual(PARKING4, GRID4, np.array([-1.0, -2.0]))
    np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-10)
    r = sp.shooting_residual(PARKING4, GRID4, np.zeros(2))
    np.testing.assert_allclose(r, [2.0, 0.0], atol=1e-12)
    r = sp.shooting_residual(PARKING4, GRID4, np.array([0.0, 3.0]))
    np.testing.assert_allclose(r, [10.0, 4.0], atol=1e-12)


@pytest.mark.parametrize("problem, grid, x", [
    (double_integrator(FIXED_ENDS, sp.FixedTime(4.0), position_weight=0.5),
     sp.build_grid(4.0, 1.0), [-1.0, -2.0]),
    (double_integrator(FREE_END, sp.FixedTime(4.0), position_weight=0.5),
     sp.build_grid(4.0, 1.0), [0.3, -0.7]),
    (double_integrator(sp.Periodic(), sp.FixedTime(2.0)),
     sp.build_grid(2.0, 0.5), [0.1, -0.2, 0.7, 0.3]),
    (_scalar_transfer(1.3), sp.build_grid(1.3, 0.3), [0.5, 1.2]),
], ids=["fixed-endpoints", "free-end", "periodic", "free-time"])
def test_shooting_residual_is_the_certified_boundary_conditions(problem, grid,
                                                                 x):
    # the end and transversality blocks of boundary_residuals, then the
    # signed H(t_f) of a free horizon, on an independent integration of the
    # same controls
    n = problem.n
    x = np.array(x)
    has_q0, has_tf, _ = solver._unknown_layout(problem)
    _, (_, controls, _, _) = solver._propagate(problem, grid, x)
    if has_tf:
        grid = sp.build_grid(x[-1], grid.period)
    q0 = x[n:2 * n] if has_q0 else problem.initial_state()
    ext = integrate_extremal_forward(problem, grid, controls, q0, x[:n], -1.0)
    start, end, tv = sp.boundary_residuals(
        problem.terminal, ext.initial_state, ext.final_state,
        ext.initial_adjoint, ext.final_adjoint)
    parts = [end, tv]
    if has_tf:
        parts.append([problem.hamiltonian(grid.t_f, ext.final_state,
                                          ext.final_adjoint, -1.0,
                                          controls[-1])])
    expected = np.concatenate(parts)
    assert not np.any(start)
    assert np.linalg.norm(expected) > 0.1
    np.testing.assert_array_equal(sp.shooting_residual(problem, grid, x),
                                  expected)


def _stall_on_interval_3(monkeypatch):
    """Make every inner solve on an interval starting after t = 0.8 raise
    one NonConvergence, which is returned."""
    stall = sp.NonConvergence("inner stall")
    inner = solver.solve_interval_control

    def stall_on_interval_3(problem, t_k, *args):
        if t_k > 0.8:
            raise stall
        return inner(problem, t_k, *args)

    monkeypatch.setattr(solver, "solve_interval_control", stall_on_interval_3)
    return stall


def test_earlier_blow_up_wins_over_a_later_inner_stall(monkeypatch):
    # an inner NonConvergence on interval 3 must not hide a blow-up on
    # interval 2: each interval's end is judged when its inner solve
    # returns it, on the lq maps as on the callbacks
    _stall_on_interval_3(monkeypatch)
    problem = scalar_lti(40.0, 1.0, 1.05)
    for P in (problem, dataclasses.replace(problem, lq=None)):
        with pytest.raises(sp.IntegrationBlowUp) as exc:
            sp.shooting_residual(P, sp.build_grid(1.05, 0.3), np.array([0.5]))
        assert exc.value.time == 0.6 + 5 * 0.3 / 16


def test_inner_stall_reaches_the_caller_when_no_arc_blew_up(monkeypatch):
    # on a stable A the intervals advanced before the stall stay in bounds,
    # so the lq path re-raises the inner NonConvergence itself, as the
    # callbacks do
    stall = _stall_on_interval_3(monkeypatch)
    problem = scalar_lti(-1.0, 1.0, 1.05)
    for P in (problem, dataclasses.replace(problem, lq=None)):
        with pytest.raises(sp.NonConvergence) as exc:
            sp.shooting_residual(P, sp.build_grid(1.05, 0.3), np.array([0.5]))
        assert exc.value is stall


def test_a_blown_start_raises_at_t0():
    # z(0) = (q(0), p(0)) is judged by the blow-up rule before any interval
    # is solved, on the lq maps as on the callbacks, with no warning
    problem = parking_problem(2.0, 3.0)
    for P in (problem, dataclasses.replace(problem, lq=None)):
        for x in ([np.nan, 0.0], [np.inf, 0.0], [1e300, 0.0]):
            with pytest.raises(sp.IntegrationBlowUp) as exc:
                sp.shooting_residual(P, sp.build_grid(3.0, 0.5), x)
            assert exc.value.time == 0.0


def test_shooting_residual_dimension_check():
    with pytest.raises(ValueError):
        sp.shooting_residual(PARKING4, GRID4, np.zeros(3))


def test_unknown_layout_is_square():
    # FixedEndpoints: n unknowns; periodic: 2n; free time adds one.  The
    # packed vector is p(0), then q(0), then t_f
    assert solver._unknown_layout(PARKING4) == (False, False, 2)
    per = double_integrator(sp.Periodic(), sp.FixedTime(4.0))
    assert solver._unknown_layout(per) == (True, False, 4)
    _, (_, _, z0, _) = solver._propagate(per, GRID4, np.arange(4.0))
    np.testing.assert_array_equal(z0[:2], [2.0, 3.0])
    free = _scalar_transfer(1.3)
    assert solver._unknown_layout(free) == (False, True, 2)
    _, (grid, _, _, _) = solver._propagate(free, sp.build_grid(1.3, 0.3),
                                        np.array([0.5, 1.2]))
    assert grid.t_f == 1.2
    r = sp.shooting_residual(free, sp.build_grid(1.3, 0.3), np.array([2.0, 1.0]))
    assert r.shape == (2,)
    np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-9)


def _central_differences(f, x):
    """Central differences of ``f`` at ``x`` with the solver's step
    ``FD_STEP (1 + |x|)``."""
    h = solver.FD_STEP * (1.0 + float(np.linalg.norm(x)))
    return np.column_stack([(f(x + h * e) - f(x - h * e)) / (2.0 * h)
                            for e in np.eye(x.size)])


def test_shooting_jacobian_constant_within_saturation_region(monkeypatch):
    # the map is affine while no control changes saturation status; the
    # step is widened to 1e-5 so machine-eps residual noise (which divides by
    # h) stays under the 1e-9 constancy bound
    monkeypatch.setattr(solver, "FD_STEP", 1e-5)
    monkeypatch.setattr(solver, "INNER_TOL", 1e-13)

    def residual(x):
        return sp.shooting_residual(PARKING4, GRID4, x)

    x1 = np.array([-1.0, -2.0])
    x2 = x1 + np.array([0.02, -0.015])
    J1 = _central_differences(residual, x1)
    J2 = _central_differences(residual, x2)
    assert np.max(np.abs(J1 - J2)) <= 1e-9
    # and it matches the closed-form affine coefficients of the map
    np.testing.assert_allclose(J1, [[-6.0, 4.0], [-4.0, 2.0]], atol=1e-6)


def _random_lq_shooting(rng, terminal):
    """Random LTI shooting problem (mixed-sign Q, Box or Ball), its grid and
    random unknowns, for one of the three terminal variants."""
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    S = rng.normal(size=(n, n))
    L = rng.normal(size=(m, m))
    if rng.random() < 0.5:
        lower = -rng.uniform(0.5, 2.0, size=m)
        cs = sp.Box(lower=lower, upper=lower + rng.uniform(1.0, 3.0, size=m))
    else:
        cs = sp.Ball(center=rng.normal(scale=0.3, size=m),
                     radius=float(rng.uniform(0.5, 2.0)))
    free_time = terminal == "free-time"
    terminal = {
        "fixed": lambda: sp.FixedEndpoints(q0=rng.normal(size=n),
                                           qf=rng.normal(size=n)),
        "free-time": lambda: sp.FixedEndpoints(q0=rng.normal(size=n),
                                               qf=rng.normal(size=n)),
        "free-end": lambda: sp.FixedInitialFreeFinal(q0=rng.normal(size=n)),
        "periodic": sp.Periodic}[terminal]()
    t_f = float(rng.uniform(1.0, 3.0))
    prob = sp.lti_problem(0.7 * rng.normal(size=(n, n)), rng.normal(size=(n, m)),
                          0.5 * (S + S.T), L @ L.T + 0.1 * np.eye(m),
                          control_set=cs, terminal=terminal,
                          final_time=(sp.FreeTime(t_f) if free_time
                                      else sp.FixedTime(t_f)))
    grid = sp.build_grid(t_f, t_f / int(rng.integers(2, 7)))
    _, _, dim = solver._unknown_layout(prob)
    x = rng.normal(size=dim)
    if free_time:
        # a trial horizon inside the last period, away from its multiples
        x[-1] = grid.period * (grid.n_intervals - rng.uniform(0.2, 0.8))
    return prob, grid, x


@pytest.mark.parametrize("terminal",
                         ["fixed", "free-end", "periodic", "free-time"])
def test_tangent_jacobian_matches_finite_differences(terminal):
    # the chained interval tangents against central differences of whole
    # propagations: on a Ball's curved boundary a one-sided difference
    # carries an O(FD_STEP) truncation error (up to 5.5e-6 relative on these
    # draws, against 5.7e-8 for the central one).  A free horizon's last
    # interval is itself a one-sided difference in (z_{K-1}, delta): median
    # 2.6e-6, worst 5.9e-5 relative on its 30 draws, hence its 1e-4.  Draws
    # where every control saturates give J = 0 and are skipped
    rng = np.random.default_rng({"fixed": 31, "free-end": 32,
                                 "periodic": 33, "free-time": 34}[terminal])
    tol = 1e-4 if terminal == "free-time" else 1e-6
    checked = 0
    for _ in range(30):
        prob, grid, x = _random_lq_shooting(rng, terminal)
        _, propagated = solver._propagate(prob, grid, x)
        J = solver._tangent_jacobian(prob, propagated)
        if not np.any(J):
            continue
        # the callback twin's tangents difference the interval instead
        # (1.7e-8 relative at worst on these draws)
        _, twin = solver._propagate(dataclasses.replace(prob, lq=None), grid, x)
        twin_J = solver._tangent_jacobian(prob, twin)
        assert np.max(np.abs(twin_J - J)) <= 1e-6 * np.max(np.abs(J))
        fd = _central_differences(
            lambda v: solver._propagate(prob, grid, v)[0], x)
        assert np.max(np.abs(J - fd)) <= tol * np.max(np.abs(fd))
        checked += 1
    assert checked >= 15


def test_forward_differences_only_off_the_lq_fixed_horizon_path(
        monkeypatch, residual_evals):
    # every horizon chains interval tangents: exact ones from the lq maps,
    # minimum-norm ones where the inner Newton matrix is singular (the inert
    # control), and differences of one interval at a time on the callback
    # twin.  Only a free horizon's last interval is handed to _fd_jacobian;
    # no path differences a whole propagation
    fd_calls = 0
    fd = solver._fd_jacobian

    def counted(*args):
        nonlocal fd_calls
        fd_calls += 1
        before = residual_evals()
        J = fd(*args)
        assert residual_evals() == before
        return J

    monkeypatch.setattr(solver, "_fd_jacobian", counted)
    periodic = double_integrator(sp.Periodic(), sp.FixedTime(2.0))
    free_end = double_integrator(FREE_END, sp.FixedTime(4.0),
                                 position_weight=0.5)
    for prob, grid, x in ((PARKING4, sp.build_grid(4.0, 0.5), None),
                          (periodic, sp.build_grid(2.0, 0.5),
                           [0.1, -0.2, 0.7, 0.3]),
                          (free_end, sp.build_grid(4.0, 1.0), [0.3, -0.7]),
                          (dataclasses.replace(PARKING4, lq=None), GRID4,
                           None),
                          (_zero_cost_parking(np.diag([1.0, 0.0])),
                           sp.build_grid(4.0, 1.0), None)):
        _, cert = sp.solve(prob, grid, initial_unknowns=x)
        assert cert.passed
    assert fd_calls == 0
    free_time = sp.lti_problem(
        np.zeros((1, 1)), np.ones((1, 1)), np.ones((1, 1)),
        control_set=sp.Box(lower=np.array([-5.0]), upper=np.array([5.0])),
        terminal=sp.FixedEndpoints(q0=np.ones(1), qf=2.0 * np.ones(1)),
        final_time=sp.FreeTime(1.4))
    # one residual per Newton step on a free horizon
    for prob, evals in ((free_time, 5), (_scalar_transfer(1.4), 7)):
        start = residual_evals()
        _, cert = sp.solve(prob, sp.build_grid(1.4, 0.3),
                           initial_unknowns=[1.0, 1.4])
        assert cert.passed and fd_calls > 0
        assert residual_evals() - start == evals


def _zero_cost_parking(R):
    """Parking's A and B with Q = 0 and the given R: every interval with an
    interior control has a singular D (I + G) - I when R = 0."""
    m = np.shape(R)[0]
    B = np.hstack([np.array(parking.DOUBLE_INTEGRATOR[1]), np.zeros((2, m - 1))])
    return sp.lti_problem(
        parking.DOUBLE_INTEGRATOR[0], B, np.zeros((2, 2)), R,
        control_set=sp.Box(lower=-np.ones(m), upper=np.ones(m)),
        terminal=sp.FixedEndpoints(q0=Q0, qf=np.zeros(2)),
        final_time=sp.FixedTime(4.0))


def test_singular_interval_takes_the_minimum_norm_tangent(monkeypatch,
                                                         residual_evals):
    # with R = 0 and p(0) = 0 Gbar vanishes and the control stays interior,
    # so the inner Newton matrix D (I + G) - I is zero and du/dz = 0 is its
    # minimum-norm solution: z_K no longer moves with p(0), the chained
    # Jacobian is exactly zero, and the solve stops after the one residual
    # of the origin guess without re-solving any interval
    grid = sp.build_grid(4.0, 1.0)
    prob = _zero_cost_parking(np.zeros((1, 1)))
    _, propagated = solver._propagate(prob, grid, np.zeros(2))
    assert all(np.all(np.isfinite(t)) for t in propagated[3][1])
    solves = []
    inner = solver.solve_interval_control

    def counted(problem, t_k, *args):
        solves.append(t_k)
        return inner(problem, t_k, *args)

    monkeypatch.setattr(solver, "solve_interval_control", counted)
    assert not np.any(solver._tangent_jacobian(prob, propagated))
    assert solves == []
    start = residual_evals()
    with pytest.raises(sp.NonConvergence):
        sp.solve(prob, grid)
    assert residual_evals() - start == 1

    # an inert second control (no dynamics, R = 0 on it) keeps every
    # interval singular while the map stays smooth: the chained
    # minimum-norm tangents match whole propagations, and the exact chain
    # certifies in 2 residuals
    prob = _zero_cost_parking(np.diag([1.0, 0.0]))
    x = np.array([-0.2, 0.3])
    _, propagated = solver._propagate(prob, grid, x)
    assert all(np.all(np.isfinite(t)) for t in propagated[3][1])
    J = solver._tangent_jacobian(prob, propagated)
    fd = _central_differences(lambda v: solver._propagate(prob, grid, v)[0], x)
    assert np.all(np.isfinite(J))
    assert np.max(np.abs(J - fd)) <= 1e-6 * np.max(np.abs(fd))
    start = residual_evals()
    _, cert = sp.solve(prob, grid)
    assert cert.passed and residual_evals() - start == 2


def _saddle(t_f):
    """The saddle q'' = q + u (eigenvalues +-1) with running cost u^2, from
    (1, 0) to rest at ``t_f`` under Box(-2, 2)."""
    return sp.lti_problem(
        np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([[0.0], [1.0]]),
        control_set=sp.Box(lower=np.array([-2.0]), upper=np.array([2.0])),
        terminal=sp.FixedEndpoints(q0=np.array([1.0, 0.0]), qf=np.zeros(2)),
        final_time=sp.FixedTime(t_f))


def test_saddle_fails_fast(residual_evals):
    # the ROADMAP's saddle at t_f = 20, K = 20: its shooting map is too
    # ill-conditioned for single shooting, and the exact Jacobian rejects
    # it in 3 iterations, not 100.  The closed-form map takes one rejected
    # trial more than the interval walk did (63 evaluations)
    with pytest.raises(sp.NonConvergence) as exc:
        sp.solve(_saddle(20.0), sp.build_grid(20.0, 1.0))
    assert exc.value.residual_norm > solver.NEWTON_TOL
    assert residual_evals() == 64


# ---------------------------------------------------------------------------
# outer Newton
# ---------------------------------------------------------------------------

def test_solve_parking_2_4_2():
    ext, cert = sp.solve(PARKING4, GRID4, initial_unknowns=initial_adjoint_guess(2, 4))
    np.testing.assert_allclose(ext.controls.values.ravel(), [-0.5, 0.5],
                               atol=1e-9)
    assert cert.passed
    assert ext.p0 == -1.0


def test_solve_parking_2_3_1():
    prob = parking_problem(2.0, 3.0)
    grid = sp.build_grid(3.0, 1.0)
    ext, cert = sp.solve(prob, grid, initial_unknowns=initial_adjoint_guess(2, 3))
    np.testing.assert_allclose(ext.controls.values.ravel(), [-1.0, 0.0, 1.0],
                               atol=1e-8)
    assert cert.passed


def test_solve_integrates_each_interval_once_per_residual(monkeypatch,
                                                          parking_f_calls,
                                                          gbar_calls):
    # a residual evaluation integrates each interval at its solved control
    # inside the inner solve, and keeps only the end; the accepted iterate
    # is integrated once more, by the closing integrate_extremal_forward
    closing = _count_calls(monkeypatch, solver, "integrate_extremal_forward")
    # the callback twin: the matrix path of the problem's lq calls no f
    problem = dataclasses.replace(parking.parking_problem(2, 4), lq=None)
    grid = sp.build_grid(4, 2)
    ext, cert = sp.solve(problem, grid,
                         initial_unknowns=initial_adjoint_guess(2, 4))
    assert cert.passed and closing() == 1
    # every f call is inside an inner Gbar evaluation (16 RK4 steps of 4
    # calls, each on the stacked base and difference arcs) or in the
    # closing integration, 64 per interval; a closing integration per
    # residual evaluation would add 64 K f calls each
    assert parking_f_calls() == 1088
    assert parking_f_calls() == 64 * (gbar_calls() + grid.n_intervals)
    ref = integrate_extremal_forward(problem, grid, ext.controls, Q0,
                                     ext.initial_adjoint, -1.0)
    for got, want in ((ext.times, ref.times), (ext.states, ref.states),
                      (ext.adjoints, ref.adjoints)):
        assert len(got) == len(want) == 2
        assert np.array_equal(got, want)
    assert ext.p0 == ref.p0


def test_solve_assembles_one_extremal(monkeypatch):
    # only the accepted iterate is made an extremal, once per solve, by
    # integrate_extremal_forward on both paths: the closed-form map
    # (parking) and the walk (its callback twin).  The integration reads no
    # f0: the cost is computed on request, by running_cost.  Neither path
    # reads f0 anywhere else on a fixed horizon
    calls = 0
    assembled = _count_calls(monkeypatch, solver, "integrate_extremal_forward")
    problem = parking_problem(2.0, 4.0)
    f0 = problem.f0

    def f0_counted(t, q, u):
        nonlocal calls
        calls += 1
        return f0(t, q, u)

    problem = dataclasses.replace(problem, f0=f0_counted)
    for P in (problem, dataclasses.replace(problem, lq=None)):
        ext, cert = sp.solve(P, sp.build_grid(4.0, 0.5),
                             initial_unknowns=initial_adjoint_guess(2, 4))
        assert cert.passed
    assert assembled() == 2
    assert calls == 0


@pytest.mark.parametrize("problem, guess", [
    (PARKING4, [np.nan, 0.0]),
    (PARKING4, [0.0, np.inf]),
    (PARKING4, [0.0, 0.0, 1.0]),
    (FREE_TIME4, [0.1, 0.2, -1.0]),
    (FREE_TIME4, [0.1, 0.2, 0.0]),
    (FREE_TIME4, [0.1, 0.2, np.nan]),
], ids=["nan", "inf", "shape", "negative-tf", "zero-tf", "nan-tf"])
def test_solve_rejects_bad_initial_unknowns(problem, guess,
                                            interval_integrations):
    # bad input, not a failed shooting: ValueError before any integration
    with pytest.raises(ValueError, match="initial unknowns"):
        sp.solve(problem, sp.build_grid(4.0, 1.0),
                 initial_unknowns=np.array(guess))
    assert interval_integrations() == 0


@pytest.mark.parametrize("problem, missing", [
    (double_integrator(sp.Periodic(), sp.FixedTime(4.0)), "q(0)"),
    (FREE_TIME4, "t_f"),
], ids=["periodic", "free-horizon"])
def test_solve_names_what_p0_alone_lacks(problem, missing,
                                         interval_integrations):
    # p(0) alone is not the packed vector of a periodic or free-horizon
    # problem: the ValueError names the unknowns it lacks, before any
    # integration
    with pytest.raises(ValueError) as exc:
        sp.solve(problem, sp.build_grid(4.0, 1.0),
                 initial_unknowns=[-1.0, -2.0])
    assert str(exc.value) == ("initial unknowns gives p(0) only, but this "
                              "problem's shooting unknowns also hold "
                              + missing)
    assert interval_integrations() == 0


def test_free_horizon_solves_from_the_default_guess():
    # no initial unknowns: p(0) = 0 and the problem's own final-time guess
    ext, cert = sp.solve(_scalar_transfer(1.4), sp.build_grid(1.4, 0.3))
    assert cert.passed
    assert abs(ext.grid.t_f - 1.0) <= 1e-9


def test_solve_rejects_a_grid_off_the_fixed_horizon(interval_integrations):
    # a grid to t_f = 4 on a problem fixed at t_f = 3 is bad input, named
    # with both horizons, not a certified solve of another problem
    with pytest.raises(ValueError, match=r"t_f = 4\.0 .* final time 3"):
        sp.solve(parking_problem(2, 3), sp.build_grid(4, 0.5),
                 initial_unknowns=initial_adjoint_guess(2, 4))
    assert interval_integrations() == 0


def test_shooting_residual_rejects_a_grid_off_the_fixed_horizon(
        interval_integrations):
    # the residual starts where solve starts: the same bad input, the same
    # words, before any interval is integrated
    with pytest.raises(ValueError, match=r"t_f = 4\.0 .* final time 3"):
        sp.shooting_residual(parking_problem(2, 3), sp.build_grid(4, 0.5),
                             initial_adjoint_guess(2, 4))
    assert interval_integrations() == 0
    # with bad unknowns as well, solve names the unknowns first
    with pytest.raises(ValueError, match="initial unknowns must be 2 finite"):
        sp.solve(parking_problem(2, 3), sp.build_grid(4, 0.5),
                 initial_unknowns=[np.nan, 0.0])


def test_solve_single_interval_is_infeasible(residual_evals,
                                             interval_integrations):
    # one frozen acceleration cannot meet two terminal constraints
    grid = sp.build_grid(4.0, 4.0)
    with pytest.raises(sp.NonConvergence) as exc:
        sp.solve(PARKING4, grid, initial_unknowns=initial_adjoint_guess(2, 4))
    assert exc.value.history
    assert "active_set" in exc.value.history[0]
    # the least-squares distance: a constant u on [0, 4] ends at
    # (2 + 8u, 4u), closest to the origin at u = -0.2
    assert exc.value.residual_norm == pytest.approx(2 / np.sqrt(5), abs=1e-9)
    # the rejection's work: the start, one accepted Newton step, then the
    # Newton step and one Levenberg retry of 30 halvings each at the
    # stalling iterate, each residual by the closed-form map, which
    # integrates no interval of a trial whose end is judged finite
    assert (residual_evals(), interval_integrations()) == (62, 0)


def test_solve_generic_zero_guess():
    # the origin guess still lands the LQ case
    ext, cert = sp.solve(PARKING4, GRID4)
    np.testing.assert_allclose(ext.controls.values.ravel(), [-0.5, 0.5],
                               atol=1e-8)
    assert cert.passed


def test_solve_returns_a_failing_certificate(failing_certificate):
    failing_certificate(solver)
    ext, cert = sp.solve(PARKING4, GRID4,
                         initial_unknowns=initial_adjoint_guess(2, 4))
    assert not cert.passed
    assert cert.violations == ("forced failure",)
    np.testing.assert_allclose(ext.controls.values.ravel(), [-0.5, 0.5],
                               atol=1e-9)


def test_solve_periodic_variant():
    prob = double_integrator(sp.Periodic(), sp.FixedTime(2.0))
    grid = sp.build_grid(2.0, 0.5)
    ext, cert = sp.solve(prob, grid,
                         initial_unknowns=np.array([0.1, -0.2, 0.7, 0.3]))
    assert cert.passed
    assert np.max(np.abs(ext.controls.values)) <= 1e-9
    assert abs(ext.initial_state[1]) <= 1e-9
    np.testing.assert_allclose(ext.initial_adjoint, ext.final_adjoint,
                               atol=1e-9)


def test_solve_free_final_time():
    prob = _scalar_transfer(1.3)
    grid = sp.build_grid(1.3, 0.3)
    stats = {}
    ext, cert = sp.solve(prob, grid, initial_unknowns=np.array([1.0, 1.3]),
                         stats=stats)
    assert cert.passed
    assert ext.grid.t_f == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(ext.controls.values, 1.0, atol=1e-8)
    assert cert.free_time is not None and cert.free_time <= 1e-8
    assert stats["iterations"] >= 1


@pytest.mark.parametrize("T, x0", [(0.5, [1.5, 1.2]), (0.5, [1.5, 1.5]),
                                   (0.25, [1.0, 1.25])],
                         ids=["opt-2T", "start-3T", "start-5T"])
def test_solve_free_time_optimum_on_period_multiple(T, x0):
    # optimum t_f = 1.0 (2T or 4T) sits exactly on the k_f discontinuity;
    # the last two starts sit on one as well (3T, 5T)
    prob = _scalar_transfer(x0[1])
    grid = sp.build_grid(x0[1], T)
    ext, cert = sp.solve(prob, grid, initial_unknowns=np.array(x0))
    assert cert.passed
    assert ext.grid.t_f == pytest.approx(1.0, abs=1e-8)


def test_every_successful_solve_certifies():
    for (M, tf, T) in [(2.0, 4.0, 2.0), (2.0, 3.0, 1.0), (2.0, 3.2, 0.8),
                       (2.0, 5.0, 1.25)]:
        prob = parking_problem(M, tf)
        grid = sp.build_grid(tf, T)
        ext, cert = sp.solve(prob, grid,
                             initial_unknowns=initial_adjoint_guess(M, tf))
        assert cert.passed
        assert cert.max_interval_residual <= 1e-8


def test_generic_solver_matches_oracle_up_to_enumeration_bound():
    # convex instances: the shooting solution is the QP optimum, up to the
    # oracle's K <= 12 enumeration bound
    from sampled_pmp.parking import qp_oracle, sampled_cost
    for K in (10, 12):
        T = 4.0 / K
        grid = sp.build_grid(4.0, T)
        ext, cert = sp.solve(PARKING4, grid,
                             initial_unknowns=initial_adjoint_guess(2, 4))
        u_qp = qp_oracle(2.0, 4.0, T)
        assert cert.passed
        assert np.max(np.abs(ext.controls.values - u_qp.values)) <= 1e-7
        assert abs(sampled_cost(grid, ext.controls)
                   - sampled_cost(grid, u_qp)) <= 1e-8


def _planar_disc():
    """A planar double integrator from (1.6, 1.2) at rest to the origin at
    rest at t_f = 3, controls in the unit disc."""
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = 1.0
    B = np.zeros((4, 2))
    B[2, 0] = B[3, 1] = 1.0
    return sp.lti_problem(
        A, B, control_set=sp.Ball(center=np.zeros(2), radius=1.0),
        terminal=sp.FixedEndpoints(q0=np.array([1.6, 1.2, 0.0, 0.0]),
                                   qf=np.zeros(4)),
        final_time=sp.FixedTime(3.0), name="planar")


def _oscillator(bound):
    """The harmonic oscillator q'' = -q + u with running cost |q|^2 + u^2,
    from (1, 0) to rest at t_f = 6 under Box(-bound, bound)."""
    return sp.lti_problem(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]),
        np.eye(2),
        control_set=sp.Box(lower=np.array([-bound]), upper=np.array([bound])),
        terminal=sp.FixedEndpoints(q0=np.array([1.0, 0.0]), qf=np.zeros(2)),
        final_time=sp.FixedTime(6.0))


def test_solve_planar_disc_matches_rotated_parking(residual_evals,
                                                  interval_integrations):
    # q0 = (1.6, 1.2) = 2 (0.8, 0.6): the disc optimum is parking's M = 2
    # box optimum along the unit direction (0.8, 0.6)
    prob = _planar_disc()
    for K in (4, 8):
        grid = sp.build_grid(3.0, 3.0 / K)
        before = residual_evals(), interval_integrations()
        ext, cert = sp.solve(prob, grid)
        work = (residual_evals() - before[0],
                interval_integrations() - before[1])
        solved, _ = parking.solve_parking(2.0, 3.0, 3.0 / K)
        assert cert.passed
        np.testing.assert_allclose(ext.controls.values,
                                   solved.controls.values * [0.8, 0.6],
                                   rtol=0, atol=1e-8)
        twin, twin_cert = sp.solve(dataclasses.replace(prob, lq=None), grid)
        assert twin_cert.passed
        assert np.max(np.abs(twin.controls.values
                             - ext.controls.values)) <= 1e-10
    # K = 8 is the planar member of the benchmark's generic-shoot batch; the
    # parking member's work is pinned in test_parking.  Only the converged
    # iterate's arcs are integrated, once
    assert work == (4, 8)


# ---------------------------------------------------------------------------
# the closed-form shooting map of minimum-energy problems
# ---------------------------------------------------------------------------

def _mapped_cases():
    """(problem, grid, packed-unknown scale) of every Q = 0 problem the
    closed-form map serves here, by id."""
    return {
        "parking": (parking_problem(2.0, 3.0), sp.build_grid(3.0, 0.375),
                    2.0),
        "parking-partial": (parking_problem(2.0, 3.7),
                            sp.build_grid(3.7, 0.8), 2.0),
        "disc": (_planar_disc(), sp.build_grid(3.0, 0.375), 2.0),
        "saddle": (_saddle(10.0), sp.build_grid(10.0, 0.5), 0.5),
        "periodic": (double_integrator(sp.Periodic(), sp.FixedTime(2.0)),
                     sp.build_grid(2.0, 0.5), 1.0),
        "free-end": (double_integrator(FREE_END, sp.FixedTime(4.0)),
                     sp.build_grid(4.0, 1.0), 1.0),
    }


@pytest.mark.parametrize("case", list(_mapped_cases()))
def test_shooting_map_matches_the_walk(case):
    # the map's residual, controls and exact Jacobian are the interval
    # walk's, the definition, to rounding, at seeded unknowns
    problem, grid, scale = _mapped_cases()[case]
    shooting = solver._shooting_map(problem, grid)
    _, _, dim = solver._unknown_layout(problem)
    rng = np.random.default_rng(sorted(_mapped_cases()).index(case))
    for _ in range(10):
        x = scale * rng.normal(size=dim)
        r, (_, u, _, roots) = solver._map_residual(problem, shooting, x)
        r_walk, propagated = solver._propagate(problem, grid, x)
        assert np.max(np.abs(r - r_walk)) <= 1e-12 * np.max(np.abs(r_walk))
        walk_u = propagated[1]
        assert np.max(np.abs(u - walk_u)) <= 1e-12 * max(
            1.0, np.max(np.abs(walk_u)))
        J = solver._map_jacobian(problem, shooting, roots)
        J_walk = solver._tangent_jacobian(problem, propagated)
        assert np.max(np.abs(J - J_walk)) <= 1e-12 * np.max(np.abs(J_walk))


def test_shooting_map_raises_where_the_walk_blows_up():
    # the map judges z(t_f) and integrates a blown trial's arcs, which raise
    # at the walk's first blown node: the saddle at t_f = 30 from the origin
    problem, grid = _saddle(30.0), sp.build_grid(30.0, 1.5)
    shooting = solver._shooting_map(problem, grid)
    with pytest.raises(sp.IntegrationBlowUp) as walk:
        solver._propagate(problem, grid, np.zeros(2))
    with pytest.raises(sp.IntegrationBlowUp) as mapped:
        solver._map_residual(problem, shooting, np.zeros(2))
    assert mapped.value.time == walk.value.time == pytest.approx(28.03125)


@pytest.mark.parametrize("problem, grid, mapped", [
    *((problem, grid, True) for problem, grid, _ in _mapped_cases().values()),
    (_scalar_transfer(1.4), sp.build_grid(1.4, 0.3), False),
    (double_integrator(FIXED_ENDS, sp.FixedTime(4.0), position_weight=0.5),
     GRID4, False),
    (sp.lti_problem(np.zeros((2, 2)), np.eye(2), None,
                    [[1.0, 0.5], [0.5, 1.0]],
                    control_set=sp.Box(lower=-np.ones(2), upper=np.ones(2)),
                    terminal=sp.FixedEndpoints(q0=[1.0, 1.0], qf=[0.0, 0.0]),
                    final_time=sp.FixedTime(4.0)), GRID4, False),
    (_zero_cost_parking(np.zeros((1, 1))), GRID4, False),
    (sp.lti_problem(np.zeros((4, 4)), np.eye(4)[:, 2:], None,
                    np.diag([1.0, 2.0]),
                    control_set=sp.Ball(center=np.zeros(2), radius=1.0),
                    terminal=sp.FixedEndpoints(q0=np.ones(4), qf=np.zeros(4)),
                    final_time=sp.FixedTime(4.0)), GRID4, False),
    (dataclasses.replace(PARKING4, lq=None), GRID4, False),
    (parking_problem(2.0, 3.0), GRID4, False),
    (_saddle(800.0), sp.build_grid(800.0, 1.0), False),
], ids=[*_mapped_cases(), "free-time", "Q", "coupled", "non-monotone",
        "unequal-ball-gains", "callbacks", "grid-off-horizon", "overflow"])
def test_one_predicate_picks_the_path(monkeypatch, problem, grid, mapped):
    # the map serves fixed-horizon Q = 0 problems whose every interval
    # takes the closed-form control; the walk serves every other problem,
    # and a grid off the horizon, which it rejects
    assert (solver._shooting_map(problem, grid) is not None) == mapped
    walks = _count_calls(monkeypatch, solver, "_propagate")
    maps = _count_calls(monkeypatch, solver, "_map_residual")
    try:
        sp.solve(problem, grid)
    except (sp.NonConvergence, sp.IntegrationBlowUp, ValueError):
        pass
    assert (maps() > 0, walks() > 0) == (mapped, not mapped)


def _envelope_error(problem, grid, h=1e-5):
    """Relative gap between the multipliers of a certified normal extremal
    with fixed endpoints and the gradient of its optimal cost V in them,
    dV/dq0 = -p(0) and dV/dqf = p(t_f).  The gradient is central differences
    of ``running_cost`` with step ``h``, each perturbed solve warm-started
    from the certified p(0) and certified itself."""
    extremal, cert = sp.solve(problem, grid)
    assert cert.passed
    n, term = problem.n, problem.terminal
    ends = np.concatenate([term.q0, term.qf])

    def cost(e):
        moved = dataclasses.replace(
            problem, terminal=sp.FixedEndpoints(q0=e[:n], qf=e[n:]))
        ext, moved_cert = sp.solve(moved, grid,
                                   initial_unknowns=extremal.initial_adjoint)
        assert moved_cert.passed
        return sp.running_cost(moved, ext)

    grad = np.array([(cost(ends + h * d) - cost(ends - h * d)) / (2.0 * h)
                     for d in np.eye(2 * n)])
    sens = np.concatenate([-extremal.initial_adjoint, extremal.final_adjoint])
    return np.linalg.norm(grad - sens) / np.linalg.norm(sens)


@pytest.mark.parametrize("problem, T", [
    (_oscillator(5.0), 0.25), (_saddle(10.0), 0.5), (_planar_disc(), 3.0 / 8),
    (_zero_cost_parking(np.diag([1.0, 0.0])), 1.0), (pendulum(3.0), 0.5),
], ids=["oscillator", "saddle", "disc", "inert", "swing-up"])
def test_multipliers_are_the_cost_gradient_in_the_endpoints(problem, T):
    # the value-function reading of the adjoint: the cost differences read
    # only f and f0, so they cross-check the derivative callbacks and sign
    # conventions that the certificate judges only against each other.  The
    # swing-up (K = 12) is the nonlinear member, whose f_q and f0_q are
    # callbacks checked along its extremal
    grid = sp.build_grid(problem.final_time.t_f, T)
    assert _envelope_error(problem, grid) <= 1e-6


@pytest.mark.parametrize("make, t_f, T, guess, walk", [
    (lambda: dataclasses.replace(_planar_disc(), lq=None), 3.0, 3.0 / 8,
     None, True),
    (_planar_disc, 3.0, 3.0 / 8, None, False),
    (lambda: _oscillator(5.0), 6.0, 0.25, None, True),
    (lambda: parking_problem(2.0, 3.0), 3.0, 3.0 / 8,
     initial_adjoint_guess(2.0, 3.0), False),
    (lambda: dataclasses.replace(PARKING4, lq=None), 4.0, 2.0,
     initial_adjoint_guess(2.0, 4.0), True),
    (lambda: _scalar_transfer(1.4), 1.4, 0.3, [1.0, 1.4], True),
    (lambda: double_integrator(sp.Periodic(), sp.FixedTime(2.0),
                               position_weight=0.5), 2.0, 0.5,
     [0.1, -0.2, 0.7, 0.3], True),
], ids=["disc-callbacks", "disc", "oscillator", "parking",
        "parking-callbacks", "free-time", "periodic"])
def test_reintegration_reproduces_a_generic_solve(monkeypatch, make, t_f, T,
                                                  guess, walk):
    # every solve, on the closed-form map or the walk, on the lq maps or
    # the callbacks, with a fixed, free or periodic horizon, ends in one
    # integrate_extremal_forward of its solved grid, controls and z(0).
    # ``sampled-pmp check`` rebuilds a solve's extremal by that function,
    # so from the same controls and unknowns it reproduces the nodes and
    # the certificate bit for bit
    problem, grid = make(), sp.build_grid(t_f, T)
    assert (solver._shooting_map(problem, grid) is None) == walk
    integrations = _count_calls(monkeypatch, solver,
                                "integrate_extremal_forward")
    ext, cert = sp.solve(problem, grid, initial_unknowns=guess)
    assert integrations() == 1
    again = integrate_extremal_forward(problem, ext.grid, ext.controls,
                                       ext.initial_state, ext.initial_adjoint,
                                       -1.0)
    assert again.grid == ext.grid and again.p0 == ext.p0
    for name in ("times", "states", "adjoints"):
        np.testing.assert_array_equal(getattr(again, name), getattr(ext, name))
    assert cert.passed
    assert (sp.check_certificate(problem, again).to_json_dict()
            == cert.to_json_dict())


def test_the_walk_integrates_only_the_accepted_iterate(residual_evals,
                                                       interval_integrations):
    # the oscillator at K = 24 takes the walk: its trials advance interval
    # ends by the end-node maps and evaluate no node, so the only nodes
    # evaluated are the closing integration's, one row per interval, not
    # 9 x 24 = 216 rows for the trials' arcs
    problem, grid = _oscillator(5.0), sp.build_grid(6.0, 0.25)
    assert solver._shooting_map(problem, grid) is None
    _, cert = sp.solve(problem, grid)
    assert cert.passed
    assert residual_evals() == 9
    assert interval_integrations() == grid.n_intervals == 24


def test_pendulum_callbacks_are_consistent():
    sp.validate_jacobians(pendulum(3.0), np.random.default_rng(0))


def test_swing_up_certifies_from_the_origin(residual_evals):
    # nonlinear dynamics end to end: the origin guess lands on the extremal
    # of cost 2.376506 (not the cheapest one), with no control saturated
    problem = pendulum(3.0)
    ext, cert = sp.solve(problem, sp.build_grid(6.0, 0.5))
    assert cert.passed
    assert sp.running_cost(problem, ext) == pytest.approx(2.376506, abs=1e-6)
    assert np.max(np.abs(ext.controls.values)) < 3.0
    assert residual_evals() == 28


def test_swing_up_under_a_tight_box_does_not_converge():
    with pytest.raises(sp.NonConvergence) as exc:
        sp.solve(pendulum(0.7), sp.build_grid(6.0, 0.5))
    assert exc.value.residual_norm > solver.NEWTON_TOL


# ---------------------------------------------------------------------------
# the Newton driver
# ---------------------------------------------------------------------------

def test_damped_newton_tests_the_iterate_after_its_last_step():
    # one step solves 2x - 1 = 0 to rounding; the cap allows exactly one
    stats = {}
    x, _ = solver._damped_newton(lambda x: (2.0 * x - 1.0, None),
                                 lambda x, _: np.array([[2.0]]),
                                 np.array([3.0]), 1e-8, 1, stats=stats)
    assert x[0] == pytest.approx(0.5, abs=1e-8)
    assert stats["iterations"] == 1
    assert [e["iteration"] for e in stats["history"]] == [0, 1]
    assert stats["history"][-1]["residual_norm"] <= 1e-8


# ---------------------------------------------------------------------------
# terminal adjoint matching
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scale", [1.0, 100.0])
def test_match_terminal_adjoint_on_random_lq_draws(scale):
    # LQ draws shaped like the ROADMAP's LQ corpus, controls uniform in
    # [-1, 1]: the affine map p(0) -> p(t_f) is matched to a relative 1e-8
    # whatever the scale of p(t_f)
    rng = np.random.default_rng(7)
    for _ in range(8):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        A, B = 0.7 * rng.standard_normal((n, n)), rng.standard_normal((n, m))
        L = rng.standard_normal((n, n))
        tf, K = float(rng.uniform(2, 5)), int(rng.integers(6, 20))
        q0 = rng.standard_normal(n)
        prob = sp.lti_problem(
            A, B, 0.3 * L @ L.T / n,
            control_set=sp.Box(lower=-np.ones(m), upper=np.ones(m)),
            terminal=sp.FixedEndpoints(q0=q0, qf=np.zeros(n)),
            final_time=sp.FixedTime(tf))
        grid = sp.build_grid(tf, tf / K)
        ctrl = rng.uniform(-1, 1, size=(K, m))
        p_end = scale * rng.standard_normal(n)
        p_init = sp.match_terminal_adjoint(prob, grid, ctrl, q0, p_end)
        ext = integrate_extremal_forward(prob, grid, ctrl, q0, p_init, -1.0)
        assert (np.linalg.norm(ext.final_adjoint - p_end)
                <= 1e-8 * np.linalg.norm(p_end))
