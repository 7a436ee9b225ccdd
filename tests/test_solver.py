"""Indirect shooting: inner semismooth Newton, outer damped Newton."""

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp import parking, solver
from sampled_pmp.parking import initial_adjoint_guess, parking_problem
from sampled_pmp.simulate import integrate_extremal_forward
from sampled_pmp.solver import _fd_jacobian

PARKING4 = parking_problem(2.0, 4.0)
GRID4 = sp.build_grid(4.0, 2.0)
Q0 = np.array([2.0, 0.0])
# entry adjoint for multipliers (p1, p2f) = (-1, 2) at t_f = 4
P_STAR = np.array([-1.0, -2.0])


def _scalar_transfer(tf_guess):
    """dq/dt = u, cost u^2 + 1, q: 0 -> 1, free final time (optimum t_f = 1)."""
    def f(t, q, u):
        return np.array([u[0]])

    return sp.ProblemDefinition(
        n=1, m=1, f=f,
        f_q=lambda t, q, u: np.array([[0.0]]),
        f_u=lambda t, q, u: np.array([[1.0]]),
        f0=lambda t, q, u: float(u[0] ** 2 + 1.0),
        f0_q=lambda t, q, u: np.zeros(1),
        f0_u=lambda t, q, u: np.array([2.0 * u[0]]),
        control_set=sp.Box(lower=np.array([-5.0]), upper=np.array([5.0])),
        terminal=sp.FixedEndpoints(q0=np.zeros(1), qf=np.ones(1)),
        final_time=sp.FreeTime(tf_guess), name="transfer")


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------

def test_solve_interval_control_finds_interior_root():
    u, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Q0, P_STAR, -1.0,
                                     np.array([0.0]))
    assert u[0] == pytest.approx(-0.5, abs=1e-11)
    # the returned control satisfies its own fixed-point condition
    gbar = sp.average_u_gradient(
        PARKING4,
        sp.integrate_extremal_forward(PARKING4, GRID4, np.array([[u[0]], [0.5]]),
                                      Q0, P_STAR, -1.0), 0)
    moved = PARKING4.control_set.project(u + 0.25 * gbar)
    assert np.linalg.norm(moved - u) <= solver.INNER_TOL


def test_solve_interval_control_accepts_stationary_start():
    calls = []
    u, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Q0, P_STAR, -1.0,
                                     np.array([-0.5]),
                                     callback=lambda u, g: calls.append(u[0]))
    assert u[0] == -0.5
    assert len(calls) == 1


def test_solve_interval_control_clamps_to_bound():
    # p = (0, 3) constant: root of 3 - 2u is 1.5, outside the box
    u, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Q0,
                                     np.array([0.0, 3.0]), -1.0,
                                     np.array([0.0]))
    assert u[0] == pytest.approx(1.0, abs=1e-12)


def test_solve_interval_control_reports_stall(monkeypatch):
    monkeypatch.setattr(solver, "INNER_MAX_ITER", 2)
    with pytest.raises(sp.NonConvergence) as exc:
        sp.solve_interval_control(PARKING4, 0.0, 2.0, Q0, P_STAR, -1.0,
                                  np.array([1.0]))
    assert exc.value.iterate is not None
    assert exc.value.residual_norm > solver.INNER_TOL


def test_inner_iterates_ascend_average_hamiltonian():
    # against the converged arc, the average Hamiltonian is concave in the
    # control slot and the inner Newton iterates climb it monotonically
    for u0 in (0.0, 1.0, -1.0, 0.8):
        iterates = []
        u, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Q0, P_STAR, -1.0,
                                         np.array([u0]),
                                         callback=lambda u, g: iterates.append(u))
        ext = sp.integrate_extremal_forward(PARKING4, GRID4,
                                            np.array([[u[0]], [0.5]]), Q0,
                                            P_STAR, -1.0)
        vals = [sp.average_hamiltonian(PARKING4, ext, 0, it) for it in iterates]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_warm_start_independence():
    rng = np.random.default_rng(9)
    u_ref, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Q0, P_STAR, -1.0,
                                         np.array([0.0]))
    for _ in range(5):
        u_init = PARKING4.control_set.project(rng.normal(scale=2.0, size=1))
        u, _ = sp.solve_interval_control(PARKING4, 0.0, 2.0, Q0, P_STAR, -1.0,
                                         u_init)
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
        u, _ = sp.solve_interval_control(prob, 0.0, delta, q, p, -1.0, u_init)
        _assert_solves_interval(prob, delta, q, p, u)


def test_interval_control_never_returns_a_wrong_answer():
    # with a state cost Gbar may be non-monotone in u: the solve either
    # returns a solution or reports NonConvergence
    rng = np.random.default_rng(2025)
    for _ in range(100):
        prob, delta, q, p, u_init = _random_lq_interval(rng, state_cost=True)
        try:
            u, _ = sp.solve_interval_control(prob, 0.0, delta, q, p, -1.0,
                                             u_init)
        except sp.NonConvergence:
            continue
        _assert_solves_interval(prob, delta, q, p, u)


# ---------------------------------------------------------------------------
# shooting residual
# ---------------------------------------------------------------------------

def test_shooting_residual_values():
    # unknown p(0) = (p1, p1 t_f + p2f)
    r = sp.shooting_residual(PARKING4, GRID4, np.array([-1.0, -2.0]))
    np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-10)
    r = sp.shooting_residual(PARKING4, GRID4, np.zeros(2))
    np.testing.assert_allclose(r, [2.0, 0.0], atol=1e-12)
    r = sp.shooting_residual(PARKING4, GRID4, np.array([0.0, 3.0]))
    np.testing.assert_allclose(r, [10.0, 4.0], atol=1e-12)


def test_shooting_residual_dimension_check():
    with pytest.raises(ValueError):
        sp.shooting_residual(PARKING4, GRID4, np.zeros(3))


def test_unknown_layout_is_square():
    # FixedEndpoints: n unknowns; periodic: 2n; free time adds one.  The
    # packed vector is p(0), then q(0), then t_f
    assert solver._unknown_layout(PARKING4) == (False, False, 2)
    per = parking_problem(2.0, 4.0, terminal="periodic")
    assert solver._unknown_layout(per) == (True, False, 4)
    _, ext = solver._propagate(per, GRID4, np.arange(4.0))
    np.testing.assert_array_equal(ext.trajectory.initial_state, [2.0, 3.0])
    free = _scalar_transfer(1.3)
    assert solver._unknown_layout(free) == (False, True, 2)
    _, ext = solver._propagate(free, sp.build_grid(1.3, 0.3),
                               np.array([0.5, 1.2]))
    assert ext.grid.t_f == 1.2
    r = sp.shooting_residual(free, sp.build_grid(1.3, 0.3), np.array([2.0, 1.0]))
    assert r.shape == (2,)
    np.testing.assert_allclose(r, [0.0, 0.0], atol=1e-9)


def test_shooting_jacobian_constant_within_saturation_region(monkeypatch):
    # the map is affine while no control changes saturation status; the FD
    # step is widened to 1e-5 so machine-eps residual noise (which divides by
    # h) stays under the 1e-9 constancy bound
    monkeypatch.setattr(solver, "FD_STEP", 1e-5)
    monkeypatch.setattr(solver, "INNER_TOL", 1e-13)

    def residual(x):
        return sp.shooting_residual(PARKING4, GRID4, x), None, None

    x1 = np.array([-1.0, -2.0])
    x2 = x1 + np.array([0.02, -0.015])
    J1 = _fd_jacobian(residual, x1, residual(x1)[0])
    J2 = _fd_jacobian(residual, x2, residual(x2)[0])
    assert np.max(np.abs(J1 - J2)) <= 1e-9
    # and it matches the closed-form affine coefficients of the map
    np.testing.assert_allclose(J1, [[-6.0, 4.0], [-4.0, 2.0]], atol=1e-6)


# ---------------------------------------------------------------------------
# outer Newton
# ---------------------------------------------------------------------------

def test_solve_parking_2_4_2():
    ext, cert = sp.solve(PARKING4, GRID4, initial_unknowns=initial_adjoint_guess(2, 4))
    np.testing.assert_allclose(ext.controls.values.ravel(), [-0.5, 0.5],
                               atol=1e-9)
    assert cert.passed
    assert ext.adjoint.p0 == -1.0


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
    # a residual evaluation keeps the arc it integrates at each solved
    # control: no closing re-integration of the whole extremal
    def refuse(*args, **kwargs):
        raise AssertionError("solve re-integrated the extremal")

    monkeypatch.setattr(solver, "integrate_extremal_forward", refuse)
    problem = parking.parking_problem(2, 4)
    grid = sp.build_grid(4, 2)
    ext, cert = sp.solve(problem, grid,
                         initial_unknowns=initial_adjoint_guess(2, 4))
    assert cert.passed
    # every f call is inside an inner Gbar evaluation (16 RK4 steps of 4
    # calls); an advancing pass per interval over the 4 residual evaluations
    # at K = 2 would add 64 K f calls each (3648)
    assert parking_f_calls() == 3136
    assert parking_f_calls() == 64 * gbar_calls()
    ref = integrate_extremal_forward(problem, grid, ext.controls, Q0,
                                     ext.adjoint.initial, -1.0)
    for got, want in ((ext.trajectory.times, ref.trajectory.times),
                      (ext.trajectory.states, ref.trajectory.states),
                      (ext.adjoint.values, ref.adjoint.values)):
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    assert ext.trajectory.cost == ref.trajectory.cost
    assert ext.adjoint.p0 == ref.adjoint.p0


def test_solve_single_interval_is_infeasible(gbar_calls):
    # one frozen acceleration cannot meet two terminal constraints
    grid = sp.build_grid(4.0, 4.0)
    with pytest.raises(sp.NonConvergence) as exc:
        sp.solve(PARKING4, grid, initial_unknowns=initial_adjoint_guess(2, 4))
    assert exc.value.history
    assert "active_set" in exc.value.history[0]
    # the least-squares distance: a constant u on [0, 4] ends at
    # (2 + 8u, 4u), closest to the origin at u = -0.2
    assert exc.value.residual_norm == pytest.approx(2 / np.sqrt(5), abs=1e-9)
    # the rejection's work: the Newton step and one Levenberg retry of 30
    # halvings each at the stalling iterate
    assert gbar_calls() == 272


def test_solve_generic_zero_guess():
    # the origin guess still lands the LQ case
    ext, cert = sp.solve(PARKING4, GRID4)
    np.testing.assert_allclose(ext.controls.values.ravel(), [-0.5, 0.5],
                               atol=1e-8)
    assert cert.passed


def test_solve_periodic_variant():
    prob = parking_problem(1.0, 2.0, terminal="periodic")
    grid = sp.build_grid(2.0, 0.5)
    ext, cert = sp.solve(prob, grid,
                         initial_unknowns=np.array([0.1, -0.2, 0.7, 0.3]))
    assert cert.passed
    assert np.max(np.abs(ext.controls.values)) <= 1e-9
    assert abs(ext.trajectory.initial_state[1]) <= 1e-9
    np.testing.assert_allclose(ext.adjoint.initial, ext.adjoint.final,
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


def test_solve_planar_disc_matches_rotated_parking(residual_evals,
                                                  gbar_calls):
    # q0 = (1.6, 1.2) = 2 (0.8, 0.6): the disc optimum is parking's M = 2
    # box optimum along the unit direction (0.8, 0.6)
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = 1.0
    B = np.zeros((4, 2))
    B[2, 0] = B[3, 1] = 1.0
    prob = sp.lti_problem(
        A, B, control_set=sp.Ball(center=np.zeros(2), radius=1.0),
        terminal=sp.FixedEndpoints(q0=np.array([1.6, 1.2, 0.0, 0.0]),
                                   qf=np.zeros(4)),
        final_time=sp.FixedTime(3.0), name="planar")
    for K in (4, 8):
        before = residual_evals(), gbar_calls()
        ext, cert = sp.solve(prob, sp.build_grid(3.0, 3.0 / K))
        work = (residual_evals() - before[0], gbar_calls() - before[1])
        solved, _, _ = parking.solve_parking(2.0, 3.0, 3.0 / K)
        assert cert.passed
        np.testing.assert_allclose(ext.controls.values,
                                   solved.controls.values * [0.8, 0.6],
                                   rtol=0, atol=1e-8)
    # K = 8 is the planar member of the benchmark's generic-shoot batch: with
    # the parking member's 356 Gbar evaluations (test_parking), 64 f calls
    # each make its rhs_evals_per_op of 64 (356 + 963) = 84416
    assert work == (21, 963)


# ---------------------------------------------------------------------------
# the Newton driver
# ---------------------------------------------------------------------------

def test_damped_newton_tests_the_iterate_after_its_last_step():
    # one step solves 2x - 1 = 0 to rounding; the cap allows exactly one
    stats = {}
    x, _ = solver._damped_newton(lambda x: (2.0 * x - 1.0, None),
                                 np.array([3.0]), 1e-8, 1, stats=stats)
    assert x[0] == pytest.approx(0.5, abs=1e-8)
    assert stats["iterations"] == 1
    assert [e["iteration"] for e in stats["history"]] == [0, 1]
    assert stats["history"][-1]["residual_norm"] <= 1e-8
