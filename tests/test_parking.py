"""Parking closed forms, the sampled sign rule, oracles, and sweeps."""

import math

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp import parking as pk
from sampled_pmp import solver


# ---------------------------------------------------------------------------
# instance validation and regimes
# ---------------------------------------------------------------------------

def test_instance_validation():
    with pytest.raises(ValueError, match="existence"):
        pk.ParkingInstance(M=5.0, t_f=4.0, T=1.0)
    with pytest.raises(ValueError, match="existence"):
        pk.ParkingInstance(M=4.0, t_f=4.0, T=1.0)    # equality also rejected
    with pytest.raises(ValueError):
        pk.ParkingInstance(M=-1.0, t_f=4.0, T=1.0)
    for M in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            pk.ParkingInstance(M=M, t_f=4.0, T=1.0)
    with pytest.raises(ValueError):
        pk.ParkingInstance(M=2.0, t_f=4.0, T=0.0)


def test_regime_classification():
    assert pk.ParkingInstance(2.0, 3.0, 1.0).regime == "constrained"
    assert pk.ParkingInstance(2.0, 4.0, 1.0).regime == "unconstrained"
    assert pk.ParkingInstance(2.0, 3.5, 1.0).regime == "unconstrained"  # 12.25 >= 12


# ---------------------------------------------------------------------------
# permanent-control closed forms
# ---------------------------------------------------------------------------

def test_permanent_control_values():
    assert pk.permanent_control(2.0, 4.0, 0.0) == pytest.approx(-0.75, abs=1e-12)
    assert pk.permanent_control(2.0, 4.0, 4.0) == pytest.approx(0.75, abs=1e-12)
    assert pk.permanent_control(2.0, 4.0, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert pk.permanent_control(2.0, 3.0, 0.0) == -1.0
    assert pk.permanent_control(2.0, 3.0, 1.5) == pytest.approx(0.0, abs=1e-12)


def test_permanent_control_domain_checks():
    with pytest.raises(ValueError):
        pk.permanent_control(2.0, 4.0, 4.5)
    with pytest.raises(ValueError):
        pk.permanent_control(5.0, 4.0, 1.0)


def test_switching_time_values():
    assert pk.switching_time(2.0, 3.0) == pytest.approx((3 - math.sqrt(3)) / 2,
                                                        abs=1e-12)
    expected = 0.5 * (3.4 - math.sqrt(3 * (3.4 ** 2 - 8.0)))
    assert pk.switching_time(2.0, 3.4) == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError):
        pk.switching_time(2.0, 4.0)      # unconstrained regime has no switch


def test_switching_time_vanishes_at_regime_boundary():
    tf = math.sqrt(6 * 2.0 - 1e-6)
    t1 = pk.switching_time(2.0, tf)
    assert 0.0 < t1 < 1e-6


def test_constrained_pieces_join_continuously():
    rng = np.random.default_rng(11)
    for _ in range(100):
        M = float(rng.uniform(0.5, 5.0))
        tf = float(rng.uniform(math.sqrt(4 * M) + 1e-3,
                               math.sqrt(6 * M) - 1e-3))
        t1 = pk.switching_time(M, tf)
        ramp = (2 * t1 - tf) / math.sqrt(3 * (tf ** 2 - 4 * M))
        assert abs(ramp - (-1.0)) <= 1e-12
        # the evaluated control is continuous at both switch points
        assert abs(pk.permanent_control(M, tf, t1) - (-1.0)) <= 1e-12
        assert abs(pk.permanent_control(M, tf, tf - t1) - 1.0) <= 1e-12


@pytest.mark.parametrize("M,tf", [(2.0, 3.0), (2.0, 4.0), (1.0, 3.5), (3.0, 4.0)])
def test_permanent_control_odd_symmetry(M, tf):
    ts = np.linspace(0.0, tf, 501)
    u = np.asarray(pk.permanent_control(M, tf, ts))
    u_flip = np.asarray(pk.permanent_control(M, tf, tf - ts))
    assert np.max(np.abs(u_flip + u)) <= 1e-12


@pytest.mark.parametrize("M,tf", [(2.0, 3.0), (2.0, 4.0), (1.5, 3.2)])
def test_permanent_control_zero_net_velocity(M, tf):
    # Simpson over 20000 panels; the optimum parks with zero final velocity
    ts = np.linspace(0.0, tf, 20001)
    u = np.asarray(pk.permanent_control(M, tf, ts))
    h = tf / 20000
    integral = h / 3 * (u[0] + u[-1] + 4 * u[1:-1:2].sum() + 2 * u[2:-1:2].sum())
    assert abs(integral) <= 1e-9


@pytest.mark.parametrize("M,tf", [(2.0, 3.0), (2.0, 4.0), (1.5, 3.2)])
def test_permanent_cost_matches_quadrature(M, tf):
    ts = np.linspace(0.0, tf, 20001)
    u = np.asarray(pk.permanent_control(M, tf, ts))
    h = tf / 20000
    v = u * u
    integral = h / 3 * (v[0] + v[-1] + 4 * v[1:-1:2].sum() + 2 * v[2:-1:2].sum())
    assert pk.permanent_cost(M, tf) == pytest.approx(integral, abs=1e-8)


def test_permanent_multipliers_reproduce_unconstrained_law():
    # u*(t) = (p1 (t_f - t) + p2f)/2 must equal the closed form
    M, tf = 2.0, 4.0
    p1, p2f = pk.permanent_multipliers(M, tf)
    ts = np.linspace(0, tf, 101)
    law = 0.5 * (p1 * (tf - ts) + p2f)
    np.testing.assert_allclose(law, pk.permanent_control(M, tf, ts), atol=1e-12)


# ---------------------------------------------------------------------------
# sampled closed forms
# ---------------------------------------------------------------------------

def test_gamma_values_and_slope():
    assert pk.gamma(0, -0.5, -1.0, 2.0, 4.0, 2.0) == pytest.approx(0.0)
    assert pk.gamma(3, 0.7, 0.0, 0.0, 4.0, 1.0) == pytest.approx(-1.4)
    rng = np.random.default_rng(12)
    for _ in range(50):
        k = int(rng.integers(0, 5))
        x, p1, p2f, tf, T = rng.normal(size=5)
        assert pk.gamma(k, x + 1.0, p1, p2f, tf, T) - \
            pk.gamma(k, x, p1, p2f, tf, T) == pytest.approx(-2.0, abs=1e-12)


def test_sampled_control_from_multipliers():
    grid = sp.build_grid(4.0, 2.0)
    u = pk.sampled_control_from_multipliers(-1.0, 2.0, grid)
    np.testing.assert_allclose(u.values.ravel(), [-0.5, 0.5], atol=1e-15)
    u = pk.sampled_control_from_multipliers(0.0, 0.0, grid)
    np.testing.assert_allclose(u.values.ravel(), [0.0, 0.0], atol=0)
    u = pk.sampled_control_from_multipliers(0.0, 3.0, grid)
    np.testing.assert_allclose(u.values.ravel(), [1.0, 1.0], atol=0)


def test_sign_rule_matches_generic_interval_solver():
    # the Gamma sign rule and the inner semismooth Newton agree interval by
    # interval, including on a partial final interval
    prob = pk.parking_problem(2.0, 4.0)
    for (tf, T, p1, p2f) in [(4.0, 2.0, -1.0, 2.0), (4.0, 2.0, 0.0, 3.0),
                             (2.5, 1.0, -1.2, 1.7), (2.5, 1.0, 0.4, -0.9)]:
        grid = sp.build_grid(tf, T)
        closed = pk.sampled_control_from_multipliers(p1, p2f, grid)
        p = np.array([p1, p1 * tf + p2f])
        q = np.array([2.0, 0.0])
        for k in range(grid.n_intervals):
            u_k, _ = sp.solve_interval_control(
                prob, float(grid.times[k]), float(grid.lengths[k]), q, p,
                -1.0, np.array([0.0]))
            assert abs(u_k[0] - closed[k][0]) <= 1e-10
            onegrid = sp.build_grid(float(grid.lengths[k]), float(grid.lengths[k]))
            seg = sp.integrate_extremal_forward(prob, onegrid, u_k[None, :], q, p,
                                                -1.0)
            q = seg.trajectory.final_state
            p = seg.adjoint.final


def test_parking_shooting_map_values():
    grid = sp.build_grid(4.0, 2.0)
    np.testing.assert_allclose(pk.parking_shooting_map(-1.0, 2.0, 2.0, grid),
                               (0.0, 0.0), atol=1e-15)
    np.testing.assert_allclose(pk.parking_shooting_map(0.0, 0.0, 2.0, grid),
                               (2.0, 0.0), atol=0)
    np.testing.assert_allclose(pk.parking_shooting_map(0.0, 3.0, 2.0, grid),
                               (10.0, 4.0), atol=0)


def test_shooting_map_matches_rk4_propagation():
    # closed-form propagation against the integrator on a partial grid
    rng = np.random.default_rng(13)
    prob = pk.parking_problem(2.0, 3.7)
    grid = sp.build_grid(3.7, 0.8)
    for _ in range(10):
        p1, p2f = rng.normal(size=2)
        q1f, q2f = pk.parking_shooting_map(p1, p2f, 2.0, grid)
        ctrl = pk.sampled_control_from_multipliers(p1, p2f, grid)
        traj, _ = sp.simulate(prob, grid, ctrl, np.array([2.0, 0.0]))
        np.testing.assert_allclose(traj.final_state, [q1f, q2f], atol=1e-11)


# ---------------------------------------------------------------------------
# dedicated solve
# ---------------------------------------------------------------------------

def test_solve_parking_small_cases():
    solved, (p1, p2f), cert = pk.solve_parking(2.0, 4.0, 2.0)
    controls = solved.controls
    np.testing.assert_allclose(controls.values.ravel(), [-0.5, 0.5], atol=1e-7)
    assert (p1, p2f) == (pytest.approx(-1.0, abs=1e-6), pytest.approx(2.0, abs=1e-6))
    assert cert.passed

    solved, _, cert = pk.solve_parking(2.0, 3.0, 1.0)
    controls = solved.controls
    np.testing.assert_allclose(controls.values.ravel(), [-1.0, 0.0, 1.0],
                               atol=1e-7)
    assert cert.passed


def test_solve_parking_fine_grid_tracks_permanent_law():
    solved, (p1, p2f), cert = pk.solve_parking(2.0, 4.0, 0.01)
    controls = solved.controls
    assert len(controls) == 400
    assert cert.passed
    grid = sp.build_grid(4.0, 0.01)
    mids = np.asarray(grid.times) + 0.005
    dev = np.abs(controls.values[:, 0] - pk.permanent_control(2.0, 4.0, mids))
    assert np.max(dev) <= 1e-3


def test_solve_parking_single_interval_fails():
    with pytest.raises(sp.NonConvergence):
        pk.solve_parking(2.0, 4.0, 4.0)


def test_solve_parking_rejects_bad_instance():
    with pytest.raises(ValueError, match="existence"):
        pk.solve_parking(5.0, 4.0, 1.0)


def test_solve_parking_partial_grid(monkeypatch):
    # the closed-form shooting is exact on a partial last interval, so the
    # generic solver is never needed and agrees with it
    grid = sp.build_grid(3.5, 1.0)
    generic, _ = sp.solve(pk.parking_problem(2.0, 3.5), grid,
                          initial_unknowns=pk.initial_adjoint_guess(2.0, 3.5))

    def no_generic_solve(*args, **kwargs):
        raise AssertionError("solve_parking called the generic solver")

    monkeypatch.setattr(solver, "solve", no_generic_solve)
    solved, (p1, p2f), cert = pk.solve_parking(2.0, 3.5, 1.0)
    controls = solved.controls
    assert cert.passed
    assert len(controls) == 4
    q1f, q2f = pk.parking_shooting_map(p1, p2f, 2.0, grid)
    assert math.hypot(q1f, q2f) <= 1e-9
    assert np.max(np.abs(controls.values - generic.controls.values)) <= 1e-8


def test_solve_parking_rejects_one_interval_without_integrating(parking_f_calls):
    # T > t_f leaves one interval, which cannot meet two terminal equations;
    # the closed-form Newton stalls before any arc is integrated
    with pytest.raises(sp.NonConvergence):
        pk.solve_parking(2.0, 3.0, 5.0)
    assert parking_f_calls() == 0


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_qp_oracle_small_cases():
    grid = sp.build_grid(4.0, 2.0)
    u = pk.qp_oracle(2.0, 4.0, 2.0)
    np.testing.assert_allclose(u.values.ravel(), [-0.5, 0.5], atol=1e-12)
    assert pk.sampled_cost(grid, u) == pytest.approx(1.0, abs=1e-12)

    u = pk.qp_oracle(2.0, 3.0, 1.0)
    np.testing.assert_allclose(u.values.ravel(), [-1.0, 0.0, 1.0], atol=1e-12)
    assert pk.sampled_cost(sp.build_grid(3.0, 1.0), u) == pytest.approx(2.0)


def test_qp_oracle_unconstrained_path_agrees_when_interior():
    u_box = pk.qp_oracle(2.0, 4.0, 1.0)
    u_free = pk.qp_oracle(2.0, 4.0, 1.0, box=None)
    np.testing.assert_allclose(u_box.values, u_free.values, atol=1e-10)


def test_qp_oracle_infeasible():
    with pytest.raises(sp.Infeasible):
        pk.qp_oracle(5.0, 4.0, 2.0)


def test_qp_oracle_enumeration_bound():
    with pytest.raises(ValueError, match="K <= 12"):
        pk.qp_oracle(2.0, 13.0, 1.0)
    # the unconstrained path has no such bound
    u = pk.qp_oracle(2.0, 13.0, 1.0, box=None)
    assert len(u) == 13


def test_qp_oracle_requires_integer_ratio():
    with pytest.raises(ValueError, match="multiple"):
        pk.qp_oracle(2.0, 3.5, 1.0)


def test_grid_and_oracle_share_one_snap_rule():
    # t/T within GRID_SNAP of 4: four full intervals, and the oracle accepts
    # the grid; further off, the last interval is partial and it refuses
    T = 0.75 * (1 + 1e-10)
    grid = sp.build_grid(3.0, T)
    assert grid.n_intervals == 4
    assert np.all(grid.lengths == T)
    assert len(pk.qp_oracle(2.0, 3.0, T)) == 4
    for rel in (5e-10, 1e-6):
        T = 0.75 * (1 + rel)
        grid = sp.build_grid(3.0, T)
        assert grid.n_intervals == 4
        assert grid.lengths[-1] < T
        with pytest.raises(ValueError, match="multiple"):
            pk.qp_oracle(2.0, 3.0, T)


def test_oracle_equivalence_sweep():
    # solver controls match the enumeration oracle on the full instance grid
    for tf in (3.0, 3.2, 4.0, 5.0):
        for K in range(2, 9):
            T = tf / K
            grid = sp.build_grid(tf, T)
            solved, _, cert = pk.solve_parking(2.0, tf, T)
            u_solve = solved.controls
            u_qp = pk.qp_oracle(2.0, tf, T)
            assert cert.passed, (tf, K)
            assert np.max(np.abs(u_solve.values - u_qp.values)) <= 1e-7, (tf, K)
            assert abs(pk.sampled_cost(grid, u_solve)
                       - pk.sampled_cost(grid, u_qp)) <= 1e-8, (tf, K)


def test_generic_path_consistency(residual_evals, gbar_calls):
    # the dedicated sign-rule path and the generic semismooth shooting
    # agree on the oracle-equivalence instances (slowest test in the suite)
    work = {}
    for tf in (3.0, 3.2, 4.0, 5.0):
        for K in range(2, 9):
            T = tf / K
            solved, _, _ = pk.solve_parking(2.0, tf, T)
            u_fast = solved.controls
            prob = pk.parking_problem(2.0, tf)
            grid = sp.build_grid(tf, T)
            before = residual_evals(), gbar_calls()
            ext, cert = sp.solve(prob, grid,
                                 initial_unknowns=pk.initial_adjoint_guess(2.0, tf))
            work[tf, K] = (residual_evals() - before[0], gbar_calls() - before[1])
            assert cert.passed, (tf, K)
            assert np.max(np.abs(u_fast.values - ext.controls.values)) <= 1e-8, \
                (tf, K)
    # the generic solve's work, in residual and Gbar evaluations: (3, 8) is
    # the parking member of the benchmark's generic-shoot batch
    assert work[3.0, 8] == (10, 356)
    assert work[4.0, 8] == (7, 288)


# ---------------------------------------------------------------------------
# structure of solved solutions
# ---------------------------------------------------------------------------

def test_unsaturated_controls_are_affine_in_midpoint_coefficient():
    for (M, tf, T) in [(2.0, 4.0, 1.0), (2.0, 3.0, 0.5), (2.0, 5.0, 1.25)]:
        solved, _, _ = pk.solve_parking(M, tf, T)
        controls = solved.controls
        grid = sp.build_grid(tf, T)
        u = controls.values[:, 0]
        c = tf - np.asarray(grid.times) - np.asarray(grid.lengths) / 2
        interior = np.abs(u) < 1.0 - 1e-9
        assert interior.sum() >= 2
        A = np.column_stack([np.ones(interior.sum()), c[interior]])
        coef, *_ = np.linalg.lstsq(A, u[interior], rcond=None)
        fit = A @ coef
        assert np.max(np.abs(fit - u[interior])) <= 1e-10


def test_sweep_rows_and_convergence():
    rows3 = pk.sweep_periods(2.0, 3.0, [1.0, 0.5, 0.1, 0.01])
    rows4 = pk.sweep_periods(2.0, 4.0, [1.0, 0.5, 0.1, 0.01])
    for row in rows3 + rows4:
        assert row.status == "ok"
        assert row.terminal_residual <= 1e-9
        assert row.cost_sampled >= row.cost_permanent - 1e-9

    # (2,4): deviations match the closed form 6MT^2/(tf^3 (tf+T)) of the
    # least-norm solution and shrink strictly with T
    dev4 = [r.sup_dev for r in rows4]
    for r in rows4:
        predicted = 6 * 2.0 * r.T ** 2 / (4.0 ** 3 * (4.0 + r.T))
        assert r.sup_dev == pytest.approx(predicted, rel=1e-6)
    assert all(a > b for a, b in zip(dev4, dev4[1:]))

    # (2,3): T=1 coincides with the permanent law at interval midpoints
    # (u = (-1, 0, 1) exactly), so the deviation sequence is NOT monotone at
    # its first step; from T=0.5 down it shrinks strictly
    dev3 = [r.sup_dev for r in rows3]
    assert dev3[0] <= 1e-9
    assert dev3[1] == pytest.approx(0.034, abs=5e-4)
    assert all(a > b for a, b in zip(dev3[1:], dev3[2:]))
    assert dev3[3] <= 2e-2


def test_sweep_row_reports_failure():
    rows = pk.sweep_periods(2.0, 3.0, [5.0])
    assert rows[0].status == "failed"
    assert rows[0].error
    assert math.isnan(rows[0].sup_dev)
    assert rows[0].controls is None
