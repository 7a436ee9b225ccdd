"""Parking closed forms, the sampled sign rule, oracles, and sweeps."""

import dataclasses
import math

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp import parking as pk
from sampled_pmp import solver

from conftest import _count_calls, double_integrator


# ---------------------------------------------------------------------------
# instance validation and regimes
# ---------------------------------------------------------------------------

def test_instance_validation():
    # solve_parking checks the instance before any work
    with pytest.raises(ValueError, match="existence"):
        pk.solve_parking(5.0, 4.0, 1.0)
    with pytest.raises(ValueError, match="existence"):
        pk.solve_parking(4.0, 4.0, 1.0)    # equality also rejected
    with pytest.raises(ValueError, match="positive"):
        pk.solve_parking(-1.0, 4.0, 1.0)
    for M in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            pk.solve_parking(M, 4.0, 1.0)
    with pytest.raises(ValueError, match="sampling period must be positive"):
        pk.solve_parking(2.0, 4.0, 0.0)
    # the oracle checks its own arguments
    for M, tf, T in ((0.0, 4.0, 1.0), (2.0, -4.0, 1.0), (2.0, 4.0, 0.0)):
        with pytest.raises(ValueError, match="qp_oracle needs positive"):
            pk.qp_oracle(M, tf, T)


def test_regime_classification():
    # t_f^2 < 6M is the constrained regime, where u* saturates at t = 0
    for (M, tf, constrained) in [(2.0, 3.0, True), (2.0, 4.0, False),
                                 (2.0, 3.5, False)]:    # 12.25 >= 12
        assert (tf ** 2 < 6.0 * M) == constrained
        assert (pk.permanent_control(M, tf, 0.0) == -1.0) == constrained


# ---------------------------------------------------------------------------
# recognizing the parking problem
# ---------------------------------------------------------------------------

def _parking_variant(M=2.0, tf=4.0, **changes):
    """parking_problem(M, tf) built by hand, with some of lti_problem's
    arguments changed."""
    A, B = pk.DOUBLE_INTEGRATOR
    args = dict(Q=None, R=[[1.0]], control_set=sp.Box(lower=[-1.0], upper=[1.0]),
                terminal=sp.FixedEndpoints(q0=[M, 0.0], qf=[0.0, 0.0]),
                final_time=sp.FixedTime(tf))
    args.update(changes)
    return sp.lti_problem(A, B, **args)


@pytest.mark.parametrize("M, tf", [(2.0, 4.0), (2.0, 3.0), (0.5, 1.5),
                                   (7.25, 10.0)])
def test_parking_position_recognizes_parking(M, tf):
    problem = pk.parking_problem(M, tf)
    assert pk.parking_position(problem) == M
    # swapped callbacks, as instrumentation swaps them, keep the lq record
    counted = dataclasses.replace(problem, f=lambda t, q, u: problem.f(t, q, u))
    assert pk.parking_position(counted) == M
    # so each deviation below is the one thing that differs from parking
    assert pk.parking_position(_parking_variant(M, tf)) == M


@pytest.mark.parametrize("problem", [
    _parking_variant(control_set=sp.Box(lower=[-2.0], upper=[2.0])),
    _parking_variant(Q=[[1e-12, 0.0], [0.0, 0.0]]),
    _parking_variant(R=[[2.0]]),
    _parking_variant(terminal=sp.FixedEndpoints(q0=[2.0, 0.0], qf=[0.0, 1e-9])),
    _parking_variant(terminal=sp.FixedEndpoints(q0=[2.0, 0.1], qf=[0.0, 0.0])),
    _parking_variant(terminal=sp.FixedEndpoints(q0=[0.0, 0.0], qf=[0.0, 0.0])),
    _parking_variant(terminal=sp.FixedEndpoints(q0=[-2.0, 0.0], qf=[0.0, 0.0])),
    _parking_variant(final_time=sp.FreeTime(4.0)),
    _parking_variant(control_set=sp.Ball(center=[0.0], radius=1.0)),
    dataclasses.replace(pk.parking_problem(2.0, 4.0), lq=None),
    double_integrator(sp.Periodic(), sp.FixedTime(4.0)),
], ids=["box-2", "Q", "R-2", "qf", "q0-velocity", "M-zero", "M-negative",
        "free-time", "ball", "lq-none", "periodic"])
def test_parking_position_rejects_each_deviation(problem):
    assert pk.parking_position(problem) is None


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
    # both closed forms share the existence rule, at t_f^2 = 4M and below
    for M, tf in ((4.0, 4.0), (5.0, 4.0), (5.0, 3.0)):
        with pytest.raises(ValueError, match="existence"):
            pk.permanent_control(M, tf, 1.0)
        with pytest.raises(ValueError, match="existence"):
            pk.permanent_cost(M, tf)


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


def test_initial_adjoint_guess_reproduces_unconstrained_law():
    # u*(t) = p_2(t)/2 = (p_2(0) - p_1 t)/2 must equal the closed form
    M, tf = 2.0, 4.0
    p1, p20 = pk.initial_adjoint_guess(M, tf)
    ts = np.linspace(0, tf, 101)
    law = 0.5 * (p20 - p1 * ts)
    np.testing.assert_allclose(law, pk.permanent_control(M, tf, ts), atol=1e-12)


# ---------------------------------------------------------------------------
# sampled closed forms: the shooting map against the paper's sign rule
# ---------------------------------------------------------------------------

def _sign_rule(p_init, grid):
    """The paper's sampled parking controls of the adjoint that starts at
    p(0) = ``p_init``, the test-side reference: the averaged gradient
    p_2(0) - p_1 m_k - 2x of interval k, m_k its midpoint, decreases in x,
    so u_k = clip((p_2(0) - p_1 m_k)/2, -1, 1)."""
    m = grid.times + grid.lengths / 2
    return np.clip(0.5 * (p_init[1] - p_init[0] * m), -1.0, 1.0)


def _parking_map(M, grid, p_init):
    """(terminal state, controls) of the solver's closed-form shooting map
    of parking (M, grid.t_f) at p(0) = ``p_init``: with qf = 0 the
    residual is q(t_f) itself."""
    problem = pk.parking_problem(M, grid.t_f)
    shooting = solver._shooting_map(problem, grid)
    r, (_, u, _, _) = solver._map_residual(problem, shooting,
                                        np.asarray(p_init, dtype=float))
    return r, u[:, 0]


def test_sampled_control_values():
    grid = sp.build_grid(4.0, 2.0)
    for p, expected, atol in (([-1.0, -2.0], [-0.5, 0.5], 1e-15),
                              ([0.0, 0.0], [0.0, 0.0], 0),
                              ([0.0, 3.0], [1.0, 1.0], 0)):
        np.testing.assert_allclose(_parking_map(2.0, grid, p)[1], expected,
                                   rtol=0, atol=atol)
        np.testing.assert_array_equal(_sign_rule(p, grid), expected)
    # a partial last interval takes its own midpoint: m = (0.5, 1.5, 2.25)
    grid = sp.build_grid(2.5, 1.0)
    np.testing.assert_allclose(_parking_map(2.0, grid, [-1.0, -1.5])[1],
                               [-0.5, 0.0, 0.375], rtol=0, atol=1e-15)
    np.testing.assert_allclose(_sign_rule([-1.0, -1.5], grid),
                               [-0.5, 0.0, 0.375], rtol=0, atol=1e-15)


def test_gamma_values_and_slope():
    # Gamma_k(x) = p_2(0) - p_1 m_k - 2x is interval k's averaged gradient:
    # Gamma_0(-0.5) = 0 for p(0) = (-1, -2) on (t_f, T) = (4, 2), and
    # Gamma_k(x) = -2x when p(0) = 0: the map's controls are those roots
    u = _parking_map(2.0, sp.build_grid(4.0, 2.0), [-1.0, -2.0])[1]
    assert u[0] == pytest.approx(-0.5, abs=1e-15)
    u = _parking_map(2.0, sp.build_grid(4.0, 1.0), [0.0, 0.0])[1]
    np.testing.assert_array_equal(u, np.zeros(4))

    # the sign rule of the decreasing Gamma_k: -1 when Gamma_k(-1) < 0, +1
    # when Gamma_k(1) > 0, its root otherwise
    rng = np.random.default_rng(12)
    for _ in range(50):
        p1, p20 = rng.normal(scale=2.0, size=2)
        grid = sp.build_grid(float(rng.uniform(1.0, 5.0)),
                             float(rng.uniform(0.3, 2.0)))
        m = grid.times + grid.lengths / 2
        u = _parking_map(2.0, grid, [p1, p20])[1]
        np.testing.assert_allclose(u, _sign_rule([p1, p20], grid), rtol=0,
                                   atol=1e-13)
        lower, upper = -2.0 * -1.0 + p20 - p1 * m < 0, -2.0 + p20 - p1 * m > 0
        assert np.all(u[lower] == -1.0) and np.all(u[upper] == 1.0)
        root = ~(lower | upper)
        np.testing.assert_allclose(-2.0 * u[root] + p20 - p1 * m[root], 0.0,
                                   atol=1e-12)
        # slope -2: adding 2d to p_2(0) moves every unclamped root by d
        d = float(rng.uniform(-0.1, 0.1))
        shifted = _parking_map(2.0, grid, [p1, p20 + 2.0 * d])[1]
        both = root & (np.abs(u + d) < 1.0)
        np.testing.assert_allclose(shifted[both] - u[both], d, atol=1e-12)


def test_sign_rule_matches_generic_interval_solver():
    # the Gamma sign rule and the inner semismooth Newton agree interval by
    # interval, including on a partial final interval
    prob = pk.parking_problem(2.0, 4.0)
    for (tf, T, p) in [(4.0, 2.0, [-1.0, -2.0]), (4.0, 2.0, [0.0, 3.0]),
                       (2.5, 1.0, [-1.2, -1.3]), (2.5, 1.0, [0.4, 0.1])]:
        grid = sp.build_grid(tf, T)
        closed = _sign_rule(p, grid)
        p = np.array(p)
        q = np.array([2.0, 0.0])
        for k in range(grid.n_intervals):
            u_k, _, _ = sp.solve_interval_control(
                prob, float(grid.times[k]), float(grid.lengths[k]),
                np.concatenate([q, p]), np.array([0.0]))
            assert abs(u_k[0] - closed[k]) <= 1e-10
            onegrid = sp.build_grid(float(grid.lengths[k]), float(grid.lengths[k]))
            seg = sp.integrate_extremal_forward(prob, onegrid, u_k[None, :], q, p,
                                                -1.0)
            q = seg.final_state
            p = seg.final_adjoint


def test_parking_shooting_map_values():
    grid = sp.build_grid(4.0, 2.0)
    for p, end, atol in (([-1.0, -2.0], (0.0, 0.0), 1e-15),
                         ([0.0, 0.0], (2.0, 0.0), 0),
                         ([0.0, 3.0], (10.0, 4.0), 0)):
        np.testing.assert_allclose(_parking_map(2.0, grid, p)[0], end,
                                   rtol=0, atol=atol)


def test_shooting_map_matches_rk4_propagation():
    # the closed-form map against the integrator on a partial grid
    rng = np.random.default_rng(13)
    prob = pk.parking_problem(2.0, 3.7)
    grid = sp.build_grid(3.7, 0.8)
    for _ in range(10):
        p_init = rng.normal(size=2)
        end, u = _parking_map(2.0, grid, p_init)
        np.testing.assert_allclose(u, _sign_rule(p_init, grid), rtol=0,
                                   atol=1e-13)
        traj, _ = sp.simulate(prob, grid, u, np.array([2.0, 0.0]))
        np.testing.assert_allclose(traj.final_state, end, atol=1e-11)


# ---------------------------------------------------------------------------
# the shooting solve
# ---------------------------------------------------------------------------

def test_solve_parking_small_cases():
    solved, cert = pk.solve_parking(2.0, 4.0, 2.0)
    controls = solved.controls
    np.testing.assert_allclose(controls.values.ravel(), [-0.5, 0.5], atol=1e-7)
    # the terminal multipliers (p_1, p_2(t_f))
    np.testing.assert_allclose(solved.final_adjoint, [-1.0, 2.0], atol=1e-6)
    assert cert.passed

    solved, cert = pk.solve_parking(2.0, 3.0, 1.0)
    controls = solved.controls
    np.testing.assert_allclose(controls.values.ravel(), [-1.0, 0.0, 1.0],
                               atol=1e-7)
    assert cert.passed


def test_solve_parking_fine_grid_tracks_permanent_law():
    solved, cert = pk.solve_parking(2.0, 4.0, 0.01)
    controls = solved.controls
    assert len(controls) == 400
    assert cert.passed
    grid = sp.build_grid(4.0, 0.01)
    mids = np.asarray(grid.times) + 0.005
    dev = np.abs(controls.values[:, 0] - pk.permanent_control(2.0, 4.0, mids))
    assert np.max(dev) <= 1e-3


@pytest.mark.parametrize("T, evals", [(1.0, 2), (0.375, 3), (0.01, 4)])
def test_solve_parking_jacobian_is_exact(residual_evals, T, evals):
    # the shooting map is piecewise affine in p(0); away from its kinks
    # the map's Jacobian matches central differences of the map, and each
    # Newton step costs one map evaluation
    _, cert = pk.solve_parking(2.0, 3.0, T)
    assert cert.passed and residual_evals() == evals
    problem, grid = pk.parking_problem(2.0, 3.0), sp.build_grid(3.0, T)
    shooting = solver._shooting_map(problem, grid)
    m = grid.times + grid.lengths / 2
    h = 1e-6

    def shoot(x):
        return solver._map_residual(problem, shooting, x)[0]

    checked = 0
    for x in np.random.default_rng(41).normal(size=(40, 2)):
        # a step of h moves each unclipped control by at most h (1 + m_K-1)
        if np.min(np.abs(np.abs(0.5 * (x[1] - x[0] * m)) - 1.0)) \
                < 10 * h * (1 + m[-1]):
            continue
        fd = np.column_stack([(shoot(x + h * e) - shoot(x - h * e)) / (2 * h)
                              for e in np.eye(2)])
        _, (_, _, _, roots) = solver._map_residual(problem, shooting, x)
        J = solver._map_jacobian(problem, shooting, roots)
        np.testing.assert_allclose(J, fd, rtol=0, atol=1e-8)
        checked += bool(np.any(J))
    assert checked >= 30


def test_solve_parking_single_interval_fails():
    with pytest.raises(sp.NonConvergence):
        pk.solve_parking(2.0, 4.0, 4.0)


def test_solve_parking_rejects_bad_instance():
    with pytest.raises(ValueError, match="existence"):
        pk.solve_parking(5.0, 4.0, 1.0)


def test_solve_parking_partial_grid(monkeypatch):
    # parking is solve's case: solve_parking calls the generic solver once,
    # whose closed-form map is exact on a partial last interval
    grid = sp.build_grid(3.5, 1.0)
    generic, _ = sp.solve(pk.parking_problem(2.0, 3.5), grid,
                          initial_unknowns=pk.initial_adjoint_guess(2.0, 3.5))
    solve_calls = _count_calls(monkeypatch, solver, "solve")
    solved, cert = pk.solve_parking(2.0, 3.5, 1.0)
    controls = solved.controls
    assert cert.passed and solve_calls() == 1
    assert len(controls) == 4
    miss = sp.shooting_residual(pk.parking_problem(2.0, 3.5), grid,
                                solved.initial_adjoint)
    assert np.linalg.norm(miss) <= 1e-9
    assert np.array_equal(controls.values, generic.controls.values)


def test_solve_parking_rejects_one_interval_without_integrating(
        residual_evals, interval_integrations):
    # T > t_f leaves one interval, whose reach is 0: the reach rule rejects
    # it before any Newton step, so neither the shooting map nor an arc is
    # evaluated.  The miss bound is M / (1 + c_0) with c_0 = t_f / 2
    with pytest.raises(sp.NonConvergence, match="unreachable") as exc:
        pk.solve_parking(2.0, 3.0, 5.0)
    assert "R = 0 of K = 1 intervals" in str(exc.value)
    assert exc.value.residual_norm == pytest.approx(2.0 / 2.5, rel=1e-15)
    assert exc.value.history == []
    assert residual_evals() == 0 and interval_integrations() == 0


# ---------------------------------------------------------------------------
# sampled reach
# ---------------------------------------------------------------------------

def _rejects(M, grid):
    """The reach rule's verdict: no admissible control comes within
    NEWTON_TOL of the target."""
    reach, lam = pk.sampled_reach(grid)
    return (M - reach) / (1.0 + abs(lam)) > solver.NEWTON_TOL


def test_reach_is_a_quarter_tf_squared_on_even_uniform_grids():
    for tf in (1.0, 3.0, 4.7):
        for K in (2, 4, 6, 8, 40, 300):
            reach, _ = pk.sampled_reach(sp.build_grid(tf, tf / K))
            assert reach == pytest.approx(tf ** 2 / 4, rel=1e-12, abs=0), (tf, K)
    assert pk.sampled_reach(sp.build_grid(3.0, 5.0)) == (0.0, 1.5)


def test_reach_rule_agrees_with_newton(monkeypatch):
    # on seeded instances with K = 1..9, partial last intervals included,
    # the rule rejects exactly the instances whose Newton fails: with the
    # rule disabled, each rejected instance still fails, by the Newton
    # iteration itself, and every accepted one certifies
    rng = np.random.default_rng(25)
    instances = []
    for _ in range(300):
        tf = rng.uniform(1.0, 6.0)
        T = tf / rng.uniform(0.5, 8.5)
        instances.append((tf ** 2 / 4 * rng.uniform(0.3, 0.999), tf, T))
    rejected = [inst for inst in instances
                if _rejects(inst[0], sp.build_grid(*inst[1:]))]
    assert 40 <= len(rejected) <= 100
    for M, tf, T in instances:
        if (M, tf, T) in rejected:
            with pytest.raises(sp.NonConvergence, match="unreachable") as exc:
                pk.solve_parking(M, tf, T)
            assert exc.value.history == []
        else:
            assert pk.solve_parking(M, tf, T)[1].passed, (M, tf, T)
    monkeypatch.setattr(pk, "sampled_reach", lambda grid: (math.inf, 0.0))
    for M, tf, T in rejected:
        with pytest.raises(sp.NonConvergence) as exc:
            pk.solve_parking(M, tf, T)
        assert exc.value.history, (M, tf, T)


def test_reach_rule_agrees_with_the_qp_oracle():
    # the enumeration oracle raises Infeasible exactly where the rule
    # rejects, on K <= 8 grids with a partial last interval, for M on
    # either side of the reach and away from it, below t_f^2/4
    rng = np.random.default_rng(7)
    checked = []
    for K in range(1, 9):
        for _ in range(2):
            tf = rng.uniform(1.0, 5.0)
            T = tf / (K - 1 + rng.uniform(0.2, 0.95))
            grid = sp.build_grid(tf, T)
            assert grid.n_intervals == K
            reach, _ = pk.sampled_reach(grid)
            gap = tf ** 2 / 4 - reach
            candidates = [reach * rng.uniform(0.7, 0.99)]
            if gap > 1e-3 * reach:
                candidates.append(reach + gap * rng.uniform(0.1, 0.9))
            for M in candidates:
                if M <= 0:
                    continue
                try:
                    pk.qp_oracle(M, tf, T)
                    infeasible = False
                except sp.Infeasible:
                    infeasible = True
                assert infeasible == _rejects(M, grid), (M, tf, T)
                checked.append(infeasible)
    assert checked.count(True) >= 8 and checked.count(False) >= 8


@pytest.mark.parametrize("tf, T", [(3.0, 1.0), (3.0, 1.2), (4.0, 0.8),
                                   (3.0, 0.7)])
def test_reach_margin(residual_evals, tf, T):
    # within 1e-12 of the reach Newton still runs and certifies; 1e-9 past
    # it the target is rejected before the first map evaluation
    reach, _ = pk.sampled_reach(sp.build_grid(tf, T))
    for rel in (-1e-12, 1e-12):
        assert pk.solve_parking(reach * (1 + rel), tf, T)[1].passed, rel
    before = residual_evals()
    with pytest.raises(sp.NonConvergence, match="unreachable"):
        pk.solve_parking(reach * (1 + 1e-9), tf, T)
    assert residual_evals() == before


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


def test_qp_oracle_interior_optimum_is_affine_in_midpoints():
    # with no bound active the optimum meets the unconstrained stationarity
    # condition u_k = mu_0 + mu_1 c_k and both terminal constraints
    grid = sp.build_grid(4.0, 1.0)
    u = pk.qp_oracle(2.0, 4.0, 1.0).values[:, 0]
    assert np.max(np.abs(u)) < 1.0
    d = np.asarray(grid.lengths)
    c = 4.0 - np.asarray(grid.times) - d / 2
    A = np.column_stack([np.ones_like(c), c])
    coef, *_ = np.linalg.lstsq(A, u, rcond=None)
    assert np.max(np.abs(A @ coef - u)) <= 1e-12
    assert abs(np.sum(d * u)) <= 1e-12
    assert abs(2.0 + np.sum(d * u * c)) <= 1e-12


def test_qp_oracle_infeasible():
    with pytest.raises(sp.Infeasible):
        pk.qp_oracle(5.0, 4.0, 2.0)


def test_qp_oracle_enumeration_bound():
    with pytest.raises(ValueError, match="K <= 12"):
        pk.qp_oracle(2.0, 13.0, 1.0)


def test_qp_oracle_agrees_on_partial_grids():
    # the oracle's matrices come from the grid, so it checks the shooting on
    # a partial last interval too
    for (tf, T) in [(3.0, 0.7), (4.0, 1.3), (5.0, 0.9)]:
        grid = sp.build_grid(tf, T)
        assert grid.lengths[-1] < T
        solved, cert = pk.solve_parking(2.0, tf, T)
        assert cert.passed
        u_qp = pk.qp_oracle(2.0, tf, T).values
        assert np.max(np.abs(solved.controls.values - u_qp)) <= 1e-9, (tf, T)
    ext, cert = sp.solve(pk.parking_problem(2.0, 5.0), grid,
                         initial_unknowns=pk.initial_adjoint_guess(2.0, 5.0))
    assert cert.passed
    assert np.max(np.abs(ext.controls.values - u_qp)) <= 1e-9
    # K = 3 with a 0.6 tail cannot park from 2 in 3: both sides reject it
    with pytest.raises(sp.Infeasible):
        pk.qp_oracle(2.0, 3.0, 1.2)
    with pytest.raises(sp.NonConvergence):
        pk.solve_parking(2.0, 3.0, 1.2)


def test_grid_and_oracle_share_one_snap_rule():
    # t/T within GRID_SNAP of 4: four full intervals; further off, the last
    # interval is partial.  The oracle solves on that grid either way.
    for rel, full in ((1e-10, True), (5e-10, False), (1e-6, False)):
        T = 0.75 * (1 + rel)
        grid = sp.build_grid(3.0, T)
        assert grid.n_intervals == 4
        assert np.all(grid.lengths == T) == full
        assert len(pk.qp_oracle(2.0, 3.0, T)) == 4


def test_oracle_equivalence_sweep():
    # solver controls match the enumeration oracle on the full instance grid
    for tf in (3.0, 3.2, 4.0, 5.0):
        for K in range(2, 9):
            T = tf / K
            grid = sp.build_grid(tf, T)
            solved, cert = pk.solve_parking(2.0, tf, T)
            u_solve = solved.controls
            u_qp = pk.qp_oracle(2.0, tf, T)
            assert cert.passed, (tf, K)
            assert np.max(np.abs(u_solve.values - u_qp.values)) <= 1e-7, (tf, K)
            assert abs(pk.sampled_cost(grid, u_solve)
                       - pk.sampled_cost(grid, u_qp)) <= 1e-8, (tf, K)


def test_generic_path_consistency(residual_evals, interval_integrations,
                                  walk_solve):
    # solve_parking, which solve serves by the closed-form map, and the
    # interval walk agree on the oracle-equivalence instances, in their
    # controls and in their one kind of solved unknowns, p(0); and the walk
    # by the lq matrices agrees with its callback twin (slowest test in the
    # suite)
    work = {}
    for tf in (3.0, 3.2, 4.0, 5.0):
        for K in range(2, 9):
            T = tf / K
            fast_stats, stats = {}, {}
            before = residual_evals(), interval_integrations()
            solved, cert = pk.solve_parking(2.0, tf, T, stats=fast_stats)
            work[tf, K] = (residual_evals() - before[0],
                           interval_integrations() - before[1])
            u_fast = solved.controls
            assert cert.passed, (tf, K)
            assert fast_stats["unknowns"] == solved.initial_adjoint.tolist()
            prob = pk.parking_problem(2.0, tf)
            grid = sp.build_grid(tf, T)
            guess = pk.initial_adjoint_guess(2.0, tf)
            ext, cert = walk_solve(prob, grid, initial_unknowns=guess,
                                   stats=stats)
            assert cert.passed, (tf, K)
            assert np.max(np.abs(u_fast.values - ext.controls.values)) <= 1e-10, \
                (tf, K)
            np.testing.assert_allclose(fast_stats["unknowns"],
                                       stats["unknowns"], rtol=0, atol=1e-12,
                                       err_msg=str((tf, K)))
            twin, twin_cert = sp.solve(dataclasses.replace(prob, lq=None),
                                       grid, initial_unknowns=guess)
            assert twin_cert.passed, (tf, K)
            assert np.max(np.abs(twin.controls.values
                                 - ext.controls.values)) <= 1e-10, (tf, K)
    # the map's work, in residual evaluations and interval integrations:
    # (3, 8) is the parking member of the benchmark's generic-shoot batch.
    # Only the converged iterate's arcs are integrated, once
    assert work[3.0, 8] == (3, 8)
    assert work[4.0, 8] == (2, 8)


def test_generic_solve_matches_sign_rule_on_fine_grids(walk_solve):
    # beyond the consistency instances: the map's solve gives the sign
    # rule's controls of its p(0), and the interval walk lands on them to
    # rounding at K = 12, 40 and 300
    for K in (12, 40, 300):
        grid = sp.build_grid(3.0, 3.0 / K)
        solved, _ = pk.solve_parking(2.0, 3.0, 3.0 / K)
        np.testing.assert_allclose(
            solved.controls.values[:, 0],
            _sign_rule(solved.initial_adjoint, grid), rtol=0, atol=1e-13)
        ext, cert = walk_solve(pk.parking_problem(2.0, 3.0), grid,
                               initial_unknowns=pk.initial_adjoint_guess(2.0,
                                                                         3.0))
        assert cert.passed, K
        assert np.max(np.abs(ext.controls.values
                             - solved.controls.values)) <= 1e-10, K


# ---------------------------------------------------------------------------
# structure of solved solutions
# ---------------------------------------------------------------------------

def test_unsaturated_controls_are_affine_in_midpoint_coefficient():
    for (M, tf, T) in [(2.0, 4.0, 1.0), (2.0, 3.0, 0.5), (2.0, 5.0, 1.25)]:
        solved, _ = pk.solve_parking(M, tf, T)
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
    rows3 = [pk.sweep_row(2.0, 3.0, T) for T in (1.0, 0.5, 0.1, 0.01)]
    rows4 = [pk.sweep_row(2.0, 4.0, T) for T in (1.0, 0.5, 0.1, 0.01)]
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


def test_sweep_row_reports_the_certified_terminal_miss(monkeypatch):
    # terminal_residual is the certificate's feasibility, bit for bit: the
    # miss of the extremal it judged, not of the shooting map.  Moving the
    # last state node by 5e-9, which still passes at DEFAULT_TOL = 1e-8,
    # moves the column with it
    for T in (1.0, 0.1, 0.007):
        _, cert = pk.solve_parking(2.0, 3.0, T)
        assert pk.sweep_row(2.0, 3.0, T).terminal_residual == cert.feasibility
    integrate = solver.integrate_extremal_forward

    def nudged(*args):
        extremal = integrate(*args)
        states = extremal.states.copy()
        states[-1, -1, 0] += 5e-9
        return dataclasses.replace(extremal, states=states)

    # solve_parking's extremal is solve's one integration
    monkeypatch.setattr(solver, "integrate_extremal_forward", nudged)
    _, cert = pk.solve_parking(2.0, 3.0, 0.5)
    row = pk.sweep_row(2.0, 3.0, 0.5)
    assert cert.passed and row.status == "ok"
    assert row.terminal_residual == cert.feasibility
    assert row.terminal_residual == pytest.approx(5e-9, rel=1e-6)


def test_sweep_row_evaluates_the_map_only_in_its_solve(residual_evals):
    for T in (1.0, 0.1, 0.007):
        before = residual_evals()
        pk.solve_parking(2.0, 3.0, T)
        solve_calls = residual_evals() - before
        before = residual_evals()
        pk.sweep_row(2.0, 3.0, T)
        assert residual_evals() - before == solve_calls > 0


def test_sweep_row_reports_failure():
    row = pk.sweep_row(2.0, 3.0, 5.0)
    assert row.status == "failed"
    assert row.error
    assert isinstance(row.cause, sp.NonConvergence)
    assert math.isnan(row.sup_dev)
    assert row.controls is None


def test_sweep_row_reports_blow_up_as_a_failed_row():
    # finite but huge: the start (1e150, 0) breaks the blow-up rule at t = 0,
    # before any Newton step, and the row keeps the IntegrationBlowUp
    row = pk.sweep_row(1e150, 1e100, 1e99)
    assert row.status == "failed" and row.K == 10
    assert isinstance(row.cause, sp.IntegrationBlowUp)
    assert "t=0" in row.error and row.controls is None


def test_sweep_row_reports_failing_certificate(failing_certificate):
    failing_certificate(solver)
    row = pk.sweep_row(2.0, 3.0, 0.5)
    assert row.status == "failed"
    assert "forced failure" in row.error
    assert isinstance(row.cause, sp.Certificate) and not row.cause.passed
    assert row.controls is None
