"""Sample-and-hold integration, adjoint arcs, quadrature, CSV export."""

import dataclasses
import warnings

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp.parking import parking_problem
from sampled_pmp.simulate import _extremal_interval, _lq_maps, _lq_nodes

from conftest import FREE_END, double_integrator, scalar_lti

PARKING = parking_problem(2.0, 4.0)
Q0 = np.array([2.0, 0.0])


def _oscillator():
    return sp.lti_problem(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [0.0]]),
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedEndpoints(q0=np.array([1.0, 0.0]), qf=np.zeros(2)),
        final_time=sp.FixedTime(2 * np.pi))


# ---------------------------------------------------------------------------
# single-interval integration
# ---------------------------------------------------------------------------

def test_interval_double_integrator_is_exact():
    # polynomial flow: RK4 reproduces it to roundoff
    traj, _ = sp.simulate(PARKING, sp.build_grid(1.0, 1.0), [[1.0]],
                          np.zeros(2))
    np.testing.assert_allclose(traj.final_state, [0.5, 1.0], rtol=0,
                               atol=1e-15)

    traj, _ = sp.simulate(PARKING, sp.build_grid(0.5, 0.5), [[0.0]],
                          np.array([1.0, 2.0]))
    np.testing.assert_allclose(traj.final_state, [2.0, 2.0], rtol=0,
                               atol=1e-15)


def test_interval_oscillator_accuracy():
    # oracle: analytic rotation; measured RK4 error at 16 steps is 1.22e-6
    traj, _ = sp.simulate(_oscillator(), sp.build_grid(np.pi / 2, np.pi / 2),
                          [[0.0]], np.array([1.0, 0.0]))
    assert np.linalg.norm(traj.final_state - np.array([0.0, -1.0])) <= 2e-6
    # two intervals of 16 steps each: 32 steps over the same quarter turn
    traj, _ = sp.simulate(_oscillator(), sp.build_grid(np.pi / 2, np.pi / 4),
                          np.zeros((2, 1)), np.array([1.0, 0.0]))
    assert np.linalg.norm(traj.final_state - np.array([0.0, -1.0])) <= 1e-6


def test_interval_argument_validation():
    # the public way in is the interval control solve
    for prob in (PARKING, dataclasses.replace(PARKING, lq=None)):
        with pytest.raises(ValueError, match="interval length"):
            _extremal_interval(prob, 0.0, -1.0, np.zeros(4), np.array([0.0]),
                               -1.0)
        with pytest.raises(ValueError, match="interval length"):
            sp.solve_interval_control(prob, 0.0, 0.0, Q0, np.zeros(2), -1.0,
                                      np.array([0.0]))


def _blowup_problem():
    """dq/dt = 40 q at zero cost, with broadcasting callbacks."""
    return sp.ProblemDefinition(
        n=1, m=1, f=lambda t, q, u: 40.0 * q,
        f_q=lambda t, q, u: np.array([[40.0]]),
        f_u=lambda t, q, u: np.array([[0.0]]),
        f0=lambda t, q, u: np.zeros(q.shape[:-1]),
        f0_q=lambda t, q, u: np.zeros_like(q),
        f0_u=lambda t, q, u: np.zeros_like(u),
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedEndpoints(q0=np.ones(1), qf=np.zeros(1)),
        final_time=sp.FixedTime(1.0))


def test_blowup_raises_structured_error():
    with pytest.raises(sp.IntegrationBlowUp) as exc:
        sp.simulate(_blowup_problem(), sp.build_grid(1.0, 1.0),
                    np.zeros((1, 1)), np.array([1.0]))
    assert 0.0 < exc.value.time <= 1.0


def _outcomes_agree(integrate, problem):
    # both raise IntegrationBlowUp at the same time, or neither raises and
    # the values agree; returns the blow-up time or None
    got = []
    for P in (problem, dataclasses.replace(problem, lq=None)):
        try:
            got.append(integrate(P))
        except sp.IntegrationBlowUp as exc:
            got.append(exc.time)
    if isinstance(got[1], float):
        assert got[0] == got[1]
        return got[1]
    np.testing.assert_allclose(got[0], got[1], rtol=1e-13, atol=0)
    return None


@pytest.mark.parametrize("a, delta, z", [
    (40.0, 1.0, [1.0, 0.5]), (-40.0, 1.0, [0.0, 1.0]),
    (40.0, 0.3, [1.0, 0.5]),
    (40.0, 1e5, [1.0, 0.0]), (40.0, 1e5, [0.0, 0.0]),
], ids=["state", "adjoint", "middle-interval", "overflowing-maps",
        "overflowing-maps-at-rest"])
def test_lq_matrices_blow_up_where_the_callbacks_do(a, delta, z):
    # the first node past BLOWUP_NORM raises at its time on both paths, for
    # one interval, for the public interval solver's arc, for a whole grid
    # of intervals of length delta with a partial last one, and for the
    # shooting propagation; at delta = 1e5 the RK4 maps themselves
    # overflow, and an arc at rest must still integrate (to zeros), not
    # blow up.  The zero-adjoint p0 = 0 cases are the arcs ``simulate``
    # integrates
    prob = sp.lti_problem(
        np.array([[a]]), np.array([[1.0]]), np.array([[0.5]]),
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedEndpoints(q0=np.ones(1), qf=np.zeros(1)),
        final_time=sp.FixedTime(3.5 * delta))
    z, u = np.array(z), np.zeros(1)

    def one_interval(P, z, p0):
        # the maps' one-row product against the callbacks; where the maps
        # overflow, a one-interval walk, which must take the callbacks
        maps = _lq_maps(prob.lq, delta, p0)
        if maps is None:
            ext = sp.integrate_extremal_forward(
                P, sp.build_grid(delta, delta), u[None], z[:1], z[1:], p0)
            return np.concatenate([ext.states, ext.adjoints], axis=-1)[0]
        if P.lq is None:
            return _extremal_interval(P, 0.25, delta, z, u, p0)[1]
        return _lq_nodes(maps, [0.25], delta, z[None], u[None])[0]

    for p0 in (-1.0, -0.5):
        _outcomes_agree(lambda P: one_interval(P, z, p0), prob)
    _outcomes_agree(lambda P: one_interval(P, np.array([z[0], 0.0]), 0.0),
                    prob)
    _outcomes_agree(lambda P: sp.solve_interval_control(
        P, 0.25, delta, z[:1], z[1:], -1.0, u)[1], prob)
    grid = sp.build_grid(3.5 * delta, delta)
    ctrl = np.zeros((grid.n_intervals, 1))
    for p0, p_init in ((-1.0, z[1:]), (0.0, np.zeros(1))):
        t = _outcomes_agree(lambda P: sp.integrate_extremal_forward(
            P, grid, ctrl, z[:1], p_init, p0).states, prob)
    t_shoot = _outcomes_agree(
        lambda P: sp.shooting_residual(P, grid, z[1:]), prob)
    if delta == 0.3:
        # the state passes BLOWUP_NORM at the sixth node of interval 2 of 4,
        # as it did when each interval was integrated and judged alone
        assert t == t_shoot == 0.6 + 5 * 0.3 / 16


def test_shooting_judges_an_overflowing_end_node_without_warnings():
    # on intervals of length 1e5 the first end node is finite and about
    # 1e202, so its squared norm overflows; the blow-up rule must read that
    # as blown (the suite turns warnings into errors) and raise at the first
    # blown node's time
    prob = scalar_lti(0.5, 1e-3, 3e5)
    grid = sp.build_grid(3e5, 1e5)
    for shoot in (lambda: sp.shooting_residual(prob, grid, np.zeros(1)),
                  lambda: sp.solve(prob, grid)):
        with pytest.raises(sp.IntegrationBlowUp) as exc:
            shoot()
        assert exc.value.time == 6250.0


def test_shooting_judges_an_overflowing_lq_end_node_product():
    # at T = 3.4e6 the lq maps are finite (Phi_end about 4e299), but with
    # p(0) = 1e10 the inner solve's end node Phi_end z + Gamma_end u
    # overflows: the blow-up rule must judge it, with no warning
    T = 3.4e6
    prob = scalar_lti(0.5, 1e-3, 3 * T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(sp.IntegrationBlowUp) as exc:
            sp.shooting_residual(prob, sp.build_grid(3 * T, T),
                                 np.array([1e10]))
    assert exc.value.time == 212500.0


def test_shooting_integrates_every_arc_when_one_length_has_no_lq_maps():
    # on a hand-built grid only the long interval's maps overflow: the
    # short interval's lq end node alone would leave its blown nodes
    # unjudged (the state passes BLOWUP_NORM at its 13th node) until the
    # long interval's.  The shooting propagation and the re-integration of
    # the grid both judge the short interval's nodes first
    grid = sp.SamplingGrid(period=1e5, t_f=1e5 + 0.3,
                           times=np.array([0.0, 0.3]),
                           lengths=np.array([0.3, 1e5]))
    prob = scalar_lti(40.0, 1e8, 1e5 + 0.3)
    for integrate in (
            lambda P: sp.shooting_residual(P, grid, np.zeros(1)),
            lambda P: sp.integrate_extremal_forward(
                P, grid, np.zeros((2, 1)), P.initial_state(), np.zeros(1),
                -1.0).states):
        t = _outcomes_agree(integrate, prob)
        assert t == pytest.approx(13 * 0.3 / 16, rel=1e-12)


@pytest.mark.parametrize("lengths", [(1e5, 0.3, 0.3, 0.3),
                                     (0.3, 0.3, 0.3, 1e5)],
                         ids=["callbacks-first", "maps-first"])
def test_walk_mixes_runs_with_and_without_lq_maps(lengths):
    # only the long interval's maps overflow, so the walk integrates that
    # run on the callbacks and evaluates the short run's nodes from its
    # maps, in time order either way: the nodes match the callback twin's,
    # and each boundary node is one value.  q1 stays at rest, so nothing
    # blows up on the long interval
    prob = sp.lti_problem(
        np.diag([40.0, 0.0]), np.array([[0.0], [1.0]]), np.diag([0.0, 0.5]),
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedEndpoints(q0=np.array([0.0, 1.0]), qf=np.zeros(2)),
        final_time=sp.FixedTime(sum(lengths)))
    lengths = np.array(lengths)
    grid = sp.SamplingGrid(period=lengths.max(), t_f=float(lengths.sum()),
                           times=np.concatenate([[0.0],
                                                 np.cumsum(lengths)[:-1]]),
                           lengths=lengths)
    assert [_lq_maps(prob.lq, float(d), -1.0) is None
            for d in lengths] == list(lengths == 1e5)
    ctrl = np.array([[0.3], [-0.2], [0.5], [0.1]])
    for p_init, p0 in (([0.0, 0.7], -1.0), ([0.0, 0.0], 0.0)):
        got, want = (sp.integrate_extremal_forward(
            P, grid, ctrl, prob.initial_state(), np.array(p_init), p0)
            for P in (prob, dataclasses.replace(prob, lq=None)))
        for a, b in ((got.states, want.states),
                     (got.adjoints, want.adjoints)):
            assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))
            assert np.array_equal(a[:-1, -1], a[1:, 0])


# ---------------------------------------------------------------------------
# full simulation
# ---------------------------------------------------------------------------

def test_simulate_parks_exactly():
    grid = sp.build_grid(4.0, 2.0)
    traj, cost = sp.simulate(PARKING, grid, np.array([[-0.5], [0.5]]), Q0)
    np.testing.assert_allclose(traj.final_state, [0.0, 0.0], atol=1e-12)
    assert cost == pytest.approx(1.0, abs=1e-13)


def test_simulate_zero_controls():
    grid = sp.build_grid(4.0, 2.0)
    traj, cost = sp.simulate(PARKING, grid, np.zeros((2, 1)), Q0)
    np.testing.assert_allclose(traj.final_state, [2.0, 0.0], atol=0)
    assert cost == 0.0


def test_simulate_single_interval_constant_acceleration():
    grid = sp.build_grid(1.0, 1.0)
    traj, cost = sp.simulate(PARKING, grid, np.array([[-1.0]]), Q0)
    np.testing.assert_allclose(traj.final_state, [1.5, -1.0], atol=1e-14)
    assert cost == pytest.approx(1.0, abs=1e-14)


def test_simulate_input_validation():
    grid = sp.build_grid(4.0, 2.0)
    with pytest.raises(ValueError, match="intervals"):
        sp.simulate(PARKING, grid, np.array([[0.1]]), Q0)
    with pytest.raises(ValueError, match="control set"):
        sp.simulate(PARKING, grid, np.array([[1.5], [0.0]]), Q0)
    # two components for m = 1, on the matrix path and the callback path
    wide = np.array([[0.1, 0.5], [0.2, 0.7]])
    for prob in (PARKING, dataclasses.replace(PARKING, lq=None)):
        with pytest.raises(ValueError, match="m = 1"):
            sp.simulate(prob, grid, wide, Q0)
        with pytest.raises(ValueError, match="m = 1"):
            sp.integrate_extremal_forward(prob, grid, wide, Q0, np.zeros(2),
                                          -1.0)


@pytest.mark.parametrize("bad", [[2.0, 0.0, 5.0], [np.nan, 0.0],
                                 [0.0, np.inf], [[2.0, 0.0]]],
                         ids=["long", "nan", "inf", "matrix"])
def test_starting_data_is_validated(bad):
    # a wrong-shape or non-finite q0 or p_init is bad input, named in the
    # message, on the matrix path and the callback path alike; so is a
    # non-finite control, before anything is integrated (no warning)
    grid = sp.build_grid(4.0, 2.0)
    ctrl = np.zeros((2, 1))
    for prob in (PARKING, dataclasses.replace(PARKING, lq=None)):
        if not np.all(np.isfinite(bad)):
            bad_ctrl = np.array(bad).reshape(2, 1)
            with pytest.raises(ValueError, match="^control values must be "
                                                 "finite, row"):
                sp.integrate_extremal_forward(prob, grid, bad_ctrl, Q0,
                                              np.zeros(2), -1.0)
            with pytest.raises(ValueError, match="^control values must be "
                                                 "finite, row"):
                sp.simulate(prob, grid, bad_ctrl, Q0)
        with pytest.raises(ValueError, match="^q0 must be"):
            sp.simulate(prob, grid, ctrl, np.array(bad))
        with pytest.raises(ValueError, match="^q0 must be"):
            sp.integrate_extremal_forward(prob, grid, ctrl, np.array(bad),
                                          np.zeros(2), -1.0)
        with pytest.raises(ValueError, match="^p_init must be"):
            sp.integrate_extremal_forward(prob, grid, ctrl, Q0, np.array(bad),
                                          -1.0)


# ---------------------------------------------------------------------------
# coupled extremal integration
# ---------------------------------------------------------------------------

def _random_lti(rng):
    """Random LTI problem (n <= 5, m <= 2, mixed-sign Q), grid and controls."""
    n, m = int(rng.integers(1, 6)), int(rng.integers(1, 3))
    S = rng.normal(size=(n, n))
    L = rng.normal(size=(m, m))
    prob = sp.lti_problem(
        rng.normal(size=(n, n)), rng.normal(size=(n, m)), 0.5 * (S + S.T),
        L @ L.T + 0.1 * np.eye(m),
        control_set=sp.Box(lower=-np.ones(m), upper=np.ones(m)),
        terminal=sp.FixedEndpoints(q0=np.zeros(n), qf=np.zeros(n)),
        final_time=sp.FixedTime(1.0))
    grid = sp.build_grid(float(rng.uniform(0.5, 2.0)),
                         float(rng.uniform(0.2, 0.8)))
    ctrl = rng.uniform(-1.0, 1.0, size=(grid.n_intervals, m))
    return prob, grid, ctrl, rng.normal(size=n), rng.normal(size=n)


def test_batched_lq_nodes_match_the_callbacks():
    # the lq path advances the interval ends, then evaluates each interval
    # length's nodes in one product: on random problems and grids with a
    # partial last interval it matches the callback twin (5.2e-14 relative
    # at worst over 60 draws), and each boundary node is one value
    rng = np.random.default_rng(2023)
    for _ in range(30):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        S = rng.normal(size=(n, n))
        prob = sp.lti_problem(
            rng.normal(size=(n, n)), rng.normal(size=(n, m)), 0.5 * (S + S.T),
            np.eye(m), control_set=sp.Box(lower=-np.ones(m), upper=np.ones(m)),
            terminal=sp.FixedEndpoints(q0=np.zeros(n), qf=np.zeros(n)),
            final_time=sp.FixedTime(1.0))
        T = float(rng.uniform(0.1, 0.4))
        grid = sp.build_grid((int(rng.integers(3, 12)) + 0.5) * T, T)
        assert grid.lengths[-1] < T
        ctrl = rng.uniform(-1.0, 1.0, size=(grid.n_intervals, m))
        q0, p_init = rng.normal(size=n), rng.normal(size=n)
        for p0 in (0.0, -1.0):
            got, want = (sp.integrate_extremal_forward(P, grid, ctrl, q0,
                                                       p_init, p0)
                         for P in (prob, dataclasses.replace(prob, lq=None)))
            assert np.array_equal(got.times, want.times)
            for a, b in ((got.states, want.states),
                         (got.adjoints, want.adjoints)):
                assert np.max(np.abs(a - b)) <= 2e-13 * np.max(np.abs(b))
                assert np.array_equal(a[:-1, -1], a[1:, 0])


def test_extremal_state_matches_simulate_bitwise():
    # simulate is the state block of the coupled integration: the states and
    # the cost do not depend on p(0) or p0, bit for bit, on both paths
    rng = np.random.default_rng(14)
    cases = [(PARKING, sp.build_grid(4.0, 2.0), np.array([[-0.5], [0.5]]),
              Q0, np.array([-1.0, -2.0]))]
    cases += [_random_lti(rng) for _ in range(40)]
    for prob, grid, ctrl, q0, p_init in cases:
        for P in (prob, dataclasses.replace(prob, lq=None)):
            traj, cost = sp.simulate(P, grid, ctrl, q0)
            ext = sp.integrate_extremal_forward(P, grid, ctrl, q0, p_init,
                                                -1.0)
            assert np.array_equal(traj.states, ext.states)
            assert sp.running_cost(P, ext) == cost


def test_callback_simulate_skips_the_zero_adjoint_rhs(monkeypatch):
    # from p = 0 with p0 = 0 the adjoint right-hand side is exactly zero:
    # the callback path evaluates no -dH/dq, and its states equal bit for bit
    # those of an integration that does (the states never read the adjoint)
    calls = 0
    hamiltonian_q = sp.ProblemDefinition.hamiltonian_q

    def counted(*args):
        nonlocal calls
        calls += 1
        return hamiltonian_q(*args)

    monkeypatch.setattr(sp.ProblemDefinition, "hamiltonian_q", counted)
    rng = np.random.default_rng(15)
    twin = dataclasses.replace(PARKING, lq=None)
    cases = [(twin, sp.build_grid(4.0, 0.5), rng.uniform(-1, 1, (8, 1)), Q0)]
    for _ in range(10):
        prob, grid, ctrl, q0, _ = _random_lti(rng)
        cases.append((dataclasses.replace(prob, lq=None), grid, ctrl, q0))
    for prob, grid, ctrl, q0 in cases:
        calls = 0
        traj, _ = sp.simulate(prob, grid, ctrl, q0)
        assert calls == 0
        assert not np.any(traj.adjoints)
        ref = sp.integrate_extremal_forward(prob, grid, ctrl, q0,
                                            np.zeros(prob.n), -1.0)
        assert calls == 4 * 16 * grid.n_intervals
        assert np.array_equal(traj.states, ref.states)


def test_extremal_adjoint_values():
    grid = sp.build_grid(4.0, 2.0)
    ctrl = np.array([[-0.5], [0.5]])
    # p(0) = (-1, -2) corresponds to p1 = -1, p2(t_f) = 2: p2 crosses 0 at t=2
    ext = sp.integrate_extremal_forward(PARKING, grid, ctrl, Q0,
                                        np.array([-1.0, -2.0]), -1.0)
    p_mid = ext.adjoints[0, -1]     # node at t = 2
    assert p_mid[1] == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(ext.final_adjoint, [-1.0, 2.0], atol=1e-12)

    # p1 = 0 freezes the whole adjoint
    ext = sp.integrate_extremal_forward(PARKING, grid, ctrl, Q0,
                                        np.array([0.0, 3.0]), -1.0)
    np.testing.assert_allclose(
        ext.adjoints, np.broadcast_to([0.0, 3.0], ext.adjoints.shape), atol=0)

    # p(0) = (1, 0): slope of p2 is -p1 = -1
    ext = sp.integrate_extremal_forward(PARKING, grid, ctrl, Q0,
                                        np.array([1.0, 0.0]), -1.0)
    np.testing.assert_allclose(ext.adjoints[:, :, 1], -ext.times, atol=1e-12)


def test_continuity_across_interval_boundaries():
    grid = sp.build_grid(3.0, 0.7)
    rng = np.random.default_rng(6)
    ctrl = rng.uniform(-1, 1, size=(grid.n_intervals, 1))
    ext = sp.integrate_extremal_forward(PARKING, grid, ctrl, Q0,
                                        np.array([0.3, -0.4]), -1.0)
    for k in range(grid.n_intervals - 1):
        dq = np.abs(ext.states[k, -1] - ext.states[k + 1, 0])
        dp = np.abs(ext.adjoints[k, -1] - ext.adjoints[k + 1, 0])
        dt = abs(ext.times[k, -1] - ext.times[k + 1, 0])
        assert np.max(dq) <= 1e-12 and np.max(dp) <= 1e-12 and dt <= 1e-12


def test_parking_adjoint_structure():
    # p1 constant, p2 affine with slope -p1, on every node
    grid = sp.build_grid(4.0, 0.5)
    rng = np.random.default_rng(7)
    ctrl = rng.uniform(-1, 1, size=(grid.n_intervals, 1))
    p0v = np.array([-0.8, 1.7])
    ext = sp.integrate_extremal_forward(PARKING, grid, ctrl, Q0, p0v, -1.0)
    all_t = ext.times.ravel()
    all_p = ext.adjoints.reshape(-1, 2)
    assert np.max(np.abs(all_p[:, 0] - p0v[0])) <= 1e-12
    expected_p2 = p0v[1] - p0v[0] * all_t
    assert np.max(np.abs(all_p[:, 1] - expected_p2)) <= 1e-12


# ---------------------------------------------------------------------------
# interval averages
# ---------------------------------------------------------------------------

def test_average_u_gradient_closed_form():
    # Gbar_k = p_2(0) - p_1 (kT + T/2) - 2 u_k for the parking adjoint
    grid = sp.build_grid(4.0, 2.0)
    ext = sp.integrate_extremal_forward(PARKING, grid, np.array([[-0.5], [0.5]]),
                                        Q0, np.array([-1.0, -2.0]), -1.0)
    assert sp.average_u_gradient(PARKING, ext, 0)[0] == pytest.approx(0.0, abs=1e-12)
    assert sp.average_u_gradient(PARKING, ext, 1)[0] == pytest.approx(0.0, abs=1e-12)

    ext0 = sp.integrate_extremal_forward(PARKING, grid, np.array([[0.0], [0.5]]),
                                         Q0, np.array([-1.0, -2.0]), -1.0)
    assert sp.average_u_gradient(PARKING, ext0, 0)[0] == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(IndexError):
        sp.average_u_gradient(PARKING, ext0, 2)


def test_average_gradient_uses_partial_interval_length():
    # last interval of t_f=2.5, T=1 has length 0.5: average over it, not T
    grid = sp.build_grid(2.5, 1.0)
    ctrl = np.array([[0.1], [0.2], [0.3]])
    p0v = np.array([-1.0, -0.5])
    ext = sp.integrate_extremal_forward(PARKING, grid, ctrl, Q0, p0v, -1.0)
    # p2(t) = p2(0) - p1 t = -0.5 + t; mean over [2, 2.5] = 1.75
    g = sp.average_u_gradient(PARKING, ext, 2)
    assert g[0] == pytest.approx(1.75 - 2 * 0.3, abs=1e-12)

    # the cost and the mean of H on the same grid: q_1 = 1 + t at rest
    # control, running cost q_1^2, so the cost is (3.5^3 - 1)/3; from
    # p(0) = 0 the adjoint is p_1 = 2t + t^2, p_2 = -t^2 - t^3/3, and
    # H(y) = -1 + p_2 y - y^2.  The arcs are cubic, so RK4 and Simpson are
    # exact up to rounding.
    prob = sp.lti_problem(
        np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]),
        np.diag([1.0, 0.0]),
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedInitialFreeFinal(q0=np.ones(2)),
        final_time=sp.FixedTime(2.5))
    zeros = np.zeros((3, 1))
    _, cost = sp.simulate(prob, grid, zeros, np.ones(2))
    assert cost == pytest.approx((3.5 ** 3 - 1.0) / 3.0, rel=1e-14, abs=0)
    ext = sp.integrate_extremal_forward(prob, grid, zeros, np.ones(2),
                                        np.zeros(2), -1.0)
    p2_mean = -((2.5 ** 3 - 2.0 ** 3) / 3.0 + (2.5 ** 4 - 2.0 ** 4) / 12.0) / 0.5
    h_mean = sp.average_hamiltonian(prob, ext, 2, np.array([1.0]))
    assert h_mean == pytest.approx(-2.0 + p2_mean, rel=1e-14, abs=0)


def test_adjoint_gradient_identity():
    # free final point forces p(t_f) = 0; then dcost/du_k = -Delta_k Gbar_k
    prob = double_integrator(FREE_END, sp.FixedTime(3.0),
                             position_weight=1.0)
    grid = sp.build_grid(3.0, 0.6)
    rng = np.random.default_rng(7)
    ctrl = rng.uniform(-0.9, 0.9, size=(grid.n_intervals, 1))
    q0 = np.array([2.0, 0.0])
    p_init = sp.match_terminal_adjoint(prob, grid, ctrl, q0, np.zeros(2), -1.0)
    ext = sp.integrate_extremal_forward(prob, grid, ctrl, q0, p_init, -1.0)
    assert np.linalg.norm(ext.final_adjoint) <= 1e-12
    h = 1e-5
    for k in range(grid.n_intervals):
        gbar = sp.average_u_gradient(prob, ext, k)
        up, um = ctrl.copy(), ctrl.copy()
        up[k, 0] += h
        um[k, 0] -= h
        _, cp = sp.simulate(prob, grid, up, q0)
        _, cm = sp.simulate(prob, grid, um, q0)
        fd = (cp - cm) / (2 * h)
        pred = -grid.lengths[k] * gbar[0]
        assert abs(fd - pred) <= 1e-6 * abs(fd)


def test_rk4_fourth_order_convergence():
    # halving every interval halves the RK4 step
    prob = _oscillator()
    exact = np.array([0.0, -1.0])
    errs = []
    for k in (1, 2, 4, 8):
        traj, _ = sp.simulate(prob, sp.build_grid(np.pi / 2, np.pi / 2 / k),
                              np.zeros((k, 1)), np.array([1.0, 0.0]))
        errs.append(np.linalg.norm(traj.final_state - exact))
    for a, b in zip(errs, errs[1:]):
        assert 14.0 <= a / b <= 18.0


def test_average_hamiltonian_concave_maximum():
    grid = sp.build_grid(4.0, 2.0)
    ext = sp.integrate_extremal_forward(PARKING, grid, np.array([[-0.5], [0.5]]),
                                        Q0, np.array([-1.0, -2.0]), -1.0)
    # H average is strictly concave in y; the certified control maximizes it
    ys = np.linspace(-1, 1, 201)
    for k in range(2):
        vals = np.array([sp.average_hamiltonian(PARKING, ext, k, np.array([y]))
                         for y in ys])
        at_u = sp.average_hamiltonian(PARKING, ext, k, ext.controls[k])
        assert at_u >= np.max(vals) - 1e-10


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def test_trajectory_csv_format(tmp_path):
    grid = sp.build_grid(4.0, 2.0)
    ext = sp.integrate_extremal_forward(PARKING, grid, np.array([[-0.5], [0.5]]),
                                        Q0, np.array([-1.0, -2.0]), -1.0)
    path = tmp_path / "traj.csv"
    sp.write_trajectory_csv(ext, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,q_1,q_2,p_1,p_2,k,u_1"
    assert len(lines) == 1 + 2 * 17          # two intervals, 16 steps each
    first = lines[1].split(",")
    assert first[0] == "%.12e" % 0.0
    assert first[5] == "0"
    # deterministic: a second write is byte-identical
    path2 = tmp_path / "traj2.csv"
    sp.write_trajectory_csv(ext, path2)
    assert path.read_bytes() == path2.read_bytes()


def _per_cell_trajectory_csv(ext):
    """The trajectory CSV written cell by cell, the reference for the
    writer's one format string per row."""
    _, _, n = ext.states.shape
    m = ext.controls.m
    lines = [",".join(["t"] + [f"q_{i+1}" for i in range(n)]
                      + [f"p_{i+1}" for i in range(n)] + ["k"]
                      + [f"u_{i+1}" for i in range(m)])]
    for k in range(ext.grid.n_intervals):
        for i in range(ext.times.shape[1]):
            cells = ["%.12e" % ext.times[k, i]]
            cells += ["%.12e" % v for v in ext.states[k, i]]
            cells += ["%.12e" % v for v in ext.adjoints[k, i]]
            cells.append(str(k))
            cells += ["%.12e" % v for v in ext.controls[k]]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _planar_ball_extremal(rng):
    # n = 4, m = 2: a planar double integrator with controls in the unit disc
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = 1.0
    B = np.zeros((4, 2))
    B[2, 0] = B[3, 1] = 1.0
    prob = sp.lti_problem(
        A, B, control_set=sp.Ball(center=np.zeros(2), radius=1.0),
        terminal=sp.FixedEndpoints(q0=np.zeros(4), qf=np.zeros(4)),
        final_time=sp.FixedTime(3.0))
    grid = sp.build_grid(3.0, 0.375)
    angles = rng.uniform(0.0, 2 * np.pi, size=grid.n_intervals)
    ctrl = 0.9 * np.column_stack([np.cos(angles), np.sin(angles)])
    return sp.integrate_extremal_forward(prob, grid, ctrl, rng.normal(size=4),
                                         rng.normal(size=4), -1.0)


def _partial_parking_extremal(rng):
    grid = sp.build_grid(3.0, 0.7)
    ctrl = rng.uniform(-1.0, 1.0, size=(grid.n_intervals, 1))
    return sp.integrate_extremal_forward(PARKING, grid, ctrl, Q0,
                                         rng.normal(size=2), -1.0)


@pytest.mark.parametrize("build", [_partial_parking_extremal,
                                   _planar_ball_extremal],
                         ids=["parking-partial-grid", "ball-lti-n4-m2"])
def test_trajectory_csv_matches_per_cell_reference(tmp_path, build):
    ext = build(np.random.default_rng(15))
    path = tmp_path / "trajectory.csv"
    sp.write_trajectory_csv(ext, path)
    assert path.read_bytes() == _per_cell_trajectory_csv(ext).encode("utf-8")
