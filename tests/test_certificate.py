"""Certificate checker: residuals, verdicts, scaling, JSON export."""

import csv
import json

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp.cli import main
from sampled_pmp.parking import parking_problem, solve_parking
from sampled_pmp.simulate import SIMPSON_MEAN

from conftest import FIXED_ENDS, FREE_END, double_integrator

PARKING = parking_problem(2.0, 4.0)
Q0 = np.array([2.0, 0.0])
GRID = sp.build_grid(4.0, 2.0)


def _extremal(ctrl, p_init=(-1.0, -2.0), p0=-1.0):
    return sp.integrate_extremal_forward(PARKING, GRID, np.asarray(ctrl, float),
                                         Q0, np.asarray(p_init, float), p0)


def test_interval_residual_zero_at_solution():
    ext = _extremal([[-0.5], [0.5]])
    assert sp.interval_residual(PARKING, ext, 0) == pytest.approx(0.0, abs=1e-12)
    assert sp.interval_residual(PARKING, ext, 1) == pytest.approx(0.0, abs=1e-12)


def test_interval_residual_detects_interior_violation():
    # Gbar_0 at u_0 = 0 is -1; best admissible direction gains 1
    ext = _extremal([[0.0], [0.5]])
    assert sp.interval_residual(PARKING, ext, 0) == pytest.approx(1.0, abs=1e-12)


def test_interval_residual_zero_when_gradient_points_at_active_bound():
    # p == 0 and u_0 = -1: Gbar_0 = 2 > 0 points at the upper bound... choose
    # multipliers so Gbar_0 < 0 with u_0 at the lower bound instead
    ext = _extremal([[-1.0], [0.0]], p_init=(0.0, -2.0))
    # p2 == -2 constant: Gbar_0 = -2 - 2*(-1) = 0; perturb to strictly negative
    ext2 = _extremal([[-1.0], [0.0]], p_init=(0.0, -3.0))
    g = sp.average_u_gradient(PARKING, ext2, 0)
    assert g[0] < 0
    assert sp.interval_residual(PARKING, ext2, 0) == pytest.approx(0.0, abs=1e-12)
    assert sp.interval_residual(PARKING, ext, 0) == pytest.approx(0.0, abs=1e-12)


def test_interval_residuals_nonnegative_random():
    rng = np.random.default_rng(8)
    for _ in range(30):
        ctrl = rng.uniform(-1, 1, size=(2, 1))
        ext = _extremal(ctrl, p_init=rng.normal(size=2))
        for k in range(2):
            assert sp.interval_residual(PARKING, ext, k) >= 0.0


def test_transversality_variants():
    q_start, q_end = np.array([2.5, 0.5]), np.array([0.25, -1.0])

    def blocks(terminal, p_start, p_end):
        return sp.boundary_residuals(terminal, q_start, q_end,
                                     np.asarray(p_start, float),
                                     np.asarray(p_end, float))

    fixed = sp.FixedEndpoints(q0=Q0, qf=np.zeros(2))
    start, end, tv = blocks(fixed, [3.0, 1.0], [-2.0, 5.0])
    np.testing.assert_array_equal(start, [0.5, 0.5])
    np.testing.assert_array_equal(end, [0.25, -1.0])
    assert tv.shape == (0,) and np.linalg.norm(tv) == 0.0

    free = sp.FixedInitialFreeFinal(q0=Q0)
    start, end, tv = blocks(free, [3.0, 1.0], np.zeros(2))
    np.testing.assert_array_equal(start, [0.5, 0.5])
    assert end.shape == (0,)
    assert np.linalg.norm(tv) == 0.0
    _, _, tv = blocks(free, np.zeros(2), [3.0, 4.0])
    assert np.linalg.norm(tv) == pytest.approx(5.0)

    per = sp.Periodic()
    p = np.array([1.0, 2.0])
    start, end, tv = blocks(per, p, p)
    assert start.shape == (0,)
    np.testing.assert_array_equal(end, q_end - q_start)
    assert np.linalg.norm(tv) == 0.0
    _, _, tv = blocks(per, p, p + [0.3, -0.4])
    assert np.linalg.norm(tv) == pytest.approx(0.5)


def test_free_time_residual():
    prob = double_integrator(FIXED_ENDS, sp.FreeTime(4.0))
    grid = sp.build_grid(4.0, 1.5)      # t_f not a multiple: k_f = 2
    ctrl = np.array([[0.0], [0.0], [0.0]])
    ext = sp.integrate_extremal_forward(prob, grid, ctrl, Q0, np.zeros(2), -1.0)
    assert sp.free_time_residual(prob, ext) == pytest.approx(0.0)
    ctrl[2, 0] = 1.0
    ext = sp.integrate_extremal_forward(prob, grid, ctrl, Q0, np.zeros(2), -1.0)
    assert sp.free_time_residual(prob, ext) == pytest.approx(1.0, abs=1e-12)

    fixed_prob = parking_problem(2.0, 4.0)
    ext = sp.integrate_extremal_forward(fixed_prob, grid, ctrl, Q0,
                                        np.zeros(2), -1.0)
    with pytest.raises(sp.UnsupportedCase):
        sp.free_time_residual(fixed_prob, ext)


def test_free_time_residual_uses_previous_interval_on_exact_multiple():
    prob = double_integrator(FIXED_ENDS, sp.FreeTime(4.0))
    grid = sp.build_grid(4.0, 2.0)      # t_f = 2T: k_f = K-1 = 1
    ctrl = np.array([[0.0], [1.0]])
    ext = sp.integrate_extremal_forward(prob, grid, ctrl, Q0, np.zeros(2), -1.0)
    # H(t_f) with p = 0 is -u_{k_f}^2 = -1
    assert sp.free_time_residual(prob, ext) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# aggregated verdicts
# ---------------------------------------------------------------------------

def test_certificate_passes_on_solved_instance():
    _, cert = solve_parking(2.0, 4.0, 2.0)
    assert cert.passed and cert.verdict == "pass"
    assert cert.max_interval_residual <= 1e-8
    assert cert.transversality == 0.0
    assert cert.free_time is None
    assert cert.feasibility <= 1e-8


def test_certificate_fails_on_perturbed_control():
    ext = _extremal([[-0.4], [0.5]])     # u_0 bumped +0.1 off the optimum
    cert = sp.check_certificate(PARKING, ext)
    assert not cert.passed
    assert cert.interval_residuals[0] >= 0.1
    assert any("interval 0" in v for v in cert.violations)


def test_certificate_fails_on_trivial_multipliers():
    ext = _extremal([[0.0], [0.0]], p_init=(0.0, 0.0), p0=0.0)
    cert = sp.check_certificate(PARKING, ext)
    assert not cert.passed
    assert not cert.nontrivial
    assert any("nontrivial" in v for v in cert.violations)


def test_certificate_flags_positive_cost_multiplier():
    # the solved extremal's adjoint with p0 = +1: a sign the PMP excludes
    ext = _extremal([[-0.5], [0.5]], p0=1.0)
    cert = sp.check_certificate(PARKING, ext)
    assert not cert.passed
    assert "cost multiplier must be <= 0, got 1.0" in cert.violations


def test_certificate_flags_a_grid_off_the_fixed_horizon():
    # parking's certified extremal to t_f = 4 does not answer the problem
    # fixed at t_f = 3, though every other residual vanishes
    ext, cert4 = solve_parking(2.0, 4.0, 0.5)
    assert cert4.passed
    cert = sp.check_certificate(parking_problem(2.0, 3.0), ext)
    assert not cert.passed
    assert cert.violations == ("horizon: the grid ends at t_f = 4.0, not at "
                               "the fixed final time 3.0",)


@pytest.mark.parametrize("M, t_f, times, lengths, violation", [
    # two unit intervals on a grid that claims t_f = 4: the arcs end at 2
    (0.9, 4.0, [0.0, 1.0], [1.0, 1.0],
     "arcs: they run over [0.0, 2.0], not over the grid's [0, 4.0]"),
    # interval 1 starts at 1.5, though interval 0 ends at 1
    (0.3, 2.0, [0.0, 1.5], [1.0, 0.5],
     "interval 1: starts at 1.5, not where interval 0 ends, 1.0"),
], ids=["short", "gap"])
def test_certificate_flags_arcs_that_do_not_tile_the_horizon(M, t_f, times,
                                                             lengths,
                                                             violation):
    # hand-built grids the solver shoots on as given; the certificate reads
    # the arcs' node times, not only the grid's t_f
    grid = sp.SamplingGrid(period=1.0, t_f=t_f, times=np.array(times),
                           lengths=np.array(lengths))
    _, cert = sp.solve(parking_problem(M, t_f), grid)
    assert not cert.passed
    assert cert.violations == (violation,)


def test_certificate_flags_inadmissible_control():
    ext = _extremal([[1.5], [0.5]])
    cert = sp.check_certificate(PARKING, ext)
    assert not cert.passed
    assert any("control set" in v for v in cert.violations)


def _scaled(prob, grid, ctrl, p_init, lam):
    # the extremal of the multiplier pair (lam p(0), -lam), integrated afresh
    return sp.integrate_extremal_forward(prob, grid, np.asarray(ctrl, float), Q0,
                                         lam * np.asarray(p_init, float), -lam)


# (problem, grid, controls, p(0)) with off-optimum residuals: on interval 0
# of fixed-endpoint parking, and on the transversality and free-time
# conditions of the other two variants
SCALE_CASES = [
    (PARKING, GRID, [[0.0], [0.5]], (-1.0, -2.0)),
    (double_integrator(FREE_END, sp.FixedTime(4.0)), GRID, [[0.3], [0.3]],
     (0.7, -1.1)),
    (double_integrator(sp.Periodic(), sp.FreeTime(4.0)),
     sp.build_grid(4.0, 1.5), [[0.3]] * 3, (0.7, -1.1)),
]


def test_certificate_scale_awareness():
    # residuals are positively homogeneous in (p, p0): the raw definitions
    # scale by lam, and dividing by -p0 makes the held residuals, the verdict
    # and the sign pattern at tol=0 scale-invariant
    for prob, grid, ctrl, p_init in SCALE_CASES:
        cert = sp.check_certificate(prob, _scaled(prob, grid, ctrl, p_init, 1.0))
        for lam in (0.5, 2.0, 3.0, 10.0):
            ext = _scaled(prob, grid, ctrl, p_init, lam)
            cs = sp.check_certificate(prob, ext)
            raw = np.array([sp.interval_residual(prob, ext, k)
                            for k in range(grid.n_intervals)])
            np.testing.assert_allclose(raw, lam * cert.interval_residuals,
                                       rtol=1e-10, atol=1e-14)
            np.testing.assert_allclose(cs.interval_residuals,
                                       cert.interval_residuals,
                                       rtol=1e-10, atol=1e-14)
            assert np.array_equal(raw > 0, cert.interval_residuals > 0)
            assert cs.passed == cert.passed
            if isinstance(prob.terminal, sp.FixedEndpoints):
                assert cs.transversality == 0.0
            else:
                raw_tv = np.linalg.norm(sp.boundary_residuals(
                    prob.terminal, ext.initial_state, ext.final_state,
                    ext.initial_adjoint, ext.final_adjoint)[2])
                assert raw_tv > 0.0
                assert raw_tv == pytest.approx(lam * cert.transversality,
                                               rel=1e-10)
                assert cs.transversality == pytest.approx(raw_tv / lam,
                                                          rel=1e-12)
                assert cs.transversality == pytest.approx(
                    cert.transversality, rel=1e-10)
            if isinstance(prob.final_time, sp.FreeTime):
                raw_ft = sp.free_time_residual(prob, ext)
                assert raw_ft > 0.0
                assert raw_ft == pytest.approx(lam * cert.free_time, rel=1e-10)
                assert cs.free_time == pytest.approx(raw_ft / lam, rel=1e-12)
                assert cs.free_time == pytest.approx(cert.free_time,
                                                     rel=1e-10)
            else:
                assert cs.free_time is None


def test_certificate_average_hamiltonian_grid_search():
    # concave-in-u Hamiltonian: a certified control maximizes the interval
    # average over 2001 grid points of the control set
    ext, cert = solve_parking(2.0, 3.0, 1.0)
    assert cert.passed
    grid = sp.build_grid(3.0, 1.0)
    prob = parking_problem(2.0, 3.0)
    ys = np.linspace(-1.0, 1.0, 2001)
    for k in range(grid.n_intervals):
        vals = np.array([sp.average_hamiltonian(prob, ext, k, np.array([y]))
                         for y in ys])
        at_u = sp.average_hamiltonian(prob, ext, k, ext.controls[k])
        assert at_u >= np.max(vals) - 1e-10


def _per_node_mean(integrand, ext, k):
    """Simpson mean over interval k with one integrand call per node: the
    evaluation that one call on the stacked nodes replaced, kept as its
    reference."""
    vals = np.array([integrand(t, q, p, ext.p0, ext.controls[k])
                     for t, q, p in zip(ext.times[k], ext.states[k],
                                        ext.adjoints[k])])
    return SIMPSON_MEAN @ vals


def _solved_parking(T):
    ext, _ = solve_parking(2.0, 3.0, T)
    return parking_problem(2.0, 3.0), ext


def _random_planar_ball():
    # n = 4, m = 2, controls in the unit disc off the optimum
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = 1.0
    B = np.zeros((4, 2))
    B[2, 0] = B[3, 1] = 1.0
    prob = sp.lti_problem(
        A, B, control_set=sp.Ball(center=np.zeros(2), radius=1.0),
        terminal=sp.FixedEndpoints(q0=np.zeros(4), qf=np.zeros(4)),
        final_time=sp.FixedTime(3.0))
    rng = np.random.default_rng(16)
    grid = sp.build_grid(3.0, 0.375)
    angles = rng.uniform(0.0, 2 * np.pi, size=grid.n_intervals)
    ctrl = 0.9 * np.column_stack([np.cos(angles), np.sin(angles)])
    return prob, sp.integrate_extremal_forward(
        prob, grid, ctrl, rng.normal(size=4), rng.normal(size=4), -1.0)


def _random_weighted_lti():
    # Q != 0 couples the adjoint to the state; p0 = -0.5 exercises scaling
    prob = sp.lti_problem(
        np.array([[0.0, 1.0], [-1.0, -0.3]]), np.array([[0.0], [1.0]]),
        Q=np.array([[0.7, 0.2], [0.2, 0.4]]), R=np.array([[1.5]]),
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedEndpoints(q0=np.array([1.0, 0.0]), qf=np.zeros(2)),
        final_time=sp.FixedTime(2.9))
    rng = np.random.default_rng(17)
    grid = sp.build_grid(2.9, 0.4)
    ctrl = rng.uniform(-1.0, 1.0, size=(grid.n_intervals, 1))
    return prob, sp.integrate_extremal_forward(
        prob, grid, ctrl, rng.normal(size=2), rng.normal(size=2), -0.5)


@pytest.mark.parametrize("build", [
    lambda: _solved_parking(0.7), lambda: _solved_parking(0.01),
    _random_planar_ball, _random_weighted_lti,
], ids=["parking-partial", "parking-K300", "planar-ball", "weighted-lti"])
def test_stacked_evaluation_matches_per_node_reference(build):
    # one callback call per extremal gives the certificate's residuals and
    # the running cost of one call per node, up to rounding
    prob, ext = build()
    K = ext.grid.n_intervals
    raw = np.array([prob.control_set.support_gap(
        _per_node_mean(prob.hamiltonian_u, ext, k), ext.controls[k])
        for k in range(K)])
    cert = sp.check_certificate(prob, ext)
    np.testing.assert_allclose(cert.interval_residuals, raw / -ext.p0,
                               rtol=0, atol=1e-15)
    for k in range(K):
        assert sp.interval_residual(prob, ext, k) == pytest.approx(
            raw[k], rel=0, abs=1e-15)

    def f0(t, q, p, p0, u):
        return prob.f0(t, q, u)

    cost = 0.0
    for k in range(K):
        cost += ext.grid.lengths[k] * _per_node_mean(f0, ext, k)
    assert sp.running_cost(prob, ext) == pytest.approx(cost, rel=1e-14)


def test_certificate_json_export(tmp_path):
    # the record as held: the verdict, then every field but ``passed``, the
    # per-interval residuals and their start times as two aligned arrays
    _, cert = solve_parking(2.0, 4.0, 2.0)
    path = tmp_path / "cert.json"
    sp.write_certificate_json(cert, path)
    data = json.loads(path.read_text())
    assert set(data) == {"verdict", "tol", "interval_times",
                         "interval_residuals", "transversality", "free_time",
                         "feasibility", "nontrivial", "violations"}
    assert data["verdict"] == "pass"
    assert data["tol"] == 1e-8
    assert data["nontrivial"] is True
    assert data["free_time"] is None
    assert data["transversality"] == 0.0
    assert data["feasibility"] == cert.feasibility
    assert data["violations"] == []
    for key in ("interval_times", "interval_residuals"):
        held = getattr(cert, key)
        assert len(held) == 2
        assert np.array(data[key]).tobytes() == held.tobytes(), key
    assert data["interval_times"] == [0.0, 2.0]
    assert all(r <= 1e-8 for r in data["interval_residuals"])
    # entry k is interval k, the row order of the CLI's controls.csv, and the
    # CLI writes the same record
    run = tmp_path / "run"
    assert main(["solve", "--problem", "parking", "--M", "2", "--tf", "4",
                 "--T", "2", "--out", str(run)]) == 0
    with open(run / "controls.csv", newline="") as fh:
        t_k = [float(row["t_k"]) for row in csv.DictReader(fh)]
    assert data["interval_times"] == t_k
    assert json.loads((run / "certificate.json").read_text()) == data


def test_checker_normalizes_scaled_multipliers_for_verdict():
    # a valid extremal scaled by 3 must still pass at the default tolerance
    scaled = _scaled(PARKING, GRID, [[-0.5], [0.5]], (-1.0, -2.0), 3.0)
    cert = sp.check_certificate(PARKING, scaled)
    assert cert.passed
    assert scaled.p0 == -3.0
