"""Problem data model: grids, control sets, Hamiltonian, spec files."""

import dataclasses
import json
import runpy
from pathlib import Path

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp import parking as pk
from sampled_pmp.parking import parking_problem

from conftest import FREE_END, double_integrator
from test_simulate import _blowup_problem
from test_solver import _scalar_transfer

# the demo's hand-written problem, without running the demo
DEMO_05 = runpy.run_path(str(Path(__file__).resolve().parents[1] / "demos"
                             / "05_generic_shooting.py"))


# ---------------------------------------------------------------------------
# controlling-time arithmetic
# ---------------------------------------------------------------------------

def test_interval_of_examples():
    assert sp.build_grid(3.0, 1.0).interval_of(2.5) == 2
    assert sp.build_grid(1.0, 0.5).interval_of(0.9) == 1
    assert sp.build_grid(4.0, 1.0).interval_of(3.0) == 3
    grid = sp.build_grid(3.5, 1.0)
    np.testing.assert_array_equal(
        grid.interval_of([0.0, 0.5, 1.0, 2.9, 3.0, 3.4, 3.5]),
        [0, 0, 1, 2, 3, 3, 3])


def test_interval_of_snaps_near_multiples():
    grid = sp.build_grid(4.0, 1.0)
    assert grid.interval_of(3.0 - 1e-10) == 3
    assert grid.interval_of(3.0 + 1e-10) == 3
    # beyond the snap window the plain floor applies
    assert grid.interval_of(3.0 - 1e-7) == 2


def test_interval_of_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sp.build_grid(1.0, 0.0)
    with pytest.raises(ValueError):
        sp.build_grid(1.0, -2.0)
    grid = sp.build_grid(1.0, 0.5)
    for t in (-0.1, 1.0 + 1e-9, np.nan, [0.5, 2.0]):
        with pytest.raises(ValueError, match="outside"):
            grid.interval_of(t)


def test_interval_of_bracket_property():
    rng = np.random.default_rng(0)
    for _ in range(500):
        T = float(rng.uniform(0.05, 3.0))
        t = float(rng.uniform(0.0, 20.0))
        k = sp.build_grid(20.0 + 2.0 * T, T).interval_of(t)
        r = t / T
        if abs(r - round(r)) <= 1e-9:
            assert k == round(r)
        else:
            assert k * T <= t < (k + 1) * T


def test_final_control_index():
    # t_f belongs to the last interval; an exact multiple drops the empty one
    for t_f, last in ((3.0, 2), (3.5, 3), (0.7, 0)):
        grid = sp.build_grid(t_f, 1.0)
        assert grid.n_intervals == last + 1
        assert grid.interval_of(t_f) == last
    with pytest.raises(ValueError):
        sp.build_grid(0.0, 1.0)
    with pytest.raises(ValueError):
        sp.build_grid(1.0, -1.0)


def test_build_grid_examples():
    g = sp.build_grid(3.0, 1.0)
    np.testing.assert_array_equal(g.times, [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(g.lengths, [1.0, 1.0, 1.0])

    g = sp.build_grid(2.5, 1.0)
    np.testing.assert_array_equal(g.times, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(g.lengths, [1.0, 1.0, 0.5], rtol=0, atol=0)

    g = sp.build_grid(0.5, 1.0)
    np.testing.assert_array_equal(g.times, [0.0])
    np.testing.assert_array_equal(g.lengths, [0.5])


def test_build_grid_rejects_non_finite():
    for t_f, T in ((np.inf, 1.0), (np.nan, 1.0), (4.0, np.inf), (4.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            sp.build_grid(t_f, T)


def test_final_time_modes_reject_non_finite():
    for t_f in (np.inf, np.nan, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            sp.FixedTime(t_f)
        with pytest.raises(ValueError, match="finite"):
            sp.FreeTime(t_f)


def test_grid_lengths_sum_to_final_time():
    rng = np.random.default_rng(1)
    for _ in range(300):
        T = float(rng.uniform(0.05, 2.0))
        t_f = float(rng.uniform(0.1, 15.0))
        g = sp.build_grid(t_f, T)
        assert abs(float(np.sum(g.lengths)) - t_f) <= 1e-12
        assert np.all(np.asarray(g.times) < t_f)
        assert np.all(np.asarray(g.lengths) > 0)
        assert np.all(np.asarray(g.lengths) <= T + 1e-15)


def test_grid_exact_multiple_has_uniform_lengths():
    # 0.3/0.1 is not an exact float ratio; the snap must still see 3 intervals
    g = sp.build_grid(0.3, 0.1)
    assert g.n_intervals == 3
    np.testing.assert_array_equal(g.lengths, [0.1, 0.1, 0.1])


# ---------------------------------------------------------------------------
# control sets
# ---------------------------------------------------------------------------

def test_box_validation():
    with pytest.raises(ValueError):
        sp.Box(lower=np.array([1.0]), upper=np.array([0.0]))
    with pytest.raises(ValueError):
        sp.Ball(center=np.array([0.0]), radius=-0.1)
    # non-finite data would give infinite or NaN support gaps, and a NaN gap
    # compares False against any tolerance
    for lower, upper in (([np.nan], [1.0]), ([-np.inf], [np.inf]),
                         ([0.0], [np.nan])):
        with pytest.raises(ValueError, match="finite"):
            sp.Box(lower=np.array(lower), upper=np.array(upper))
    for center, radius in (([np.nan], 1.0), ([0.0], np.inf), ([0.0], np.nan)):
        with pytest.raises(ValueError, match="finite"):
            sp.Ball(center=np.array(center), radius=radius)


def test_project_examples():
    box = sp.Box(lower=np.array([-1.0]), upper=np.array([1.0]))
    assert box.project(np.array([1.5]))[0] == 1.0
    assert box.project(np.array([-0.3]))[0] == -0.3
    box2 = sp.Box(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
    np.testing.assert_array_equal(box2.project(np.array([2.0, -2.0])), [1.0, -1.0])


@pytest.mark.parametrize("cs", [
    sp.Box(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 2.0])),
    sp.Ball(center=np.array([0.5, -0.5]), radius=1.3),
])
def test_projection_idempotent_and_nonexpansive(cs):
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = rng.normal(scale=3.0, size=2)
        y = rng.normal(scale=3.0, size=2)
        px, py = cs.project(x), cs.project(y)
        assert cs.contains(px)
        np.testing.assert_allclose(cs.project(px), px, atol=1e-15)
        assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_ball_project_broadcasts_over_stacked_points():
    # each stacked point projects as it does alone; the centre divides by
    # nothing (warnings are errors here)
    ball = sp.Ball(center=np.zeros(2), radius=1.0)
    points = np.array([[0.5, 0.0], [3.0, 4.0], [0.0, 0.0]])
    np.testing.assert_allclose(ball.project(points),
                               [[0.5, 0.0], [0.6, 0.8], [0.0, 0.0]], rtol=1e-15)
    stacked = np.random.default_rng(4).normal(scale=2.0, size=(5, 3, 2))
    each = [[ball.project(u) for u in row] for row in stacked]
    np.testing.assert_array_equal(ball.project(stacked), each)
    point = sp.Ball(center=np.zeros(2), radius=0.0)
    np.testing.assert_array_equal(point.project(np.zeros(2)), [0.0, 0.0])


@pytest.mark.parametrize("cs", [
    sp.Box(lower=np.array([-1.0, 0.0, -0.5]), upper=np.array([1.0, 2.0, -0.5])),
    sp.Ball(center=np.array([0.5, -0.5]), radius=1.3),
], ids=["box", "ball"])
def test_project_jacobian_matches_finite_differences(cs):
    # central differences of project, at points 1e-3 or more from a kink
    # (a bound of the box, the sphere of the ball)
    rng = np.random.default_rng(5)
    h = 1e-7
    checked = 0
    for _ in range(300):
        w = rng.normal(scale=2.0, size=cs.dim)
        if isinstance(cs, sp.Box):
            gap = np.min(np.abs(np.concatenate([w - cs.lower, w - cs.upper])))
        else:
            gap = abs(np.linalg.norm(w - cs.center) - cs.radius)
        if gap < 1e-3:
            continue
        fd = np.column_stack([(cs.project(w + h * e) - cs.project(w - h * e))
                              / (2 * h) for e in np.eye(cs.dim)])
        np.testing.assert_allclose(cs.project_jacobian(w), fd, rtol=0,
                                   atol=1e-7)
        checked += 1
    assert checked >= 100


def test_project_jacobian_examples():
    # a component on a bound counts as clamped; the sphere counts as inside
    box = sp.Box(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]))
    np.testing.assert_array_equal(box.project_jacobian(np.array([0.3, 1.0])),
                                  [[1.0, 0.0], [0.0, 0.0]])
    ball = sp.Ball(center=np.zeros(2), radius=1.0)
    np.testing.assert_array_equal(ball.project_jacobian(np.array([0.6, 0.8])),
                                  np.eye(2))
    # outside: radial scaling r/|d| of the tangential directions only
    np.testing.assert_allclose(ball.project_jacobian(np.array([0.0, 2.0])),
                               [[0.5, 0.0], [0.0, 0.0]], atol=1e-16)


def test_zero_radius_ball_jacobian_is_zero():
    # a radius-0 ball projects every point onto its constant center, so its
    # Jacobian is 0 there and everywhere else, as for a Box with lower = upper
    center = np.array([0.5, -1.0])
    ball = sp.Ball(center=center, radius=0.0)
    point = sp.Box(lower=center, upper=center)
    for w in (center, center + [0.3, 0.0], center - [1.0, 2.0]):
        np.testing.assert_array_equal(ball.project(w), center)
        np.testing.assert_array_equal(ball.project_jacobian(w), np.zeros((2, 2)))
        np.testing.assert_array_equal(point.project_jacobian(w), np.zeros((2, 2)))


def test_support_gap_examples():
    box = sp.Box(lower=np.array([-1.0]), upper=np.array([1.0]))
    assert box.support_gap(np.array([1.0]), np.array([0.5])) == pytest.approx(0.5)
    assert box.support_gap(np.array([0.0]), np.array([0.2])) == 0.0
    assert box.support_gap(np.array([-2.0]), np.array([-1.0])) == 0.0


@pytest.mark.parametrize("cs", [
    sp.Box(lower=np.array([-1.0, -2.0]), upper=np.array([0.5, 1.0])),
    sp.Ball(center=np.array([0.0, 1.0]), radius=2.0),
])
def test_support_gap_dominates_inner_products(cs):
    # gap >= <g, y-u> for 1000 random members y, and is itself attained
    rng = np.random.default_rng(3)
    u = cs.project(rng.normal(size=2))
    g = rng.normal(size=2)
    gap = cs.support_gap(g, u)
    assert gap >= 0.0
    for _ in range(1000):
        y = cs.project(rng.normal(scale=3.0, size=2))
        assert g @ (y - u) <= gap + 1e-10


def test_ball_support_gap_closed_form():
    ball = sp.Ball(center=np.array([1.0, 0.0]), radius=0.5)
    g = np.array([2.0, -1.0])
    u = np.array([0.8, 0.1])
    expected = g @ (ball.center - u) + 0.5 * np.linalg.norm(g)
    assert ball.support_gap(g, u) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# Hamiltonian
# ---------------------------------------------------------------------------

def test_hamiltonian_parking_value():
    prob = parking_problem(2.0, 4.0)
    h = prob.hamiltonian(0.0, np.array([1.0, 2.0]), np.array([3.0, 4.0]), -1.0,
                         np.array([0.5]))
    assert h == pytest.approx(3 * 2 + 4 * 0.5 - 0.25)   # 7.75
    assert prob.hamiltonian(0.0, np.array([1.0, 2.0]), np.zeros(2), 0.0,
                            np.array([0.7])) == 0.0
    # zero control kills the cost term
    q = np.array([1.3, -0.4])
    p = np.array([2.0, 5.0])
    assert prob.hamiltonian(0.0, q, p, -1.0, np.array([0.0])) == \
        pytest.approx(p[0] * q[1])


def test_hamiltonian_dimension_mismatch():
    prob = parking_problem(2.0, 4.0)
    with pytest.raises(ValueError):
        prob.hamiltonian(0.0, np.array([1.0]), np.array([3.0, 4.0]), -1.0,
                         np.array([0.5]))
    with pytest.raises(ValueError):
        prob.hamiltonian(0.0, np.zeros(2), np.zeros(2), -1.0, np.zeros(2))


def _lti(A=((0.0, 1.0), (0.0, 0.0)), B=((0.0,), (1.0,)), Q=None, R=None):
    return sp.lti_problem(
        np.array(A), np.array(B), Q, R,
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedEndpoints(q0=np.array([1.0, 0.0]), qf=np.zeros(2)),
        final_time=sp.FixedTime(1.0))


def test_lq_data_is_validated_without_callbacks():
    def refuse(*args):
        raise AssertionError("construction called a callback")

    lq = _lti().lq
    fields = dict(n=2, m=1, f=refuse, f_q=refuse, f_u=refuse, f0=refuse,
                  f0_q=refuse, f0_u=refuse,
                  control_set=sp.Box(lower=[-1.0], upper=[1.0]),
                  terminal=sp.Periodic(), final_time=sp.FixedTime(1.0))
    assert sp.ProblemDefinition(**fields, lq=lq).lq is lq
    with pytest.raises(ValueError, match="lq"):
        sp.ProblemDefinition(**{**fields, "n": 3}, lq=lq)
    for A, B, Q, R in (([[0.0, 1.0]], [[0.0]], [[0.0]], [[1.0]]),
                       ([[0.0]], [[1.0], [0.0]], [[0.0]], [[1.0]]),
                       ([[0.0]], [[1.0]], [[0.0, 0.0]], [[1.0]]),
                       ([[0.0]], [[1.0]], [[0.0]], np.eye(2))):
        with pytest.raises(ValueError):
            sp.LinearQuadratic(A, B, Q, R)
    with pytest.raises(ValueError, match="finite"):
        sp.LinearQuadratic([[np.nan]], [[1.0]], [[0.0]], [[1.0]])


@pytest.mark.parametrize("field", ["A", "B", "Q", "R"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lti_problem_rejects_non_finite_matrices(field, bad):
    mats = {"A": np.zeros((2, 2)), "B": np.array([[0.0], [1.0]]),
            "Q": np.zeros((2, 2)), "R": np.eye(1)}
    mats[field] = mats[field].copy()
    mats[field][0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        _lti(**mats)


def test_validate_jacobians_rejects_lq_that_disagrees_with_f():
    prob = _lti()
    rng = np.random.default_rng(6)
    sp.validate_jacobians(prob, rng)
    for other in (_lti(A=((0.0, 1.0), (-1.0, 0.0))), _lti(B=((1.0,), (1.0,))),
                  _lti(Q=np.eye(2)), _lti(R=2.0 * np.eye(1))):
        with pytest.raises(AssertionError, match="against lq"):
            sp.validate_jacobians(dataclasses.replace(prob, lq=other.lq), rng)


def _builtin_problems():
    osc = sp.lti_problem(
        np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([[0.0], [1.0]]),
        Q=np.array([[0.2, 0.0], [0.0, 0.1]]),
        control_set=sp.Box(lower=np.array([-1.0]), upper=np.array([1.0])),
        terminal=sp.FixedEndpoints(q0=np.array([1.0, 0.0]), qf=np.zeros(2)),
        final_time=sp.FixedTime(1.0))
    return [
        parking_problem(2.0, 4.0),
        double_integrator(FREE_END, sp.FixedTime(3.0),
                          position_weight=1.0),
        osc,
    ]


@pytest.mark.parametrize("prob", _builtin_problems(),
                         ids=["parking", "parking-weighted", "lti"])
def test_builtin_jacobians_match_finite_differences(prob):
    sp.validate_jacobians(prob, np.random.default_rng(4))


def _planar_ball():
    A = np.zeros((4, 4))
    A[0, 2] = A[1, 3] = 1.0
    B = np.zeros((4, 2))
    B[2, 0] = B[3, 1] = 1.0
    return sp.lti_problem(
        A, B, control_set=sp.Ball(center=np.zeros(2), radius=1.0),
        terminal=sp.FixedEndpoints(q0=np.array([1.6, 1.2, 0.0, 0.0]),
                                   qf=np.zeros(4)),
        final_time=sp.FixedTime(3.0), name="planar")


@pytest.mark.parametrize("prob", [
    parking_problem(2.0, 3.0), _planar_ball(), _scalar_transfer(1.3),
    _blowup_problem(), DEMO_05["transfer_problem"](),
], ids=["parking", "planar-ball", "scalar-transfer", "blow-up",
        "demo-transfer"])
def test_validate_jacobians_accepts_broadcasting_callbacks(prob):
    sp.validate_jacobians(prob, np.random.default_rng(7))


@pytest.mark.parametrize("field, callback, message", [
    # written for one point: on stacked points it returns the first one's
    ("f0_u", lambda t, q, u: np.array([2.0 * u[0]]), "shape"),
    # reverses the point axis where it meant the component axis
    ("f", lambda t, q, u: u[::-1].copy(), "per-point calls"),
], ids=["first-point-only", "reversed-points"])
def test_validate_jacobians_rejects_per_point_callbacks(field, callback,
                                                        message):
    # each agrees with its derivatives point by point, so only the stacked
    # call tells it apart
    prob = dataclasses.replace(_scalar_transfer(1.3), **{field: callback})
    with pytest.raises(AssertionError,
                       match=f"{field} on stacked points.*{message}"):
        sp.validate_jacobians(prob, np.random.default_rng(7))


@pytest.mark.parametrize("prob", [*_builtin_problems(), _planar_ball()],
                         ids=["parking", "parking-weighted", "lti",
                              "planar-ball"])
def test_stacked_hamiltonian_matches_each_point(prob):
    # H, its gradients and the control-set tests on (3, 4) points agree with
    # one call per point, which returns the per-point types
    rng = np.random.default_rng(8)
    t = rng.uniform(0, 5, (3, 4))
    q, p = rng.standard_normal((2, 3, 4, prob.n))
    u = 1.2 * rng.standard_normal((3, 4, prob.m))
    cs = prob.control_set
    stacked = [prob.hamiltonian(t, q, p, -1.0, u),
               prob.hamiltonian_q(t, q, p, -1.0, u),
               prob.hamiltonian_u(t, q, p, -1.0, u),
               cs.support_gap(p[..., :prob.m], u), cs.contains(u)]
    for i in np.ndindex(t.shape):
        one = [prob.hamiltonian(t[i], q[i], p[i], -1.0, u[i]),
               prob.hamiltonian_q(t[i], q[i], p[i], -1.0, u[i]),
               prob.hamiltonian_u(t[i], q[i], p[i], -1.0, u[i]),
               cs.support_gap(p[i][:prob.m], u[i]), cs.contains(u[i])]
        assert [type(x) for x in one] == [float, np.ndarray, np.ndarray,
                                          float, bool]
        for got, want in zip(stacked, one):
            np.testing.assert_allclose(got[i], want, rtol=1e-14, atol=1e-15)
    with pytest.raises(ValueError,
                       match=rf"u must have shape \(\.\.\., {prob.m}\)"):
        prob.hamiltonian_u(t, q, p, -1.0, np.zeros((3, 4, prob.m + 1)))


@pytest.mark.parametrize("prob", _builtin_problems(),
                         ids=["parking", "parking-weighted", "lti"])
def test_hamiltonian_gradients_match_finite_differences(prob):
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(20):
        t = float(rng.uniform(0, 5))
        q = rng.standard_normal(prob.n)
        p = rng.standard_normal(prob.n)
        u = rng.standard_normal(prob.m)
        hq = prob.hamiltonian_q(t, q, p, -1.0, u)
        hu = prob.hamiltonian_u(t, q, p, -1.0, u)
        for i in range(prob.n):
            e = np.zeros(prob.n); e[i] = h
            fd = (prob.hamiltonian(t, q + e, p, -1.0, u)
                  - prob.hamiltonian(t, q - e, p, -1.0, u)) / (2 * h)
            assert abs(hq[i] - fd) <= 1e-6 * (1 + abs(fd))
        for i in range(prob.m):
            e = np.zeros(prob.m); e[i] = h
            fd = (prob.hamiltonian(t, q, p, -1.0, u + e)
                  - prob.hamiltonian(t, q, p, -1.0, u - e)) / (2 * h)
            assert abs(hu[i] - fd) <= 1e-6 * (1 + abs(fd))


def test_control_sequence_admissibility():
    box = sp.Box(lower=np.array([-1.0]), upper=np.array([1.0]))
    ok = sp.ControlSequence(np.array([[0.5], [-1.0]]))
    bad = sp.ControlSequence(np.array([[0.5], [1.5]]))
    assert ok.all_admissible(box)
    assert not bad.all_admissible(box)
    assert len(ok) == 2 and ok.m == 1
    # one value per interval is a single-input sequence
    assert sp.ControlSequence(np.array([0.5, -1.0])).values.shape == (2, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: sp.Box(lower=[[-1.0]], upper=[[1.0]]), "1-d arrays"),
    (lambda: sp.Ball(center=[[0.0]], radius=1.0), "1-d array"),
    (lambda: dataclasses.replace(parking_problem(2.0, 4.0), n=0),
     "dimensions must be >= 1"),
    (lambda: dataclasses.replace(parking_problem(2.0, 4.0), m=0),
     "dimensions must be >= 1"),
    (lambda: dataclasses.replace(
        parking_problem(2.0, 4.0),
        control_set=sp.Box(lower=[-1.0, -1.0], upper=[1.0, 1.0])),
     "control set dimension 2 != m=1"),
    (lambda: sp.ControlSequence(np.zeros((2, 1, 1))), "(K, m) array"),
    # terminal vectors no problem can use, which solve used to meet first
    (lambda: sp.FixedEndpoints(q0=[np.nan, 0.0], qf=[0.0, 0.0]), "finite"),
    (lambda: sp.FixedEndpoints(q0=[2.0, 0.0], qf=[np.inf, 0.0]), "finite"),
    (lambda: sp.FixedEndpoints(q0=[[2.0, 0.0]], qf=[[0.0, 0.0]]), "1-d"),
    (lambda: sp.FixedInitialFreeFinal(q0=[np.nan, 1.0]), "finite"),
    (lambda: dataclasses.replace(
        parking_problem(2.0, 4.0),
        terminal=sp.FixedEndpoints(q0=[2.0, 0.0, 0.0], qf=[0.0, 0.0, 0.0])),
     "terminal vectors must have length n=2"),
    (lambda: dataclasses.replace(
        parking_problem(2.0, 4.0),
        terminal=sp.FixedInitialFreeFinal(q0=[1.0])),
     "terminal vectors must have length n=2"),
], ids=["box-2d", "ball-2d", "n-zero", "m-zero", "set-dimension",
        "controls-3d", "q0-nan", "qf-inf", "q0-2d", "free-final-nan",
        "endpoints-length", "free-final-length"])
def test_constructors_reject_malformed_input(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert message in str(exc.value)


def _records_holding_arrays():
    extremal, cert = pk.solve_parking(2.0, 4.0, 1.0)
    return {
        "Extremal": lambda: extremal,
        "Certificate": lambda: cert,
        "SamplingGrid": lambda: sp.build_grid(4.0, 1.0),
        "ControlSequence": lambda: sp.ControlSequence(np.zeros((3, 1))),
        "Box": lambda: sp.Box(lower=[-1.0, -1.0], upper=[1.0, 1.0]),
        "Ball": lambda: sp.Ball(center=np.zeros(2), radius=1.0),
        "FixedEndpoints": lambda: sp.FixedEndpoints(q0=[1.0, 0.0],
                                                    qf=[0.0, 0.0]),
        "FixedInitialFreeFinal": lambda: sp.FixedInitialFreeFinal(
            q0=[1.0, 0.0]),
        "SweepRow": lambda: dataclasses.replace(pk.sweep_row(2.0, 4.0, 1.0)),
        "ProblemDefinition": lambda: parking_problem(2.0, 4.0),
    }


@pytest.mark.parametrize("name", sorted(_records_holding_arrays()))
def test_records_holding_arrays_compare_by_identity(name):
    # value equality would ask numpy for the truth of an array
    make = _records_holding_arrays()[name]
    a = make()
    b = dataclasses.replace(a)
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, a, b}) == 2


def test_initial_state_by_variant():
    prob = parking_problem(2.0, 4.0)
    np.testing.assert_array_equal(prob.initial_state(), [2.0, 0.0])
    per = double_integrator(sp.Periodic(), sp.FixedTime(4.0))
    with pytest.raises(sp.UnsupportedCase):
        per.initial_state()


# ---------------------------------------------------------------------------
# problem specification files
# ---------------------------------------------------------------------------

def test_load_builtin_spec(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"problem": "parking", "M": 2, "tf": 4, "T": 2}))
    loaded = sp.load_problem_spec(path)
    assert [f.name for f in dataclasses.fields(loaded)] == ["problem", "t_f", "T"]
    assert loaded.t_f == 4.0 and loaded.T == 2.0
    assert pk.parking_position(loaded.problem) == 2.0
    np.testing.assert_array_equal(loaded.problem.initial_state(), [2.0, 0.0])


def test_loaded_spec_is_hashable_and_compares_by_identity(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"problem": "parking", "M": 2, "tf": 4, "T": 2}))
    a, b = sp.load_problem_spec(path), sp.load_problem_spec(path)
    assert a == a and a != b
    assert len({a, a, b}) == 2


def test_load_inline_lti_spec(tmp_path):
    path = tmp_path / "lti.json"
    path.write_text(json.dumps({
        "n": 2, "m": 1, "dynamics": "lti",
        "A": [[0, 1], [0, 0]], "B": [[0], [1]],
        "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
        "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
        "tf": 4.0, "T": 2.0,
    }))
    loaded = sp.load_problem_spec(path)
    # the spec writes out parking (2, 4), and is recognized as it
    assert pk.parking_position(loaded.problem) == 2.0
    # dynamics agree with the parking double integrator
    f = loaded.problem.f(0.0, np.array([1.0, 3.0]), np.array([0.5]))
    np.testing.assert_allclose(f, [3.0, 0.5])


def test_load_inline_parking_dynamics(tmp_path):
    path = tmp_path / "pk.json"
    path.write_text(json.dumps({
        "n": 2, "m": 1, "dynamics": "parking",
        "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
        "terminal": {"variant": "fixed_initial_free_final", "q0": [2, 0]},
        "tf": 3.0, "T": 0.5,
    }))
    loaded = sp.load_problem_spec(path)
    assert isinstance(loaded.problem.terminal, sp.FixedInitialFreeFinal)
    # the spec keeps the parking matrices, so its intervals take the lq path
    np.testing.assert_array_equal(loaded.problem.lq.A, [[0, 1], [0, 0]])


def test_spec_rejects_unknown_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"problem": "parking", "M": 2, "tf": 4, "T": 2,
                                "extra": 1}))
    with pytest.raises(sp.SpecError, match="unknown field"):
        sp.load_problem_spec(path)
    path.write_text(json.dumps({
        "n": 2, "m": 1, "dynamics": "lti", "A": [[0, 1], [0, 0]],
        "B": [[0], [1]],
        "control_set": {"kind": "box", "lower": [-1], "upper": [1], "typo": 3},
        "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
        "tf": 4.0, "T": 2.0,
    }))
    with pytest.raises(sp.SpecError, match="unknown field"):
        sp.load_problem_spec(path)


def test_spec_rejects_malformed_content(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(sp.SpecError, match="not valid JSON"):
        sp.load_problem_spec(path)
    path.write_text(json.dumps({"problem": "rocket", "tf": 1, "T": 1}))
    with pytest.raises(sp.SpecError, match="unknown builtin"):
        sp.load_problem_spec(path)
    path.write_text(json.dumps({
        "n": 2, "m": 1, "dynamics": "lti", "A": [[0, 1]], "B": [[0], [1]],
        "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
        "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
        "tf": 4.0, "T": 2.0,
    }))
    with pytest.raises(sp.SpecError):
        sp.load_problem_spec(path)


# the inline spec of parking (2, 4), which the cases below break one field at
# a time
_INLINE = {
    "n": 2, "m": 1, "dynamics": "lti", "A": [[0, 1], [0, 0]],
    "B": [[0], [1]],
    "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
    "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
    "tf": 4.0, "T": 2.0,
}

# the same instance by the builtin dynamics, which take no matrices
_PARKING_DYNAMICS = {
    **{k: v for k, v in _INLINE.items() if k not in ("A", "B")},
    "dynamics": "parking",
}


@pytest.mark.parametrize("text, message", [
    (json.dumps({**_INLINE, "control_set": [-1, 1]}),
     "'control_set' must be an object"),
    (json.dumps({**_INLINE, "terminal": "fixed_endpoints"}),
     "'terminal' must be an object"),
    (json.dumps({**_INLINE, "control_set": {"kind": "simplex"}}),
     "control_set.kind must be 'box' or 'ball'"),
    (json.dumps({**_INLINE, "terminal": {"variant": "loop"}}),
     "unknown terminal variant 'loop'"),
    (json.dumps({**_INLINE, "control_set": {
        "kind": "ball", "center": [0, 0], "radius": 1}}),
     "control set dimension 2 != m=1"),
    (json.dumps({**_INLINE, "terminal": {
        "variant": "fixed_endpoints", "q0": [2], "qf": [0]}}),
     "terminal vectors must have length n=2"),
    (json.dumps({**_INLINE, "terminal": {
        "variant": "fixed_initial_free_final", "q0": [2, 0, 0]}}),
     "terminal vectors must have length n=2"),
    ("[1, 2]", "must contain a JSON object"),
    (None, "cannot read problem specification"),
    (json.dumps({**_INLINE, "final_time_mode": "open"}),
     "final_time_mode must be 'fixed' or 'free'"),
    (json.dumps({**_INLINE, "dynamics": "parking"}),
     "matrix fields only apply to dynamics='lti'"),
    (json.dumps({**_INLINE, "dynamics": "rocket"}),
     "dynamics must be 'lti' or a builtin id"),
    (json.dumps({**_PARKING_DYNAMICS, "n": 1, "terminal": {
        "variant": "fixed_endpoints", "q0": [2], "qf": [0]}}),
     "parking dynamics require n=2, m=1"),
    (json.dumps({**_PARKING_DYNAMICS, "m": 2, "control_set": {
        "kind": "box", "lower": [-1, -1], "upper": [1, 1]}}),
     "parking dynamics require n=2, m=1"),
], ids=["control-set-not-object", "terminal-not-object", "unknown-kind",
        "unknown-variant", "set-dimension", "endpoints-length",
        "free-final-length", "not-an-object", "unreadable", "final-time-mode",
        "parking-with-matrices", "unknown-dynamics", "parking-n", "parking-m"])
def test_spec_errors_name_the_fault(tmp_path, text, message):
    # text None: the path names no file
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(sp.SpecError) as exc:
        sp.load_problem_spec(path)
    assert message in str(exc.value)


@pytest.mark.parametrize("change", [
    {"m": True}, {"A": [[0, 1], [0, False]]}, {"A": [[0, 1], [0]]},
    {"B": [[0], [None]]},
    {"control_set": {"kind": "box", "lower": [True], "upper": [1]}},
    {"terminal": {"variant": "fixed_endpoints", "q0": [2, "0"],
                  "qf": [0, 0]}},
], ids=["m-true", "A-false", "A-ragged", "B-null", "lower-true", "q0-string"])
def test_spec_rejects_non_numbers(tmp_path, change):
    # JSON true and false are not numbers, though Python's bool is an int
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "n": 2, "m": 1, "dynamics": "lti", "A": [[0, 1], [0, 0]],
        "B": [[0], [1]],
        "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
        "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
        "tf": 4.0, "T": 2.0, **change,
    }))
    with pytest.raises(sp.SpecError):
        sp.load_problem_spec(path)


@pytest.mark.parametrize("change", [
    {"control_set": {"kind": "box", "lower": [1], "upper": [-1]}},
    {"control_set": {"kind": "ball", "center": [0], "radius": -1}},
    {"tf": 0}, {"tf": -4},
    {"terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0]}},
    {"T": -1}, {"T": 0},
    {"problem": "parking", "M": 2, "tf": 4, "T": -1},
    {"problem": "parking", "M": -2, "tf": 4, "T": 2},
    {"problem": "parking", "M": 2, "tf": 0, "T": 2},
], ids=["box-lower-above-upper", "ball-negative-radius", "tf-zero",
        "tf-negative", "endpoints-unequal", "T-negative", "T-zero",
        "builtin-T-negative", "builtin-M-negative", "builtin-tf-zero"])
def test_spec_rejects_bad_values(tmp_path, change):
    # every bad value is a SpecError at load time, not a ValueError from a
    # constructor or a failure later in the grid or the parking instance
    path = tmp_path / "bad.json"
    base = {} if "problem" in change else {
        "n": 2, "m": 1, "dynamics": "lti", "A": [[0, 1], [0, 0]],
        "B": [[0], [1]],
        "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
        "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
        "tf": 4.0, "T": 2.0}
    path.write_text(json.dumps({**base, **change}))
    with pytest.raises(sp.SpecError):
        sp.load_problem_spec(path)
