"""Problem data model: grids, control sets, Hamiltonian, spec files."""

import dataclasses
import json

import numpy as np
import pytest

import sampled_pmp as sp
from sampled_pmp.parking import parking_problem


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
        parking_problem(2.0, 3.0, terminal="free_final", position_weight=1.0),
        osc,
    ]


@pytest.mark.parametrize("prob", _builtin_problems(),
                         ids=["parking", "parking-weighted", "lti"])
def test_builtin_jacobians_match_finite_differences(prob):
    sp.validate_jacobians(prob, np.random.default_rng(4))


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


def test_initial_state_by_variant():
    prob = parking_problem(2.0, 4.0)
    np.testing.assert_array_equal(prob.initial_state(), [2.0, 0.0])
    per = parking_problem(2.0, 4.0, terminal="periodic")
    with pytest.raises(sp.UnsupportedCase):
        per.initial_state()


# ---------------------------------------------------------------------------
# problem specification files
# ---------------------------------------------------------------------------

def test_load_builtin_spec(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"problem": "parking", "M": 2, "tf": 4, "T": 2}))
    loaded = sp.load_problem_spec(path)
    assert loaded.builtin == "parking"
    assert loaded.t_f == 4.0 and loaded.T == 2.0
    assert loaded.params == {"M": 2.0}
    np.testing.assert_array_equal(loaded.problem.initial_state(), [2.0, 0.0])


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
    assert loaded.builtin is None
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
