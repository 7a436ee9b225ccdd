"""The benchmark's checks reject wrong answers.

    python3 -m pytest -q bench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks                                    # noqa: E402
from checks import CheckFailed                   # noqa: E402
from sampled_pmp import NonConvergence, cli      # noqa: E402
from sampled_pmp import parking as pk            # noqa: E402

M, T_F = 2.0, 3.0                                # constrained: 4M < t_f^2 < 6M


def optimum(K, M=M, t_f=T_F):
    times, lengths = checks.uniform_grid(t_f, K)
    return times, lengths, checks.sampled_optimum_box(M, times, lengths, t_f)


def test_dual_optimum_matches_the_program_and_passes():
    times, lengths, u = optimum(8)
    controls, _, cert = pk.solve_parking(M, T_F, T_F / 8)
    assert cert.passed
    assert np.max(np.abs(controls.values[:, 0] - u)) < 1e-9
    checks.check_sampled_optimum(M, times, lengths, T_F, u, "box", 1.0)
    assert np.any(np.abs(u) == 1.0) and np.any(np.abs(u) < 1.0)


@pytest.mark.parametrize("K", [8, 300])
@pytest.mark.parametrize("which", ["saturated", "free"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_control_perturbed_by_1e6_is_rejected(K, which, sign):
    times, lengths, u = optimum(K)
    k = int(np.argmax(np.abs(u) == 1.0)) if which == "saturated" \
        else int(np.argmin(np.abs(u)))
    bad = u.copy()
    bad[k] += sign * 1e-6
    with pytest.raises(CheckFailed):
        checks.check_sampled_optimum(M, times, lengths, T_F, bad, "box", 1.0)


def test_feasible_but_suboptimal_control_is_rejected_by_kkt():
    times, lengths, u = optimum(8)
    # a direction that leaves both terminal constraints untouched
    G = np.vstack([lengths, lengths * checks.midpoint_coefficients(
        times, lengths, T_F)])
    free = np.abs(u) < 1.0
    null = np.linalg.svd(G[:, free])[2][-1]
    bad = u.copy()
    bad[free] += 1e-6 * null
    x, v = checks.terminal_state(M, times, lengths, T_F, bad)
    assert abs(x[0]) < 1e-12 and abs(v[0]) < 1e-12
    with pytest.raises(CheckFailed, match="KKT"):
        checks.check_sampled_optimum(M, times, lengths, T_F, bad, "box", 1.0)


def test_optimum_of_a_neighbouring_instance_misses_the_target():
    # KKT holds exactly for M + 1e-6; only the terminal state tells
    times, lengths, u = optimum(8, M=M + 1e-6)
    with pytest.raises(CheckFailed, match="terminal"):
        checks.check_sampled_optimum(M, times, lengths, T_F, u, "box", 1.0)


def planar_optimum(K=8):
    """The planar problem from rest at M_vec is 1-D parking along M_vec."""
    M_vec = np.array([1.6, 1.2])
    norm = float(np.linalg.norm(M_vec))
    times, lengths, u = optimum(K, M=norm)
    return M_vec, times, lengths, u[:, None] * (M_vec / norm)[None, :]


def test_planar_disc_optimum_passes_and_perturbation_is_rejected():
    M_vec, times, lengths, U = planar_optimum()
    checks.check_sampled_optimum(M_vec, times, lengths, T_F, U, "ball", 1.0)
    for k in (0, 3):                              # on the circle, inside
        for i in (0, 1):
            bad = U.copy()
            bad[k, i] -= 1e-6
            with pytest.raises(CheckFailed):
                checks.check_sampled_optimum(M_vec, times, lengths, T_F, bad,
                                             "ball", 1.0)


def test_box_projection_in_place_of_the_disc_is_rejected():
    M_vec, times, lengths, U = planar_optimum()
    clipped = checks.project_box(U * 1.3, 1.0)
    with pytest.raises(CheckFailed):
        checks.check_sampled_optimum(M_vec, times, lengths, T_F, clipped,
                                     "ball", 1.0)


@pytest.fixture(scope="module")
def compared(tmp_path_factory):
    """A solved CLI run at K = 30 and its compare.csv."""
    d = tmp_path_factory.mktemp("cli")
    T = T_F / 30
    assert cli.main(["solve", "--problem", "parking", "--M", repr(M), "--tf",
                     repr(T_F), "--T", repr(T), "--out", str(d / "run")]) == 0
    assert cli.main(["compare", "--run", str(d / "run"),
                     "--out", str(d / "cmp")]) == 0
    u = checks.read_csv_columns(d / "run" / "controls.csv")["u_1"]
    cmp = checks.read_csv_columns(d / "cmp" / "compare.csv")
    times, lengths = checks.uniform_grid(T_F, 30)
    return times, lengths, u, cmp


def test_hold_of_the_program_passes(compared):
    times, lengths, u, cmp = compared
    checks.check_hold(cmp["t"], cmp["u_hold"], times, lengths, u)


@pytest.mark.parametrize("shift", [1, -1])
def test_hold_shifted_by_one_interval_is_rejected(compared, shift):
    times, lengths, u, cmp = compared
    ends = times + lengths
    k = np.minimum(np.searchsorted(ends, cmp["t"], side="right"), len(u) - 1)
    shifted = u[np.clip(k + shift, 0, len(u) - 1)]
    with pytest.raises(CheckFailed, match="hold"):
        checks.check_hold(cmp["t"], shifted, times, lengths, u)


def sweep_rows(Ks):
    rows = {"status": ["ok"] * len(Ks), "K": np.array(Ks, dtype=float),
            "cost_sampled": [], "cost_permanent": [], "terminal_residual": []}
    for K in Ks:
        times, lengths, u = optimum(K)
        rows["cost_sampled"].append(float(np.sum(lengths * u * u)))
        rows["cost_permanent"].append(checks.permanent_cost(M, T_F))
        rows["terminal_residual"].append(0.0)
    return {k: np.asarray(v) if k != "status" else v for k, v in rows.items()}


def test_sweep_check_accepts_the_program_and_rejects_wrong_costs(tmp_path):
    Ks = (3, 6, 12)
    assert cli.main(["sweep", "--problem", "parking", "--M", repr(M), "--tf",
                     repr(T_F), "--T-list", ",".join(repr(T_F / K) for K in Ks),
                     "--out", str(tmp_path)]) == 0
    program = checks.read_csv_columns(tmp_path / "sweep.csv")
    checks.check_sweep(M, T_F, Ks, program)
    rows = sweep_rows(Ks)
    checks.check_sweep(M, T_F, Ks, rows)
    off = {**rows, "cost_sampled": rows["cost_sampled"] + [0.0, 1e-6, 0.0]}
    with pytest.raises(CheckFailed, match="sampled cost"):
        checks.check_sweep(M, T_F, Ks, off)


def test_sweep_gap_that_increases_on_nested_periods_is_rejected():
    Ks = (3, 6, 12)
    rows = sweep_rows(Ks)
    swapped = {**rows, "cost_sampled": rows["cost_sampled"][::-1]}
    with pytest.raises(CheckFailed, match="increase"):
        checks.check_sweep(M, T_F, Ks, swapped)


def test_rejection_that_returns_a_solution_fails():
    solution = pk.solve_parking(M, T_F, 1.0)
    assert checks.check_rejection(solution, (NonConvergence,)) is not None
    assert checks.check_rejection(NonConvergence("stalled"),
                                  (NonConvergence,)) is None
    assert checks.check_rejection(RuntimeError("boom"),
                                  (NonConvergence,)) is not None


def test_infeasibility_proof_needs_a_single_interval():
    checks.prove_single_interval_infeasible(2.0, 3.0, 5.0)
    with pytest.raises(CheckFailed):
        checks.prove_single_interval_infeasible(2.0, 3.0, 1.5)
