"""CLI commands, exit codes, artifact formats, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sampled_pmp import parking
from sampled_pmp.cli import main


# the parking instance (2, 4) written out as an inline LTI spec
LTI_SPEC = {
    "n": 2, "m": 1, "dynamics": "lti",
    "A": [[0, 1], [0, 0]], "B": [[0], [1]],
    "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
    "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
    "tf": 4.0, "T": 2.0,
}

# dq/dt = 40 q from q(0) = 1 leaves the integrator's trust region at t = 0.72
BLOWUP_SPEC = {
    **LTI_SPEC, "n": 1, "A": [[40]], "B": [[1]],
    "terminal": {"variant": "fixed_endpoints", "q0": [1], "qf": [0]},
    "tf": 1.0, "T": 0.5,
}

PARKING_FLAGS = ["--problem", "parking", "--M", "2", "--tf", "4", "--T", "2"]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_writes_artifacts_and_passes(tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T", "2", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "controls.csv")
    assert header == ["k", "t_k", "delta_k", "u_1", "residual_k"]
    assert len(rows) == 2
    assert float(rows[0][3]) == pytest.approx(-0.5, abs=1e-7)
    assert float(rows[1][3]) == pytest.approx(0.5, abs=1e-7)

    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "pass"

    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists(), name
    assert manifest["problem"]["builtin"] == "parking"
    assert manifest["unknowns"]["multipliers"][0] == pytest.approx(-1.0, abs=1e-6)
    assert "config" not in manifest


def test_solve_parking_integrates_once(tmp_path, interval_integrations,
                                       parking_f0_calls):
    # K interval integrations: one integration of the solved extremal, which
    # the certificate and the artifacts share.  No artifact reads the cost,
    # so nothing evaluates the running cost f0 (17 calls per interval when
    # every assembly computed it)
    rc = main(["solve", "--problem", "parking", "--M", "2", "--tf", "3",
               "--T", "0.1", "--out", str(tmp_path / "run")])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "run" / "controls.csv")
    assert len(rows) == 30
    assert interval_integrations() == 30
    assert parking_f0_calls() == 0


def test_solve_exit_codes(tmp_path):
    # K = 1 cannot satisfy two terminal constraints
    rc = main(["solve", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T", "4", "--out", str(tmp_path / "a")])
    assert rc == 3
    # existence precondition violated
    rc = main(["solve", "--problem", "parking", "--M", "5", "--tf", "4",
               "--T", "1", "--out", str(tmp_path / "b")])
    assert rc == 4
    # missing problem selection
    rc = main(["solve", "--tf", "4", "--T", "2", "--out", str(tmp_path / "c")])
    assert rc == 4
    # unknown flag
    rc = main(["solve", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T", "2", "--out", str(tmp_path / "d"), "--bogus", "1"])
    assert rc == 4


def test_solve_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["solve", "--problem", "parking", "--M", "2", "--tf", "3",
                     "--T", "0.5", "--out", str(out)]) == 0
    for name in ("controls.csv", "trajectory.csv", "certificate.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_solve_from_spec_file(tmp_path):
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps(LTI_SPEC))
    out = tmp_path / "run"
    rc = main(["solve", "--spec", str(spec), "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "controls.csv")
    assert float(rows[0][3]) == pytest.approx(-0.5, abs=1e-6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(spec) in manifest["inputs"]
    assert manifest["inputs"][str(spec)].startswith("sha256:")


def test_solve_builtin_spec_takes_M_flag(tmp_path):
    # M = 3, t_f = 4, two intervals: -a then a parks from 3 - 4a, a = 0.75
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"problem": "parking", "M": 2, "tf": 4, "T": 2}))
    out = tmp_path / "run"
    assert main(["solve", "--spec", str(spec), "--M", "3",
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out / "controls.csv")
    assert float(rows[0][3]) == pytest.approx(-0.75, abs=1e-7)
    assert float(rows[1][3]) == pytest.approx(0.75, abs=1e-7)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"]["M"] == 3.0


def test_solve_inline_spec_rejects_M_flag(tmp_path):
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps(LTI_SPEC))
    assert main(["solve", "--spec", str(spec), "--M", "3",
                 "--out", str(tmp_path / "run")]) == 4


@pytest.mark.parametrize("source", ["spec", "parking"])
def test_solve_writes_failing_certificate_and_exits_2(tmp_path, capsys,
                                                      failing_certificate,
                                                      source):
    # both solve paths return their verdict; neither raises on a failure
    from sampled_pmp import solver
    if source == "spec":
        failing_certificate(solver)
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps(LTI_SPEC))
        flags = ["--spec", str(spec)]
    else:
        failing_certificate(parking)
        flags = PARKING_FLAGS
    out = tmp_path / "run"
    assert main(["solve", *flags, "--out", str(out)]) == 2
    assert "forced failure" in capsys.readouterr().err
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "fail"
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists(), name


def test_solve_reports_blow_up_as_non_convergence(tmp_path, capsys):
    spec = tmp_path / "blowup.json"
    spec.write_text(json.dumps(BLOWUP_SPEC))
    assert main(["solve", "--spec", str(spec),
                 "--out", str(tmp_path / "run")]) == 3
    assert "integration blew up at t=0.71875" in capsys.readouterr().err


@pytest.mark.parametrize("args, spec, u0", [
    (["solve", "--problem", "parking", "--M", "2", "--tf", "inf", "--T", "2"],
     None, None),
    (["solve", "--problem", "parking", "--M", "2", "--tf", "4", "--T", "inf"],
     None, None),
    (["solve", "--problem", "parking", "--M", "nan", "--tf", "4", "--T", "2"],
     None, None),
    (["solve"], {"tf": math.inf}, None),
    (["solve"], {"control_set": {"kind": "box", "lower": [math.nan],
                                 "upper": [1]}}, None),
    (["solve"], {"control_set": {"kind": "ball", "center": [0],
                                 "radius": math.inf}}, None),
    (["check", *PARKING_FLAGS, "--adjoint-init=nan,1"], None, "-0.5"),
    (["sweep", "--problem", "parking", "--M", "2", "--tf", "3",
      "--T-list", "1,inf"], None, None),
    (["check", *PARKING_FLAGS, "--adjoint-init=-1,-2"], None, "nan"),
    (["check", *PARKING_FLAGS, "--adjoint-init=-1,-2"], None, "inf"),
    (["compare"], None, "nan"),
], ids=["tf-flag", "T-flag", "M-flag", "spec-tf", "spec-lower", "spec-radius",
        "adjoint-init", "T-list", "controls-nan", "controls-inf",
        "compare-controls"])
def test_non_finite_input_is_bad_input(tmp_path, capsys, args, spec, u0):
    argv = args + ["--out", str(tmp_path / "out")]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**LTI_SPEC, **spec}))
        argv += ["--spec", str(path)]
    if u0 is not None:
        # parking (2, 4) at T = 2, with u_0 in the first data row
        run = tmp_path / "run"
        run.mkdir()
        controls = run / "controls.csv"
        controls.write_text("k,t_k,delta_k,u_1,residual_k\n"
                            f"0,0,2,{u0},0\n1,2,2,0.5,0\n")
        if args[0] == "check":
            argv += ["--controls", str(controls)]
        else:
            (run / "manifest.json").write_text(json.dumps({
                "problem": {"builtin": "parking", "M": 2.0, "tf": 4.0,
                            "T": 2.0}}))
            argv += ["--run", str(run)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "finite" in err
    if u0 in ("nan", "inf"):
        assert "row 2, column 'u_1'" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

@pytest.fixture()
def solved_run(tmp_path):
    out = tmp_path / "run"
    assert main(["solve", "--problem", "parking", "--M", "2", "--tf", "4",
                 "--T", "2", "--out", str(out)]) == 0
    return out


def test_check_round_trip(solved_run, tmp_path):
    rc = main(["check", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T", "2", "--controls", str(solved_run / "controls.csv"),
               "--adjoint-init", str(solved_run / "manifest.json"),
               "--out", str(tmp_path / "chk")])
    assert rc == 0
    cert = json.loads((tmp_path / "chk" / "certificate.json").read_text())
    assert cert["verdict"] == "pass"


def test_check_round_trip_via_spec_file(solved_run, tmp_path):
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"problem": "parking", "M": 2, "tf": 4, "T": 2}))
    rc = main(["check", "--spec", str(spec),
               "--controls", str(solved_run / "controls.csv"),
               "--adjoint-init", str(solved_run / "manifest.json"),
               "--out", str(tmp_path / "chk2")])
    assert rc == 0


def _rewrite_u0(src, dst, value):
    header, rows = _read_csv(src)
    i = header.index("u_1")
    rows[0][i] = value
    with open(dst, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def test_check_detects_perturbed_control(solved_run, tmp_path):
    bad = tmp_path / "perturbed.csv"
    header, rows = _read_csv(solved_run / "controls.csv")
    i = header.index("u_1")
    _rewrite_u0(solved_run / "controls.csv", bad, repr(float(rows[0][i]) + 0.1))
    rc = main(["check", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T", "2", "--controls", str(bad),
               "--adjoint-init", str(solved_run / "manifest.json"),
               "--out", str(tmp_path / "chk")])
    assert rc == 2
    cert = json.loads((tmp_path / "chk" / "certificate.json").read_text())
    assert cert["verdict"] == "fail"
    assert cert["intervals"][0]["r"] >= 0.1
    assert any("interval 0" in v for v in cert["violations"])


def test_check_detects_inadmissible_control(solved_run, tmp_path):
    bad = tmp_path / "inadmissible.csv"
    _rewrite_u0(solved_run / "controls.csv", bad, "1.5")
    rc = main(["check", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T", "2", "--controls", str(bad),
               "--adjoint-init=-1,-2", "--out", str(tmp_path / "chk")])
    assert rc == 2
    cert = json.loads((tmp_path / "chk" / "certificate.json").read_text())
    assert any("control set" in v for v in cert["violations"])


def test_check_diagnoses_malformed_csv(solved_run, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    _rewrite_u0(solved_run / "controls.csv", bad, "oops")
    rc = main(["check", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T", "2", "--controls", str(bad),
               "--adjoint-init=-1,-2", "--out", str(tmp_path / "chk")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "row 2" in err and "u_1" in err

    missing = tmp_path / "missing_col.csv"
    missing.write_text("a,b\n1,2\n")
    rc = main(["check", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T", "2", "--controls", str(missing),
               "--adjoint-init=-1,-2", "--out", str(tmp_path / "chk")])
    assert rc == 4


def test_check_reports_blow_up_as_certificate_failure(solved_run, tmp_path,
                                                      capsys):
    # an initial adjoint of 1e300 leaves the trust region in the first step
    rc = main(["check", *PARKING_FLAGS,
               "--controls", str(solved_run / "controls.csv"),
               "--adjoint-init=1e300,1", "--out", str(tmp_path / "chk")])
    assert rc == 2
    assert "integration blew up at t=0.125" in capsys.readouterr().err


def test_check_validates_adjoint_init(solved_run, tmp_path, capsys):
    # a wrong length, then JSON files whose p_init is not a list of numbers
    path = tmp_path / "adjoint.json"
    for adjoint_init in ["1,2,3", {"p_init": {"a": 1}}, {"p_init": [True, -2]},
                         {"unknowns": {"p_init": [-1, None]}},
                         {"p": [-1, -2]}]:
        if not isinstance(adjoint_init, str):
            path.write_text(json.dumps(adjoint_init))
            adjoint_init = str(path)
        rc = main(["check", "--problem", "parking", "--M", "2", "--tf", "4",
                   "--T", "2", "--controls", str(solved_run / "controls.csv"),
                   "--adjoint-init", adjoint_init,
                   "--out", str(tmp_path / "chk")])
        assert rc == 4, adjoint_init
        assert "bad input" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_outputs(tmp_path):
    # the strict deviation decrease over the full period list holds for the
    # unconstrained instance (the constrained one ties the permanent law at
    # T=1 exactly; see test_parking.test_sweep_rows_and_convergence)
    out = tmp_path / "sw"
    rc = main(["sweep", "--problem", "parking", "--M", "2", "--tf", "4",
               "--T-list", "1,0.5,0.1,0.01", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert header == ["T", "K", "sup_dev", "terminal_residual",
                      "max_pmp_residual", "cost_sampled", "cost_permanent",
                      "status"]
    assert len(rows) == 4
    devs = [float(r[2]) for r in rows]
    assert devs[0] > devs[1] > devs[2] > devs[3]
    assert all(r[7] == "ok" for r in rows)
    for name in ("sweep_T1.svg", "sweep_T0.5.svg", "sweep_T0.1.svg",
                 "sweep_T0.01.svg"):
        svg = (out / name).read_text()
        assert svg.startswith("<svg") and "polyline" in svg and "path" in svg
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists()


def test_sweep_solves_each_period_once(tmp_path, interval_integrations):
    # one integration per period; the SVGs draw the rows' own controls
    rc = main(["sweep", "--problem", "parking", "--M", "2", "--tf", "3",
               "--T-list", "1,0.5,0.1", "--out", str(tmp_path / "sw")])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "sw" / "sweep.csv")
    Ks = [int(r[1]) for r in rows]
    assert Ks == [3, 6, 30]
    assert interval_integrations() == sum(Ks)


def test_sweep_single_period(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--problem", "parking", "--M", "2", "--tf", "3",
               "--T-list", "1", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 1


def test_sweep_flags_infeasible_period(tmp_path):
    # T > t_f collapses to one partial interval: cannot park, row flagged
    out = tmp_path / "sw"
    rc = main(["sweep", "--problem", "parking", "--M", "2", "--tf", "3",
               "--T-list", "5", "--out", str(out)])
    assert rc == 3
    _, rows = _read_csv(out / "sweep.csv")
    assert rows[0][7] == "failed"


def test_sweep_exits_2_when_every_certificate_fails(tmp_path,
                                                    failing_certificate):
    # the rows keep their cause, so the sweep exits with solve's code for it
    failing_certificate(parking)
    out = tmp_path / "sw"
    rc = main(["sweep", "--problem", "parking", "--M", "2", "--tf", "3",
               "--T-list", "1,0.5", "--out", str(out)])
    assert rc == 2
    _, rows = _read_csv(out / "sweep.csv")
    assert [r[7] for r in rows] == ["failed", "failed"]


def test_sweep_rejects_instance_without_solution(tmp_path, capsys):
    # t_f^2 < 4M: the failed rows' permanent cost hits the existence rule
    rc = main(["sweep", "--problem", "parking", "--M", "5", "--tf", "3",
               "--T-list", "1,0.5", "--out", str(tmp_path / "sw")])
    assert rc == 4
    assert "existence" in capsys.readouterr().err


def test_sweep_deterministic(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(["sweep", "--problem", "parking", "--M", "2", "--tf", "3",
                     "--T-list", "1,0.5", "--out", str(out)]) == 0
    assert (outs[0] / "sweep.csv").read_bytes() == (outs[1] / "sweep.csv").read_bytes()
    assert (outs[0] / "sweep_T1.svg").read_bytes() == (outs[1] / "sweep_T1.svg").read_bytes()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _count_steps(values):
    runs = 1
    for a, b in zip(values, values[1:]):
        if b != a:
            runs += 1
    return runs


@pytest.mark.parametrize("tf,steps", [(3.0, 6), (4.0, 8)])
def test_compare_staircase(tmp_path, tf, steps):
    run = tmp_path / "run"
    assert main(["solve", "--problem", "parking", "--M", "2", "--tf", str(tf),
                 "--T", "0.5", "--out", str(run)]) == 0
    rc = main(["compare", "--run", str(run), "--out", str(tmp_path / "cmp")])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "cmp" / "compare.csv")
    assert header == ["t", "u_hold", "u_star"]
    assert len(rows) == 1001
    hold = [float(r[1]) for r in rows]
    assert _count_steps(hold) == steps
    svg = (tmp_path / "cmp" / "compare.svg").read_text()
    assert "polyline" in svg and "path" in svg


def test_compare_partial_grid(tmp_path):
    # T = 0.7 gives five intervals, the last one 0.2 long; every sample holds
    # the control of its own interval, and t = t_f holds the last one
    run = tmp_path / "run"
    assert main(["solve", "--problem", "parking", "--M", "2", "--tf", "3",
                 "--T", "0.7", "--out", str(run)]) == 0
    assert main(["compare", "--run", str(run), "--out",
                 str(tmp_path / "cmp")]) == 0
    _, controls = _read_csv(run / "controls.csv")
    starts = np.array([float(r[1]) for r in controls])
    u = np.array([float(r[3]) for r in controls])
    np.testing.assert_allclose(starts, 0.7 * np.arange(5), atol=1e-12)
    _, rows = _read_csv(tmp_path / "cmp" / "compare.csv")
    ts = np.array([float(r[0]) for r in rows])
    hold = np.array([float(r[1]) for r in rows])
    k = np.searchsorted(starts, ts, side="right") - 1
    np.testing.assert_array_equal(hold, u[k])
    assert ts[-1] == 3.0 and k[-1] == 4


def test_compare_zero_controls(tmp_path):
    run = tmp_path / "zero"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps({
        "problem": {"builtin": "parking", "M": 2.0, "tf": 3.0, "T": 0.5}}))
    lines = ["k,t_k,delta_k,u_1,residual_k"]
    for k in range(6):
        lines.append(f"{k},{k*0.5},0.5,0.0,0.0")
    (run / "controls.csv").write_text("\n".join(lines) + "\n")
    rc = main(["compare", "--run", str(run), "--out", str(tmp_path / "cmp")])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "cmp" / "compare.csv")
    assert all(float(r[1]) == 0.0 for r in rows)


def test_compare_missing_run(tmp_path):
    assert main(["compare", "--run", str(tmp_path / "nope")]) == 4


@pytest.mark.parametrize("manifest", [
    {"problem": {"builtin": "parking", "tf": 3.0, "T": 0.5}},
    [{"problem": {"builtin": "parking", "M": 2.0, "tf": 3.0, "T": 0.5}}],
    {"problem": {"builtin": "parking", "M": None, "tf": 3.0, "T": 0.5}},
    {"problem": "parking"},
], ids=["missing-M", "list", "null-M", "problem-string"])
def test_compare_rejects_malformed_manifest(tmp_path, capsys, manifest):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps(manifest))
    (run / "controls.csv").write_text("k,t_k,delta_k,u_1,residual_k\n"
                                      + "".join(f"{k},0,0.5,0.0,0.0\n"
                                                for k in range(6)))
    assert main(["compare", "--run", str(run)]) == 4
    assert "bad input" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# module entry point
# ---------------------------------------------------------------------------

def test_subprocess_entry(tmp_path):
    # the child imports the package from the source tree, as the demos do
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "sampled_pmp", "solve", "--problem", "parking",
         "--M", "2", "--tf", "4", "--T", "2", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (out / "controls.csv").exists()
