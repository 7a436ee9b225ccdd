"""CLI commands, exit codes, artifact formats, determinism."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sampled_pmp import (ProblemDefinition, build_grid, load_problem_spec,
                         parking, solve, solver)
from sampled_pmp.cli import _build_parser, _resolve_problem, main
from sampled_pmp.svgfig import SvgPlot, _nice_ticks

from conftest import _count_calls


# the parking instance (2, 4) written out as an inline LTI spec
PARKING_SPEC = {
    "n": 2, "m": 1, "dynamics": "lti",
    "A": [[0, 1], [0, 0]], "B": [[0], [1]],
    "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
    "terminal": {"variant": "fixed_endpoints", "q0": [2, 0], "qf": [0, 0]},
    "tf": 4.0, "T": 2.0,
}

# the same instance with the box doubled: not parking, so generic shooting
# solves it (to the same controls, since the optimum stays inside the box)
GENERIC_SPEC = {
    **PARKING_SPEC,
    "control_set": {"kind": "box", "lower": [-2], "upper": [2]},
}

# dq/dt = 40 q from q(0) = 1 leaves the integrator's trust region at t = 0.72
BLOWUP_SPEC = {
    **PARKING_SPEC, "n": 1, "A": [[40]], "B": [[1]],
    "terminal": {"variant": "fixed_endpoints", "q0": [1], "qf": [0]},
    "tf": 1.0, "T": 0.5,
}

# the oscillator of PERIODIC_SPEC below, steered from (1, 0) to rest under
# Box(+-1) at t_f = 6: generic shooting stalls after one Newton step
STALLING_SPEC = {
    "n": 2, "m": 1, "dynamics": "lti",
    "A": [[0, 1], [-1, 0]], "B": [[0], [1]], "Q": [[1, 0], [0, 1]],
    "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
    "terminal": {"variant": "fixed_endpoints", "q0": [1, 0], "qf": [0, 0]},
    "tf": 6.0, "T": 0.25,
}

# the saddle (eigenvalues +-1) under Box(+-2) at t_f = 30: the arc of the
# origin guess already leaves the integrator's trust region
SADDLE_SPEC = {
    **STALLING_SPEC, "A": [[0, 1], [1, 0]], "Q": [[0, 0], [0, 0]],
    "control_set": {"kind": "box", "lower": [-2], "upper": [2]},
    "tf": 30.0, "T": 1.5,
}

PARKING_FLAGS = ["--problem", "parking", "--M", "2", "--tf", "4", "--T", "2"]

# a free horizon: parking's double integrator with cost q_1^2 + u^2 from
# (1, 0), the horizon sought from 3.1 (it solves at t_f = 4.2941)
FREE_HORIZON_SPEC = {
    "n": 2, "m": 1, "dynamics": "lti",
    "A": [[0, 1], [0, 0]], "B": [[0], [1]], "Q": [[1, 0], [0, 0]],
    "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
    "terminal": {"variant": "fixed_endpoints", "q0": [1, 0], "qf": [0, 0]},
    "tf": 3.1, "final_time_mode": "free", "T": 0.5,
}

# a periodic oscillator: q(0) = q(t_f), with q(0) among the unknowns
PERIODIC_SPEC = {
    "n": 2, "m": 1, "dynamics": "lti",
    "A": [[0, 1], [-1, 0]], "B": [[0], [1]], "Q": [[1, 0], [0, 1]],
    "control_set": {"kind": "box", "lower": [-1], "upper": [1]},
    "terminal": {"variant": "periodic"}, "tf": 2.0, "T": 0.5,
}


def _readme_inline_spec():
    """The inline specification that README.md shows, as a dict."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```json\n(.*?)```", readme.read_text(), re.DOTALL)
    return next(json.loads(b) for b in blocks if '"dynamics"' in b)


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
    # the specification the flags spelled, and no input hashes
    assert manifest["problem"] == {"problem": "parking", "M": 2.0, "tf": 4.0,
                                   "T": 2.0}
    assert "inputs" not in manifest
    assert manifest["unknowns"]["vector"][0] == pytest.approx(-1.0, abs=1e-6)
    assert "config" not in manifest
    stats = {}
    extremal, _ = parking.solve_parking(2.0, 4.0, 2.0, stats=stats)
    _assert_manifest_records(manifest, extremal, stats,
                             vector=stats["unknowns"])


def _assert_manifest_records(manifest, extremal, stats, **unknowns):
    """The solve manifest holds p(0), the solved unknowns under their one
    key, and the Newton run's iterations and residuals, all as the solve
    gave them."""
    assert manifest["unknowns"] == {
        "p_init": extremal.initial_adjoint.tolist(), **unknowns}
    assert manifest["iterations"] == stats["iterations"]
    assert manifest["residual_norm"] == stats["residual_norm"]
    assert manifest["residual_history"] == [
        entry["residual_norm"] for entry in stats["history"]]


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


def test_solve_parking_certifies_in_one_gradient_call(tmp_path, monkeypatch):
    # the certificate evaluates dH/du on all 30 x 17 nodes in one call, not
    # one call per node (510)
    calls = 0
    gradient = ProblemDefinition.hamiltonian_u

    def counted(*args):
        nonlocal calls
        calls += 1
        return gradient(*args)

    monkeypatch.setattr(ProblemDefinition, "hamiltonian_u", counted)
    rc = main(["solve", "--problem", "parking", "--M", "2", "--tf", "3",
               "--T", "0.1", "--out", str(tmp_path / "run")])
    assert rc == 0
    assert calls == 1


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


def test_solve_from_spec_file(tmp_path, residual_evals):
    # the manifest records the file's object with --T set as its field
    spec = tmp_path / "problem.json"
    data = {key: value for key, value in GENERIC_SPEC.items() if key != "T"}
    spec.write_text(json.dumps(data))
    out = tmp_path / "run"
    rc = main(["solve", "--spec", str(spec), "--T", "2", "--out", str(out)])
    assert rc == 0
    assert residual_evals() > 0
    _, rows = _read_csv(out / "controls.csv")
    assert float(rows[0][3]) == pytest.approx(-0.5, abs=1e-6)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"] == {**data, "T": 2.0}
    assert "inputs" not in manifest
    stats = {}
    loaded = load_problem_spec(spec)
    extremal, _ = solve(loaded.problem, build_grid(4.0, 2.0), stats=stats)
    _assert_manifest_records(manifest, extremal, stats,
                             vector=stats["unknowns"])


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
    spec.write_text(json.dumps(PARKING_SPEC))
    assert main(["solve", "--spec", str(spec), "--M", "3",
                 "--out", str(tmp_path / "run")]) == 4


@pytest.mark.parametrize("args, message", [
    (["--problem", "parking", "--tf", "4", "--T", "2"],
     "--problem parking needs --M and --tf"),
    (["--problem", "parking", "--M", "2", "--tf", "4"],
     "--problem parking needs --T"),
    (["--M", "3"], "--M applies to the builtin parking problem only"),
], ids=["no-M", "no-T", "M-with-inline-spec"])
def test_problem_flag_messages_name_the_flag(tmp_path, capsys, args, message):
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps(PARKING_SPEC))
    if "--problem" not in args:
        args = ["--spec", str(spec), *args]
    assert main(["solve", *args, "--out", str(tmp_path / "run")]) == 4
    assert message in capsys.readouterr().err


def test_flags_fill_spec_fields_before_parsing(tmp_path, capsys):
    # a spec without T solves once --T supplies it, names T when nothing
    # does, and sweeps without one
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"problem": "parking", "M": 2, "tf": 4}))
    assert main(["solve", "--spec", str(spec), "--out",
                 str(tmp_path / "a")]) == 4
    assert "has no field 'T'; pass --T" in capsys.readouterr().err
    assert main(["solve", "--spec", str(spec), "--T", "2", "--out",
                 str(tmp_path / "b")]) == 0
    assert main(["sweep", "--spec", str(spec), "--T-list", "2,1", "--out",
                 str(tmp_path / "c")]) == 0


def test_cli_builds_parking_through_the_module_factory(parking_f_calls):
    # instrumentation replaces parking.parking_problem on the module; the
    # problems the CLI resolves come from it, so their f is counted
    args = _build_parser().parse_args(["solve", *PARKING_FLAGS, "--out", "x"])
    loaded, spec = _resolve_problem(args)
    assert spec == {"problem": "parking", "M": 2.0, "tf": 4.0, "T": 2.0}
    problem = loaded.problem
    problem.f(0.0, np.zeros(2), np.zeros(1))
    assert parking_f_calls() == 1


@pytest.mark.parametrize("source", ["spec", "parking"])
def test_solve_writes_failing_certificate_and_exits_2(tmp_path, capsys,
                                                      failing_certificate,
                                                      residual_evals, source):
    # both sources return solve's verdict; neither raises on a failure
    failing_certificate(solver)
    if source == "spec":
        spec = tmp_path / "problem.json"
        spec.write_text(json.dumps(GENERIC_SPEC))
        flags = ["--spec", str(spec)]
    else:
        flags = PARKING_FLAGS
    out = tmp_path / "run"
    assert main(["solve", *flags, "--out", str(out)]) == 2
    assert residual_evals() > 0
    assert "forced failure" in capsys.readouterr().err
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["verdict"] == "fail"
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (out / name).exists(), name


def test_solve_reports_blow_up_as_non_convergence(tmp_path, capsys,
                                                  residual_evals):
    spec = tmp_path / "blowup.json"
    spec.write_text(json.dumps(BLOWUP_SPEC))
    assert main(["solve", "--spec", str(spec),
                 "--out", str(tmp_path / "run")]) == 3
    assert "integration blew up at t=0.71875" in capsys.readouterr().err
    assert residual_evals() > 0


@pytest.mark.parametrize("spec, first_line, history_lines", [
    (STALLING_SPEC, "solver did not converge: no step direction decreased "
     "the residual (at 2.919e+00)", 2),
    (SADDLE_SPEC, "solver did not converge: integration blew up at "
     "t=28.0312", 0),
], ids=["stall", "blow-up"])
def test_generic_solve_failure_report(tmp_path, capsys, spec, first_line,
                                      history_lines):
    # a NonConvergence prints its message, then its last history entries,
    # each with the iterate's active set; a blow-up prints its time alone
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["solve", "--spec", str(path),
                 "--out", str(tmp_path / "run")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == first_line
    assert len(lines) == 1 + history_lines
    assert all("'active_set'" in line for line in lines[1:])


def test_readme_inline_spec_takes_the_parking_path(tmp_path, monkeypatch,
                                                  residual_evals):
    # the spec denotes parking (2, 4), so solve serves it by solve_parking,
    # whose residuals are all the closed-form map's, and writes what
    # --problem parking writes, byte for byte
    solve_parking_calls = _count_calls(monkeypatch, parking, "solve_parking")
    walks = _count_calls(monkeypatch, solver, "_propagate")
    spec = tmp_path / "readme.json"
    spec.write_text(json.dumps(_readme_inline_spec()))
    a, b = tmp_path / "spec", tmp_path / "flags"
    assert main(["solve", "--spec", str(spec), "--out", str(a)]) == 0
    assert solve_parking_calls() == 1
    assert residual_evals() > 0 and walks() == 0
    assert main(["solve", *PARKING_FLAGS, "--out", str(b)]) == 0
    for name in ("controls.csv", "trajectory.csv", "certificate.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["problem"] == _readme_inline_spec()
    assert manifest["unknowns"]["vector"][0] == pytest.approx(-1.0, abs=1e-6)


def test_readme_inline_spec_sweeps_and_compares(tmp_path):
    spec = tmp_path / "readme.json"
    spec.write_text(json.dumps(_readme_inline_spec()))
    assert main(["sweep", "--spec", str(spec), "--T-list", "1,0.5",
                 "--out", str(tmp_path / "sw")]) == 0
    _, rows = _read_csv(tmp_path / "sw" / "sweep.csv")
    assert [r[7] for r in rows] == ["ok", "ok"]
    run = tmp_path / "run"
    assert main(["solve", "--spec", str(spec), "--out", str(run)]) == 0
    assert main(["compare", "--run", str(run),
                 "--out", str(tmp_path / "cmp")]) == 0
    _, rows = _read_csv(tmp_path / "cmp" / "compare.csv")
    assert _count_steps([float(r[1]) for r in rows]) == 2


@pytest.mark.parametrize("spec", [
    None, "readme", FREE_HORIZON_SPEC, PERIODIC_SPEC,
], ids=["parking-flags", "readme-inline", "free-horizon", "periodic"])
def test_manifest_replays(tmp_path, spec):
    # the manifest's problem is a specification: solve --spec of it writes
    # the same artifacts and the same manifest apart from the wall time, and
    # compare reads a parking run and its replay alike
    if spec is None:
        flags = ["--problem", "parking", "--M", "2", "--tf", "3", "--T", "0.5"]
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(
            _readme_inline_spec() if spec == "readme" else spec))
        flags = ["--spec", str(path)]
    a, b = tmp_path / "run", tmp_path / "replay"
    assert main(["solve", *flags, "--out", str(a)]) == 0
    first = json.loads((a / "manifest.json").read_text())
    replayed = tmp_path / "replayed.json"
    replayed.write_text(json.dumps(first["problem"]))
    assert main(["solve", "--spec", str(replayed), "--out", str(b)]) == 0
    for name in ("controls.csv", "trajectory.csv", "certificate.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    second = json.loads((b / "manifest.json").read_text())
    del first["wall_time_s"], second["wall_time_s"]
    assert first == second
    if spec in (None, "readme"):
        for run in (a, b):
            assert main(["compare", "--run", str(run)]) == 0
        assert ((a / "compare.csv").read_bytes()
                == (b / "compare.csv").read_bytes())


def test_inline_parking_without_solution_is_bad_input(tmp_path, capsys):
    # t_f^2 <= 4M: the closed-form path rejects it as --problem parking does
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({**PARKING_SPEC, "tf": 2.0, "T": 1.0}))
    assert main(["solve", "--spec", str(spec),
                 "--out", str(tmp_path / "run")]) == 4
    assert "existence" in capsys.readouterr().err


def test_sweep_rejects_a_problem_that_is_not_parking(tmp_path, capsys):
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps(GENERIC_SPEC))
    assert main(["sweep", "--spec", str(spec), "--T-list", "1",
                 "--out", str(tmp_path / "sw")]) == 4
    assert "requires a parking problem" in capsys.readouterr().err


@pytest.mark.parametrize("args, flag", [
    (["solve", "--problem", "parking", "--M", "-2", "--tf", "4", "--T", "2"],
     "--M"),
    (["solve", "--problem", "parking", "--M", "2", "--tf", "0", "--T", "2"],
     "--tf"),
    (["solve", "--problem", "parking", "--M", "2", "--tf", "4", "--T", "-1"],
     "--T"),
    (["sweep", "--problem", "parking", "--M", "2", "--tf", "4",
      "--T-list", "1,-0.5"], "--T-list"),
    (["solve", "--problem", "parking", "--M", "2", "--tf", "4", "--T", "abc"],
     "--T"),
], ids=["M", "tf", "T", "T-list", "T-not-a-number"])
def test_flags_must_be_positive(tmp_path, capsys, args, flag):
    # the message names the flag the user wrote, not a spec field
    assert main([*args, "--out", str(tmp_path / "out")]) == 4
    err = capsys.readouterr().err
    assert flag in err and "positive" in err
    assert "field" not in err


@pytest.mark.parametrize("args, unknown", [
    (["sweep", "--problem", "parking", "--M", "2", "--tf", "3",
      "--T-list", "0.5", "--T", "1"], "unrecognized arguments: --T 1"),
    (["check", *PARKING_FLAGS, "--contr", "controls.csv",
      "--adjoint-init=-1,-2"], "the following arguments are required: "
     "--controls"),
], ids=["sweep-T", "check-prefix"])
def test_flags_are_spelled_in_full(tmp_path, capsys, args, unknown):
    # no flag stands for another it is a prefix of: sweep takes no --T, and
    # --contr is not --controls
    assert main([*args, "--out", str(tmp_path / "out")]) == 4
    assert unknown in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["solve", "--M", "2", "--tf", "1e103", "--T", "1e102"],
    ["sweep", "--M", "2", "--tf", "1e103", "--T-list", "1e102"],
    ["solve", "--M", "1e160", "--tf", "1e200", "--T", "1e199"],
], ids=["solve-tf-cubed", "sweep-tf-cubed", "solve-M-squared"])
def test_overflowing_parking_flags_are_bad_input(tmp_path, capsys, args):
    # finite flags whose t_f^3 or M^2 overflows: a message naming both
    # values, never a traceback
    argv = [args[0], "--problem", "parking", *args[1:],
            "--out", str(tmp_path / "out")]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert (f"t_f^3 or M^2 overflows at M={float(args[2]):.6g}, "
            f"t_f={float(args[4]):.6g}") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, periods", [
    ("solve", ["--T", "1e99"]), ("sweep", ["--T-list", "1e99"])])
def test_huge_finite_parking_blows_up_quietly(tmp_path, capsys, command,
                                              periods):
    # finite flags that pass the existence rule, but the start (1e150, 0)
    # breaks the blow-up rule: solve judges z(0) at t = 0, before any
    # Newton step, so the run exits 3 naming the blow-up and no numpy
    # warning reaches standard error; the sweep's one row reads failed
    out = tmp_path / "out"
    assert main([command, "--problem", "parking", "--M", "1e150", "--tf",
                 "1e100", *periods, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "Warning" not in err
    if command == "solve":
        assert "integration blew up at t=0" in err
    else:
        _, rows = _read_csv(out / "sweep.csv")
        assert [r[7] for r in rows] == ["failed"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert "integration blew up at t=0" in manifest["errors"]["1e99"]


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
        path.write_text(json.dumps({**PARKING_SPEC, **spec}))
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
                "problem": {"problem": "parking", "M": 2.0, "tf": 4.0,
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


def test_check_skips_blank_controls_rows(solved_run, tmp_path):
    # a blank line between two data rows is not a control row
    controls = (solved_run / "controls.csv").read_text().splitlines()
    spaced = tmp_path / "spaced.csv"
    spaced.write_text("\n".join([*controls[:2], "", " , ", *controls[2:]])
                      + "\n")
    rc = main(["check", *PARKING_FLAGS, "--controls", str(spaced),
               "--adjoint-init", str(solved_run / "manifest.json"),
               "--out", str(tmp_path / "chk")])
    assert rc == 0


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
    assert cert["interval_residuals"][0] >= 0.1
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
    # p(0) = (9.95e11, 0) starts inside BLOWUP_NORM and leaves it in the
    # first RK4 step, where p_2 = -p_1 t grows |p| by sqrt(1 + h^2); 1e300
    # breaks the blow-up rule at the start node, before any step
    for adjoint_init, time in [("9.95e11,0", "0.125"), ("1e300,1", "0")]:
        rc = main(["check", *PARKING_FLAGS,
                   "--controls", str(solved_run / "controls.csv"),
                   f"--adjoint-init={adjoint_init}",
                   "--out", str(tmp_path / "chk")])
        assert rc == 2
        assert capsys.readouterr().err == (f"certificate failed: integration "
                                           f"blew up at t={time}\n")


def test_check_validates_adjoint_init(solved_run, tmp_path, capsys):
    # a wrong length, then JSON files whose p_init is not a list of numbers
    path = tmp_path / "adjoint.json"
    for adjoint_init in ["1,2,3", {"p_init": {"a": 1}}, {"p_init": [True, -2]},
                         {"unknowns": {"p_init": [-1, None]}},
                         {"p": [-1, -2]}]:
        # a JSON object with neither key is told which keys are read
        message = ("no 'vector' or 'p_init' entry found"
                   if adjoint_init == {"p": [-1, -2]} else "")
        if not isinstance(adjoint_init, str):
            path.write_text(json.dumps(adjoint_init))
            adjoint_init = str(path)
        rc = main(["check", "--problem", "parking", "--M", "2", "--tf", "4",
                   "--T", "2", "--controls", str(solved_run / "controls.csv"),
                   "--adjoint-init", adjoint_init,
                   "--out", str(tmp_path / "chk")])
        assert rc == 4, adjoint_init
        err = capsys.readouterr().err
        assert "bad input" in err and message in err, adjoint_init


@pytest.mark.parametrize("kind", ["bad-json", "directory"])
def test_unreadable_adjoint_init_file_names_flag_and_path(solved_run, tmp_path,
                                                          capsys, kind):
    path = tmp_path / "adjoint"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_text("{oops")
    rc = main(["check", *PARKING_FLAGS,
               "--controls", str(solved_run / "controls.csv"),
               "--adjoint-init", str(path), "--out", str(tmp_path / "chk")])
    assert rc == 4
    assert f"bad input: --adjoint-init {path}: " in capsys.readouterr().err


def test_check_reads_adjoint_init_from_a_bare_json_list(solved_run, tmp_path):
    # a file holding only the list p(0), where p(0) is every unknown
    manifest = json.loads((solved_run / "manifest.json").read_text())
    path = tmp_path / "p_init.json"
    path.write_text(json.dumps(manifest["unknowns"]["p_init"]))
    rc = main(["check", *PARKING_FLAGS,
               "--controls", str(solved_run / "controls.csv"),
               "--adjoint-init", str(path), "--out", str(tmp_path / "chk")])
    assert rc == 0


_CONTROLS_HEADER = "k,t_k,delta_k,u_1,residual_k\n"


@pytest.mark.parametrize("args, controls, message", [
    (["check", *PARKING_FLAGS, "--adjoint-init=-1,-2"], None,
     "does not exist"),
    (["check", *PARKING_FLAGS, "--adjoint-init=-1,-2"], "",
     "empty file, expected a header row"),
    (["check", *PARKING_FLAGS, "--adjoint-init=-1,-2"],
     _CONTROLS_HEADER + "0,0,2,-0.5\n1,2,2,0.5,0\n",
     "row 2 has 4 cells, header has 5"),
    (["check", *PARKING_FLAGS, "--adjoint-init=-1,-2"], _CONTROLS_HEADER,
     "no data rows"),
    (["check", *PARKING_FLAGS, "--adjoint-init=a,b"],
     _CONTROLS_HEADER + "0,0,2,-0.5,0\n1,2,2,0.5,0\n",
     "neither a file nor a comma-separated vector"),
    (["check", *PARKING_FLAGS, "--adjoint-init=-1,-2"],
     _CONTROLS_HEADER + "0,0,2,-0.5,0\n1,2,2,0.5,0\n2,4,2,0.5,0\n",
     "3 control rows but the grid has 2 intervals"),
    (["sweep", "--problem", "parking", "--M", "2", "--tf", "4",
      "--T-list", ", ,"], None, "--T-list must contain at least one period"),
], ids=["controls-missing", "controls-empty", "controls-ragged",
        "controls-header-only", "adjoint-init-not-numbers", "controls-rows",
        "T-list-empty"])
def test_bad_input_names_the_fault(tmp_path, capsys, args, controls, message):
    # controls None: the controls file does not exist
    path = tmp_path / "controls.csv"
    if controls is not None:
        path.write_text(controls)
    if args[0] == "check":
        args = [*args, "--controls", str(path)]
    assert main([*args, "--out", str(tmp_path / "out")]) == 4
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec", [FREE_HORIZON_SPEC, PERIODIC_SPEC],
                         ids=["free-horizon", "periodic"])
def test_check_round_trip_beyond_fixed_endpoints(tmp_path, spec):
    # the manifest's packed unknowns carry q(0) or t_f besides p(0); a JSON
    # object holding only that vector, at top level or under "unknowns",
    # is enough
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    run = tmp_path / "run"
    assert main(["solve", "--spec", str(path), "--out", str(run)]) == 0
    vector = json.loads((run / "manifest.json").read_text())["unknowns"]["vector"]
    for record in (None, {"vector": vector}, {"unknowns": {"vector": vector}}):
        unknowns = run / "manifest.json"
        if record is not None:
            unknowns = tmp_path / "unknowns.json"
            unknowns.write_text(json.dumps(record))
        rc = main(["check", "--spec", str(path),
                   "--controls", str(run / "controls.csv"),
                   "--adjoint-init", str(unknowns),
                   "--out", str(tmp_path / "chk")])
        assert rc == 0, record
        cert = json.loads((tmp_path / "chk" / "certificate.json").read_text())
        assert cert["verdict"] == "pass", record


@pytest.mark.parametrize("spec, missing", [
    (FREE_HORIZON_SPEC, "t_f"), (PERIODIC_SPEC, "q(0)"),
], ids=["free-horizon", "periodic"])
def test_check_needs_every_unknown(tmp_path, capsys, spec, missing):
    # p(0) alone does not fix the extremal: a bare vector is bad input
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    run = tmp_path / "run"
    assert main(["solve", "--spec", str(path), "--out", str(run)]) == 0
    capsys.readouterr()
    rc = main(["check", "--spec", str(path),
               "--controls", str(run / "controls.csv"),
               "--adjoint-init=0,0", "--out", str(tmp_path / "chk")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "gives p(0) only" in err and f"also hold {missing}" in err


@pytest.mark.parametrize("t_f", [-1.0, 0.0])
def test_check_rejects_a_nonpositive_final_time(tmp_path, capsys, t_f):
    # a solve manifest whose packed unknowns end in t_f <= 0 is bad input
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(FREE_HORIZON_SPEC))
    run = tmp_path / "run"
    assert main(["solve", "--spec", str(path), "--out", str(run)]) == 0
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["unknowns"]["vector"][-1] = t_f
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main(["check", "--spec", str(path),
               "--controls", str(run / "controls.csv"),
               "--adjoint-init", str(run / "manifest.json"),
               "--out", str(tmp_path / "chk")])
    assert rc == 4
    err = capsys.readouterr().err
    assert f"final time must be positive, got t_f={t_f}" in err


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
    # the specification the flags spelled; the periods come from --T-list
    assert manifest["problem"] == {"problem": "parking", "M": 2.0, "tf": 4.0}
    assert "inputs" not in manifest


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


def test_unreachable_parking_is_rejected_with_its_reach(tmp_path, capsys):
    # one interval reaches no M > 0: solve says so and exits 3, and a sweep
    # that also solves another period writes one failed row and exits 0
    rc = main(["solve", "--problem", "parking", "--M", "2", "--tf", "3",
               "--T", "5", "--out", str(tmp_path / "run")])
    assert rc == 3
    assert "target unreachable: M = 2 exceeds the reach R = 0 of K = 1" \
        in capsys.readouterr().err
    out = tmp_path / "sw"
    rc = main(["sweep", "--problem", "parking", "--M", "2", "--tf", "3",
               "--T-list", "5,0.5", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "sweep.csv")
    assert [r[7] for r in rows] == ["failed", "ok"]


def test_sweep_exits_2_when_every_certificate_fails(tmp_path,
                                                    failing_certificate):
    # the rows keep their cause, so the sweep exits with solve's code for it
    failing_certificate(solver)
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
        "problem": {"problem": "parking", "M": 2.0, "tf": 3.0, "T": 0.5}}))
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


@pytest.mark.parametrize("manifest, message", [
    ({"problem": {"problem": "parking", "tf": 3.0, "T": 0.5}},
     "'problem': missing required field 'M' in builtin spec"),
    ([{"problem": {"problem": "parking", "M": 2.0, "tf": 3.0, "T": 0.5}}],
     "'problem' must be an object"),
    ({"problem": {"problem": "parking", "M": None, "tf": 3.0, "T": 0.5}},
     "field 'M' in builtin spec must be a number"),
    ({"problem": "parking"}, "'problem' must be an object"),
    ({"problem": {**GENERIC_SPEC, "tf": 3.0, "T": 0.5}},
     "compare needs a parking run"),
    ({"problem": {"problem": "parking", "M": 2.0, "tf": 3.0}},
     "'problem' has no field 'T': compare needs a solve run, not a sweep"),
    ({"problem": {"problem": "parking", "M": 2.0, "tf": 3.0, "T": 1.0}},
     "row count does not match the grid"),
], ids=["missing-M", "list", "null-M", "problem-string", "not-parking",
        "no-T", "row-count"])
def test_compare_rejects_malformed_manifest(tmp_path, capsys, manifest,
                                            message):
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps(manifest))
    (run / "controls.csv").write_text("k,t_k,delta_k,u_1,residual_k\n"
                                      + "".join(f"{k},0,0.5,0.0,0.0\n"
                                                for k in range(6)))
    assert main(["compare", "--run", str(run)]) == 4
    err = capsys.readouterr().err
    assert "bad input" in err and message in err


def test_svg_plot_degenerate_ranges():
    # no finite point, or one point, still gives an axis of unit span;
    # the tick rule covers a non-finite or empty range the same way
    assert _nice_ticks(math.nan, 1.0) == [0.0, 1.0]
    assert _nice_ticks(0.0, math.inf) == [0.0, 1.0]
    assert _nice_ticks(2.0, 2.0) == _nice_ticks(2.0, 3.0)
    for xs, ys in (([math.nan], [math.inf]), ([1.0], [2.0])):
        plot = SvgPlot()
        plot.add_crosses(xs, ys)
        xmin, xmax, ymin, ymax = plot._scales()[2]
        # the unit span padded by 5 % on x and 8 % on y, each side
        assert (xmax - xmin, ymax - ymin) == pytest.approx((1.1, 1.16))
        assert plot.render().endswith("</svg>\n")
    with pytest.raises(ValueError, match="len\\(edges\\)"):
        SvgPlot().add_steps([0.0, 1.0], [0.5, 0.5])


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
