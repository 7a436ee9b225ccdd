"""Command-line front end: solve, check, sweep and compare.

Exit codes: 0 success, 2 certificate failure, 3 solver non-convergence,
4 bad input.  An integration that blows up is a non-convergence in
``solve`` and a certificate failure in ``check``; a non-finite number in
the flags, the specification, the initial adjoint or a controls file is bad
input.
Diagnostics go to standard error; artifacts (CSV, JSON, SVG) into the
chosen output directory.  Every CSV artifact goes through one table writer
and every JSON artifact through one JSON writer.  Numeric CSV cells use
%.12e with a dot decimal point, so identical inputs give byte-identical
data files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import parking
from .certificate import Certificate, check_certificate
from .errors import (Infeasible, IntegrationBlowUp, NonConvergence,
                     UnsupportedCase)
from .problem import FixedTime, FreeTime, build_grid
from .simulate import Extremal, integrate_extremal_forward
from .solver import solve
from .specfile import (LoadedSpec, SpecError, _number, _vector,
                       load_problem_spec)
from .svgfig import SvgPlot

EXIT_OK = 0
EXIT_CERTIFICATE = 2
EXIT_NONCONVERGENCE = 3
EXIT_BAD_INPUT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; bad input must be 4 here
    def error(self, message):
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """argparse type: a number that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, "
                                         f"got {text!r}")
    return value


def _build_parser() -> _Parser:
    p = _Parser(prog="sampled-pmp",
                description="Solve and certify optimal sampled-data control "
                            "problems by indirect shooting.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_problem_flags(sp, with_T=True):
        sp.add_argument("--problem", choices=["parking"],
                        help="built-in problem name")
        sp.add_argument("--spec", type=str, help="problem specification JSON")
        sp.add_argument("--M", type=_finite_float,
                        help="parking initial position")
        sp.add_argument("--tf", type=_finite_float, help="final time")
        if with_T:
            sp.add_argument("--T", type=_finite_float, help="sampling period")

    sp = sub.add_parser("solve", description="Solve a problem and write "
                        "controls, trajectory, certificate and manifest.")
    add_problem_flags(sp)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("check", description="Re-simulate a control sequence "
                        "and verify the optimality certificate.")
    add_problem_flags(sp)
    sp.add_argument("--controls", required=True, help="controls CSV")
    sp.add_argument("--adjoint-init", required=True,
                    help="initial adjoint p1,...,pn or a JSON file with it "
                         "(use --adjoint-init=-1,-2 for negative values)")
    sp.add_argument("--out", default=".", help="output directory")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("sweep", description="Solve the parking instance over "
                        "a list of sampling periods and tabulate the "
                        "deviation from the permanent optimum.")
    add_problem_flags(sp, with_T=False)
    sp.add_argument("--T-list", required=True, dest="T_list",
                    help="comma-separated sampling periods")
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("compare", description="Emit the sample-and-hold "
                        "staircase of a solved run next to the permanent "
                        "optimal control.")
    sp.add_argument("--run", required=True, help="directory written by solve")
    sp.add_argument("--out", default=None,
                    help="output directory (default: the run directory)")
    sp.set_defaults(func=cmd_compare)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except NonConvergence as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        for entry in exc.history[-5:]:
            print(f"  {entry}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except IntegrationBlowUp as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (SpecError, UnsupportedCase, Infeasible, ValueError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def console_main() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _resolve_problem(args, need_T: bool = True) -> LoadedSpec:
    """Problem from --problem/--spec with flag overrides for M, tf, T."""
    if (args.problem is None) == (getattr(args, "spec", None) is None):
        raise ValueError("exactly one of --problem or --spec is required")
    if args.problem is not None:
        if args.problem != "parking":
            raise ValueError(f"unknown builtin problem {args.problem!r}")
        if args.M is None or args.tf is None:
            raise ValueError("--problem parking needs --M and --tf")
        T = getattr(args, "T", None)
        if need_T and T is None:
            raise ValueError("--problem parking needs --T")
        return LoadedSpec(problem=parking.parking_problem(args.M, args.tf),
                          t_f=args.tf, T=T if T is not None else float("nan"),
                          builtin="parking", params={"M": args.M})
    loaded = load_problem_spec(args.spec)
    tf = args.tf if args.tf is not None else loaded.t_f
    T = getattr(args, "T", None)
    T = T if T is not None else loaded.T
    problem, params = loaded.problem, loaded.params
    if loaded.builtin == "parking":
        params = {"M": args.M if args.M is not None else params["M"]}
        problem = parking.parking_problem(params["M"], tf)
    elif args.M is not None:
        raise ValueError("--M applies to the builtin parking problem only")
    elif tf != loaded.t_f:
        mode = (FreeTime(tf) if isinstance(problem.final_time, FreeTime)
                else FixedTime(tf))
        problem = dataclasses.replace(problem, final_time=mode)
    return LoadedSpec(problem=problem, t_f=tf, T=T, builtin=loaded.builtin,
                      params=params)


def _sha256(path) -> str:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    return f"sha256:{digest}"


def _read_controls_csv(path, m: int) -> np.ndarray:
    """Controls from a CSV with u_1..u_m columns; diagnoses bad cells."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"controls file {path} does not exist")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [h.strip() for h in header]
        cols = []
        for i in range(m):
            name = f"u_{i+1}"
            if name not in header:
                raise ValueError(f"{path}: header row lacks column '{name}' "
                                 f"(found {header})")
            cols.append(header.index(name))
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: row {lineno} has {len(row)} cells, "
                                 f"header has {len(header)}")
            vals = []
            for name, idx in zip([f"u_{i+1}" for i in range(m)], cols):
                try:
                    val = float(row[idx])
                except ValueError:
                    raise ValueError(f"{path}: row {lineno}, column '{name}': "
                                     f"cannot parse {row[idx]!r} as a number")
                if not math.isfinite(val):
                    raise ValueError(f"{path}: row {lineno}, column '{name}': "
                                     f"control must be finite, got {val}")
                vals.append(val)
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows)


def _parse_adjoint_init(text: str, n: int) -> np.ndarray:
    """p(0) from 'p1,...,pn' or from a JSON file carrying it."""
    candidate = Path(text)
    if candidate.exists():
        data = json.loads(candidate.read_text(encoding="utf-8"))
        if isinstance(data, list):
            data = {"p_init": data}
        elif isinstance(data, dict) and "p_init" not in data \
                and isinstance(data.get("unknowns"), dict):
            data = data["unknowns"]
        if not isinstance(data, dict) or "p_init" not in data:
            raise ValueError(f"{text}: no 'p_init' entry found")
        arr = _vector(data, "p_init", text)
    else:
        try:
            arr = np.array([float(tok) for tok in text.split(",")])
        except ValueError:
            raise ValueError(f"--adjoint-init {text!r} is neither a file nor "
                             f"a comma-separated vector")
    if arr.shape != (n,):
        raise ValueError(f"--adjoint-init must have {n} components, "
                         f"got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"--adjoint-init must be finite, got {arr.tolist()}")
    return arr


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_table(path, header, fmt: str, rows) -> None:
    """CSV artifact: the header row, then ``fmt % tuple(row)`` per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % tuple(row) + "\n" for row in rows)


def _write_json(path, payload: dict) -> None:
    """JSON artifact: two-space indent, sorted keys, a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trajectory_csv(extremal: Extremal, path) -> None:
    """One row per node: t, q_1..q_n, p_1..p_n, k, u_1..u_m (%.12e)."""
    K, nodes, n = extremal.states.shape
    m = extremal.controls.m
    header = (["t"] + [f"q_{i+1}" for i in range(n)]
              + [f"p_{i+1}" for i in range(n)] + ["k"]
              + [f"u_{i+1}" for i in range(m)])
    k = np.broadcast_to(np.arange(K, dtype=float)[:, None, None],
                        (K, nodes, 1))
    u = np.broadcast_to(extremal.controls.values[:, None, :], (K, nodes, m))
    rows = np.concatenate([extremal.times[:, :, None], extremal.states,
                           extremal.adjoints, k, u], axis=2)
    fmt = ",".join(["%.12e"] * (1 + 2 * n) + ["%d"] + ["%.12e"] * m)
    # one row at a time as Python floats, which %-format faster than numpy
    # scalars, without holding every row as a list
    _write_table(path, header, fmt,
                 map(np.ndarray.tolist, rows.reshape(K * nodes, -1)))


def write_certificate_json(cert: Certificate, path) -> None:
    _write_json(path, cert.to_json_dict())


def _write_controls_csv(path, grid, controls, residuals) -> None:
    m = controls.m
    header = (["k", "t_k", "delta_k"] + [f"u_{i+1}" for i in range(m)]
              + ["residual_k"])
    _write_table(path, header, ",".join(["%d"] + ["%.12e"] * (m + 3)),
                 [(k, grid.times[k], grid.lengths[k], *controls[k],
                   residuals[k]) for k in range(grid.n_intervals)])


def _write_manifest(out_dir: Path, payload: dict, outputs) -> None:
    payload = dict(payload)
    payload["outputs"] = sorted(set(list(outputs) + ["manifest.json"]))
    _write_json(out_dir / "manifest.json", payload)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    loaded = _resolve_problem(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    stats: dict = {}
    if loaded.builtin == "parking":
        extremal, (p1, p2f), cert = parking.solve_parking(
            loaded.params["M"], loaded.t_f, loaded.T, stats=stats)
        unknowns = {"p_init": extremal.initial_adjoint.tolist(),
                    "multipliers": [p1, p2f]}
    else:
        grid = build_grid(loaded.t_f, loaded.T)
        extremal, cert = solve(loaded.problem, grid, stats=stats)
        unknowns = {"p_init": extremal.initial_adjoint.tolist()}
        if "unknowns" in stats:
            unknowns["vector"] = stats["unknowns"]
    wall = time.perf_counter() - started

    _write_controls_csv(out_dir / "controls.csv", extremal.grid,
                        extremal.controls, cert.interval_residuals)
    write_trajectory_csv(extremal, out_dir / "trajectory.csv")
    write_certificate_json(cert, out_dir / "certificate.json")

    inputs = {}
    if args.spec:
        inputs[str(args.spec)] = _sha256(args.spec)
    _write_manifest(out_dir, {
        "command": "solve",
        "problem": {"builtin": loaded.builtin, "name": loaded.problem.name,
                    "tf": loaded.t_f, "T": loaded.T, **loaded.params},
        "inputs": inputs,
        "unknowns": unknowns,
        "iterations": stats.get("iterations"),
        "residual_norm": stats.get("residual_norm"),
        "residual_history": [entry["residual_norm"]
                             for entry in stats.get("history", [])],
        "wall_time_s": wall,
    }, ["controls.csv", "trajectory.csv", "certificate.json"])

    if not cert.passed:
        print("certificate failed: " + "; ".join(cert.violations), file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    loaded = _resolve_problem(args)
    problem = loaded.problem
    grid = build_grid(loaded.t_f, loaded.T)

    values = _read_controls_csv(args.controls, problem.m)
    if values.shape[0] != grid.n_intervals:
        raise ValueError(f"{args.controls}: {values.shape[0]} control rows but "
                         f"the grid has {grid.n_intervals} intervals")
    p_init = _parse_adjoint_init(args.adjoint_init, problem.n)

    q0 = problem.initial_state()
    try:
        extremal = integrate_extremal_forward(problem, grid, values, q0, p_init,
                                              -1.0, enforce_admissible=False)
    except IntegrationBlowUp as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    cert = check_certificate(problem, extremal)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_certificate_json(cert, out_dir / "certificate.json")
    if not cert.passed:
        print("certificate failed: " + "; ".join(cert.violations), file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    loaded = _resolve_problem(args, need_T=False)
    if loaded.builtin != "parking":
        raise ValueError("sweep compares against the permanent parking "
                         "optimum and requires the parking problem")
    M, t_f = loaded.params["M"], loaded.t_f
    tokens = [tok.strip() for tok in args.T_list.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("--T-list must contain at least one period")
    try:
        periods = [_finite_float(tok) for tok in tokens]
    except argparse.ArgumentTypeError:
        raise ValueError(f"--T-list must be comma-separated finite numbers, "
                         f"got {args.T_list!r}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    rows = [parking.sweep_row(M, t_f, T) for T in periods]
    wall = time.perf_counter() - started

    _write_table(out_dir / "sweep.csv",
                 ["T", "K", "sup_dev", "terminal_residual", "max_pmp_residual",
                  "cost_sampled", "cost_permanent", "status"],
                 "%.12e,%d,%.12e,%.12e,%.12e,%.12e,%.12e,%s",
                 [(row.T, row.K, row.sup_dev, row.terminal_residual,
                   row.max_pmp_residual, row.cost_sampled,
                   row.cost_permanent, row.status) for row in rows])

    outputs = ["sweep.csv"]
    for tok, row in zip(tokens, rows):
        if row.status != "ok":
            continue
        name = f"sweep_T{tok}.svg"
        _sweep_svg(out_dir / name, M, t_f, row)
        outputs.append(name)

    _write_manifest(out_dir, {
        "command": "sweep",
        "problem": {"builtin": "parking", "M": M, "tf": t_f},
        "inputs": {str(args.spec): _sha256(args.spec)} if args.spec else {},
        "periods": periods,
        "statuses": [row.status for row in rows],
        "errors": {tok: row.error for tok, row in zip(tokens, rows) if row.error},
        "wall_time_s": wall,
    }, outputs)

    if all(row.status != "ok" for row in rows):
        print("every period in the sweep failed", file=sys.stderr)
        if any(isinstance(row.cause, Certificate) for row in rows):
            return EXIT_CERTIFICATE
        return EXIT_NONCONVERGENCE
    return EXIT_OK


def _sweep_svg(path, M, t_f, row) -> None:
    grid = build_grid(t_f, row.T)
    ts = np.linspace(0.0, t_f, 1000)
    fig = SvgPlot(title=f"sampled vs permanent control (T={row.T:g})",
                  xlabel="t", ylabel="u")
    fig.add_line(ts, parking.permanent_control(M, t_f, ts), color="red")
    fig.add_crosses(np.asarray(grid.times), row.controls.values[:, 0],
                    color="blue")
    fig.save(path)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def cmd_compare(args) -> int:
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    controls_path = run_dir / "controls.csv"
    if not run_dir.is_dir() or not manifest_path.exists() or not controls_path.exists():
        raise ValueError(f"{run_dir} is not a solved run directory "
                         f"(needs manifest.json and controls.csv)")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    prob = manifest.get("problem") if isinstance(manifest, dict) else None
    if not isinstance(prob, dict):
        raise ValueError(f"{manifest_path}: 'problem' must be an object")
    if prob.get("builtin") != "parking":
        raise ValueError("compare needs a parking run (the permanent optimum "
                         "has a closed form only there)")
    M, t_f, T = (_number(prob, key, f"{manifest_path} 'problem'")
                 for key in ("M", "tf", "T"))
    values = _read_controls_csv(controls_path, 1)
    grid = build_grid(t_f, T)
    if values.shape[0] != grid.n_intervals:
        raise ValueError(f"{controls_path}: row count does not match the grid")
    u = values[:, 0]

    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    ts = np.linspace(0.0, t_f, 1001)
    hold = u[grid.interval_of(ts)]
    star = np.asarray(parking.permanent_control(M, t_f, ts))
    _write_table(out_dir / "compare.csv", ["t", "u_hold", "u_star"],
                 "%.12e,%.12e,%.12e", zip(ts, hold, star))

    edges = list(np.asarray(grid.times)) + [t_f]
    fig = SvgPlot(title=f"sample-and-hold (M={M:g}, tf={t_f:g}, T={T:g})",
                  xlabel="t", ylabel="u")
    fig.add_line(ts, star, color="red")
    fig.add_steps(edges, u, color="blue")
    fig.save(out_dir / "compare.svg")
    return EXIT_OK


if __name__ == "__main__":
    console_main()
