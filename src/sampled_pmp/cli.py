"""Command-line front end: solve, check, sweep and compare.

Flags, specification files and run manifests go through one parser,
:func:`~sampled_pmp.specfile.parse_problem_spec`, and one recognizer,
:func:`parking.parking_position`.  ``solve`` and ``sweep`` serve each problem
it recognizes by ``parking.solve_parking`` (the reach rule, then ``solve``),
``solve`` shoots any other, and ``compare`` accepts only a parking run.
``solve`` and ``sweep`` record the specification object they parsed, flags
set as its fields, under ``problem`` in ``manifest.json``; ``solve --spec``
replays it.  ``check`` turns ``--adjoint-init`` into numbers and leaves
their judgement, layout included, to ``solver._check_unknowns``; it
rebuilds the extremal at the solver's cost multiplier ``solver.P0``.

Exit codes: 0 success, 2 certificate failure, 3 solver non-convergence,
4 bad input.  An integration that blows up, at its start point included,
is a non-convergence in ``solve`` and a certificate failure in ``check``; a
flag value that is not a positive finite number, a flag spelled as a
prefix of another, and a non-finite number in the specification, the
initial adjoint or a controls file, are bad input.
Diagnostics go to standard error; artifacts (CSV, JSON, SVG) into the
chosen output directory.  Every CSV artifact goes through one CSV writer
and every JSON artifact through one JSON writer.  Numeric CSV cells use
%.12e with a dot decimal point, so identical inputs give byte-identical
data files.  The writers format in bulk: one ``%`` per table, and one per
interval of a trajectory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import parking
from .certificate import Certificate, check_certificate
from .errors import IntegrationBlowUp, NonConvergence
from .problem import build_grid
from .simulate import Extremal, integrate_extremal_forward
from .solver import P0, _check_unknowns, _shooting_start, solve
from .specfile import (LoadedSpec, SpecError, _vector, parse_problem_spec,
                       read_spec_file)
from .svgfig import SvgPlot

EXIT_OK = 0
EXIT_CERTIFICATE = 2
EXIT_NONCONVERGENCE = 3
EXIT_BAD_INPUT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # flags are spelled in full: a prefix such as --T must not stand for
    # --T-list; the subparsers are _Parsers too
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad flags; bad input must be 4 here
    def error(self, message):
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    """argparse type: a positive number that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a positive finite number, "
                                         f"got {text!r}")
    return value


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The command-line parser, built once per process."""
    p = _Parser(prog="sampled-pmp",
                description="Solve and certify optimal sampled-data control "
                            "problems by indirect shooting.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_problem_flags(sp, with_T=True):
        sp.add_argument("--problem", choices=["parking"],
                        help="built-in problem name")
        sp.add_argument("--spec", type=str, help="problem specification JSON")
        sp.add_argument("--M", type=_positive_float,
                        help="parking initial position")
        sp.add_argument("--tf", type=_positive_float, help="final time")
        if with_T:
            sp.add_argument("--T", type=_positive_float, help="sampling period")

    sp = sub.add_parser("solve", description="Solve a problem and write "
                        "controls, trajectory, certificate and manifest.")
    add_problem_flags(sp)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("check", description="Re-simulate a control sequence "
                        "and verify the optimality certificate.")
    add_problem_flags(sp)
    sp.add_argument("--controls", required=True, help="controls CSV")
    sp.add_argument("--adjoint-init", required=True,
                    help="the shooting unknowns: p(0), then q(0) for a "
                         "periodic problem, then t_f for a free one, as "
                         "x1,...,xd (use --adjoint-init=-1,-2 for negative "
                         "values) or a JSON file with them: a list, or an "
                         "object such as the solve manifest")
    sp.add_argument("--out", default=".", help="output directory")

    sp = sub.add_parser("sweep", description="Solve the parking instance over "
                        "a list of sampling periods and tabulate the "
                        "deviation from the permanent optimum.")
    add_problem_flags(sp, with_T=False)
    sp.add_argument("--T-list", required=True, dest="T_list",
                    help="comma-separated sampling periods")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("compare", description="Emit the sample-and-hold "
                        "staircase of a solved run next to the permanent "
                        "optimal control.")
    sp.add_argument("--run", required=True, help="directory written by solve")
    sp.add_argument("--out", default=None,
                    help="output directory (default: the run directory)")
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        # looked up at call time, so a replaced ``cmd_*`` takes effect
        return globals()[f"cmd_{args.command}"](args)
    except NonConvergence as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        for entry in exc.history[-5:]:
            print(f"  {entry}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except IntegrationBlowUp as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def console_main() -> None:
    sys.exit(main())


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _resolve_problem(args) -> tuple[LoadedSpec, dict]:
    """--problem or --spec, parsed once --M, --tf and --T set its fields:
    the parsed problem and the specification object it was parsed from,
    which the manifest records so that ``solve --spec`` replays the run."""
    if (args.problem is None) == (args.spec is None):
        raise ValueError("exactly one of --problem or --spec is required")
    if args.problem is not None:
        if args.M is None or args.tf is None:
            raise ValueError("--problem parking needs --M and --tf")
        data = {"problem": args.problem}
    else:
        data = read_spec_file(args.spec)
        if args.M is not None and "problem" not in data:
            raise ValueError("--M applies to the builtin parking problem only")
    flags = {"M": args.M, "tf": args.tf, "T": getattr(args, "T", None)}
    data.update((key, value) for key, value in flags.items() if value is not None)
    if "T" not in data and hasattr(args, "T"):  # sweep reads --T-list instead
        raise ValueError("--problem parking needs --T" if args.problem else
                         f"{args.spec} has no field 'T'; pass --T")
    return parse_problem_spec(data), data


def _read_controls_csv(path, m: int) -> np.ndarray:
    """Controls from a CSV with u_1..u_m columns; diagnoses bad cells."""
    path = Path(path)
    if not path.exists():
        raise ValueError(f"controls file {path} does not exist")
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.reader(fh))
    if not table:
        raise ValueError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in table[0]]
    names = [f"u_{i+1}" for i in range(m)]
    for name in names:
        if name not in header:
            raise ValueError(f"{path}: header row lacks column '{name}' "
                             f"(found {header})")
    rows = []
    for lineno, row in enumerate(table[1:], start=2):
        if not any(c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: row {lineno} has {len(row)} cells, "
                             f"header has {len(header)}")
        rows.append([])
        for name in names:
            cell = row[header.index(name)]
            try:
                val = float(cell)
            except ValueError:
                raise ValueError(f"{path}: row {lineno}, column '{name}': "
                                 f"cannot parse {cell!r} as a number")
            if not math.isfinite(val):
                raise ValueError(f"{path}: row {lineno}, column '{name}': "
                                 f"control must be finite, got {val}")
            rows[-1].append(val)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows)


def _parse_unknowns(text: str, problem) -> np.ndarray:
    """The packed shooting unknowns as ``solver._check_unknowns`` accepts
    them: 'x1,...,xd', a bare JSON list, or a JSON object's ``vector``
    entry, else its ``p_init`` entry (at top level or under ``unknowns``, as
    in a solve manifest)."""
    candidate = Path(text)
    if candidate.exists():
        try:
            data = json.loads(candidate.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ValueError(f"--adjoint-init {text}: {exc}")
        if isinstance(data, list):
            data = {"vector": data}
        elif isinstance(data, dict) and not {"vector", "p_init"} & data.keys() \
                and isinstance(data.get("unknowns"), dict):
            data = data["unknowns"]
        if not (isinstance(data, dict) and {"vector", "p_init"} & data.keys()):
            raise ValueError(f"{text}: no 'vector' or 'p_init' entry found")
        arr = _vector(data, "vector" if "vector" in data else "p_init", text)
    else:
        try:
            arr = np.array([float(tok) for tok in text.split(",")])
        except ValueError:
            raise ValueError(f"--adjoint-init {text!r} is neither a file nor "
                             f"a comma-separated vector")
    return _check_unknowns(problem, arr, "--adjoint-init")


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------

def _write_csv(path, header, blocks) -> None:
    """CSV artifact: the header row, then each block of formatted rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(blocks)


def _write_table(path, header, fmt: str, rows: list) -> None:
    """CSV artifact of ``fmt % tuple(row)`` per row, every row formatted by
    one ``%`` over the rows' cells."""
    _write_csv(path, header, [(fmt + "\n") * len(rows)
                              % tuple(itertools.chain.from_iterable(rows))])


def _write_json(path, payload: dict) -> None:
    """JSON artifact: two-space indent, sorted keys, a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trajectory_csv(extremal: Extremal, path) -> None:
    """One row per node: t, q_1..q_n, p_1..p_n, k, u_1..u_m (%.12e)."""
    K, nodes, n = extremal.states.shape
    m = extremal.controls.m
    header = (["t"] + [f"q_{i+1}" for i in range(n)]
              + [f"p_{i+1}" for i in range(n)] + ["k"]
              + [f"u_{i+1}" for i in range(m)])
    heads = np.concatenate([extremal.times[:, :, None], extremal.states,
                            extremal.adjoints], axis=2).reshape(K, -1)
    head = "%.12e," * (1 + 2 * n)
    tail = ",".join(["%d"] + ["%.12e"] * m) + "\n"
    u = extremal.controls.values.tolist()
    # one % per interval, as Python floats, which %-format faster than
    # numpy scalars: its k, u tail is formatted once into the format of its
    # rows (a formatted number holds no %), and no more than one interval's
    # text is held at a time
    _write_csv(path, header, (
        ((head + tail % (k, *u[k])) * nodes) % tuple(cells.tolist())
        for k, cells in enumerate(heads)))


def write_certificate_json(cert: Certificate, path) -> None:
    _write_json(path, cert.to_json_dict())


def _write_controls_csv(path, grid, controls, residuals) -> None:
    m = controls.m
    header = (["k", "t_k", "delta_k"] + [f"u_{i+1}" for i in range(m)]
              + ["residual_k"])
    # k as a float, which %d writes as the integer it is
    _write_table(path, header, ",".join(["%d"] + ["%.12e"] * (m + 3)),
                 np.column_stack([np.arange(grid.n_intervals), grid.times,
                                  grid.lengths, controls.values,
                                  residuals]).tolist())


def _verdict(cert: Certificate) -> int:
    """0 when the certificate passes, else 2 after printing its violations."""
    if cert.passed:
        return EXIT_OK
    print("certificate failed: " + "; ".join(cert.violations), file=sys.stderr)
    return EXIT_CERTIFICATE


def _write_manifest(out_dir: Path, payload: dict, outputs) -> None:
    _write_json(out_dir / "manifest.json",
                {**payload, "outputs": sorted({*outputs, "manifest.json"})})


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    loaded, spec = _resolve_problem(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    stats: dict = {}
    M = parking.parking_position(loaded.problem)
    if M is not None:
        extremal, cert = parking.solve_parking(M, loaded.t_f, loaded.T,
                                               stats=stats)
    else:
        extremal, cert = solve(loaded.problem,
                               build_grid(loaded.t_f, loaded.T), stats=stats)
    wall = time.perf_counter() - started

    _write_controls_csv(out_dir / "controls.csv", extremal.grid,
                        extremal.controls, cert.interval_residuals)
    write_trajectory_csv(extremal, out_dir / "trajectory.csv")
    write_certificate_json(cert, out_dir / "certificate.json")

    _write_manifest(out_dir, {
        "command": "solve",
        "problem": spec,
        "unknowns": {"p_init": extremal.initial_adjoint.tolist(),
                     "vector": stats["unknowns"]},
        "iterations": stats["iterations"],
        "residual_norm": stats["residual_norm"],
        "residual_history": [entry["residual_norm"]
                             for entry in stats["history"]],
        "wall_time_s": wall,
    }, ["controls.csv", "trajectory.csv", "certificate.json"])
    return _verdict(cert)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    loaded, _ = _resolve_problem(args)
    problem = loaded.problem
    values = _read_controls_csv(args.controls, problem.m)
    x = _parse_unknowns(args.adjoint_init, problem)
    grid = build_grid(loaded.t_f, loaded.T)
    try:
        z0, grid = _shooting_start(problem, grid, x)
        if len(values) != grid.n_intervals:
            raise ValueError(f"{args.controls}: {len(values)} control rows "
                             f"but the grid has {grid.n_intervals} intervals")
        extremal = integrate_extremal_forward(problem, grid, values,
                                              *np.split(z0, 2), P0)
    except IntegrationBlowUp as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    cert = check_certificate(problem, extremal)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_certificate_json(cert, out_dir / "certificate.json")
    return _verdict(cert)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def cmd_sweep(args) -> int:
    loaded, spec = _resolve_problem(args)
    M, t_f = parking.parking_position(loaded.problem), loaded.t_f
    if M is None:
        raise ValueError("sweep compares against the permanent parking "
                         "optimum and requires a parking problem")
    tokens = [tok.strip() for tok in args.T_list.split(",") if tok.strip()]
    if not tokens:
        raise ValueError("--T-list must contain at least one period")
    try:
        periods = [_positive_float(tok) for tok in tokens]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"--T-list: {exc}")
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
        "problem": spec,
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
    """The staircase of a parking solve run next to the permanent optimum.

    The run's problem is the specification its manifest records under
    ``problem``: it goes through :func:`parse_problem_spec`, and
    :func:`parking.parking_position` of the parsed problem gives M, as in
    ``solve`` and ``sweep``.  A specification without ``T`` (a sweep's) or
    one that is not parking is bad input.
    """
    run_dir = Path(args.run)
    manifest_path = run_dir / "manifest.json"
    controls_path = run_dir / "controls.csv"
    if not run_dir.is_dir() or not manifest_path.exists() or not controls_path.exists():
        raise ValueError(f"{run_dir} is not a solved run directory "
                         f"(needs manifest.json and controls.csv)")
    prob = read_spec_file(manifest_path, "run manifest").get("problem")
    if not isinstance(prob, dict):
        raise ValueError(f"{manifest_path}: 'problem' must be an object")
    try:
        loaded = parse_problem_spec(prob)
    except SpecError as exc:
        raise SpecError(f"{manifest_path} 'problem': {exc}") from None
    M, t_f, T = parking.parking_position(loaded.problem), loaded.t_f, loaded.T
    if M is None:
        raise ValueError("compare needs a parking run (the permanent optimum "
                         "has a closed form only there)")
    if T is None:
        raise ValueError(f"{manifest_path} 'problem' has no field 'T': "
                         f"compare needs a solve run, not a sweep")
    u = _read_controls_csv(controls_path, 1)[:, 0]
    grid = build_grid(t_f, T)
    if len(u) != grid.n_intervals:
        raise ValueError(f"{controls_path}: row count does not match the grid")

    out_dir = Path(args.out) if args.out else run_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    ts = np.linspace(0.0, t_f, 1001)
    hold = u[grid.interval_of(ts)]
    star = np.asarray(parking.permanent_control(M, t_f, ts))
    _write_table(out_dir / "compare.csv", ["t", "u_hold", "u_star"],
                 "%.12e,%.12e,%.12e",
                 np.column_stack([ts, hold, star]).tolist())

    edges = list(np.asarray(grid.times)) + [t_f]
    fig = SvgPlot(title=f"sample-and-hold (M={M:g}, tf={t_f:g}, T={T:g})",
                  xlabel="t", ylabel="u")
    fig.add_line(ts, star, color="red")
    fig.add_steps(edges, u, color="blue")
    fig.save(out_dir / "compare.svg")
    return EXIT_OK


if __name__ == "__main__":
    console_main()
