"""Benchmark of sampled-pmp: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload parking-cli --seed 1 --seconds 45 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory.  With ``--trace 0`` the result carries the end-to-end
metrics, with ``--trace 1`` the per-layer ones (see README.md).  The last
line of standard output is the result; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_PROBES = 7
SUBSTEPS_ENV = "SAMPLED_PMP_SUBSTEPS"

sys.path.insert(0, str(HERE))

clock = time.perf_counter


def import_program():
    """The package under ``src/``; never an installed copy."""
    sys.path.insert(0, str(SRC))
    sp = importlib.import_module("sampled_pmp")
    if Path(sp.__file__).resolve().parent != (SRC / "sampled_pmp").resolve():
        raise ImportError(f"sampled_pmp was imported from {sp.__file__}")
    importlib.import_module("sampled_pmp.cli")
    return sp


def setup(workload: str, seed: int, tracer=None):
    """Import the program and build the workload's inputs."""
    sp = import_program()
    from workloads import WORKLOADS, Work
    work = Work(tracer)
    return sp, work, WORKLOADS[workload](sp, seed, work, run_dir(workload))


def run_dir(workload: str) -> Path:
    """Scratch directory of this process's operations."""
    return RUNS / f"{workload}-{os.getpid()}"


def probe_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def blas_threads():
    """OpenBLAS thread count of numpy's bundled library, if it reports one."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def install_tracer(tracer, sp):
    """Wrap each traced function at every attribute the program calls it by."""
    mod = {name: importlib.import_module(f"sampled_pmp.{name}")
           for name in ("cli", "parking", "solver", "simulate", "certificate",
                        "problem", "svgfig")}
    cli, parking, solver = mod["cli"], mod["parking"], mod["solver"]
    for cmd in ("cmd_solve", "cmd_check", "cmd_sweep", "cmd_compare"):
        tracer.patch([cli], cmd, f"cli.{cmd}")
    tracer.patch([cli], "write_trajectory_csv", "export.write_trajectory_csv")
    tracer.patch([cli], "write_certificate_json", "export.write_certificate_json")
    tracer.patch([mod["svgfig"].SvgPlot], "save", "export.svg_save")
    tracer.patch([parking], "solve_parking", "parking.solve_parking")
    tracer.patch([parking], "sweep_row", "parking.sweep_row")

    def counting_newton(solve):
        def solve_counting_newton(*args, stats=None, **kwargs):
            own = {} if stats is None else stats
            try:
                result = solve(*args, stats=own, **kwargs)
            except sp.NonConvergence as exc:
                tracer.count("solver.newton_iterations", len(exc.history))
                raise
            tracer.count("solver.newton_iterations", own["iterations"])
            return result
        return solve_counting_newton

    tracer.patch([solver, cli, sp], "solve", "solver.solve", around=counting_newton)
    tracer.patch([solver, sp], "solve_interval_control",
                 "solver.solve_interval_control")
    tracer.patch([solver], "_interval_average_gradient", "",
                 span=False, name_of=lambda parent: (
                     "solver.inner_iteration"
                     if parent == "solver.solve_interval_control"
                     else "solver.interval_reintegration"))
    tracer.patch([mod["simulate"], solver, parking, cli, sp],
                 "integrate_extremal_forward", "",
                 name_of=lambda parent: (
                     "simulate.integrate_extremal_forward.residual"
                     if parent == "solver.solve"
                     else "simulate.integrate_extremal_forward"))
    tracer.patch([mod["certificate"], solver, parking, cli, sp],
                 "check_certificate", "certificate.check_certificate")
    for method in ("hamiltonian", "hamiltonian_q", "hamiltonian_u"):
        tracer.patch([mod["problem"].ProblemDefinition], method,
                     f"problem.{method}", span=False)


def layer_metrics(agg, counts, artifact_bytes: int) -> dict:
    """Per-layer metrics of one operation from the merged aggregates."""
    def calls(name):
        return agg[name][0] if name in agg else 0

    def total(name):
        return agg[name][1] if name in agg else 0.0

    def self_s(name):
        return agg[name][2] if name in agg else 0.0

    interval_calls = calls("solver.solve_interval_control")
    residual_evals = calls("simulate.integrate_extremal_forward.residual")
    newton = counts.get("solver.newton_iterations", 0.0)
    integrate = ("simulate.integrate_extremal_forward",
                 "simulate.integrate_extremal_forward.residual")
    return {
        "solver.solve_interval_control.calls": interval_calls,
        "solver.solve_interval_control.s": total("solver.solve_interval_control"),
        "solver.inner_iterations_per_interval":
            calls("solver.inner_iteration") / interval_calls if interval_calls else 0.0,
        "solver.solve.calls": calls("solver.solve"),
        "solver.solve.self_s": self_s("solver.solve"),
        "solver.residual_evals": residual_evals,
        "solver.newton_iterations": newton,
        "solver.step_yield": newton / residual_evals if residual_evals else 0.0,
        "problem.hamiltonian_q.calls": calls("problem.hamiltonian_q"),
        "problem.hamiltonian_u.calls": calls("problem.hamiltonian_u"),
        "problem.hamiltonian.self_s": sum(
            self_s(f"problem.{m}")
            for m in ("hamiltonian", "hamiltonian_q", "hamiltonian_u")),
        "problem.callbacks.s": sum(rec[1] for name, rec in agg.items()
                                   if name.startswith("problem.callback.")),
        "simulate.integrate_extremal_forward.calls": sum(calls(n) for n in integrate),
        "simulate.integrate_extremal_forward.self_s": sum(self_s(n) for n in integrate),
        "certificate.check_certificate.calls": calls("certificate.check_certificate"),
        "certificate.check_certificate.self_s": self_s("certificate.check_certificate"),
        "parking.solve_parking.calls": calls("parking.solve_parking"),
        "parking.solve_parking.self_s": self_s("parking.solve_parking"),
        "parking.sweep_row.s": total("parking.sweep_row"),
        "cli.cmd_solve.s": total("cli.cmd_solve"),
        "cli.cmd_check.s": total("cli.cmd_check"),
        "cli.cmd_sweep.s": total("cli.cmd_sweep"),
        "cli.cmd_compare.s": total("cli.cmd_compare"),
        "cli.export.s": sum(rec[1] for name, rec in agg.items()
                            if name.startswith("export.")),
        "cli.artifact_bytes": artifact_bytes,
    }


LAYER_UNITS = {"calls": "count", "s": "s", "self_s": "s", "residual_evals": "count",
               "newton_iterations": "count", "step_yield": "ratio",
               "inner_iterations_per_interval": "count", "artifact_bytes": "bytes"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["parking-cli", "generic-shoot"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time set-up in this process and print it")
    args = ap.parse_args(argv)

    if not (SRC / "sampled_pmp" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    # the program's default integrator substeps
    os.environ.pop(SUBSTEPS_ENV, None)

    if args.setup_probe:
        t0 = clock()
        setup(args.workload, args.seed)
        print(repr(clock() - t0))
        return 0

    probes = [probe_setup_seconds(args.workload, args.seed)
              for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    t0 = clock()
    sp, work, wl = setup(args.workload, args.seed, tracer)
    setup_here = clock() - t0
    if tracer is not None:
        install_tracer(tracer, sp)

    op_times, op_rhs, layers = [], [], []
    attempted = failed = 0
    correct = True
    loop_start = clock()
    while attempted == 0 or clock() - loop_start < args.seconds:
        i = attempted
        if tracer is not None:
            tracer.op = i
        rhs0 = work.rhs_evals()
        t_start = clock()
        out = wl.run(i)
        op_times.append(clock() - t_start)
        op_rhs.append(work.rhs_evals() - rhs0)
        attempted += 1
        reason = wl.failure(out)
        if reason is not None:
            failed += 1
            print(f"op {i} failed: {reason}", file=sys.stderr)
        else:
            try:
                wl.check(out)
            except (AssertionError, OSError, KeyError, ValueError) as exc:
                correct = False
                print(f"op {i} incorrect: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
        if tracer is not None:
            agg, counts = tracer.take()
            layers.append(layer_metrics(agg, counts, wl.artifact_bytes(out)))
        wl.cleanup(out)
    shutil.rmtree(run_dir(args.workload), ignore_errors=True)

    diag = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "op_s": op_times, "op_rhs_evals": op_rhs,
            "setup_probes_s": probes, "setup_in_process_s": setup_here,
            "blas_threads": blas_threads(), "nproc": os.cpu_count()}
    print(json.dumps({"diagnostics": diag}), file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(probes), "unit": "s"},
            "op_s.p50": {"value": statistics.median(op_times), "unit": "s"},
            "ops_per_s": {"value": attempted / sum(op_times), "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "rhs_evals_per_op": {"value": statistics.median_low(op_rhs),
                                 "unit": "count"},
        }
    else:
        metrics = {}
        for name in layers[0]:
            value = statistics.fmean(layer[name] for layer in layers)
            metrics[name] = {"value": value,
                             "unit": LAYER_UNITS[name.rsplit(".", 1)[-1]]}
        RUNS.mkdir(exist_ok=True)
        tracer.write(RUNS / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     {**diag, "per_layer": {k: v["value"]
                                            for k, v in metrics.items()},
                      "op_s.p50_traced": statistics.median(op_times)})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
