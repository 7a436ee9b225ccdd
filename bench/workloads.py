"""The benchmark's workloads: inputs from a seed, one operation, its checks.

Within a workload every operation does the same work, whatever the seed, so
per-operation times have one cluster and ``rhs_evals_per_op`` repeats
exactly; the seed varies only what leaves the work unchanged.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
import shutil
from pathlib import Path

import numpy as np

import checks


class Work:
    """Counts calls to the dynamics ``f`` of every problem the program gets.

    ``next()`` on an ``itertools.count`` is atomic, so the sweep's worker
    threads do not lose counts.  With a tracer, the six callbacks are also
    timed.
    """

    CALLBACKS = ("f", "f_q", "f_u", "f0", "f0_q", "f0_u")

    def __init__(self, tracer=None):
        self.tracer = tracer
        self._rhs = itertools.count()
        self._reads = 0

    def rhs_evals(self) -> int:
        """Calls to ``f`` so far."""
        value = next(self._rhs) - self._reads
        self._reads += 1
        return value

    def instrument(self, problem):
        counter = self._rhs
        f = problem.f

        def f_counted(t, q, u):
            next(counter)
            return f(t, q, u)

        fields = {name: getattr(problem, name) for name in self.CALLBACKS}
        fields["f"] = f_counted
        if self.tracer is not None:
            fields = {name: self.tracer.wrap(f"problem.callback.{name}", fn,
                                             span=False)
                      for name, fn in fields.items()}
        return dataclasses.replace(problem, **fields)

    def instrument_factory(self, parking) -> None:
        """Instrument every problem ``parking.parking_problem`` builds; cli and
        solve_parking both look the factory up on the module."""
        original = parking.parking_problem

        def parking_problem(*args, **kwargs):
            return self.instrument(original(*args, **kwargs))

        parking.parking_problem = parking_problem


class Workload:
    """One operation is ``run(i)``; ``failure`` says whether it failed and
    ``check`` raises ``checks.CheckFailed`` on a wrong answer."""

    def failure(self, out) -> str | None:
        return None

    def check(self, out) -> None:
        pass

    def artifact_bytes(self, out) -> int:
        return 0

    def cleanup(self, out) -> None:
        pass


# ---------------------------------------------------------------------------

class ParkingCLI(Workload):
    """``sampled-pmp solve``, ``check``, ``compare`` and ``sweep`` in process.

    Operation i parks instance i of a seeded list; even operations draw from
    the constrained regime (4M < t_f^2 < 6M), odd ones from the unconstrained
    one.  K is fixed, so every operation integrates the same number of
    intervals: the dedicated parking path spends its Newton iterations on a
    closed-form map and integrates only once the multipliers are found.
    """

    name = "parking-cli"
    K = 300
    SWEEP_KS = (10, 50, 100, 300)        # nested: each divides the next
    INSTANCES = 256

    def __init__(self, sp, seed: int, work: Work, run_dir: Path):
        self.cli = sp.cli
        self.run_dir = run_dir
        rng = random.Random(seed)
        self.instances = []
        for i in range(self.INSTANCES):
            t_f = round(rng.uniform(2.5, 4.0), 6)
            ratio = rng.uniform(4.6, 5.6) if i % 2 == 0 else rng.uniform(6.5, 9.0)
            self.instances.append((round(t_f * t_f / ratio, 6), t_f))
        work.instrument_factory(sp.parking)

    def run(self, i: int) -> dict:
        M, t_f = self.instances[i % self.INSTANCES]
        d = self.run_dir / f"op{i}"
        flags = ["--problem", "parking", "--M", repr(M), "--tf", repr(t_f)]
        solve_dir = d / "solve"
        main = self.cli.main
        rc = [
            main(["solve", *flags, "--T", repr(t_f / self.K),
                  "--out", str(solve_dir)]),
            main(["check", *flags, "--T", repr(t_f / self.K),
                  "--controls", str(solve_dir / "controls.csv"),
                  "--adjoint-init", str(solve_dir / "manifest.json"),
                  "--out", str(d / "check")]),
            main(["compare", "--run", str(solve_dir), "--out", str(d / "compare")]),
            main(["sweep", *flags, "--T-list",
                  ",".join(repr(t_f / K) for K in self.SWEEP_KS),
                  "--out", str(d / "sweep")]),
        ]
        return {"M": M, "t_f": t_f, "dir": d, "exit_codes": rc}

    def failure(self, out) -> str | None:
        if out["exit_codes"] != [0, 0, 0, 0]:
            return f"exit codes {out['exit_codes']} (solve, check, compare, sweep)"
        return None

    def check(self, out) -> None:
        M, t_f, d = out["M"], out["t_f"], out["dir"]
        times, lengths = checks.uniform_grid(t_f, self.K)
        for sub in ("solve", "check"):
            cert = json.loads((d / sub / "certificate.json").read_text())
            checks.require(cert["verdict"] == "pass",
                           f"{sub}: certificate {cert['verdict']}")
        cols = checks.read_csv_columns(d / "solve" / "controls.csv")
        checks.require(np.allclose(cols["t_k"], times, rtol=0, atol=1e-12)
                       and np.allclose(cols["delta_k"], lengths, rtol=0,
                                       atol=1e-12),
                       "controls.csv grid differs from t_f/K steps")
        u = cols["u_1"]
        checks.check_sampled_optimum(M, times, lengths, t_f, u, "box", 1.0)
        cmp = checks.read_csv_columns(d / "compare" / "compare.csv")
        checks.check_hold(cmp["t"], cmp["u_hold"], times, lengths, u)
        star = checks.permanent_control(M, t_f, cmp["t"])
        checks.require(np.max(np.abs(cmp["u_star"] - star)) <= 1e-10,
                       "compare.csv u_star is not the permanent optimum")
        sweep = checks.read_csv_columns(d / "sweep" / "sweep.csv")
        checks.check_sweep(M, t_f, self.SWEEP_KS, sweep)

    def artifact_bytes(self, out) -> int:
        return sum(p.stat().st_size for p in out["dir"].rglob("*") if p.is_file())

    def cleanup(self, out) -> None:
        shutil.rmtree(out["dir"], ignore_errors=True)


# ---------------------------------------------------------------------------

class GenericShoot(Workload):
    """One fixed batch through the generic indirect-shooting solver.

    The batch holds three solves at t_f = 3:

    * ``parking``: ``solve`` on the parking problem M = 2 (constrained
      regime, box active) at K = 8 from ``parking.initial_adjoint_guess``;
    * ``planar``: ``solve`` on a planar double integrator from
      ``lti_problem`` with the unit disc active, at K = 8 from the generic
      origin guess;
    * ``infeasible``: ``parking.solve_parking(2, 3, T)`` with T > t_f, the
      route ``sampled-pmp solve --T 5 --tf 3`` takes.  One interval cannot
      park the integrator, so the solve must end in a rejection.

    The seed orders the batch and draws each operation's T in
    (1.2 t_f, 3 t_f); any T > t_f gives the same one-interval grid, so the
    work does not depend on it.
    """

    name = "generic-shoot"
    K = 8
    T_F = 3.0
    PARKING_M = 2.0
    PLANAR_M = (1.6, 1.2)
    PERIODS = 256

    def __init__(self, sp, seed: int, work: Work, run_dir: Path):
        self.sp = sp
        work.instrument_factory(sp.parking)
        rng = random.Random(seed)
        self.periods = [self.T_F * rng.uniform(1.2, 3.0)
                        for _ in range(self.PERIODS)]
        for T in self.periods:
            checks.prove_single_interval_infeasible(self.PARKING_M, self.T_F, T)
        self.rejections = (sp.NonConvergence, sp.Infeasible)
        grid = sp.build_grid(self.T_F, self.T_F / self.K)
        A = np.zeros((4, 4))
        A[0, 2] = A[1, 3] = 1.0
        B = np.zeros((4, 2))
        B[2, 0] = B[3, 1] = 1.0
        q0 = np.array([*self.PLANAR_M, 0.0, 0.0])
        planar = work.instrument(sp.lti_problem(
            A, B, control_set=sp.Ball(center=np.zeros(2), radius=1.0),
            terminal=sp.FixedEndpoints(q0=q0, qf=np.zeros(4)),
            final_time=sp.FixedTime(self.T_F), name="planar"))
        self.solutions = {
            "parking": (sp.parking.parking_problem(self.PARKING_M, self.T_F),
                        grid,
                        sp.parking.initial_adjoint_guess(self.PARKING_M,
                                                         self.T_F),
                        [self.PARKING_M], "box"),
            "planar": (planar, grid, None, list(self.PLANAR_M), "ball"),
        }
        self.order = [*self.solutions, "infeasible"]
        rng.shuffle(self.order)

    def run(self, i: int) -> dict:
        out = {}
        for name in self.order:
            try:
                if name == "infeasible":
                    out[name] = self.sp.parking.solve_parking(
                        self.PARKING_M, self.T_F, self.periods[i % self.PERIODS])
                else:
                    problem, grid, guess, _, _ = self.solutions[name]
                    out[name] = self.sp.solve(problem, grid,
                                              initial_unknowns=guess)
            except Exception as exc:     # the operation's boundary
                out[name] = exc
        return out

    def failure(self, out) -> str | None:
        errors = [f"{k}: {type(v).__name__}: {v}" for k, v in out.items()
                  if k != "infeasible" and isinstance(v, BaseException)]
        rejection = checks.check_rejection(out["infeasible"], self.rejections)
        if rejection is not None:
            errors.append(f"infeasible: {rejection}")
        return "; ".join(errors) or None

    def check(self, out) -> None:
        times, lengths = checks.uniform_grid(self.T_F, self.K)
        for name, (_, _, _, M, kind) in self.solutions.items():
            extremal, cert = out[name]
            checks.require(cert.passed, f"{name}: certificate failed")
            checks.check_sampled_optimum(M, times, lengths, self.T_F,
                                         extremal.controls.values, kind, 1.0)


WORKLOADS = {w.name: w for w in (ParkingCLI, GenericShoot)}
