"""Verification of the necessary conditions on a candidate extremal.

Each sampling interval contributes a maximization residual: the support gap
of the averaged control-gradient over the control set, which is zero exactly
when the nonpositive-average-gradient variational inequality holds there.
Boundary conditions contribute a transversality residual, free-final-time
problems a terminal Hamiltonian residual, and the checker also verifies
nontriviality of the multiplier pair and feasibility of the terminal
constraints (a checker must reject infeasible candidates even though the
optimality conditions presuppose admissibility).

The checker covers the three canonical terminal variants the solver
handles (fixed endpoints, fixed start with free end, periodic) and has no
options: its tolerance is ``DEFAULT_TOL``.  Residual magnitudes scale with
the multiplier pair, which is only defined up to a positive factor; every
residual is computed once and, for a normal extremal, divided by -p0 (its
value at the canonical cost multiplier -1) before the tolerance is applied.
The raw residuals are reported alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedCase
from .problem import (FixedEndpoints, FixedInitialFreeFinal, FreeTime,
                      Periodic, ProblemDefinition, TerminalCondition)
from .simulate import Extremal, average_u_gradient

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class Certificate:
    """Residuals of every verified condition plus the overall verdict."""

    passed: bool
    tol: float
    interval_residuals: np.ndarray
    interval_times: np.ndarray
    transversality: float
    free_time: Optional[float]
    feasibility: float
    nontrivial: bool
    violations: tuple
    raw_interval_residuals: np.ndarray
    raw_transversality: float
    raw_free_time: Optional[float]

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    @property
    def max_interval_residual(self) -> float:
        return float(np.max(self.interval_residuals)) if len(self.interval_residuals) else 0.0

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "tol": self.tol,
            "intervals": [
                {"k": int(k), "t": float(self.interval_times[k]),
                 "r": float(self.interval_residuals[k])}
                for k in range(len(self.interval_residuals))
            ],
            "transversality": float(self.transversality),
            "free_time": None if self.free_time is None else float(self.free_time),
            "nontrivial": bool(self.nontrivial),
            "feasibility": float(self.feasibility),
            "violations": list(self.violations),
            "raw": {
                "intervals": [float(r) for r in self.raw_interval_residuals],
                "transversality": float(self.raw_transversality),
                "free_time": None if self.raw_free_time is None else float(self.raw_free_time),
            },
        }


def write_certificate_json(cert: Certificate, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cert.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def interval_residual(problem: ProblemDefinition, extremal: Extremal, k: int) -> float:
    """Support gap of the averaged control-gradient at interval k's control.

    Zero (up to tolerance) certifies <Gbar_k, y - u_k> <= 0 for every y in
    the control set.  Membership of u_k is reported separately by the
    aggregate check, so the gap is evaluated even for inadmissible controls.
    """
    gbar = average_u_gradient(problem, extremal, k)
    return problem.control_set.support_gap(gbar, extremal.controls[k])


def transversality_residual(terminal: TerminalCondition, p_start: np.ndarray,
                            p_end: np.ndarray) -> float:
    """Distance of the adjoint endpoints from the transversality relations.

    Both endpoints prescribed: the conditions carry no information, residual
    is 0.  Prescribed start with free end: ||p(t_f)||.  Periodic:
    ||p(0) - p(t_f)||.
    """
    p_start = np.asarray(p_start, dtype=float)
    p_end = np.asarray(p_end, dtype=float)
    if isinstance(terminal, FixedEndpoints):
        return 0.0
    if isinstance(terminal, FixedInitialFreeFinal):
        return float(np.linalg.norm(p_end))
    if isinstance(terminal, Periodic):
        return float(np.linalg.norm(p_start - p_end))
    raise UnsupportedCase(f"unknown terminal condition {terminal!r}")


def free_time_residual(problem: ProblemDefinition, extremal: Extremal) -> float:
    """|H| at the final time, evaluated with the last frozen control.

    That is the control of the grid's last interval, the one ending at
    ``t_f``: when ``t_f`` sits exactly on a controlling time, no interval
    starts there (see :func:`build_grid`).
    """
    if not isinstance(problem.final_time, FreeTime):
        raise UnsupportedCase("the final-time condition only applies to "
                              "free-final-time problems")
    h_val = problem.hamiltonian(extremal.grid.t_f,
                                extremal.trajectory.final_state,
                                extremal.adjoint.final, extremal.adjoint.p0,
                                extremal.controls[-1])
    return abs(h_val)


def _feasibility_residual(terminal: TerminalCondition, q_start, q_end) -> float:
    if isinstance(terminal, FixedEndpoints):
        return float(np.linalg.norm(np.concatenate([q_start - terminal.q0,
                                                    q_end - terminal.qf])))
    if isinstance(terminal, FixedInitialFreeFinal):
        return float(np.linalg.norm(q_start - terminal.q0))
    return float(np.linalg.norm(q_start - q_end))


def check_certificate(problem: ProblemDefinition, extremal: Extremal) -> Certificate:
    """Verify every necessary condition on ``extremal`` and aggregate a verdict.

    Fails when the multiplier pair is trivial, a control leaves the control
    set, the terminal constraints are violated, or any condition residual
    exceeds ``DEFAULT_TOL``.  Each residual is computed once; for a normal
    extremal it is divided by -p0 before the tolerance test, and the raw
    value is reported alongside.
    """
    tol = DEFAULT_TOL
    p0 = extremal.adjoint.p0
    violations = []

    nontrivial = (np.linalg.norm(extremal.adjoint.final) + abs(p0)) > 0.0
    if not nontrivial:
        violations.append("nontriviality: (p, p0) = (0, 0)")
    if p0 > 0:
        violations.append(f"cost multiplier must be <= 0, got {p0}")

    for k, u in enumerate(extremal.controls.values):
        if not problem.control_set.contains(u):
            violations.append(f"interval {k}: control outside the control set")

    feas = _feasibility_residual(problem.terminal,
                                 extremal.trajectory.initial_state,
                                 extremal.trajectory.final_state)
    if feas > tol:
        violations.append(f"terminal constraints violated: {feas:.3e} > {tol:.1e}")

    # every residual is positively homogeneous in (p, p0)
    scale = -p0 if p0 < 0 else 1.0
    raw_r = np.array([interval_residual(problem, extremal, k)
                      for k in range(extremal.grid.n_intervals)])
    raw_tv = transversality_residual(problem.terminal, extremal.adjoint.initial,
                                     extremal.adjoint.final)
    raw_ft = (free_time_residual(problem, extremal)
              if isinstance(problem.final_time, FreeTime) else None)
    r = raw_r / scale
    tv = raw_tv / scale
    ft = None if raw_ft is None else raw_ft / scale

    for k in np.nonzero(r > tol)[0]:
        violations.append(f"interval {int(k)}: maximization residual "
                          f"{r[k]:.3e} > {tol:.1e}")
    if tv > tol:
        violations.append(f"transversality residual {tv:.3e} > {tol:.1e}")
    if ft is not None and ft > tol:
        violations.append(f"free-time Hamiltonian residual {ft:.3e} > {tol:.1e}")

    return Certificate(
        passed=not violations,
        tol=tol,
        interval_residuals=r,
        interval_times=np.asarray(extremal.grid.times, dtype=float),
        transversality=float(tv),
        free_time=ft,
        feasibility=feas,
        nontrivial=bool(nontrivial),
        violations=tuple(violations),
        raw_interval_residuals=raw_r,
        raw_transversality=float(raw_tv),
        raw_free_time=raw_ft,
    )
