"""Verification of the necessary conditions on a candidate extremal.

Each sampling interval contributes a maximization residual: the support gap
of the averaged control-gradient over the control set, which is zero exactly
when the nonpositive-average-gradient variational inequality holds there.
Boundary conditions contribute a transversality residual, free-final-time
problems a terminal Hamiltonian residual, and the checker also verifies
nontriviality of the multiplier pair and feasibility of the terminal
constraints (a checker must reject infeasible candidates even though the
optimality conditions presuppose admissibility).

Residual magnitudes scale with the multiplier pair, which is only defined up
to a positive factor; the checker therefore rescales normal extremals to the
canonical cost multiplier -1 before applying the tolerance, and reports the
raw residuals alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import UnsupportedCase
from .problem import (FixedEndpoints, FixedInitialFreeFinal, FreeTime,
                      GeneralTerminal, Periodic, ProblemDefinition,
                      TerminalCondition)
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
    return problem.control_set.support_gap(gbar, extremal.controls[k],
                                           check_membership=False)


def transversality_residual(terminal: TerminalCondition, p_start: np.ndarray,
                            p_end: np.ndarray, psi: Optional[np.ndarray] = None,
                            q_start: Optional[np.ndarray] = None,
                            q_end: Optional[np.ndarray] = None) -> float:
    """Distance of the adjoint endpoints from the transversality relations.

    Both endpoints prescribed: the conditions carry no information, residual
    is 0.  Prescribed start with free end: ||p(t_f)||.  Periodic:
    ||p(0) - p(t_f)||.  General terminal data requires the caller to supply
    the multiplier ``psi`` (and the endpoint states for the Jacobians).
    """
    p_start = np.asarray(p_start, dtype=float)
    p_end = np.asarray(p_end, dtype=float)
    if isinstance(terminal, FixedEndpoints):
        return 0.0
    if isinstance(terminal, FixedInitialFreeFinal):
        return float(np.linalg.norm(p_end))
    if isinstance(terminal, Periodic):
        return float(np.linalg.norm(p_start - p_end))
    if isinstance(terminal, GeneralTerminal):
        if psi is None:
            raise UnsupportedCase(
                "general terminal data needs an explicit multiplier psi; the "
                "checker does not search the normal cone")
        if q_start is None or q_end is None:
            raise UnsupportedCase(
                "general terminal data needs the endpoint states to evaluate "
                "the constraint Jacobians")
        psi = np.asarray(psi, dtype=float)
        d1 = np.asarray(terminal.d_start(q_start, q_end), dtype=float)
        d2 = np.asarray(terminal.d_end(q_start, q_end), dtype=float)
        return float(np.linalg.norm(p_start + d1.T @ psi)
                     + np.linalg.norm(p_end - d2.T @ psi))
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
    if isinstance(terminal, Periodic):
        return float(np.linalg.norm(q_start - q_end))
    # general data carries no explicit target-set geometry in v1
    return 0.0


def _condition_residuals(problem: ProblemDefinition, extremal: Extremal,
                         psi=None):
    K = extremal.grid.n_intervals
    r = np.array([interval_residual(problem, extremal, k) for k in range(K)])
    if isinstance(problem.terminal, GeneralTerminal) and psi is None:
        # general terminal data is stored but only verified against an
        # explicitly supplied multiplier; without one it contributes nothing
        tv = 0.0
    else:
        tv = transversality_residual(problem.terminal, extremal.adjoint.initial,
                                     extremal.adjoint.final, psi=psi,
                                     q_start=extremal.trajectory.initial_state,
                                     q_end=extremal.trajectory.final_state)
    ft = None
    if isinstance(problem.final_time, FreeTime):
        ft = free_time_residual(problem, extremal)
    return r, tv, ft


def check_certificate(problem: ProblemDefinition, extremal: Extremal,
                      tol: float = DEFAULT_TOL, psi=None) -> Certificate:
    """Verify every necessary condition on ``extremal`` and aggregate a verdict.

    Fails when the multiplier pair is trivial, a control leaves the control
    set, the terminal constraints are violated, or any condition residual
    exceeds ``tol``.  Normal extremals are rescaled to cost multiplier -1
    before the tolerance test; raw residuals are reported as computed.  For
    general terminal data the transversality relations are verified only
    when the multiplier ``psi`` is supplied.
    """
    p0 = extremal.adjoint.p0
    violations = []

    nontrivial = (np.linalg.norm(extremal.adjoint.final) + abs(p0)) > 0.0
    if not nontrivial:
        violations.append("nontriviality: (p, p0) = (0, 0)")
    if p0 > 0:
        violations.append(f"cost multiplier must be <= 0, got {p0}")

    admissible = extremal.controls.all_admissible(problem.control_set)
    if not admissible:
        for k in range(len(extremal.controls)):
            if not problem.control_set.contains(extremal.controls[k]):
                violations.append(f"interval {k}: control outside the control set")

    feas = _feasibility_residual(problem.terminal,
                                 extremal.trajectory.initial_state,
                                 extremal.trajectory.final_state)
    if feas > tol:
        violations.append(f"terminal constraints violated: {feas:.3e} > {tol:.1e}")

    raw_r, raw_tv, raw_ft = _condition_residuals(problem, extremal, psi)
    if p0 < 0 and p0 != -1.0:
        # psi belongs to the same multiplier family, so it rescales with p
        normalized = extremal.with_adjoint_scaled(1.0 / (-p0))
        psi_n = None if psi is None else np.asarray(psi, dtype=float) / (-p0)
        r, tv, ft = _condition_residuals(problem, normalized, psi_n)
    else:
        r, tv, ft = raw_r, raw_tv, raw_ft

    for k in np.nonzero(r > tol)[0]:
        violations.append(f"interval {int(k)}: maximization residual "
                          f"{r[k]:.3e} > {tol:.1e}")
    if tv > tol:
        violations.append(f"transversality residual {tv:.3e} > {tol:.1e}")
    if ft is not None and ft > tol:
        violations.append(f"free-time Hamiltonian residual {ft:.3e} > {tol:.1e}")

    return Certificate(
        passed=not violations,
        tol=float(tol),
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
